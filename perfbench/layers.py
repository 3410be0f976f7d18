"""The layer table: which public entry point belongs to which layer,
the per-layer metrics the traced run reports, and the predicted
layer -> end-to-end metric -> workload table.

Every name here is a library entry point wrapped from outside; nothing
in ``src/`` knows it is being traced.  ``propagate_frames`` is wrapped
in the namespace of :mod:`repro.uarch.machine`, because the machine
imports it by name.
"""

from __future__ import annotations

from perfbench.spans import Probe, SpanRecorder, layer_totals, \
    root_time_s

#: The layers, each the span name its wrapped entry points record.
#: Several entry points can share a layer (``assemble_text`` calls
#: ``assemble_program``; both are ``core.assemble``).
LAYERS = (
    "compiler.compile", "core.assemble", "uarch.load", "uarch.interp",
    "uarch.replay.walk", "uarch.replay.grow", "uarch.trace.splice",
    "uarch.trace.fold", "quantum.frame.propagate", "quantum.dense.gate",
    "quantum.dense.channel", "quantum.dense.measure",
    "quantum.tableau.op", "serving.journal.append",
)


def _words(args, kwargs, result) -> int:
    return len(result.words)


def _frame_shots(args, kwargs, result) -> int:
    return int(args[2] if len(args) > 2 else kwargs["shots"])


def probes(worker_side: bool = True) -> list[Probe]:
    """The wrapped entry points.  ``worker_side=False`` leaves the
    execution layers alone and wraps only the service side (the
    journal), for a sweep whose forked workers would otherwise inherit
    the wrappers and record spans nobody collects."""
    import repro.uarch.machine as machine_module
    from repro.core.assembler import Assembler
    from repro.experiments.runner import ExperimentSetup
    from repro.quantum.backend import DenseBackend
    from repro.quantum.stabilizer import StabilizerBackend
    from repro.serving.journal import CheckpointJournal
    from repro.uarch.machine import QuMAv2
    from repro.uarch.replay import TimelineTree
    from repro.uarch.trace import ShotCounts, ShotTrace

    execution = [
        Probe(ExperimentSetup, "compile_circuit", "compiler.compile"),
        Probe(Assembler, "assemble_program", "core.assemble",
              measure=_words),
        Probe(Assembler, "assemble_text", "core.assemble"),
        Probe(QuMAv2, "load", "uarch.load"),
        Probe(QuMAv2, "run_shot", "uarch.interp"),
        Probe(TimelineTree, "sample_shot", "uarch.replay.walk"),
        Probe(TimelineTree, "grow", "uarch.replay.grow"),
        Probe(ShotTrace, "with_sampled_results", "uarch.trace.splice"),
        Probe(ShotCounts, "add", "uarch.trace.fold"),
        Probe(machine_module, "propagate_frames",
              "quantum.frame.propagate", measure=_frame_shots),
        Probe(DenseBackend, "apply_gate", "quantum.dense.gate"),
        Probe(DenseBackend, "apply_gate_error", "quantum.dense.channel"),
        Probe(DenseBackend, "apply_idle", "quantum.dense.channel"),
        Probe(DenseBackend, "measure", "quantum.dense.measure"),
        Probe(DenseBackend, "collapse", "quantum.dense.measure"),
        Probe(DenseBackend, "probability_one", "quantum.dense.measure"),
    ] + [Probe(StabilizerBackend, name, "quantum.tableau.op")
         for name in ("apply_gate", "apply_gate_error", "apply_idle",
                      "measure", "collapse", "probability_one")]
    journal = [
        Probe(CheckpointJournal, "append_point", "serving.journal.append"),
    ]
    return (execution if worker_side else []) + journal


#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("compiler.compile.calls", "count", "lower"),
    ("compiler.compile.self_s", "s", "lower"),
    ("core.assemble.calls", "count", "lower"),
    ("core.assemble_s", "s", "lower"),
    ("core.words", "count", "lower"),
    ("uarch.load.calls", "count", "lower"),
    ("uarch.load_s", "s", "lower"),
    ("uarch.interp.shots", "count", "lower"),
    ("uarch.interp.self_s", "s", "lower"),
    ("uarch.replay.walk.calls", "count", "lower"),
    ("uarch.replay.walk.self_s", "s", "lower"),
    ("uarch.replay.grow.calls", "count", "lower"),
    ("uarch.replay.hit_ratio", "ratio", "higher"),
    ("uarch.trace.splice.calls", "count", "lower"),
    ("uarch.trace.splice_s", "s", "lower"),
    ("uarch.trace.fold.calls", "count", "lower"),
    ("uarch.trace.fold_s", "s", "lower"),
    ("quantum.frame.propagate.calls", "count", "lower"),
    ("quantum.frame.propagate_s", "s", "lower"),
    ("quantum.frame.shots_per_call", "count", "higher"),
    ("quantum.dense.gate.calls", "count", "lower"),
    ("quantum.dense.gate_s", "s", "lower"),
    ("quantum.dense.channel.calls", "count", "lower"),
    ("quantum.dense.channel_s", "s", "lower"),
    ("quantum.dense.measure_s", "s", "lower"),
    ("quantum.tableau.op.calls", "count", "lower"),
    ("quantum.tableau.op_s", "s", "lower"),
    ("serving.journal.append.calls", "count", "lower"),
    ("serving.journal.append_s", "s", "lower"),
    ("serving.point_exec_ms.p50", "ms", "lower"),
    ("serving.point_exec_ms.p90", "ms", "lower"),
    ("serving.worker_busy_frac", "ratio", "higher"),
    ("serving.points.redispatched", "count", "lower"),
    ("serving.workers.restarts", "count", "lower"),
    ("experiments.rb.eps_rel_err_max", "ratio", "lower"),
    ("experiments.reset.ground_fraction", "ratio", "higher"),
    ("bench.tracing_overhead_frac", "ratio", "lower"),
    ("bench.unattributed_s", "s", "lower"),
)

#: The predictions the benchmark was built to test: layer metric ->
#: the workload whose ``shots_per_s`` it should move and a workload it
#: should leave unchanged.  LEDGER.md gives the measured shares.
PREDICTIONS = (
    ("compiler.compile.self_s", "rb_timing", "feedback_replay"),
    ("core.assemble_s", "rb_timing", "feedback_replay"),
    ("uarch.load_s", "rb_timing", "feedback_replay"),
    ("uarch.interp.self_s", "rb_timing", "feedback_replay"),
    ("uarch.replay.walk.self_s", "feedback_replay", "rb_timing"),
    ("uarch.replay.hit_ratio", "sweep_service", "rb_timing"),
    ("uarch.trace.splice_s", "surface_frame", "rb_timing"),
    ("uarch.trace.fold_s", "feedback_replay", "rb_timing"),
    ("quantum.frame.propagate_s", "surface_frame", "feedback_replay"),
    ("quantum.dense.channel_s", "rb_timing", "feedback_replay"),
    ("quantum.tableau.op_s", "surface_frame", "rb_timing"),
    ("serving.journal.append_s", "sweep_service", "surface_frame"),
)


def ledger_metrics(recorder: SpanRecorder, engine_stats: list,
                   traced_wall_s: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    ``engine_stats`` are the :class:`EngineStats` of every run inside
    the traced window; ``traced_wall_s`` is that window's wall time.
    Serving, experiment-accuracy and overhead metrics are added by the
    workload, which alone knows them.
    """
    totals = layer_totals(recorder, LAYERS)
    cached = sum(stats.replay_shots for stats in engine_stats
                 if stats.engine == "replay")
    replay_engine_shots = sum(
        stats.replay_shots + stats.interpreter_shots
        for stats in engine_stats if stats.engine == "replay")
    frame = totals["quantum.frame.propagate"]
    frame_shots = recorder.measures.get("quantum.frame.propagate", 0.0)
    metrics = {
        "compiler.compile.calls": totals["compiler.compile"].calls,
        "compiler.compile.self_s": totals["compiler.compile"].self_s,
        "core.assemble.calls": totals["core.assemble"].calls,
        "core.assemble_s": totals["core.assemble"].self_s,
        "core.words": recorder.measures.get("core.assemble", 0.0),
        "uarch.load.calls": totals["uarch.load"].calls,
        "uarch.load_s": totals["uarch.load"].self_s,
        "uarch.interp.shots": totals["uarch.interp"].calls,
        "uarch.interp.self_s": totals["uarch.interp"].self_s,
        "uarch.replay.walk.calls": totals["uarch.replay.walk"].calls,
        "uarch.replay.walk.self_s": totals["uarch.replay.walk"].self_s,
        "uarch.replay.grow.calls": totals["uarch.replay.grow"].calls,
        "uarch.replay.hit_ratio": (cached / replay_engine_shots
                                   if replay_engine_shots else 0.0),
        "uarch.trace.splice.calls": totals["uarch.trace.splice"].calls,
        "uarch.trace.splice_s": totals["uarch.trace.splice"].self_s,
        "uarch.trace.fold.calls": totals["uarch.trace.fold"].calls,
        "uarch.trace.fold_s": totals["uarch.trace.fold"].self_s,
        "quantum.frame.propagate.calls": frame.calls,
        "quantum.frame.propagate_s": frame.self_s,
        "quantum.frame.shots_per_call": (frame_shots / frame.calls
                                         if frame.calls else 0.0),
        "quantum.dense.gate.calls": totals["quantum.dense.gate"].calls,
        "quantum.dense.gate_s": totals["quantum.dense.gate"].self_s,
        "quantum.dense.channel.calls":
            totals["quantum.dense.channel"].calls,
        "quantum.dense.channel_s": totals["quantum.dense.channel"].self_s,
        "quantum.dense.measure_s": totals["quantum.dense.measure"].self_s,
        "quantum.tableau.op.calls": totals["quantum.tableau.op"].calls,
        "quantum.tableau.op_s": totals["quantum.tableau.op"].self_s,
        "serving.journal.append.calls":
            totals["serving.journal.append"].calls,
        "serving.journal.append_s":
            totals["serving.journal.append"].self_s,
        "bench.unattributed_s": max(
            0.0, traced_wall_s - root_time_s(recorder)),
    }
    return metrics

