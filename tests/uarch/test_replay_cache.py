"""Cross-run replay-cache regression tests.

The machine retains saturated timeline trees keyed by (binary words,
noise model, uarch config) so repeated sweeps over one binary reuse the
tree across ``run()`` calls.  The dangerous failure mode is a *stale*
tree: reusing cached probabilities/readout after the noise model or
configuration changed would silently corrupt the emitted distribution —
these tests pin the invalidation behaviour.  The file also covers the
mid-stream :class:`EngineStats` snapshot used by long sweeps, and the
work engine selection does per run once a binary is scanned.
"""

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.core.microcode import MicrocodeUnit
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2, slip_config


def make_machine(noise=None, seed=0, config=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant, config=config)


def load(machine, text):
    machine.load(Assembler(machine.isa).assemble_text(text))


class TestCrossRunTreeReuse:
    def test_second_run_reuses_the_saturated_tree(self):
        """Noiseless active reset saturates its tree in a handful of
        shots; a second run over the same binary must be pure replay —
        zero interpreter shots, segment hits carried across run()."""
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(50)
        first = machine.engine_stats
        assert first.engine == "replay"
        assert not first.tree_reused
        assert first.interpreter_shots > 0

        machine.run(50)
        second = machine.engine_stats
        assert second.tree_reused
        assert second.interpreter_shots == 0
        assert second.replay_shots == 50
        assert second.segment_cache_hits == 50
        assert second.tree_paths == first.tree_paths

    def test_reloading_the_same_binary_still_reuses(self):
        machine = make_machine(seed=3)
        assembled = Assembler(machine.isa).assemble_text(ACTIVE_RESET)
        machine.load(assembled)
        machine.run(40)
        machine.load(assembled)  # e.g. a sweep re-loading per point
        machine.run(40)
        assert machine.engine_stats.tree_reused
        assert machine.engine_stats.interpreter_shots == 0

    def test_noise_model_change_invalidates(self):
        """The stale-cache guard: after swapping in a noiseless model,
        a reused tree would keep sampling the old readout-error rates.
        The key must miss, the tree regrow, and noiseless active reset
        become perfect."""
        machine = make_machine(noise=NoiseModel(), seed=7)
        load(machine, ACTIVE_RESET)
        machine.run(200)
        assert machine.engine_stats.engine == "replay"

        machine.plant.noise = NoiseModel.noiseless()
        traces = machine.run(100)
        stats = machine.engine_stats
        assert not stats.tree_reused
        assert stats.interpreter_shots > 0  # the tree was regrown
        # Noiseless reset is exact; a stale tree would keep emitting
        # ~9.5% readout flips on the final measurement.
        assert all(trace.last_result(2) == 0 for trace in traces)

    def test_config_change_invalidates(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(30)
        machine.config = slip_config(machine.config)
        machine.run(30)
        assert not machine.engine_stats.tree_reused

    def test_different_binary_does_not_reuse(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(30)
        load(machine, """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        STOP
        """)
        machine.run(30)
        assert not machine.engine_stats.tree_reused

    def test_interpreter_runs_leave_the_cache_intact(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(40)
        machine.run(10, use_replay=False)
        assert machine.last_run_engine == "interpreter"
        machine.run(40)
        assert machine.engine_stats.tree_reused
        assert machine.engine_stats.interpreter_shots == 0

    def test_clear_replay_cache_forces_regrowth(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(40)
        machine.clear_replay_cache()
        machine.run(40)
        stats = machine.engine_stats
        assert not stats.tree_reused
        assert stats.interpreter_shots > 0

    def test_clear_replay_cache_also_drops_dataflow_reports(self):
        """The explicit hatch's contract is *no derived state
        survives*: the per-machine dataflow-report LRU (and the live
        report of the loaded binary) must clear alongside the tree
        cache, so a cleared machine re-derives everything from the
        binary words."""
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        report = machine.data_memory_report()
        assert machine._dataflow_cache            # LRU holds the report
        assert machine._data_memory_report is report

        machine.clear_replay_cache()
        assert not machine._dataflow_cache
        assert machine._data_memory_report is None
        # The next request recomputes (a fresh object, same verdict).
        fresh = machine.data_memory_report()
        assert fresh is not report
        assert fresh.cross_run_cacheable == report.cross_run_cacheable

    def test_mock_reinjection_lands_on_the_cached_roots(self):
        """Roots key on the upcoming mock-value window, not cursor
        position: a later injection re-using values already seen lands
        back on the grown roots, so a mock sweep re-injecting per
        run() pays growth only once — and the drained sequence stays
        exact."""
        machine = make_machine(seed=5)
        load(machine, """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        STOP
        """)
        machine.measurement_unit.inject_mock_results(2, [1, 0])
        first = machine.run(2)
        assert [t.last_result(2) for t in first] == [1, 0]
        roots_after_first = machine.engine_stats.tree_roots
        assert machine.engine_stats.interpreter_shots == 2

        machine.measurement_unit.inject_mock_results(2, [0, 1])
        second = machine.run(2)
        assert [t.last_result(2) for t in second] == [0, 1]
        stats = machine.engine_stats
        assert stats.tree_reused
        assert stats.tree_roots == roots_after_first  # same value windows
        assert stats.interpreter_shots == 0           # pure replay now
        assert stats.mock_results_replayed == 2

    def test_load_bearing_program_is_never_cached_across_runs(self):
        """Data memory is the host communication channel: a program
        whose LD steers control flow must re-grow its tree every run(),
        because the host may rewrite the loaded address in between —
        state the (binary, noise, config) cache key cannot see."""
        machine = make_machine(seed=2)
        load(machine, """
        SMIS S0, {0}
        LDI R0, 1
        LDI R1, 32
        LD R2, R1(0)
        CMP R2, R0
        BR EQ, one
        X S0
        BR ALWAYS, join
        one:
        Y S0
        join:
        QWAIT 50
        STOP
        """)

        def applied(traces):
            return [t.name for trace in traces
                    for t in trace.triggers if t.executed]

        first = machine.run(3)
        assert machine.last_run_engine == "replay"  # no ST: replayable
        assert not machine.engine_stats.tree_reused
        assert applied(first) == ["X"] * 3          # memory[32] == 0

        machine.memory.store(32, 1)                 # host flips the knob
        second = machine.run(3)
        assert not machine.engine_stats.tree_reused
        assert applied(second) == ["Y"] * 3         # fresh tree sees it

    def test_experiment_setup_exposes_cache_controls(self):
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create(seed=11)
        assembled = setup.assemble_text(ACTIVE_RESET)
        setup.run_counts(assembled, 40)
        setup.run_counts(assembled, 40)
        assert setup.last_engine_stats.tree_reused
        setup.clear_replay_cache()
        setup.run_counts(assembled, 40)
        assert not setup.last_engine_stats.tree_reused


class TestEngineStatsSnapshot:
    def test_snapshot_mid_stream_is_stable(self):
        """Long sweeps report the engine mix mid-flight: the snapshot
        reflects exactly the shots drawn so far and stays frozen while
        the live stats keep counting."""
        machine = make_machine(noise=NoiseModel(), seed=6)
        load(machine, ACTIVE_RESET)
        iterator = machine.run_iter(50)
        for _ in range(10):
            next(iterator)
        snapshot = machine.engine_stats_snapshot()
        assert snapshot.engine == "replay"
        assert snapshot.shots_total == 10
        assert snapshot.interpreter_shots + snapshot.replay_shots == 10

        remaining = sum(1 for _ in iterator)
        assert remaining == 40
        assert snapshot.shots_total == 10          # frozen
        assert machine.engine_stats.shots_total == 50

        snapshot.shots_total = -1                  # mutating the copy...
        assert machine.engine_stats.shots_total == 50  # ...changes nothing

    def test_frame_snapshot_counts_shots_yielded(self):
        """The frame engine propagates a whole chunk of shots at once,
        but run_iter splices them one at a time: a mid-stream snapshot
        counts exactly the traces yielded, not the chunk."""
        from repro.quantum.noise import DecoherenceModel, GateErrorModel
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
            gate_error=GateErrorModel(single_qubit_error=0.03,
                                      two_qubit_error=0.05))
        machine = make_machine(noise=noise, seed=6)
        load(machine, """
        SMIS S0, {0}
        SMIS S2, {2}
        SMIS S3, {0, 2}
        SMIT T0, {(0, 2)}
        QWAIT 10000
        H S0
        QWAIT 10
        CZ T0
        QWAIT 10
        MEASZ S3
        QWAIT 50
        STOP
        """)
        iterator = machine.run_iter(50)
        for _ in range(10):
            next(iterator)
        snapshot = machine.engine_stats_snapshot()
        assert snapshot.engine == "frame"
        assert snapshot.shots_total == 10
        assert snapshot.frame_batched == 10
        assert snapshot.frame_reference_shots == 1

        assert sum(1 for _ in iterator) == 40
        assert snapshot.shots_total == 10          # frozen
        assert machine.engine_stats.shots_total == 50
        assert machine.engine_stats.frame_batched == 50

    def test_setup_snapshot_during_streaming(self):
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create(seed=9)
        assembled = setup.assemble_text(ACTIVE_RESET)
        mid_flight = []
        for index, _ in enumerate(setup.run_iter(assembled, 30)):
            if index == 14:
                mid_flight.append(setup.engine_stats_snapshot())
        assert len(mid_flight) == 1
        assert mid_flight[0].shots_total == 15
        assert setup.last_engine_stats.shots_total == 30


def count_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` so every call is appended to the returned list."""
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


class TestSelectionWorkCounts:
    """Engine selection reads one per-binary scan, memoised until the
    next load(): once a binary has run, neither the reason queries nor
    a warm cached-replay run translate any operation again, and each
    run selects its plant backend exactly once."""

    def test_reason_queries_after_first_run_translate_nothing(
            self, monkeypatch):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run_counts(50)
        calls = count_calls(monkeypatch, MicrocodeUnit, "translate_name")
        machine.plant_backend_reasons()
        machine.replay_unsupported_reasons()
        machine.frame_batch_unsupported_reasons()
        assert calls == []

    def test_warm_cached_replay_run_translates_nothing(self, monkeypatch):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run_counts(50)
        calls = count_calls(monkeypatch, MicrocodeUnit, "translate_name")
        machine.run_counts(50)
        stats = machine.engine_stats
        assert stats.engine == "replay" and stats.tree_reused
        assert stats.interpreter_shots == 0 and stats.replay_shots == 50
        assert calls == []

    def test_plant_backend_selected_once_per_run(self, monkeypatch):
        calls = count_calls(monkeypatch, QuMAv2, "_select_plant_backend")
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run_counts(50)
        assert len(calls) == 1
        machine.run_counts(50)
        assert len(calls) == 2
