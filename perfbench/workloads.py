"""The four workloads, each driven only through the public API.

Every workload is closed loop with one client: the next timed
operation starts when the previous one returned.  A workload has

* ``build()`` — one set-up: ISA, plant and machine construction,
  compiling and assembling the fixed programs, ``load`` and the
  untimed warm-up that fills caches.  The runner times it as
  ``setup_s``;
* ``steps(state)`` — one timed operation as a list of steps, each a
  call that returns the work units it completed (shots, RB sequences
  or sweep points) after checking the engine and backend that served
  it.  The runner times the steps one by one, so that the host's speed
  is read around each (``perfbench/hostspeed.py``);
* ``verify(state)`` — the checks outside the timed window: agreement
  with an interpreter reference run and simulated-timing identity;
* ``TRACE_OPS`` — the fixed number of operations one arm of the traced
  run executes, so traced counts repeat exactly for a given seed;
* ``traced_arm(state, recorder)`` — those operations with the layers
  wrapped, and their checks.

Why each workload exists, and which layer it loads or bypasses, is in
``BENCHMARK.json`` and ``perfbench/LEDGER.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench.checks import rates_agree, round_rates, timing_mismatches
from perfbench.layers import probes
from perfbench.spans import highest_reportable_percentile, \
    probes_installed

from repro.core.isa import (
    forty_nine_qubit_instantiation,
    seventeen_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.operations import (
    add_rabi_amplitude_operations,
    default_operation_set,
)
from repro.experiments.analysis import fit_rb_decay, logspaced_lengths
from repro.experiments.cfc import CFC_TWO_ROUND_PROGRAM
from repro.experiments.rb_timing import (
    PAPER_ERROR_PER_GATE,
    PAPER_INTERVALS_NS,
    run_rb_at_interval,
)
from repro.experiments.reset import FIG4_PROGRAM
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import DecoherenceModel, GateErrorModel, \
    NoiseModel
from repro.serving import ServiceConfig, SweepService, SweepSpec, \
    execute_point
from repro.workloads.rabi import rabi_step_circuit
from repro.workloads.rb import rb_sequence_circuit
from repro.workloads.surface17 import SURFACE17_Z_ANCILLAS, \
    surface17_circuit
from repro.workloads.surface49 import SURFACE49_Z_ANCILLAS, \
    surface49_circuit


@dataclass
class Tally:
    """Work attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, units: int, problems: list[str]) -> None:
        self.attempted += units
        if problems:
            self.failed += units
            self.fail(problems)

    def fail(self, problems: list[str]) -> None:
        for problem in problems:
            if len(self.problems) < 20:
                self.problems.append(problem)


def _seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 31-bit seeds derived from ``seed``."""
    return [int(child.generate_state(1)[0] >> 1)
            for child in np.random.SeedSequence(seed).spawn(count)]


def _engine_problems(label: str, stats, engine: str, backend: str,
                     shots: int) -> list[str]:
    problems = []
    if stats.engine != engine:
        problems.append(f"{label}: ran on {stats.engine!r}, expected "
                        f"{engine!r} ({stats.fallback_reason})")
    if stats.plant_backend != backend:
        problems.append(f"{label}: plant backend {stats.plant_backend!r},"
                        f" expected {backend!r}")
    if stats.shots_total != shots:
        problems.append(f"{label}: {stats.shots_total} shots delivered "
                        f"of {shots}")
    return problems


class Workload:
    """Shared plumbing; subclasses define the four workloads."""

    name = ""
    #: The workload's own work unit, reported in the stamp as
    #: ``<throughput>`` (units per second); the end-to-end metric is
    #: ``shots_per_s``, so each unit is worth ``SHOTS_PER_UNIT`` shots.
    throughput = ""
    SHOTS_PER_UNIT = 1
    TRACE_OPS = 1
    #: True when the library runs the work in forked worker processes,
    #: whose peak memory counts too.
    FORKED_WORKERS = False

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.tally = Tally()
        #: EngineStats of every run in the current window.
        self.engine_stats: list = []

    def steps(self, state) -> list[Callable[[], int]]:
        raise NotImplementedError

    def operation(self, state) -> int:
        """Run one operation's steps; return the units completed."""
        return sum(step() for step in self.steps(state))

    def run_ops(self, state, count: int) -> float:
        """Run ``count`` operations; return their wall time."""
        start = time.perf_counter()
        for _ in range(count):
            self.operation(state)
        return time.perf_counter() - start

    def traced_arm(self, state, recorder) -> tuple[float, float]:
        """Run ``TRACE_OPS`` operations with every layer wrapped, then
        check them.  Returns the operations' wall time and the traced
        wall time the ledger covers (the same here)."""
        with probes_installed(probes(), recorder):
            seconds = self.run_ops(state, self.TRACE_OPS)
        self.verify(state)
        return seconds, seconds

    def stamp(self) -> dict:
        """Shot counts and sizes for the result stamp."""
        return {}

    def extras(self, state) -> dict[str, float]:
        """Workload-specific per-layer metrics of the traced run."""
        return {}


# ----------------------------------------------------------------------
# feedback_replay and surface_frame: timed run_counts on warm machines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One program a run_counts workload times."""

    label: str
    #: ExperimentSetup.create keyword arguments (ISA, noise).
    setup: Callable[[], dict]
    #: Source of the program: listing text or a circuit factory.
    program: str | Callable
    #: Measured qubits whose per-round rates are compared.
    qubits: tuple[int, ...]
    reference_shots: int


class RunCountsWorkload(Workload):
    """Timed ``QuMAv2.run_counts`` over fixed programs on warm machines,
    checked against a per-shot interpreter reference."""

    TARGETS: tuple[Target, ...] = ()
    ENGINE = ""
    BACKEND = ""
    WARMUP_SHOTS = 256
    #: Shots per program per timed ``run_counts``.
    CHUNK_SHOTS = 4096
    #: Traces drawn from the warm machine after the window, for the
    #: per-round rates and the timing identity.
    SAMPLE_SHOTS = 2000
    TRACE_OPS = 4

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        seeds = _seeds(seed, 2 * len(self.TARGETS))
        self.machine_seeds = seeds[:len(self.TARGETS)]
        self.reference_seeds = seeds[len(self.TARGETS):]
        #: Final reported 1s per qubit, and shots, of the timed runs.
        self.ones = {target.label: {} for target in self.TARGETS}
        self.shots = dict.fromkeys(self.ones, 0)

    def stamp(self) -> dict:
        return {"warmup_shots": self.WARMUP_SHOTS,
                "chunk_shots_per_program": self.CHUNK_SHOTS,
                "reference_shots": {target.label: target.reference_shots
                                    for target in self.TARGETS},
                "sample_shots_per_program": self.SAMPLE_SHOTS}

    @staticmethod
    def _machine(target: Target, seed: int):
        setup = ExperimentSetup.create(seed=seed, **target.setup())
        program = target.program
        setup.machine.load(setup.assemble_text(program)
                           if isinstance(program, str)
                           else setup.compile_circuit(program()))
        return setup.machine

    def build(self):
        machines = []
        for target, seed in zip(self.TARGETS, self.machine_seeds):
            machine = self._machine(target, seed)
            machine.run_counts(self.WARMUP_SHOTS)
            machines.append(machine)
        return machines

    def _run_problems(self, stats) -> list[str]:
        """Engine-specific checks of one timed run."""
        return []

    def steps(self, machines) -> list[Callable[[], int]]:
        return [partial(self._run_target, target, machine)
                for target, machine in zip(self.TARGETS, machines)]

    def _run_target(self, target: Target, machine) -> int:
        label = target.label
        try:
            counts = machine.run_counts(self.CHUNK_SHOTS)
        except Exception as error:  # counted, never fatal
            self.tally.record(self.CHUNK_SHOTS, [f"{label}: {error!r}"])
            return 0
        stats = machine.engine_stats
        self.engine_stats.append(stats)
        problems = _engine_problems(label, stats, self.ENGINE,
                                    self.BACKEND, self.CHUNK_SHOTS)
        problems += [f"{label}: {problem}"
                     for problem in self._run_problems(stats)]
        if counts.shots != self.CHUNK_SHOTS:
            problems.append(f"{label}: folded {counts.shots} shots")
        self.tally.record(self.CHUNK_SHOTS, problems)
        ones = self.ones[label]
        for qubit, count in counts.ones.items():
            ones[qubit] = ones.get(qubit, 0) + count
        self.shots[label] += counts.shots
        return self.CHUNK_SHOTS

    def verify(self, machines) -> None:
        for target, machine, seed in zip(self.TARGETS, machines,
                                         self.reference_seeds):
            problems = self._verify_target(target, machine, seed)
            if problems:
                self.tally.failed = self.tally.attempted
                self.tally.fail(problems)

    def _verify_target(self, target: Target, machine,
                       seed: int) -> list[str]:
        label = target.label
        reference_machine = self._machine(target, seed)
        reference = reference_machine.run(target.reference_shots,
                                          use_replay=False)
        problems = []
        if reference_machine.last_run_engine != "interpreter" or \
                reference_machine.last_plant_backend != self.BACKEND:
            problems.append(f"{label}: reference ran on "
                            f"{reference_machine.last_run_engine} / "
                            f"{reference_machine.last_plant_backend}")
        sample = list(machine.run_iter(self.SAMPLE_SHOTS))
        problems += _engine_problems(f"{label} sample",
                                     machine.engine_stats, self.ENGINE,
                                     self.BACKEND, self.SAMPLE_SHOTS)

        def agree(what, hits, n, ref_hits, ref_n):
            if not rates_agree(hits, n, ref_hits, ref_n):
                problems.append(f"{label}: {what} {hits}/{n} disagrees "
                                f"with the interpreter's {ref_hits}/"
                                f"{ref_n}")

        # Each qubit-round alone, then pooled over all of them: single
        # syndrome rates are small, and only pooled rates have the power
        # to see a wrong overall error rate.  Raw (pre-readout) results
        # isolate the plant's physics from the readout flips.
        pooled = dict.fromkeys(("sample", "reference", "raw_sample",
                                "raw_reference", "timed", "final"), 0)
        bits = 0
        for qubit in target.qubits:
            observed = round_rates(sample, qubit)
            expected = round_rates(reference, qubit)
            if not expected or len(observed) != len(expected):
                problems.append(f"{label}: Q{qubit} measured "
                                f"{len(observed)} times per shot, the "
                                f"interpreter {len(expected)}")
                continue
            for index, (hits, ref_hits) in enumerate(zip(observed,
                                                         expected)):
                agree(f"Q{qubit} measurement {index} rate", hits,
                      len(sample), ref_hits, len(reference))
            # The timed counts keep each qubit's final result.
            timed = self.ones[label].get(qubit, 0)
            agree(f"Q{qubit} final rate of the timed runs", timed,
                  self.shots[label], expected[-1], len(reference))
            bits += len(expected)
            pooled["sample"] += sum(observed)
            pooled["reference"] += sum(expected)
            pooled["raw_sample"] += sum(round_rates(sample, qubit,
                                                    "raw_result"))
            pooled["raw_reference"] += sum(round_rates(reference, qubit,
                                                       "raw_result"))
            pooled["timed"] += timed
            pooled["final"] += expected[-1]
        if bits:
            agree("pooled rate", pooled["sample"], len(sample) * bits,
                  pooled["reference"], len(reference) * bits)
            agree("pooled raw rate", pooled["raw_sample"],
                  len(sample) * bits, pooled["raw_reference"],
                  len(reference) * bits)
            qubits = len(target.qubits)
            agree("pooled final rate of the timed runs", pooled["timed"],
                  self.shots[label] * qubits, pooled["final"],
                  len(reference) * qubits)
        compared, mismatches = timing_mismatches(sample, reference)
        problems += [f"{label}: {mismatch}" for mismatch in mismatches[:3]]
        if compared == 0:
            problems.append(f"{label}: no outcome path in common with "
                            f"the reference")
        return problems


class FeedbackReplay(RunCountsWorkload):
    """Fig. 4 active reset and the two-round CFC program on warm replay
    trees: the timed runs are pure tree walk, splice and fold."""

    name = "feedback_replay"
    throughput = "shots_per_s"
    #: Both programs measure Q2 (twice in CFC); calibrated T1/T2 noise
    #: keeps them on the dense backend.
    TARGETS = (
        Target("active_reset", dict, FIG4_PROGRAM, (2,), 1000),
        Target("cfc", dict, CFC_TWO_ROUND_PROGRAM, (2,), 1000),
    )
    ENGINE = "replay"
    BACKEND = "dense"
    #: Untimed warm-up shots per program: fills the cross-run tree with
    #: every outcome path common enough to matter.
    WARMUP_SHOTS = 1024

    def _run_problems(self, stats) -> list[str]:
        return [] if stats.tree_reused else ["replay tree was not reused"]

    def extras(self, machines) -> dict[str, float]:
        shots = self.shots["active_reset"]
        ones = self.ones["active_reset"].get(2, 0)
        return {"experiments.reset.ground_fraction":
                1.0 - ones / shots if shots else 0.0}


def pauli_noise() -> NoiseModel:
    """Stochastic Pauli gate noise with negligible decoherence: replay
    is blocked and feedback-free Clifford programs take the Pauli-frame
    batch engine."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.001,
                                  two_qubit_error=0.005))


class SurfaceFrame(RunCountsWorkload):
    """Feedback-free surface-17 (2 rounds, 64-bit binary) and surface-49
    (1 round, 192-bit binary) on the Pauli-frame engine."""

    name = "surface_frame"
    throughput = "shots_per_s"
    TARGETS = (
        Target("surface17",
               lambda: dict(isa=seventeen_qubit_instantiation(),
                            noise=pauli_noise()),
               lambda: surface17_circuit(rounds=2, reset=False),
               SURFACE17_Z_ANCILLAS, 480),
        Target("surface49",
               lambda: dict(isa=forty_nine_qubit_instantiation(),
                            noise=pauli_noise()),
               lambda: surface49_circuit(rounds=1, reset=False),
               SURFACE49_Z_ANCILLAS, 240),
    )
    ENGINE = "frame"
    BACKEND = "stabilizer"
    TRACE_OPS = 3

    def _run_problems(self, stats) -> list[str]:
        if stats.frame_batched == self.CHUNK_SHOTS:
            return []
        return [f"frame_batched {stats.frame_batched} != shots"]


# ----------------------------------------------------------------------
# rb_timing
# ----------------------------------------------------------------------
class RBTiming(Workload):
    """The Fig. 12 RB-vs-interval sweep: every sequence a distinct long
    binary, compiled, assembled, loaded and run for one interpreter shot
    on the dense plant.

    One operation is one random sequence at every length at each of the
    paper's five gate intervals.  The intervals cost different amounts
    to simulate (idle channels vanish at back-to-back 20 ns gates), so
    every operation holds all five and operations stay alike.
    """

    name = "rb_timing"
    throughput = "sequences_per_s"
    MAX_LENGTH = 300
    NUM_LENGTHS = 5
    QUBIT = 0
    #: Noiseless sequences whose survival must be exactly 1.
    IDENTITY_SEQUENCES = 3
    IDENTITY_LENGTH = 40

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        plant_seed, sequence_seed, identity_seed = _seeds(seed, 3)
        self.plant_seed = plant_seed
        self.sequence_rng = np.random.default_rng(sequence_seed)
        self.identity_rng = np.random.default_rng(identity_seed)
        self.lengths = logspaced_lengths(self.MAX_LENGTH,
                                         self.NUM_LENGTHS, minimum=2)
        #: interval (ns) -> survival curve of every sequence run there.
        self.curves: dict[int, list[list[float]]] = {}

    def stamp(self) -> dict:
        return {"intervals_ns": list(PAPER_INTERVALS_NS),
                "lengths": list(self.lengths),
                "sequences_per_operation":
                    len(self.lengths) * len(PAPER_INTERVALS_NS),
                "shots_per_sequence": 1}

    def build(self):
        setup = ExperimentSetup.create(seed=self.plant_seed)
        warm = rb_sequence_circuit(4, np.random.default_rng(0),
                                   qubit=self.QUBIT,
                                   num_qubits=self.QUBIT + 1,
                                   include_measurement=False)
        setup.survival_probability(warm, self.QUBIT, interval_cycles=1)
        return setup

    def steps(self, setup) -> list[Callable[[], int]]:
        return [partial(self._run_interval, setup, interval_ns)
                for interval_ns in PAPER_INTERVALS_NS]

    def _run_interval(self, setup, interval_ns: int) -> int:
        units = len(self.lengths)
        try:
            curve = run_rb_at_interval(
                setup, max(1, round(interval_ns / 20)), list(self.lengths),
                1, self.QUBIT, self.sequence_rng)
        except Exception as error:  # counted, never fatal
            self.tally.record(units, [f"{interval_ns} ns: {error!r}"])
            return 0
        problems = []
        if setup.machine.plant.backend_kind != "dense":
            problems.append(f"RB ran on the "
                            f"{setup.machine.plant.backend_kind} backend")
        if not all(0.0 <= value <= 1.0 + 1e-9
                   for value in curve.survivals):
            problems.append(f"survival outside [0, 1] at "
                            f"{interval_ns} ns: {curve.survivals}")
        self.curves.setdefault(interval_ns, []).append(curve.survivals)
        self.tally.record(units, problems)
        return units

    def verify(self, setup) -> None:
        """Noiseless sequences must compose to the identity exactly:
        the whole generate -> compile -> assemble -> load -> execute
        chain is checked against the closed-form answer."""
        noiseless = ExperimentSetup.create(noise=NoiseModel.noiseless(),
                                           plant_backend="dense")
        problems = []
        for _ in range(self.IDENTITY_SEQUENCES):
            circuit = rb_sequence_circuit(
                self.IDENTITY_LENGTH, self.identity_rng, qubit=self.QUBIT,
                num_qubits=self.QUBIT + 1, include_measurement=False)
            interval_ns = int(self.identity_rng.choice(PAPER_INTERVALS_NS))
            survival = noiseless.survival_probability(
                circuit, self.QUBIT, interval_cycles=interval_ns // 20)
            if abs(survival - 1.0) > 1e-9:
                problems.append(f"noiseless RB survival {survival!r} at "
                                f"{interval_ns} ns")
        if noiseless.machine.plant.backend_kind != "dense":
            problems.append("noiseless RB left the dense backend")
        if problems:
            self.tally.failed = self.tally.attempted
            self.tally.fail(problems)

    def extras(self, setup) -> dict[str, float]:
        """Worst relative error of the fitted error per gate against
        the paper's Fig. 12 values, over the intervals run."""
        worst = 0.0
        for interval_ns, curves in self.curves.items():
            fit = fit_rb_decay(list(self.lengths),
                               list(np.mean(curves, axis=0)))
            paper = PAPER_ERROR_PER_GATE[interval_ns]
            worst = max(worst, abs(fit.error_per_gate - paper) / paper)
        return {"experiments.rb.eps_rel_err_max": worst}


# ----------------------------------------------------------------------
# sweep_service
# ----------------------------------------------------------------------
#: Rabi amplitude steps configured in the operation set; a 17th point
#: would fail with ConfigurationError, so sweeps have exactly this many.
RABI_STEPS = 16

#: Ramsey-style scan: two X90 pulses separated by a swept idle delay.
RAMSEY_TEMPLATE = """
SMIS S2, {2}
QWAIT 10000
X90 S2
QWAIT %d
X90 S2
MEASZ S2
QWAIT 50
STOP
"""


def build_sweep_setup() -> ExperimentSetup:
    """The setup factory both sweeps share (inherited by forked
    workers, so it must be a module-level callable)."""
    operations = default_operation_set()
    add_rabi_amplitude_operations(operations, RABI_STEPS,
                                  max_angle=2.0 * math.pi)
    return ExperimentSetup.create(
        isa=two_qubit_instantiation(operations), noise=NoiseModel(),
        seed=0)


def rabi_program(setup: ExperimentSetup, params):
    return setup.compile_circuit(rabi_step_circuit(params["step"],
                                                   qubit=2))


def ramsey_program(setup: ExperimentSetup, params):
    return setup.assemble_text(RAMSEY_TEMPLATE % params["delay"])


class SweepServiceWorkload(Workload):
    """Back-to-back 16-point Rabi-amplitude and Ramsey-delay sweeps
    through SweepService with two workers and an on-disk journal."""

    name = "sweep_service"
    throughput = "points_per_s"
    SHOTS = 200
    SHOTS_PER_UNIT = SHOTS
    WORKERS = 2
    FORKED_WORKERS = True
    TRACE_OPS = 4

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        spec_seed, delay_seed = _seeds(seed, 2)
        self.spec_rng = np.random.default_rng(spec_seed)
        delay_rng = np.random.default_rng(delay_seed)
        self.delays = [int(200 + 400 * step + delay_rng.integers(0, 200))
                       for step in range(RABI_STEPS)]
        #: The sweeps every set-up warms with, so set-ups are alike.
        self.warm_specs = self.specs()
        self.served: list[tuple[SweepSpec, dict]] = []
        self.journal_dir = out_dir / "journals"
        self.sweeps = 0
        #: ServiceStats after the latest sweep (cumulative per service)
        #: and the wall time of every run_sweep so far.
        self.service_stats = None
        self.service_s = 0.0

    def stamp(self) -> dict:
        return {"shots_per_point": self.SHOTS,
                "points_per_sweep": RABI_STEPS,
                "workers": self.WORKERS}

    def specs(self) -> list[SweepSpec]:
        rabi_seed, ramsey_seed = (int(value) for value in
                                  self.spec_rng.integers(1, 2**31, 2))
        return [
            SweepSpec.from_params(
                name=f"rabi-{rabi_seed}", shots=self.SHOTS,
                seed=rabi_seed,
                params=[{"step": step} for step in range(RABI_STEPS)],
                setup_factory=build_sweep_setup,
                program_factory=rabi_program),
            SweepSpec.from_params(
                name=f"ramsey-{ramsey_seed}", shots=self.SHOTS,
                seed=ramsey_seed,
                params=[{"delay": delay} for delay in self.delays],
                setup_factory=build_sweep_setup,
                program_factory=ramsey_program),
        ]

    def build(self):
        service = SweepService(ServiceConfig(
            num_workers=self.WORKERS, shard_size=2, poll_interval_s=0.005,
            drain_timeout_s=10.0))
        # Warm the module-level caches the forked workers inherit.
        setup = build_sweep_setup()
        for spec in self.warm_specs:
            execute_point(setup, spec, spec.point(0))
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        return service

    def steps(self, service) -> list[Callable[[], int]]:
        return [partial(self._run_spec, service, spec)
                for spec in self.specs()]

    def _run_spec(self, service, spec: SweepSpec) -> int:
        self.sweeps += 1
        journal = self.journal_dir / f"sweep-{self.sweeps}.jsonl"
        start = time.perf_counter()
        try:
            result = service.run_sweep(spec, journal_path=journal)
        except Exception as error:  # counted, never fatal
            self.tally.record(spec.num_points, [repr(error)])
            return 0
        finally:
            self.service_s += time.perf_counter() - start
            journal.unlink(missing_ok=True)
            self.service_stats = service.stats_snapshot()
        served = result.counts_by_index()
        self.served.append((spec, served))
        missing = spec.num_points - len(served)
        self.tally.record(spec.num_points - missing, [])
        if missing:
            self.tally.record(missing, [f"{spec.name}: {missing} "
                                        f"points not served"])
        return len(served)

    def traced_arm(self, service, recorder) -> tuple[float, float]:
        """Forked workers would not record into ``recorder``, so the
        sweeps run with only the journal wrapped, and the execution
        layers are traced while :meth:`verify` recomputes the same
        points inline; the traced wall time covers both."""
        with probes_installed(probes(worker_side=False), recorder):
            seconds = self.run_ops(service, self.TRACE_OPS)
        start = time.perf_counter()
        with probes_installed(probes(), recorder):
            self.verify(service)
        return seconds, seconds + time.perf_counter() - start

    def verify(self, service) -> None:
        """Recompute every served point inline through execute_point:
        the serving layer's per-point purity makes the counts
        bit-identical to what any worker computed."""
        setup = build_sweep_setup()
        mismatched = []
        for spec, served in self.served:
            for index in sorted(served):
                counts, stats, _ = execute_point(setup, spec,
                                                 spec.point(index))
                self.engine_stats.append(stats)
                if counts != served[index]:
                    mismatched.append(f"{spec.name} point {index}: served "
                                      f"counts differ from execute_point")
        if mismatched:
            self.tally.failed += len(mismatched)
            self.tally.fail(mismatched)
        self.served.clear()

    def extras(self, service) -> dict[str, float]:
        stats = self.service_stats
        latency = stats.point_latency
        # p90 needs ten points beyond it; a traced run serves 256.
        tail = highest_reportable_percentile(latency.count)
        return {
            "serving.point_exec_ms.p50": latency.percentile(0.50) * 1e3,
            "serving.point_exec_ms.p90":
                latency.percentile(0.90) * 1e3
                if tail is not None and tail >= 90.0 else 0.0,
            "serving.worker_busy_frac":
                latency.total / (self.service_s * self.WORKERS),
            "serving.points.redispatched": stats.points_redispatched,
            "serving.workers.restarts": stats.worker_restarts,
        }

WORKLOADS = {workload.name: workload for workload in
             (FeedbackReplay, SurfaceFrame, RBTiming,
              SweepServiceWorkload)}
