"""The batch result plane: :class:`ShotBatch` and the counts fold.

The engines hand their shots out as :class:`ShotBatch` outcome rows
over frozen templates.  ``run_iter`` splices traces from them lazily and
``run_counts`` folds them straight into :class:`ShotCounts`, so two
contracts are pinned here: the batch fold equals ``ShotCounts.add`` over
the materialised traces (a hypothesis property over generated
templates and rows), and on identically seeded machines ``run_counts``
equals the fold of ``run_iter`` on every engine, with matching
:class:`EngineStats`.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Assembler, two_qubit_instantiation
from repro.experiments.cfc import FIG5_PROGRAM
from repro.experiments.reset import FIG4_PROGRAM
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import FaultPlan, FaultSpec, QuMAv2
from repro.uarch.machine import _FRAME_CHUNK_SHOTS
from repro.uarch.trace import (
    ResultRecord,
    ShotBatch,
    ShotCounts,
    ShotTrace,
    SlipRecord,
)

#: Feedback-free Clifford program: under Pauli gate noise on the
#: stabilizer backend it runs on the Pauli-frame engine.
FRAME_CLIFFORD = """
SMIS S0, {0}
SMIS S2, {2}
SMIS S3, {0, 2}
SMIT T0, {(0, 2)}
QWAIT 10000
H S0
QWAIT 10
CZ T0
QWAIT 10
X90 S2
QWAIT 10
MEASZ S3
QWAIT 50
STOP
"""


# ----------------------------------------------------------------------
# Batch fold == materialise-then-add
# ----------------------------------------------------------------------
@st.composite
def templates(draw):
    """A frozen template: results on a small qubit pool (qubits
    measured several times), on more than 63 qubits (the row-wise
    joint fold), or none at all; zero or more slips."""
    kind = draw(st.sampled_from(("narrow", "wide", "empty")))
    if kind == "narrow":
        qubits = draw(st.lists(st.integers(0, 6), min_size=1,
                               max_size=12))
    elif kind == "wide":
        size = draw(st.integers(64, 70))
        qubits = list(draw(st.permutations(range(size))))
        qubits += draw(st.lists(st.integers(0, size - 1), max_size=6))
    else:
        qubits = []
    results = [ResultRecord(qubit=qubit, raw_result=0, reported_result=0,
                            measure_start_ns=100.0 * index,
                            arrival_ns=100.0 * index + 50.0)
               for index, qubit in enumerate(qubits)]
    slips = [SlipRecord(cycle=cycle, due_ns=20.0 * cycle,
                        actual_ns=20.0 * cycle + late)
             for cycle, late in enumerate(draw(st.lists(
                 st.sampled_from((0.5, 20.0, 140.0)), max_size=3)))]
    return ShotTrace(results=results, slips=slips,
                     instructions_executed=len(qubits) + 3,
                     classical_time_ns=1000.0, stop_reached=True)


@st.composite
def batches(draw):
    """A batch of random outcome rows over one template — as a uint8
    array or as pair lists."""
    template = draw(templates())
    shots = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).integers(
        0, 2, size=(shots, len(template.results), 2), dtype=np.uint8)
    if draw(st.booleans()):
        return ShotBatch(template, rows, "frame")
    listed = [[tuple(pair) for pair in row] for row in rows.tolist()]
    return ShotBatch(template, listed, "replay")


class TestBatchFold:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(batches(), min_size=1, max_size=3))
    def test_batch_fold_equals_add_over_traces(self, stream):
        folded = ShotCounts()
        added = ShotCounts()
        for batch in stream:
            folded.add_batch(batch)
            traces = list(batch.traces())
            assert len(traces) == len(batch)
            for trace in traces:
                added.add(trace)
        assert folded == added
        assert json.dumps(folded.as_dict()) == json.dumps(added.as_dict())

    def test_wide_template_takes_the_row_wise_joint(self):
        qubits = list(range(70)) + [3, 3]
        template = ShotTrace(results=[
            ResultRecord(qubit=qubit, raw_result=0, reported_result=0,
                         measure_start_ns=0.0, arrival_ns=0.0)
            for qubit in qubits])
        rows = np.zeros((5, len(qubits), 2), dtype=np.uint8)
        rows[1:3, :, 1] = 1
        rows[4, 69, 1] = 1
        batch = ShotBatch(template, rows, "frame")
        folded = ShotCounts()
        folded.add_batch(batch)
        added = ShotCounts()
        for trace in batch.traces():
            added.add(trace)
        assert folded == added
        assert len(folded.joint) == 3
        assert folded.ones[69] == 3
        assert folded.measured[3] == 5

    def test_single_trace_batch_folds_the_trace(self):
        trace = ShotTrace(results=[ResultRecord(
            qubit=2, raw_result=1, reported_result=1,
            measure_start_ns=0.0, arrival_ns=0.0)])
        batch = ShotBatch.single(trace)
        assert len(batch) == 1
        assert list(batch.traces()) == [trace]
        assert list(batch.traces())[0] is trace
        counts = ShotCounts()
        counts.add_batch(batch)
        assert counts.ones == {2: 1} and counts.shots == 1


# ----------------------------------------------------------------------
# Engine-level identity: run_counts == fold of run_iter
# ----------------------------------------------------------------------
def dense_machine(program, seed, audit_fraction=0.0, plan=None,
                  mocks=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, audit_fraction=audit_fraction)
    if mocks is not None:
        machine.measurement_unit.inject_mock_results(2, mocks)
    machine.load(Assembler(isa).assemble_text(program))
    if plan is not None:
        machine.arm_faults(plan)
    return machine


def frame_machine(seed):
    isa = two_qubit_instantiation()
    noise = NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.03,
                                  two_qubit_error=0.05))
    plant = QuantumPlant(isa.topology, noise=noise,
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant)
    machine.load(Assembler(isa).assemble_text(FRAME_CLIFFORD))
    return machine


def assert_counts_match_iter(make, shots, **run_kwargs):
    """Fold run_iter on one machine, run_counts on an identical one:
    the aggregates and the engine statistics must be identical."""
    iterated = make()
    expected = ShotCounts()
    for trace in iterated.run_iter(shots, **run_kwargs):
        expected.add(trace)
    counted = make()
    counts = counted.run_counts(shots, **run_kwargs)
    assert counts == expected
    assert json.dumps(counts.as_dict()) == json.dumps(expected.as_dict())
    assert counted.engine_stats.as_dict() == iterated.engine_stats.as_dict()
    assert counted.last_run_engine == iterated.last_run_engine
    return counted.engine_stats


class TestRunCountsMatchesRunIter:
    def test_interpreter(self):
        stats = assert_counts_match_iter(
            lambda: dense_machine(FIG4_PROGRAM, seed=1), 60,
            use_replay=False)
        assert stats.engine == "interpreter"
        assert stats.interpreter_shots == 60

    def test_replay_with_growth(self):
        stats = assert_counts_match_iter(
            lambda: dense_machine(FIG4_PROGRAM, seed=2), 600)
        assert stats.engine == "replay"
        assert stats.interpreter_shots > 0
        assert stats.replay_shots > stats.interpreter_shots

    def test_replay_mock_result_roots(self):
        rounds = 200
        stats = assert_counts_match_iter(
            lambda: dense_machine(FIG5_PROGRAM, seed=3,
                                  mocks=[i % 2 for i in range(rounds)]),
            rounds)
        assert stats.engine == "replay"
        assert stats.mock_results_replayed == stats.replay_shots > 0

    def test_replay_audited(self):
        stats = assert_counts_match_iter(
            lambda: dense_machine(FIG4_PROGRAM, seed=4,
                                  audit_fraction=0.25), 400)
        assert stats.replay_audits > 0
        assert stats.audit_divergences == 0

    def test_replay_audited_with_tree_bitflip(self):
        stats = assert_counts_match_iter(
            lambda: dense_machine(
                FIG4_PROGRAM, seed=5, audit_fraction=0.25,
                plan=FaultPlan([FaultSpec("tree_bitflip", shot=40)],
                               seed=11)), 400)
        assert stats.faults_injected
        assert stats.audit_divergences == 1
        assert stats.degradations

    def test_frame_engine_across_chunks(self):
        shots = _FRAME_CHUNK_SHOTS + 300
        stats = assert_counts_match_iter(lambda: frame_machine(seed=6),
                                         shots)
        assert stats.engine == "frame"
        assert stats.frame_batched == stats.shots_total == shots

    def test_zero_shots_yield_nothing_and_reset_engine_fields(self):
        machine = dense_machine(FIG4_PROGRAM, seed=7)
        for run in (machine.run, lambda n: list(machine.run_iter(n))):
            machine.run(20)
            assert machine.last_run_engine == "replay"
            assert run(0) == []
            assert machine.last_run_engine is None
            assert machine.last_plant_backend is None
            assert machine.engine_stats.shots_total == 0
        machine.run(20)
        assert machine.run_counts(0) == ShotCounts()
        assert machine.last_run_engine is None


# ----------------------------------------------------------------------
# One run record: the machine's run labels are views of EngineStats
# ----------------------------------------------------------------------
#: LD above the only ST to its address: a hard replay blocker.
LIVE_LOAD = """
SMIS S2, {2}
LDI R6, 256
QWAIT 10000
LD R7, R6(0)
ST R0, R6(0)
X90 S2
MEASZ S2
QWAIT 50
STOP
"""

#: 70 measurements per shot exceed the tree's depth cap, so every shot
#: of a replay run is a growth shot.
ALL_GROWTH = """
SMIS S2, {2}
LDI R0, 70
LDI R1, 1
QWAIT 10000
loop:
MEASZ S2
QWAIT 50
SUB R0, R0, R1
CMP R0, R1
BR GE, loop
QWAIT 50
STOP
"""


def frame_machine_with_fault(seed):
    machine = frame_machine(seed)
    machine.arm_faults(FaultPlan([FaultSpec("backend_gate", shot=0)]))
    return machine


def assert_labels_are_engine_stats(machine):
    stats = machine.engine_stats
    assert machine.last_run_engine == stats.engine
    assert machine.replay_fallback_reason == stats.fallback_reason
    assert machine.last_plant_backend == stats.plant_backend
    assert machine.plant_backend_reason == stats.plant_backend_reason


class TestRunRecord:
    @pytest.mark.parametrize("make, shots, engine, has_reason, rung", [
        (lambda: dense_machine(LIVE_LOAD, seed=1), 20, "interpreter",
         True, None),
        (lambda: dense_machine(FIG4_PROGRAM, seed=2), 100, "replay",
         False, None),
        (lambda: dense_machine(ALL_GROWTH, seed=3), 3, "interpreter",
         True, None),
        (lambda: dense_machine(
            FIG4_PROGRAM, seed=5, audit_fraction=0.25,
            plan=FaultPlan([FaultSpec("tree_bitflip", shot=40)],
                           seed=11)), 400, "replay", True,
         "replay -> interpreter"),
        (lambda: frame_machine(seed=6), 50, "frame", False, None),
        (lambda: frame_machine_with_fault(seed=6), 30, "interpreter",
         True, "frame -> interpreter"),
        (lambda: dense_machine(FIG4_PROGRAM, seed=7), 0, None, False,
         None),
    ], ids=["static-blocker", "replay", "all-growth", "audit-divergence",
            "frame", "frame-reference-fault", "zero-shots"])
    def test_labels_are_views_of_engine_stats(self, make, shots, engine,
                                              has_reason, rung):
        machine = make()
        machine.run_counts(shots)
        stats = machine.engine_stats
        assert stats.engine == engine
        assert (stats.fallback_reason is not None) == has_reason
        assert [step.split(":")[0] for step in stats.degradations] == (
            [rung] if rung else [])
        assert_labels_are_engine_stats(machine)

    def test_second_load_rescans_the_binary(self):
        machine = frame_machine(seed=8)
        machine.run_counts(20)
        assert machine.last_run_engine == "frame"
        assert machine.last_plant_backend == "stabilizer"
        assert machine.plant_backend_reasons() == []
        assert machine.frame_batch_unsupported_reasons() == []

        machine.load(Assembler(machine.isa).assemble_text("""
        SMIS S2, {2}
        QWAIT 10000
        T S2
        MEASZ S2
        QWAIT 50
        C_X S2
        STOP
        """))
        assert machine.plant_backend_reasons() == [
            "operation 'T' is not Clifford"]
        assert machine.frame_batch_unsupported_reasons() == [
            "operation 'C_X' executes conditionally (the gate sequence "
            "forks on per-shot outcomes)"]
        machine.run_counts(20)
        assert machine.last_plant_backend == "dense"
        assert machine.plant_backend_reason == (
            "operation 'T' is not Clifford")
        assert_labels_are_engine_stats(machine)
