"""Execution trace records emitted by the microarchitecture.

The records are the observable behaviour the experiments and tests
consume: which operations actually reached the analog-digital interface
(and when), which were cancelled by fast conditional execution, what
every measurement reported, and how far the timing controller slipped
when the reserve phase fell behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import InvalidRequestError


@dataclass(frozen=True, slots=True)
class TriggerRecord:
    """One micro-operation reaching the fast-conditional-execution unit.

    ``executed`` is False when the selected execution flag read '0' and
    the operation was cancelled.  ``output_ns`` is when the digital
    output left the controller (used for latency measurements).
    """

    name: str
    qubits: tuple[int, ...]
    cycle: int
    trigger_ns: float
    output_ns: float
    executed: bool
    condition: str


@dataclass(frozen=True, slots=True)
class ResultRecord:
    """One measurement result returning to the Central Controller."""

    qubit: int
    raw_result: int        # what the plant projected
    reported_result: int   # after readout assignment error
    measure_start_ns: float
    arrival_ns: float      # when the result entered the controller


@dataclass(frozen=True, slots=True)
class SlipRecord:
    """The timing controller stalled waiting for a late reservation."""

    cycle: int
    due_ns: float
    actual_ns: float

    @property
    def slip_ns(self) -> float:
        """How late the trigger fired relative to the timeline."""
        return self.actual_ns - self.due_ns


@dataclass(slots=True)
class ShotTrace:
    """Everything observed during one shot."""

    triggers: list[TriggerRecord] = field(default_factory=list)
    results: list[ResultRecord] = field(default_factory=list)
    slips: list[SlipRecord] = field(default_factory=list)
    instructions_executed: int = 0
    classical_time_ns: float = 0.0
    stop_reached: bool = False

    def with_sampled_results(
            self, outcomes: list[tuple[int, int]]) -> "ShotTrace":
        """Splice freshly sampled outcomes into this frozen timeline.

        :meth:`ShotBatch.traces` builds each replayed shot from a
        captured template: the timing-domain records (triggers, slips,
        classical time, instruction count) are *shared copy-on-write* — the
        returned trace references the template's own ``triggers`` and
        ``slips`` lists, because only the k-th result record differs
        (rebuilt around the k-th sampled ``(raw, reported)`` pair,
        keeping the template's timing metadata).  The sharing is what
        keeps wide-plant replay off the old splice-bound path: a
        seven-qubit surface-code shot carries hundreds of trigger
        records, and copying them per replayed shot dominated the
        run.  Templates are frozen once captured (the machine binds a
        fresh trace per interpreter shot), so the aliasing is safe;
        treat replayed traces as read-only — mutating their shared
        lists would corrupt every sibling shot of the same path.
        """
        results = [
            ResultRecord(qubit=record.qubit, raw_result=raw,
                         reported_result=reported,
                         measure_start_ns=record.measure_start_ns,
                         arrival_ns=record.arrival_ns)
            for record, (raw, reported)
            in zip(self.results, outcomes, strict=True)]
        return ShotTrace(
            triggers=self.triggers,
            results=results,
            slips=self.slips,
            instructions_executed=self.instructions_executed,
            classical_time_ns=self.classical_time_ns,
            stop_reached=self.stop_reached)

    def outcome_path(self) -> tuple[tuple[int, int], ...]:
        """The shot's (raw, reported) outcome pairs in result order —
        the key the branch-resolved replay tree resolves paths by."""
        return tuple((record.raw_result, record.reported_result)
                     for record in self.results)

    def executed_operations(self) -> list[TriggerRecord]:
        """Triggers that actually drove the ADI (not cancelled)."""
        return [record for record in self.triggers if record.executed]

    def cancelled_operations(self) -> list[TriggerRecord]:
        """Triggers cancelled by fast conditional execution."""
        return [record for record in self.triggers if not record.executed]

    def results_for(self, qubit: int) -> list[ResultRecord]:
        """Measurement results of one qubit, in time order."""
        return [record for record in self.results if record.qubit == qubit]

    def last_result(self, qubit: int) -> int | None:
        """The final reported result of a qubit, or None."""
        records = self.results_for(qubit)
        return records[-1].reported_result if records else None

    def max_slip_ns(self) -> float:
        """Worst timing slippage in the shot (0 when on time)."""
        return max((record.slip_ns for record in self.slips), default=0.0)


@dataclass(slots=True)
class ShotBatch:
    """Consecutive shots of one run, held as outcome rows over one
    frozen timeline template — the execution engines' one result type.

    Row ``i`` is a shot that followed ``template`` and whose
    measurements returned ``rows[i]``: one ``(raw, reported)`` pair per
    result record of the template, in result order.  ``rows`` is a
    ``(shots, results, 2)`` uint8 array when a vectorised engine
    produced it or a list of pair lists when it was built shot by shot.
    ``rows`` is None for a batch of one shot whose template *is* its
    trace (an interpreter shot).  ``engine`` names the engine that
    served the shots ("interpreter", "replay" or "frame").

    Batches are read-only once built (not frozen, because a frozen
    dataclass costs a microsecond more per construction and the replay
    engine builds one per cached shot).  A batch never materialises a
    :class:`ShotTrace` by itself: :meth:`traces` splices them lazily
    for the consumers that want one, and :meth:`ShotCounts.add_batch`
    folds the rows directly.
    """

    template: ShotTrace
    rows: np.ndarray | Sequence | None
    engine: str

    @classmethod
    def single(cls, trace: ShotTrace,
               engine: str = "interpreter") -> "ShotBatch":
        """A batch of one shot that carries its own complete trace."""
        return cls(trace, None, engine)

    def __len__(self) -> int:
        return 1 if self.rows is None else len(self.rows)

    def traces(self) -> Iterator[ShotTrace]:
        """The batch's shots as traces, spliced one at a time."""
        rows = self.rows
        if rows is None:
            return iter((self.template,))
        if isinstance(rows, np.ndarray):
            rows = map(zip, rows[:, :, 0].tolist(), rows[:, :, 1].tolist())
        return map(self.template.with_sampled_results, rows)


def _final_columns(template: ShotTrace) -> tuple[list[int], list[int]]:
    """The measured qubits of a template in ascending order, and the
    result column holding each one's final result."""
    last: dict[int, int] = {}
    for column, record in enumerate(template.results):
        last[record.qubit] = column
    qubits = sorted(last)
    return qubits, [last[qubit] for qubit in qubits]


@dataclass(slots=True)
class ShotCounts:
    """Streaming aggregate over many shots — O(qubits) memory.

    High-shot callers (excited fractions, outcome histograms) do not
    need every :class:`ShotTrace`: :meth:`add` folds one trace and
    :meth:`add_batch` folds a whole :class:`ShotBatch` of outcome rows
    without building a trace per shot, so memory stays flat (one batch
    at a time) no matter the shot count.  Only the *final* result of
    each qubit per shot is aggregated, matching
    :func:`repro.experiments.runner.excited_fraction`.  Folding a batch
    gives exactly the aggregate that adding its spliced traces one by
    one would.
    """

    shots: int = 0
    ones: dict[int, int] = field(default_factory=dict)
    measured: dict[int, int] = field(default_factory=dict)
    #: Joint histogram: sorted ((qubit, bit), ...) of final results.
    joint: dict[tuple[tuple[int, int], ...], int] = field(
        default_factory=dict)
    total_slips: int = 0
    max_slip_ns: float = 0.0
    #: Reused per-shot scratch buffer (qubit -> last reported result),
    #: preallocated once so 10k+-shot runs do not churn a dict per shot.
    _last: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, trace: ShotTrace) -> None:
        """Fold one shot into the aggregate."""
        last = self._last
        last.clear()
        for record in trace.results:
            last[record.qubit] = record.reported_result
        self._fold_last(trace)

    def _fold_last(self, template: ShotTrace) -> None:
        """Fold one shot whose final results are in ``self._last`` and
        whose timing follows ``template``."""
        self.shots += 1
        last = self._last
        for qubit, bit in last.items():
            self.measured[qubit] = self.measured.get(qubit, 0) + 1
            if bit:
                self.ones[qubit] = self.ones.get(qubit, 0) + 1
        if last:
            key = tuple(sorted(last.items()))
            self.joint[key] = self.joint.get(key, 0) + 1
        slips = template.slips
        if slips:
            self.total_slips += len(slips)
            slip = template.max_slip_ns()
        else:
            slip = 0.0
        if slip > self.max_slip_ns:
            self.max_slip_ns = slip

    def add_batch(self, batch: ShotBatch) -> None:
        """Fold every shot of a batch straight from its outcome rows.

        An array batch is folded column-wise: each qubit's final result
        is a fixed column of the template, so ``ones``/``measured`` are
        column sums and the joint histogram is an ``np.unique`` over the
        rows' final bits packed into one uint64 (a row-wise
        ``np.unique`` when more than 63 qubits are measured).  Slips are
        the template's own, once per row.  List rows fold one at a
        time; a batch without rows folds its trace.
        """
        rows = batch.rows
        template = batch.template
        if rows is None:
            self.add(template)
            return
        if not isinstance(rows, np.ndarray):
            last = self._last
            for row in rows:
                last.clear()
                for record, pair in zip(template.results, row):
                    last[record.qubit] = pair[1]
                self._fold_last(template)
            return
        shots = len(rows)
        if not shots:
            return
        self.shots += shots
        self.total_slips += shots * len(template.slips)
        slip = template.max_slip_ns()
        if slip > self.max_slip_ns:
            self.max_slip_ns = slip
        qubits, columns = _final_columns(template)
        if not qubits:
            return
        bits = rows[:, columns, 1]
        for qubit, ones in zip(qubits, bits.sum(axis=0).tolist()):
            self.measured[qubit] = self.measured.get(qubit, 0) + shots
            if ones:
                self.ones[qubit] = self.ones.get(qubit, 0) + ones
        width = len(qubits)
        if width <= 63:
            shifts = np.arange(width, dtype=np.uint64)
            packed, counts = np.unique(
                bits.astype(np.uint64) @ (np.uint64(1) << shifts),
                return_counts=True)
            distinct = ((packed[:, None] >> shifts) & np.uint64(1))
        else:
            distinct, counts = np.unique(bits, axis=0, return_counts=True)
        joint = self.joint
        for row, count in zip(distinct.tolist(), counts.tolist()):
            key = tuple(zip(qubits, row))
            joint[key] = joint.get(key, 0) + count

    def excited_fraction(self, qubit: int) -> float:
        """Fraction of shots whose last result on ``qubit`` was 1."""
        measured = self.measured.get(qubit, 0)
        if not measured:
            raise InvalidRequestError(
                f"no measurement results for qubit {qubit}")
        return self.ones.get(qubit, 0) / measured

    def ground_fraction(self, qubit: int) -> float:
        """Fraction of shots whose last result on ``qubit`` was 0."""
        return 1.0 - self.excited_fraction(qubit)

    def outcome_counts(self, qubit_a: int, qubit_b: int) -> dict[int, int]:
        """Two-bit outcome histogram over shots (qubit_a = MSB)."""
        counts: dict[int, int] = {}
        for key, count in self.joint.items():
            bits = dict(key)
            if qubit_a not in bits or qubit_b not in bits:
                continue
            outcome = (bits[qubit_a] << 1) | bits[qubit_b]
            counts[outcome] = counts.get(outcome, 0) + count
        return counts

    # ------------------------------------------------------------------
    # Serialization (the serving layer's checkpoint journal)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-ready representation of the aggregate.

        The round trip through :meth:`from_dict` is exact — the
        serving layer's checkpoint journal relies on it to prove a
        resumed sweep bit-identical to an uninterrupted one.  Joint
        keys are emitted in sorted order so identical aggregates
        serialize to identical JSON (the journal's integrity digests
        compare byte-for-byte).
        """
        return {
            "shots": self.shots,
            "ones": {str(q): c for q, c in sorted(self.ones.items())},
            "measured": {str(q): c
                         for q, c in sorted(self.measured.items())},
            "joint": [
                [[[q, bit] for q, bit in key], count]
                for key, count in sorted(self.joint.items())
            ],
            "total_slips": self.total_slips,
            "max_slip_ns": self.max_slip_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShotCounts":
        """Rebuild an aggregate from :meth:`as_dict` output."""
        counts = cls(
            shots=int(payload["shots"]),
            ones={int(q): int(c)
                  for q, c in payload.get("ones", {}).items()},
            measured={int(q): int(c)
                      for q, c in payload.get("measured", {}).items()},
            total_slips=int(payload.get("total_slips", 0)),
            max_slip_ns=float(payload.get("max_slip_ns", 0.0)),
        )
        for key, count in payload.get("joint", []):
            counts.joint[tuple((int(q), int(bit))
                               for q, bit in key)] = int(count)
        return counts
