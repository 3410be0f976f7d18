"""Measurement discrimination unit (Fig. 9, right).

Responsibilities:

* when a measurement device operation triggers, start the readout on
  the plant (projective collapse at measurement start, busy for the
  full integration window);
* apply the classical assignment error of the discrimination
  electronics to the reported bit;
* deliver the result back to the Central Controller after the
  integration window plus the digital-link transport latency —
  the machine then updates the Q register (CFC) and the execution
  flags (fast conditional execution);
* optionally *inject mock results* per qubit, reproducing the paper's
  CFC verification where "the UHFQC is programmed to generate
  alternative mock measurement results" without touching real qubits.

Mock queues are held as lists with a **cursor** per qubit rather than
destructively popped deques: consuming a mock just advances the cursor
(injection compacts the consumed prefix).  That makes the queues
*replayable* — the branch-resolved engine fingerprints the upcoming
value window at the start of a shot (:meth:`MeasurementUnit.mock_view`),
peeks the values a cached tree walk would consume without touching the
real cursors, and commits the consumption only when the walk completes.
A growth (interpreter) shot consumes the cursors naturally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigurationError
from repro.quantum.plant import QuantumPlant
from repro.uarch.config import UarchConfig


@dataclass(frozen=True)
class PendingResult:
    """A measurement in flight: the result and when it arrives."""

    qubit: int
    raw_result: int
    reported_result: int
    measure_start_ns: float
    arrival_ns: float


class MockCursorView:
    """A walk-local, uncommitted view of the mock queues.

    The branch-resolved replay engine creates one per shot *before*
    walking the timeline tree.  ``fingerprint`` keys the tree root:
    two shots with the same fingerprint see identical mocked/unmocked
    behaviour along every cached path (see
    :meth:`MeasurementUnit.mock_fingerprint`).  ``peek`` yields the
    values the walk's mocked measurements would consume, tracking a
    local offset per qubit so repeated measurements of one qubit read
    successive queue entries; nothing is consumed until ``commit`` —
    which the engine calls only when the walk served a complete cached
    shot (a miss falls back to an interpreter shot that consumes the
    real cursors itself).
    """

    __slots__ = ("_unit", "_offsets", "fingerprint")

    def __init__(self, unit: "MeasurementUnit", clamp: int,
                 fingerprint: tuple | None = None):
        self._unit = unit
        self._offsets: dict[int, int] = {}
        # The replay engine passes the epoch-cached fingerprint when
        # the queues have not changed since the last shot, skipping
        # the per-shot dict walk and window slicing.
        self.fingerprint = fingerprint if fingerprint is not None \
            else unit.mock_fingerprint(clamp)

    def peek(self, qubit: int) -> int | None:
        """Next unconsumed-by-this-walk mock value, or None."""
        offset = self._offsets.get(qubit, 0)
        value = self._unit.peek_mock(qubit, offset)
        if value is not None:
            self._offsets[qubit] = offset + 1
        return value

    @property
    def consumed(self) -> int:
        """Mock values this walk has peeked so far."""
        return sum(self._offsets.values())

    def commit(self) -> None:
        """Advance the real cursors by everything the walk consumed."""
        for qubit, count in self._offsets.items():
            self._unit.advance_mock_cursor(qubit, count)


class _EmptyMockView:
    """Shared no-mock view — keeps the hot replay path allocation-free."""

    fingerprint: tuple = ()
    consumed: int = 0

    def peek(self, qubit: int) -> None:
        return None

    def commit(self) -> None:
        return None


_EMPTY_MOCK_VIEW = _EmptyMockView()


class MeasurementUnit:
    """Models the UHFQCs plus the result path into the controller."""

    def __init__(self, plant: QuantumPlant, config: UarchConfig,
                 measurement_duration_cycles: int = 15):
        self.plant = plant
        self.config = config
        self.measurement_duration_cycles = measurement_duration_cycles
        self._mock_results: dict[int, list[int]] = {}
        self._mock_cursor: dict[int, int] = {}
        #: Bumped on every mock-queue mutation (injection, clearing,
        #: cursor movement).  :meth:`mock_view` keys its fingerprint
        #: cache on it, so the per-shot replay loop only rebuilds the
        #: fingerprint when the queues actually changed — and pays a
        #: single integer comparison when no mocks are active at all.
        self._mock_epoch = 0
        self._view_cache: tuple[int, int, tuple | None] | None = None
        self._forced_results: deque[tuple[int, int]] = deque()
        #: Optional hook called as ``observer(qubit, start_ns, value)``
        #: whenever a mock result is consumed — the replay engine's
        #: growth shots record mocked segment boundaries through this
        #: (the plant's ``measure_observer`` cannot see them: mocked
        #: measurements never touch the plant).
        self.mock_observer = None
        #: Armed :class:`~repro.uarch.faults.FaultPlan` (None in
        #: production) — set by :meth:`QuMAv2.arm_faults`.
        self.fault_plan = None

    # ------------------------------------------------------------------
    # Mock-result injection (CFC verification, Section 5)
    # ------------------------------------------------------------------
    def inject_mock_results(self, qubit: int, results) -> None:
        """Queue mock results for a qubit; they are consumed in order.

        While mock results remain queued for a qubit, measuring it does
        not involve the plant at all (the UHFQC fabricates the bit).
        """
        results = list(results)
        for result in results:
            if result not in (0, 1):
                raise ConfigurationError(f"mock result {result} not a bit")
        queue = self._mock_results.setdefault(qubit, [])
        # Drop the consumed prefix so long-lived machines re-injecting
        # per run() do not grow the list without bound.
        cursor = self._mock_cursor.get(qubit, 0)
        if cursor:
            del queue[:cursor]
        self._mock_cursor[qubit] = 0
        queue.extend(results)
        self._mock_epoch += 1

    def has_mock_results(self, qubit: int) -> bool:
        """Whether fabricated results remain queued for a qubit."""
        return self.remaining_mock_results(qubit) > 0

    def remaining_mock_results(self, qubit: int) -> int:
        """How many fabricated results are still queued for a qubit."""
        queue = self._mock_results.get(qubit)
        if not queue:
            return 0
        return len(queue) - self._mock_cursor.get(qubit, 0)

    def has_any_mock_results(self) -> bool:
        """Whether fabricated results remain queued for *any* qubit
        (the Pauli-frame engine's eligibility pass: draining queues
        make consecutive shots observe different values)."""
        return any(self.remaining_mock_results(qubit) > 0
                   for qubit in self._mock_results)

    def clear_mock_results(self) -> None:
        """Drop all fabricated results (start of a fresh experiment)."""
        self._mock_results.clear()
        self._mock_cursor.clear()
        self._mock_epoch += 1

    # ------------------------------------------------------------------
    # Mock cursors (branch-resolved replay of mocked programs)
    # ------------------------------------------------------------------
    def peek_mock(self, qubit: int, offset: int = 0) -> int | None:
        """The mock value ``offset`` entries past the cursor, or None."""
        queue = self._mock_results.get(qubit)
        if not queue:
            return None
        index = self._mock_cursor.get(qubit, 0) + offset
        return queue[index] if index < len(queue) else None

    def advance_mock_cursor(self, qubit: int, count: int) -> None:
        """Consume ``count`` mock values without producing them.

        Called by the replay engine after a cached tree walk: the walk
        already put the peeked values into the shot's outcome row, so
        the queue must drain exactly as if the interpreter had run.
        """
        remaining = self.remaining_mock_results(qubit)
        if count > remaining:
            raise ConfigurationError(
                f"cannot advance mock cursor of qubit {qubit} by {count}: "
                f"only {remaining} results remain")
        if count:
            self._mock_cursor[qubit] = \
                self._mock_cursor.get(qubit, 0) + count
            self._mock_epoch += 1

    def mock_fingerprint(self, clamp: int) -> tuple:
        """Key of the replay-tree root the current cursor state selects.

        Two shots may share cached timeline segments only if every
        measurement along a path is mocked/unmocked identically *and*
        fabricates the same bits.  One shot consumes at most ``clamp``
        mock results per qubit (the caller bounds it by the tree depth
        cap or a static per-shot measurement count), so the next
        ``min(remaining, clamp)`` queued *values* per qubit pin the
        shot's entire mocked behaviour: a window shorter than ``clamp``
        additionally encodes where the queue runs dry.  Keying by the
        value window (not cursor position) lets a long draining queue
        (e.g. 2000 alternating CFC results) map thousands of cursor
        states onto a couple of shared roots — and a later re-injection
        of the same pattern lands back on the same roots, so cross-run
        cached trees keep paying off.  With no active mocks the
        fingerprint is ``()``: such shots are indistinguishable from
        unmocked ones and share the plain root.
        """
        active = []
        for qubit in sorted(self._mock_results):
            queue = self._mock_results[qubit]
            cursor = self._mock_cursor.get(qubit, 0)
            if cursor >= len(queue):
                continue
            active.append(
                (qubit, tuple(queue[cursor:cursor + clamp])))
        return tuple(active)

    def mock_view(self, clamp: int) -> MockCursorView | _EmptyMockView:
        """Per-shot cursor view for a replay walk (see
        :class:`MockCursorView`); a shared empty view when no mock
        results are active.

        The fingerprint (and the are-any-mocks-active walk) is cached
        against the mock-queue *epoch*: the replay shot loop calls this
        once per shot, but the queues only change when a cached walk
        commits consumption or the caller injects/clears — every other
        shot reuses the cached fingerprint, and mock-free runs reduce
        to one integer comparison per shot.
        """
        cache = self._view_cache
        if cache is not None and cache[0] == self._mock_epoch and \
                cache[1] == clamp:
            fingerprint = cache[2]
            if fingerprint is None:
                return _EMPTY_MOCK_VIEW
            return MockCursorView(self, clamp, fingerprint=fingerprint)
        if not any(self.remaining_mock_results(qubit)
                   for qubit in self._mock_results):
            self._view_cache = (self._mock_epoch, clamp, None)
            return _EMPTY_MOCK_VIEW
        view = MockCursorView(self, clamp)
        self._view_cache = (self._mock_epoch, clamp, view.fingerprint)
        return view

    # ------------------------------------------------------------------
    # Forced outcomes (branch-resolved replay growth shots)
    # ------------------------------------------------------------------
    def force_results(self, outcomes) -> None:
        """Queue ``(raw, reported)`` pairs for the next measurements.

        Unlike mock results, forced results are *per shot* and keyed by
        measurement order, not qubit: the k-th measurement of the shot
        collapses the plant onto ``raw`` and reports ``reported``.  The
        replay engine uses this to drive an interpreter shot down an
        already-sampled outcome prefix; once the queue drains, sampling
        continues with fresh randomness.  On a measurement served by a
        mock queue the mock wins (it models the UHFQC's programming and
        must drain): the forced pair for that measurement is consumed
        to keep the order-based alignment, but the mock value is what
        is reported — the replay engine only ever forces the value it
        peeked from the same queue, so the two always agree.
        """
        for raw, reported in outcomes:
            if raw not in (0, 1) or reported not in (0, 1):
                raise ConfigurationError(
                    f"forced outcome ({raw}, {reported}) is not a bit "
                    f"pair")
            self._forced_results.append((raw, reported))

    def clear_forced_results(self) -> None:
        """Drop any unconsumed forced outcomes (end of a growth shot)."""
        self._forced_results.clear()

    # ------------------------------------------------------------------
    # Measurement execution
    # ------------------------------------------------------------------
    def measurement_duration_ns(self) -> float:
        """Integration window length in nanoseconds."""
        return self.measurement_duration_cycles * self.config.quantum_cycle_ns

    def start_measurement(self, qubit: int,
                          start_ns: float) -> PendingResult:
        """Begin a readout at ``start_ns``; returns the in-flight result.

        The arrival time is ``start + integration + transport``; the
        caller schedules the Q-register/flag updates at that time.
        """
        duration = self.measurement_duration_ns()
        plan = self.fault_plan
        if (plan is not None and self._mock_results and
                plan.fire("mock_exhaust", qubit=qubit)):
            # The UHFQC's fabricated-result program dies: every queued
            # mock vanishes and this (and all later) measurements fall
            # through to the real plant.  The epoch bump makes replay
            # fingerprints rebuild, so cached mocked roots simply stop
            # matching — no structural damage.
            self.clear_mock_results()
        if self.has_mock_results(qubit):
            cursor = self._mock_cursor.get(qubit, 0)
            raw = self._mock_results[qubit][cursor]
            self._mock_cursor[qubit] = cursor + 1
            self._mock_epoch += 1
            reported = raw  # mock results bypass the analog chain
            if self._forced_results:
                # Keep the order-based forced queue aligned; the mock
                # value wins (see force_results).
                self._forced_results.popleft()
            if self.mock_observer is not None:
                self.mock_observer(qubit, start_ns, raw)
        elif self._forced_results:
            raw, reported = self._forced_results.popleft()
            self.plant.measure(qubit, start_ns, duration, forced=raw)
        else:
            raw = self.plant.measure(qubit, start_ns, duration)
            reported = self.plant.noise.readout.apply(raw, self.plant.rng)
        arrival = start_ns + duration + self.config.result_transport_ns
        return PendingResult(qubit=qubit, raw_result=raw,
                             reported_result=reported,
                             measure_start_ns=start_ns, arrival_ns=arrival)
