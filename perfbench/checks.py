"""Correctness checks shared by the workloads.

Two kinds.  *Statistical agreement*: a rate from the timed engine and
the same rate from an interpreter reference run must agree within five
standard errors of their difference (a false alarm per comparison is
below 1e-6, so hundreds of comparisons per run stay quiet on a correct
program).  *Simulated-timing identity*: a change that only speeds up
the simulator must leave every simulated statistic identical, so every
outcome path seen by both runs must carry bit-identical triggers,
slips and classical time.
"""

from __future__ import annotations

import math
from typing import Iterable

#: Standard errors two rates may differ by before the check fails.
Z_LIMIT = 5.0


def rates_agree(hits_a: int, n_a: int, hits_b: int, n_b: int) -> bool:
    """Two-proportion test with the pooled variance; equal rates of 0
    or 1 agree trivially."""
    if n_a <= 0 or n_b <= 0:
        return False
    pooled = (hits_a + hits_b) / (n_a + n_b)
    diff = abs(hits_a / n_a - hits_b / n_b)
    sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    return diff <= Z_LIMIT * sigma + 1e-12


def timing_mismatches(traces: Iterable, reference: Iterable) -> tuple[
        int, list[str]]:
    """Compare every trace whose outcome path the reference also took.

    Returns (paths compared, failure messages).  Triggers, slips and
    classical time must match bit for bit.
    """
    by_path = {}
    for trace in reference:
        by_path.setdefault(trace.outcome_path(), trace)
    compared = 0
    failures: list[str] = []
    for trace in traces:
        expected = by_path.get(trace.outcome_path())
        if expected is None:
            continue
        compared += 1
        for field in ("triggers", "slips", "classical_time_ns"):
            if getattr(trace, field) != getattr(expected, field):
                failures.append(
                    f"{field} differ from the interpreter on outcome "
                    f"path {trace.outcome_path()}")
    return compared, failures


def round_rates(traces: list, qubit: int,
                field: str = "reported_result") -> list[int]:
    """Per-round count of 1s on ``qubit`` over ``traces``: reported
    results by default, plant outcomes with ``field="raw_result"``."""
    fired: list[int] = []
    for trace in traces:
        rounds = [getattr(record, field) for record in trace.results
                  if record.qubit == qubit]
        if len(fired) < len(rounds):
            fired.extend([0] * (len(rounds) - len(fired)))
        for index, bit in enumerate(rounds):
            fired[index] += bit
    return fired
