"""Host-speed normalisation of the benchmark's timings.

The measurement host is shared: with no change to the code, its speed
moves by up to 2x between phases that last from under a second to tens
of minutes, and process CPU time moves with wall time, so the drift is
the processor's, not preemption.  A wall-clock rate therefore measures
the host's phase as much as the program.

So every timed step is bracketed by runs of :func:`reference_task`, a
fixed piece of pure-Python and small-array numpy work that touches no
library code.  Its time over :data:`NOMINAL_S` is the host's slowdown
around the step, and the step's wall time divided by that slowdown is
its time on a *nominal host*, one on which the reference task takes
exactly :data:`NOMINAL_S`.  The end-to-end times are in nominal-host
seconds; the wall-clock figures are kept in the result's stamp.

A change to the library cannot move the reference task: it imports
nothing from ``src/``, and it runs with the garbage collector paused so
that the size of the library's heap does not enter its time.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

import numpy as np

#: Reference-task time on the nominal host, in seconds.
NOMINAL_S = 0.005

_MATRIX = np.array([[1.0, 0.5j, 0.0, 0.25],
                    [-0.5j, 1.0, 0.25, 0.0],
                    [0.0, 0.25, 1.0, -0.5j],
                    [0.25, 0.0, 0.5j, 1.0]]) / 2.0


def reference_task() -> int:
    """Fixed work in the mix the workloads run: dict, tuple and list
    churn in the interpreter, then small complex matrix products."""
    table = {}
    for index in range(3500):
        table[(index, index % 7)] = [index, index >> 2]
    total = 0
    for key, value in table.items():
        total += key[0] * value[1] % 13
    ordered = sorted(table, key=lambda key: (key[1], -key[0]))
    state = np.eye(4, dtype=complex)
    for _ in range(350):
        state = _MATRIX @ state @ _MATRIX.conj().T
        state /= np.trace(state)
    return total + len(ordered) + int(abs(state[0, 0]) > 0)


def reference_s() -> float:
    """Wall time of one reference task, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times calls in wall seconds and in nominal-host seconds.

    One reference run follows every timed call and also serves as the
    "before" reading of the next call, so consecutive calls share it.
    """

    def __init__(self):
        reference_s()  # first call pays for lazy set-up
        self._before = reference_s()

    def time(self, call: Callable[[], object]) -> tuple[object, float,
                                                        float]:
        """Run ``call``; return its result, its wall time, and the
        host's slowdown around it (mean reference time / nominal)."""
        start = time.perf_counter()
        result = call()
        wall_s = time.perf_counter() - start
        after = reference_s()
        slowdown = (self._before + after) / (2.0 * NOMINAL_S)
        self._before = after
        return result, wall_s, slowdown
