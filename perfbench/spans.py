"""Span recording around wrapped layer entry points.

A :class:`SpanRecorder` keeps every span in memory as four parallel
integer arrays (name id, start ns, end ns, parent index) filled from a
nesting stack, so a span costs two clock reads and four appends.  A
:class:`Probe` names one attribute (a method on a class, or a function
in a module namespace) to wrap while the recorder is active;
:func:`probes_installed` installs a list of probes and puts every
original attribute back on exit, whatever happens inside.

Self time is a span's duration minus the time its child spans cover.
The recorder is single-threaded and strictly nested (:meth:`close`
raises on a span closed out of order), so a span's children are
disjoint intervals inside it and their cover is the sum of their
durations.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterator, Sequence

import numpy as np

#: Every metric name the benchmark prints must match this pattern.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Marker attribute set on every wrapper, so a run can prove that no
#: wrapped code is live before it starts timing.
PROBE_MARK = "__perfbench_probe__"


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ``ValueError`` when it does
    not match :data:`METRIC_NAME`."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


#: The percentiles a tail is reported at, lowest first.
REPORTABLE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def highest_reportable_percentile(samples: int) -> float | None:
    """The highest of :data:`REPORTABLE_PERCENTILES` with at least ten
    samples beyond it, or None when even the lowest has fewer.

    ``p`` leaves ``samples * (1 - p/100)`` samples above it; a tail
    percentile resting on fewer than ten samples is noise.
    """
    best = None
    for percentile in REPORTABLE_PERCENTILES:
        beyond = samples * (1.0 - percentile / 100.0)
        if beyond >= 10.0 - 1e-9:
            best = percentile
    return best


class SpanRecorder:
    """In-memory span ledger filled by wrappers from a nesting stack."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        #: Per-span-name sums of the probes' ``measure`` values.
        self.measures: dict[str, float] = {}

    def intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self.names.append(name)
            self._name_ids[name] = name_id
        return name_id

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {index} closed while span {popped} was open")

    def record(self, name: str, start: int, end: int,
               parent: int = -1) -> int:
        """Append a finished span directly (tests and offline use)."""
        index = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return index

    def add_measure(self, name: str, value: float) -> None:
        self.measures[name] = self.measures.get(name, 0.0) + value

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32)}

    def save(self, path) -> None:
        """Write the ledger out as a compressed ``.npz`` (span arrays
        plus the name table and the measures)."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=object).astype(str),
            measure_names=np.array(list(self.measures), dtype=str),
            measure_values=np.array(list(self.measures.values()),
                                    dtype=float),
            **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Self time (ns) of every span: its duration minus the summed
    durations of its children."""
    duration = (np.asarray(end, dtype=np.int64) -
                np.asarray(start, dtype=np.int64))
    parent = np.asarray(parent, dtype=np.int64)
    children = parent >= 0
    covered = np.zeros(len(duration), dtype=np.int64)
    np.add.at(covered, parent[children], duration[children])
    return duration - covered


@dataclass(frozen=True)
class LayerTotals:
    """A layer's share of a ledger."""

    #: Outermost calls: spans of the layer whose parent is not of it.
    calls: int
    #: Summed self time of every span of the layer, in seconds.
    self_s: float


def layer_totals(recorder: SpanRecorder,
                 layers: Sequence[str]) -> dict[str, LayerTotals]:
    """Aggregate a ledger by layer (a layer is a span name)."""
    data = recorder.arrays()
    own = self_times(data["start_ns"], data["end_ns"], data["parent"])
    name_ids = data["name_id"].astype(np.int64)
    parent = data["parent"].astype(np.int64)
    parent_name = np.full(len(parent), -1, dtype=np.int64)
    nested = parent >= 0
    parent_name[nested] = name_ids[parent[nested]]
    totals = {}
    for layer in layers:
        name_id = recorder._name_ids.get(layer, -2)
        mine = name_ids == name_id
        totals[layer] = LayerTotals(
            calls=int(np.count_nonzero(mine & (parent_name != name_id))),
            self_s=float(own[mine].sum()) / 1e9)
    return totals


def root_time_s(recorder: SpanRecorder) -> float:
    """Summed duration of the spans with no parent, in seconds."""
    data = recorder.arrays()
    roots = data["parent"] < 0
    return float((data["end_ns"][roots] - data["start_ns"][roots]).sum()) \
        / 1e9


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner.attr`` becomes a span ``span``.

    ``measure(args, kwargs, result)`` optionally returns a number that
    is summed per span name (instruction words assembled, shots per
    frame batch).
    """

    owner: object
    attr: str
    span: str
    measure: Callable | None = None


def _wrap(function: Callable, recorder: SpanRecorder,
          probe: Probe) -> Callable:
    name_id = recorder.intern(probe.span)
    measure = probe.measure
    open_span = recorder.open
    close_span = recorder.close

    if measure is None:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)
    else:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(index)
            recorder.add_measure(probe.span,
                                 measure(args, kwargs, result))
            return result
    setattr(wrapper, PROBE_MARK, probe.span)
    return wrapper


def is_wrapped(probe: Probe) -> bool:
    return hasattr(getattr(probe.owner, probe.attr), PROBE_MARK)


@contextmanager
def probes_installed(probes: Sequence[Probe],
                     recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every probe's attribute for the duration of the block.

    The original attribute objects are captured from the owner's own
    ``__dict__`` (so descriptors are restored as they were), and an
    attribute the owner only inherited is deleted again rather than
    shadowed.
    """
    saved: list[tuple[object, str, bool, object]] = []
    try:
        for probe in probes:
            owner_dict = vars(probe.owner)
            own = probe.attr in owner_dict
            original = (owner_dict[probe.attr] if own
                        else getattr(probe.owner, probe.attr))
            if hasattr(original, PROBE_MARK):
                raise RuntimeError(f"{probe.span} is already wrapped")
            saved.append((probe.owner, probe.attr, own, original))
            setattr(probe.owner, probe.attr,
                    _wrap(getattr(probe.owner, probe.attr), recorder,
                          probe))
        yield recorder
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def finite(value: float) -> float:
    """``value`` as a float, raising on NaN/inf (JSON has neither)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return value
