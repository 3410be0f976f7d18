"""Tests of the benchmark's own helpers: span self time, the percentile
rule, metric names, wrapper restoration, host-speed normalisation and
the BENCHMARK.json contract.
"""

import ast
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import hostspeed
from perfbench.layers import LAYERS, PER_LAYER, PREDICTIONS, probes
from perfbench.spans import (
    PROBE_MARK,
    Probe,
    SpanRecorder,
    check_metric_name,
    highest_reportable_percentile,
    is_wrapped,
    layer_totals,
    probes_installed,
    root_time_s,
    self_times,
)

ROOT = Path(__file__).resolve().parent.parent


def _self(spans):
    """spans: (start, end, parent) tuples -> self times."""
    start, end, parent = (np.array(column) for column in zip(*spans))
    return self_times(start, end, parent).tolist()


class TestSelfTime:
    def test_nested_spans(self):
        # A contains B contains C.
        assert _self([(0, 100, -1), (10, 60, 0), (20, 30, 1)]) == \
            [50, 40, 10]

    def test_sibling_spans(self):
        # B and C are disjoint children of A.
        assert _self([(0, 100, -1), (10, 30, 0), (40, 70, 0)]) == \
            [50, 20, 30]

    def test_siblings_and_nesting_combined(self):
        spans = [(0, 1000, -1), (100, 400, 0), (150, 250, 1),
                 (300, 350, 1), (500, 900, 0), (600, 700, 4)]
        assert _self(spans) == [300, 150, 100, 50, 300, 100]

    def test_root_spans_without_children(self):
        assert _self([(5, 9, -1), (20, 21, -1)]) == [4, 1]

    def test_layer_totals_count_outermost_calls_only(self):
        recorder = SpanRecorder()
        outer = recorder.record("core.assemble", 0, 100)
        recorder.record("core.assemble", 10, 90, parent=outer)
        recorder.record("uarch.load", 200, 260)
        totals = layer_totals(recorder, ("core.assemble", "uarch.load",
                                         "uarch.interp"))
        assert totals["core.assemble"].calls == 1
        assert totals["core.assemble"].self_s == pytest.approx(100e-9)
        assert totals["uarch.load"].calls == 1
        assert totals["uarch.interp"].calls == 0
        assert root_time_s(recorder) == pytest.approx(160e-9)


class TestPercentileRule:
    @pytest.mark.parametrize("samples, expected", [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (10000, 99.9)])
    def test_needs_ten_samples_beyond(self, samples, expected):
        assert highest_reportable_percentile(samples) == expected


class TestMetricNames:
    @pytest.mark.parametrize("name", [
        "shots_per_s", "setup_s", "core.words",
        "serving.point_exec_ms.p90", "bench.tracing_overhead_frac",
        "9lives", "a-b"])
    def test_valid(self, name):
        assert check_metric_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "_leading", ".leading", "has space", "slash/name",
        "x" * 65, "naïve", None])
    def test_invalid(self, name):
        with pytest.raises(ValueError):
            check_metric_name(name)

    def test_every_declared_metric_name_is_valid(self):
        for name, _, _ in PER_LAYER:
            check_metric_name(name)


class _Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


class TestWrappers:
    def test_spans_nest_and_originals_return(self):
        original_outer = vars(_Toy)["outer"]
        original_inner = vars(_Toy)["inner"]
        recorder = SpanRecorder()
        with probes_installed([Probe(_Toy, "outer", "toy.outer"),
                               Probe(_Toy, "inner", "toy.inner",
                                     measure=lambda a, k, r: r)],
                              recorder):
            assert _Toy().outer(3) == 7
        assert vars(_Toy)["outer"] is original_outer
        assert vars(_Toy)["inner"] is original_inner
        data = recorder.arrays()
        assert [recorder.names[i] for i in data["name_id"]] == \
            ["toy.outer", "toy.inner"]
        assert data["parent"].tolist() == [-1, 0]
        assert recorder.measures == {"toy.inner": 6.0}

    def test_restored_after_an_exception(self):
        original = vars(_Toy)["inner"]
        with pytest.raises(ZeroDivisionError):
            with probes_installed([Probe(_Toy, "inner", "toy.inner")],
                                  SpanRecorder()):
                _Toy().inner(1) / 0
        assert vars(_Toy)["inner"] is original

    def test_inherited_attribute_is_removed_not_shadowed(self):
        class Child(_Toy):
            pass

        with probes_installed([Probe(Child, "inner", "toy.inner")],
                              SpanRecorder()):
            assert "inner" in vars(Child)
        assert "inner" not in vars(Child)
        assert Child.inner is _Toy.inner

    def test_every_layer_probe_is_restored(self):
        """An end-to-end run must never execute wrapped code."""
        table = probes()
        before = [(probe, vars(probe.owner).get(probe.attr))
                  for probe in table]
        with probes_installed(table, SpanRecorder()):
            assert all(is_wrapped(probe) for probe in table)
        for probe, original in before:
            assert vars(probe.owner).get(probe.attr) is original
            assert not hasattr(getattr(probe.owner, probe.attr),
                               PROBE_MARK)

    def test_every_probe_span_is_a_layer(self):
        assert {probe.span for probe in probes()} == set(LAYERS)


class TestHostClock:
    def test_slowdown_is_the_mean_of_the_bracketing_readings(
            self, monkeypatch):
        readings = iter([0.5, 1.0, 2.0, 3.0])
        monkeypatch.setattr(hostspeed, "reference_s",
                            lambda: next(readings))
        clock = hostspeed.HostClock()  # warm-up 0.5, first "before" 1.0
        result, wall_s, slowdown = clock.time(lambda: "done")
        assert result == "done" and wall_s >= 0.0
        assert slowdown == pytest.approx(1.5 / hostspeed.NOMINAL_S)
        # The previous "after" is the next "before".
        assert clock.time(lambda: None)[2] == \
            pytest.approx(2.5 / hostspeed.NOMINAL_S)

    def test_reference_pauses_and_restores_the_collector(self):
        assert gc.isenabled()
        assert hostspeed.reference_s() > 0.0
        assert gc.isenabled()
        gc.disable()
        try:
            hostspeed.reference_s()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_reference_task_imports_nothing_from_the_library(self):
        tree = ast.parse(Path(hostspeed.__file__).read_text())
        imported = {alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in getattr(node, "names", [])}
        imported |= {node.module.split(".")[0]
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert "repro" not in imported and "perfbench" not in imported


class TestBenchmarkContract:
    def test_benchmark_json_matches_the_code(self):
        from perfbench.workloads import WORKLOADS
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert [(m["name"], m["unit"], m["better"])
                for m in spec["per_layer"]] == list(PER_LAYER)
        assert [m["name"] for m in spec["end_to_end"]] == \
            ["shots_per_s", "setup_s", "peak_rss_mb"]
        layer_metrics = {name for name, _, _ in PER_LAYER}
        for metric, loads, bypasses in PREDICTIONS:
            assert metric in layer_metrics
            assert {loads, bypasses} <= set(WORKLOADS)

    def test_fails_without_the_library_source(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out",
                                                      "__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rb_timing",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert completed.returncode != 0
        assert "correct" not in completed.stdout
