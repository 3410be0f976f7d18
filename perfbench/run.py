"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload feedback_replay --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` sets up the workload once cold, then runs timed
operations for ``--seconds`` of wall time with no wrapper installed,
checks the outputs, and prints ``shots_per_s``, ``setup_s`` and
``peak_rss_mb``.  Between the operations it takes 16 timed samples of
warm set-ups, spread evenly over the window; a sample is as many
back-to-back set-ups as last 0.1 s, and ``setup_s`` is the median
per-set-up time of the samples.  ``shots_per_s`` is the shots the
window's operations completed over the operations' summed time; an RB
sequence is one shot and a sweep point is 200.

Both times are in nominal-host seconds: each operation step and each
set-up sample is divided by the host's slowdown measured around it
with a fixed reference task (``perfbench/hostspeed.py``), because the
shared host's own speed drifts by up to 2x.  The wall-clock figures,
the slowdowns, the workload's own rate (``sequences_per_s``,
``points_per_s``) and every operation's rate are in the stamp.

``--trace 1`` runs a fixed amount of work twice, first untraced and
then with every layer entry point wrapped, and prints the per-layer
ledger; the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the stamp (revision, versions, CPU count, seed, shot counts).
Exit status is 0 when the run completed, even if a check failed
(``correct`` says so), and non-zero when it could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 16
#: A sample times back-to-back set-ups lasting at least this long, so
#: a set-up of a few milliseconds is not judged by one clock reading.
SETUP_SAMPLE_S = 0.1


def _import_library():
    """Put the checkout's ``src`` first on the path and import from it;
    refuse to run against any other copy of the library."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no library source under {src}: run from the "
                         f"root of a full source checkout")
    sys.path[:0] = [str(ROOT), str(src)]
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not "
                         f"from {src}")


def _revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():  # never search above the checkout
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10)
            if completed.returncode == 0:
                revision = completed.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_revision": revision,
            "source_sha256": digest.hexdigest()}


def _peak_rss_mb(include_children: bool) -> float:
    """Peak resident set in MiB; with ``include_children`` the largest
    waited-for child (a sweep worker) is added to the parent's own."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kib / 1024.0


def end_to_end(workload, state, seconds: float) -> tuple[dict, dict]:
    """Time operations for ``seconds``, check them, and return the
    window's description for the stamp and the end-to-end metrics.

    Every step of an operation, and every set-up sample, is timed on a
    :class:`HostClock`, which reads the host's speed around it; the
    metrics are in nominal-host seconds and the stamp keeps the wall
    clock's figures too.  The set-up samples are taken between the
    operations, spread evenly over the window.  A sample's set-ups are
    thrown away; the operations keep using ``state``.  The window's
    time is the operations' time alone.
    """
    import numpy as np
    from perfbench.hostspeed import HostClock
    from perfbench.layers import probes
    from perfbench.spans import highest_reportable_percentile, is_wrapped
    wrapped = [probe.span for probe in probes() if is_wrapped(probe)]
    if wrapped:
        raise RuntimeError(f"wrapped layers before an untraced run: "
                           f"{wrapped}")
    start = time.perf_counter()
    workload.build()
    batch = max(1, math.ceil(SETUP_SAMPLE_S /
                             (time.perf_counter() - start)))
    clock = HostClock()
    samples = []
    setup_wall = []

    def build_batch():
        for _ in range(batch):
            workload.build()

    def sample_setup():
        _, wall_s, slowdown = clock.time(build_batch)
        setup_wall.append(wall_s / batch)
        samples.append(wall_s / batch / slowdown)

    rates = []  # per operation, in units per nominal second
    slowdowns = []  # per step
    units = 0
    window_s = 0.0
    nominal_s = 0.0
    while window_s < seconds:
        while len(samples) < SETUP_SAMPLES * window_s / seconds:
            sample_setup()
        op_units = 0
        op_nominal_s = 0.0
        for step in workload.steps(state):
            done, wall_s, slowdown = clock.time(step)
            slowdowns.append(slowdown)
            op_units += done
            op_nominal_s += wall_s / slowdown
            window_s += wall_s
        rates.append(op_units / op_nominal_s)
        units += op_units
        nominal_s += op_nominal_s
    while len(samples) < SETUP_SAMPLES:
        sample_setup()
    # Before the checks, so the figure is the set-ups' and the window's
    # alone and not the checks' interpreter runs'.
    peak_rss_mb = _peak_rss_mb(workload.FORKED_WORKERS)
    workload.verify(state)
    # The stamp keeps every operation's rate, with the median and the
    # slow tail at the highest percentile that has ten operations
    # beyond it, so the window's spread can be judged after the fact.
    tail = highest_reportable_percentile(len(rates))
    throughput = workload.throughput
    window = {
        "operations": len(rates),
        "steps": len(slowdowns),
        "seconds": window_s,
        "nominal_seconds": nominal_s,
        "host_slowdown_median": statistics.median(slowdowns),
        "host_slowdown_range": [min(slowdowns), max(slowdowns)],
        "setup_batch": batch,
        "setup_s_samples": samples,
        "setup_s_wall_samples": setup_wall,
        f"{throughput}_wall": units / window_s,
        f"{throughput}": units / nominal_s,
        f"{throughput}_median": statistics.median(rates),
        f"{throughput}_slow_tail": None if tail is None else
            [tail, float(np.percentile(rates, 100.0 - tail))],
        f"{throughput}_per_operation": rates,
    }
    return window, {
        "shots_per_s": (units * workload.SHOTS_PER_UNIT / nominal_s,
                        "shots/s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(workload, state, seed: int) -> dict:
    from perfbench.layers import PER_LAYER, ledger_metrics
    from perfbench.spans import SpanRecorder
    untraced_s = workload.run_ops(state, workload.TRACE_OPS)
    workload.verify(state)
    workload.engine_stats.clear()
    recorder = SpanRecorder()
    traced_s, traced_wall_s = workload.traced_arm(state, recorder)
    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    metrics.update(ledger_metrics(recorder, workload.engine_stats,
                                  traced_wall_s))
    metrics.update(workload.extras(state))
    metrics["bench.tracing_overhead_frac"] = traced_s / untraced_s - 1.0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder.save(OUT_DIR / f"spans-{workload.name}-seed{seed}.npz")
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import numpy as np
    from perfbench.spans import check_metric_name, finite
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    start = time.perf_counter()
    state = workload.build()
    cold_setup_s = time.perf_counter() - start
    window = {}
    if args.trace:
        metrics = traced(workload, state, args.seed)
    else:
        window, metrics = end_to_end(workload, state, args.seconds)

    tally = workload.tally
    stamp = {
        **_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_cold_s": cold_setup_s,
        **workload.stamp(),
        "window": window,
        "problems": tally.problems,
    }
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {check_metric_name(name): {"value": finite(value),
                                              "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace"
               f"{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "result": result}, indent=2) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
