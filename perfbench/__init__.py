"""The repository benchmark: four workloads, end-to-end throughput and a
traced per-layer ledger.

``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload from the root of a source checkout and
prints one JSON result as its last line of output.  ``BENCHMARK.json``
at the repository root names the workloads and metrics;
``perfbench/LEDGER.md`` records which layer each workload loads and the
predicted layer -> end-to-end metric -> workload table.

The benchmark drives the library only through its public API and adds
no hooks to it: the traced run wraps layer entry points from this
package (:mod:`perfbench.spans`, :mod:`perfbench.layers`) and restores
them before anything else runs.
"""
