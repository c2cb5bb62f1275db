"""perfbench — the repository's benchmark for the DSPC reproduction.

One command runs one workload from one seed::

    python3 perfbench/run.py --workload engine-hybrid --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` additionally runs a traced pass whose spans, recorded by this
package's own wrappers around the public entry points of each layer, give
the per-layer metrics (see ``BENCHMARK.json`` and ``rationale.json``).

Modules: :mod:`perfbench.inputs` (seeded inputs and their fingerprint),
:mod:`perfbench.workloads` (the two runners), :mod:`perfbench.hostspeed`
(the probe that scales timings to a reference host speed),
:mod:`perfbench.tracing` (spans, self time, per-layer metrics) and
:mod:`perfbench.run` (the CLI).
"""
