"""Run one perfbench workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-read --seed 3 --seconds 40 --trace 0

The program measured is the checkout's own ``src/repro``; without it the
command fails before measuring anything.  Inputs come from ``--seed`` only
and are generated before any clock starts.

``--trace 0`` runs the workload once, untraced, and reports the end-to-end
metrics.  ``--trace 1`` runs it untraced and then traced, reports the
per-layer metrics of the traced pass plus the tracing overhead (the traced
pass's time per operation over the untraced one's), and writes the traced
pass's spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.

Timings are reported at a reference host speed: each is a CPU time
divided by the slowdown a fixed probe measured around it
(:mod:`perfbench.hostspeed`), because the shared machines this runs on
drift in speed by a quarter or more over minutes; the figures as timed are
printed in a second table.  On serve-read read_p99_us and write_visible_*
are mostly waits on timers and stay wall times, as timed.

A table of every metric, with its unit and sample count, comes first; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every answer checked correct.
"""

import argparse
import json
import os
import shutil
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``
    from there, refusing any other copy of the package."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: nothing to measure: {src}/repro is missing")
    sys.path[:0] = [src, ROOT]
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(
            src, "repro"):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _print_table(title, rows):
    print(f"\n{title}")
    print(f"  {'metric':<40} {'value':>16} {'unit':<6} samples")
    for name, (value, unit, samples) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>16} {unit:<6} {samples}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.inputs import WORKLOADS, make_inputs
    from perfbench.tracing import Tracer, quantile
    from perfbench.workloads import RUNNERS, make_workdir

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    inputs = make_inputs(args.workload, args.seed, args.seconds)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs {inputs.fingerprint()}: dataset {inputs.dataset}, "
          f"{len(inputs.updates)} updates, {len(inputs.reads)} distinct "
          f"reads, {len(inputs.check_pairs)} check pairs")

    runner = RUNNERS[args.workload]
    workdir = make_workdir(OUT_DIR)
    try:
        passes = [runner(inputs, args.seconds, workdir,
                         repeat_setup=not args.trace)]
        if args.trace:
            tracer = Tracer()
            passes.append(runner(inputs, args.seconds, workdir, tracer,
                                 repeat_setup=False))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    base = passes[0]
    rows = dict(base.metrics, **base.extra)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    rows["failed_frac"] = (failed / attempted, "ratio", attempted)
    rows["host.slowdown"] = (base.slowdown, "ratio", "")
    _print_table("end to end (untraced)", rows)
    _print_table("the scaled timings as timed", {
        name: (value, rows[name][1], rows[name][2])
        for name, value in base.timed.items()})
    metrics = base.metrics

    if args.trace:
        traced = passes[1]
        metrics = tracer.metrics(threading.current_thread().name,
                                 traced.main_wall_s)
        metrics["bench.loadgen.late_ms_p99"] = (
            quantile(traced.late_s, 0.99) * 1e3, "ms")
        metrics["bench.loadgen.backlog_max"] = (traced.backlog_max, "count")
        metrics["bench.host.slowdown"] = (traced.slowdown, "ratio")
        metrics["trace.overhead_frac"] = (
            (traced.main_op_s / traced.slowdown)
            / (base.main_op_s / base.slowdown) - 1.0, "ratio")
        _print_table("per layer (traced)", {
            name: (value, unit, "")
            for name, (value, unit) in metrics.items()})
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"\n{len(tracer.spans)} spans written to "
              f"{os.path.relpath(spans_path, ROOT)}")

    for problem in (p for run in passes for p in run.problems):
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
