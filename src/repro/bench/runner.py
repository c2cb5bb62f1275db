"""Experiment dispatch and the ``python -m repro.bench`` CLI."""

import argparse
import os
import sys

from repro.bench import audit as audit_bench
from repro.bench import chaos as chaos_bench
from repro.bench import cluster as cluster_bench
from repro.bench import micro
from repro.bench import obs as obs_bench
from repro.bench import replay as replay_bench
from repro.bench import serve as serve_bench
from repro.bench import shard as shard_bench
from repro.audit.trajectory import (
    HISTORY_FILENAME,
    drift_report,
    load_history,
    record_run,
)
from repro.bench.config import get_profile
from repro.bench.experiments import (
    ablations,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table3,
    table4,
    table5,
)

EXPERIMENTS = {
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "ablation_sd_pruning": ablations.run_sd_pruning,
    "ablation_ordering": ablations.run_ordering,
    "ablation_isolated_vertex": ablations.run_isolated_vertex,
    "ablation_aff": ablations.run_aff,
    "micro": micro.run,
    "serve": serve_bench.run,
    "cluster": cluster_bench.run,
    "audit": audit_bench.run,
    "shard": shard_bench.run,
    "chaos": chaos_bench.run,
    "replay": replay_bench.run,
    "obs": obs_bench.run,
}

PAPER_SET = ["table3", "table4", "table5", "fig7", "fig8", "fig9", "fig10", "fig11"]


def _run_drift(args):
    """The 'drift' pseudo-experiment: report perf drift, run nothing.

    Returns the number of failures to add (1 when any metric regressed
    beyond the tolerance, else 0).
    """
    entries, skipped = load_history(args.history)
    if skipped:
        print(
            f"[drift] skipped {skipped} malformed history line(s) in "
            f"{args.history}",
            file=sys.stderr,
        )
    regressions, lines, not_compared = drift_report(
        entries, window=args.window, tolerance=args.tolerance
    )
    for line in lines:
        print(line)
    for skip in not_compared:
        scope = skip["experiment"] or "history"
        if skip.get("metric"):
            scope = f"{scope}.{skip['metric']}"
        print(
            f"[drift] notice: {scope} not compared — {skip['reason']}",
            file=sys.stderr,
        )
    if regressions:
        print(
            f"[drift] {len(regressions)} metric(s) drifted beyond "
            f"{args.tolerance:.0%} of their rolling baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def run_experiment(name, config):
    """Run one experiment by name; returns its ExperimentResult."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    return runner(config)


def main(argv=None):
    """CLI: python -m repro.bench [experiments...] [--profile quick|full]."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the DSPC paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"experiments to run (default: all paper experiments); "
             f"choices: {', '.join(EXPERIMENTS)} or 'all' / 'paper' / "
             f"'ablations', plus 'drift' (report perf drift against the "
             f"recorded history instead of running anything)",
    )
    parser.add_argument(
        "--profile", default="full", choices=["quick", "full"],
        help="workload profile (default: full)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the profile's RNG seed (flows into every workload "
             "builder and loadgen, so a run is reproducible end to end)",
    )
    parser.add_argument(
        "--save-dir", default=None,
        help="directory to write one JSON result file per experiment",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed fractional regression before drift fails "
             "(default: 0.5 = 50%%)",
    )
    parser.add_argument(
        "--record", nargs="?", const=HISTORY_FILENAME, default=None,
        metavar="HISTORY_JSONL",
        help=f"append each experiment's tracked metrics to the perf-"
             f"trajectory history (default file: {HISTORY_FILENAME})",
    )
    parser.add_argument(
        "--history", default=HISTORY_FILENAME, metavar="HISTORY_JSONL",
        help=f"history file the 'drift' report reads "
             f"(default: {HISTORY_FILENAME})",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write Prometheus-text + JSON telemetry snapshots of each "
             "loadgen-driven experiment run into DIR (one .prom/.json "
             "pair per run, named after the harness)",
    )
    parser.add_argument(
        "--window", type=int, default=5,
        help="rolling baseline window for 'drift': the latest run is "
             "compared against the mean of up to this many previous runs "
             "(default: 5)",
    )
    args = parser.parse_args(argv)

    names = args.experiments or ["paper"]
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(EXPERIMENTS)
        elif name == "paper":
            expanded.extend(PAPER_SET)
        elif name == "ablations":
            expanded.extend(k for k in EXPERIMENTS if k.startswith("ablation"))
        else:
            expanded.append(name)

    config = get_profile(args.profile)
    if args.seed is not None:
        config.seed = args.seed
    if args.telemetry is not None:
        config.telemetry = args.telemetry
    failures = 0
    for name in expanded:
        if name == "drift":
            failures += _run_drift(args)
            continue
        try:
            result = run_experiment(name, config)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            failures += 1
            continue
        print(result.render())
        print()
        if args.record:
            entry = record_run(
                args.record, result, profile=args.profile, seed=config.seed
            )
            if entry is None:
                print(
                    f"[record] {name}: no tracked metrics, nothing recorded"
                )
            else:
                print(
                    f"[record] {name}: {len(entry['metrics'])} metric(s) "
                    f"appended to {args.record}"
                )
        if args.save_dir:
            os.makedirs(args.save_dir, exist_ok=True)
            result.save(os.path.join(args.save_dir, f"{name}.json"))
    return 1 if failures else 0
