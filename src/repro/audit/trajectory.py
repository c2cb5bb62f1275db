"""Perf-trajectory history: record every bench run, report drift.

The repo's one perf-regression gate judges a run against its history,
not against a single committed JSON file:

* ``repro-bench <experiment> --record`` appends one JSONL entry per
  experiment to ``BENCH_history.jsonl`` — run metadata (experiment,
  timestamp, profile, seed) plus the tracked metrics extracted by
  :func:`repro.bench.compare.extract_metrics`;
* ``repro-bench drift`` reads the history and reports, per experiment,
  how the most recent run moved against a rolling baseline window (the
  mean of the previous ``window`` runs), direction-aware — a regression
  beyond the tolerance exits nonzero.

The history file is append-only JSONL so merges stay trivial and a
corrupt line loses one run, not the trajectory.
"""

import json
import os
import time

#: the canonical history file name, committed at the repo root.
HISTORY_FILENAME = "BENCH_history.jsonl"

_LOWER = "lower"


def record_run(path, result, profile=None, seed=None, recorded_at=None):
    """Append one history entry for ``result`` (an ExperimentResult).

    Returns the entry dict, or ``None`` when the experiment has no
    tracked metrics (nothing is written — an empty entry would pollute
    every later drift window).
    """
    from repro.bench.compare import extract_metrics

    metrics = extract_metrics(result.name, result.extra)
    if not metrics:
        return None
    entry = {
        "experiment": result.name,
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ",
            time.gmtime(recorded_at if recorded_at is not None else time.time()),
        ),
        "profile": profile,
        "seed": seed,
        "metrics": {
            name: {"value": value, "direction": direction}
            for name, (value, direction) in sorted(metrics.items())
        },
    }
    with open(path, "a") as f:
        f.write(json.dumps(entry, default=str) + "\n")
    return entry


def load_history(path):
    """Read every well-formed entry of a history file, in file order.

    A missing file is an empty history; a malformed line is skipped (one
    bad merge must not brick the drift report) but counted — returns
    ``(entries, skipped_lines)``.
    """
    entries = []
    skipped = 0
    if not os.path.exists(path):
        return entries, skipped
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if not isinstance(entry, dict) or "experiment" not in entry:
                skipped += 1
                continue
            entries.append(entry)
    return entries, skipped


def _metric_values(entry):
    """{metric: (value, direction)} out of one history entry."""
    out = {}
    for name, payload in entry.get("metrics", {}).items():
        try:
            value = float(payload["value"])
        except (KeyError, TypeError, ValueError):
            continue
        out[name] = (value, payload.get("direction", _LOWER))
    return out


def _group_order(key):
    experiment, profile = key
    return experiment, profile is not None, profile or ""


def drift_report(entries, window=5, tolerance=0.5, experiments=None):
    """Compare each experiment's latest run against its rolling baseline.

    Runs are grouped by (experiment, profile): a quick-profile run is only
    ever judged against quick-profile runs, and entries with no
    ``profile`` key form a group of their own.  For every group in
    ``entries`` (optionally filtered by experiment name), the most recent
    entry is measured against the per-metric *mean* of the up-to-
    ``window`` runs before it, direction-aware (a higher-is-better metric
    regresses by falling).  Returns ``(regressions, lines, skipped)``:
    ``regressions`` lists one ``{"experiment", "metric", "baseline",
    "current", "change", "direction"}`` dict per metric whose change
    exceeds ``tolerance``; ``lines`` is the full
    human-readable account; ``skipped`` lists one
    ``{"experiment", "metric", "reason"}`` dict per comparison the
    report could NOT make — an empty history, a single-entry experiment
    (its only run would be its own baseline), a metric with no prior
    recording, or a zero baseline mean.  Callers that treat "no
    regressions" as green must surface ``skipped`` so an un-checkable
    history doesn't silently pass.
    """
    by_experiment = {}
    for entry in entries:
        key = (entry["experiment"], entry.get("profile"))
        by_experiment.setdefault(key, []).append(entry)
    regressions = []
    lines = []
    skipped = []
    for key in sorted(by_experiment, key=_group_order):
        experiment, profile = key
        if experiments and experiment not in experiments:
            continue
        name = experiment if profile is None else f"{experiment}[{profile}]"
        runs = by_experiment[key]
        latest = runs[-1]
        baseline_runs = runs[max(0, len(runs) - 1 - window):-1]
        lines.append(
            f"[drift] {name}: latest {latest.get('recorded_at')} vs "
            f"{len(baseline_runs)} baseline run(s)"
        )
        if not baseline_runs:
            lines.append(
                f"[drift] {name}: SKIPPED — only one recorded run, no "
                f"baseline window yet, record more runs"
            )
            skipped.append({
                "experiment": experiment,
                "metric": None,
                "reason": "only one recorded run — no baseline window",
            })
            continue
        current = _metric_values(latest)
        history = [_metric_values(r) for r in baseline_runs]
        for metric in sorted(current):
            cur_value, direction = current[metric]
            past = [h[metric][0] for h in history if metric in h]
            if not past:
                lines.append(
                    f"[drift] {name}.{metric}: SKIPPED — new metric, "
                    f"no history"
                )
                skipped.append({
                    "experiment": experiment,
                    "metric": metric,
                    "reason": "new metric — no baseline history",
                })
                continue
            base_value = sum(past) / len(past)
            if not base_value:
                lines.append(
                    f"[drift] {name}.{metric}: SKIPPED — baseline mean "
                    f"is 0"
                )
                skipped.append({
                    "experiment": experiment,
                    "metric": metric,
                    "reason": "baseline mean is 0",
                })
                continue
            if direction == _LOWER:
                change = (cur_value - base_value) / base_value
            else:
                change = (base_value - cur_value) / base_value
            verdict = "ok"
            if change > tolerance:
                verdict = "REGRESSION"
                regressions.append({
                    "experiment": experiment,
                    "metric": metric,
                    "baseline": base_value,
                    "current": cur_value,
                    "change": change,
                    "direction": direction,
                })
            elif change < 0:
                verdict = "improved"
            if change >= 0:
                trend = "slower" if direction == _LOWER else "worse"
            else:
                trend = "faster" if direction == _LOWER else "better"
            lines.append(
                f"[drift] {name}.{metric}: {base_value:.6g} -> "
                f"{cur_value:.6g} ({change:+.1%} {trend}, "
                f"bound {tolerance:.0%}) {verdict}"
            )
    if not by_experiment:
        lines.append(
            "[drift] SKIPPED — history is empty, run with --record first"
        )
        skipped.append({
            "experiment": None,
            "metric": None,
            "reason": "history is empty — nothing to compare",
        })
    return regressions, lines, skipped
