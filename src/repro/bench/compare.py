"""Tracked metrics: the numbers the perf trajectory records per experiment.

Each extractor in :data:`METRIC_EXTRACTORS` picks the stable, meaningful
numbers out of one experiment's ``extra`` payload (never table
formatting) and declares which direction is better.
:func:`repro.audit.trajectory.record_run` appends them to
``BENCH_history.jsonl`` (``repro-bench <experiment> --record``), and
``repro-bench drift`` judges the latest run of each against the mean of
the previous ones.  That is the one regression gate: CI runs it on the
committed history, never on fresh timings from a shared runner.
"""

_LOWER = "lower"
_HIGHER = "higher"


def _micro_metrics(extra):
    """Tracked metrics for repro.bench.micro: all seconds/us, lower wins."""
    metrics = {}
    for row in extra.get("isolated_deletion", []):
        metrics[f"isolated_deletion.fast_path_us[n={row['n']}]"] = (
            row["fast_path_us"], _LOWER,
        )
    batch = extra.get("batch_queries")
    if batch:
        metrics["batch_queries.batched_seconds"] = (
            batch["batched_seconds"], _LOWER,
        )
    for kind, summary in extra.get("update_latency", {}).items():
        metrics[f"update_latency.{kind}.mean_s"] = (summary["mean"], _LOWER)
    return metrics


def _serve_metrics(extra):
    """Tracked metrics for repro.bench.serve: throughput up, latency down."""
    metrics = {}
    for backend, report in extra.items():
        metrics[f"{backend}.read_qps"] = (report["read_qps"], _HIGHER)
        metrics[f"{backend}.read_latency_p99_ms"] = (
            report["read_latency_ms"]["p99"], _LOWER,
        )
    return metrics


def _cluster_metrics(extra):
    """Tracked metrics for repro.bench.cluster: routed throughput up,
    latency and kill-to-converged recovery time down."""
    metrics = {}
    for backend, report in extra.items():
        metrics[f"{backend}.read_qps"] = (report["read_qps"], _HIGHER)
        metrics[f"{backend}.read_latency_p99_ms"] = (
            report["read_latency_ms"]["p99"], _LOWER,
        )
        catch_up = report.get("fault_injection", {}).get("catch_up_ms")
        if catch_up is not None:
            metrics[f"{backend}.catch_up_ms"] = (catch_up, _LOWER)
    return metrics


def _audit_metrics(extra):
    """Tracked metrics for repro.bench.audit: tap overhead and audited
    throughput down/up respectively; detection latency is a clean-run
    no-op so only the overhead and coverage numbers are tracked."""
    metrics = {}
    overhead = extra.get("overhead", {})
    if "overhead_pct" in overhead:
        metrics["overhead_pct"] = (overhead["overhead_pct"], _LOWER)
    for backend, report in extra.get("runs", {}).items():
        metrics[f"{backend}.read_qps"] = (report["read_qps"], _HIGHER)
        audited = report.get("auditor", {}).get("audited")
        if audited is not None:
            metrics[f"{backend}.answers_audited"] = (audited, _HIGHER)
    return metrics


def _shard_metrics(extra):
    """Tracked metrics for repro.bench.shard: scatter-gather throughput
    up, merge latency down, and the per-shard peak memory ratio down —
    the last is the 1/K criterion's headroom, so growth there means the
    slices are fattening relative to the unsharded index."""
    metrics = {}
    for backend, report in extra.get("runs", {}).items():
        metrics[f"{backend}.read_qps"] = (report["read_qps"], _HIGHER)
        metrics[f"{backend}.read_latency_p99_ms"] = (
            report["read_latency_ms"]["p99"], _LOWER,
        )
        ratios = report.get("memory", {}).get("peak_ratio", {})
        if ratios:
            metrics[f"{backend}.max_peak_ratio"] = (
                max(ratios.values()), _LOWER,
            )
    return metrics


def _chaos_metrics(extra):
    """Tracked metrics for repro.bench.chaos: worst-case MTTR down and
    under-chaos read throughput up.  Detection/heal counts are judged
    strictly inside the loadgen (a miss fails the experiment outright),
    so only the recovery-speed trajectory is tracked here."""
    metrics = {}
    for key, report in extra.get("runs", {}).items():
        mttr_max = report.get("mttr_s", {}).get("max")
        if mttr_max is not None:
            metrics[f"{key}.mttr_max_ms"] = (
                round(mttr_max * 1e3, 1), _LOWER,
            )
        metrics[f"{key}.read_qps"] = (report["read_qps"], _HIGHER)
    return metrics


def _replay_metrics(extra):
    """Tracked metrics for repro.bench.replay: per-scenario answered
    throughput up, tail read latency down, audit coverage up.  Event and
    query counts are deterministic per seed and judged strictly inside
    the loadgen, so only the serving-quality trajectory is tracked."""
    metrics = {}
    for name, report in extra.get("runs", {}).items():
        metrics[f"{name}.read_qps"] = (report["read_qps"], _HIGHER)
        metrics[f"{name}.read_latency_p99_ms"] = (
            report["read_latency_ms"]["p99"], _LOWER,
        )
        metrics[f"{name}.audited"] = (
            report["auditor"]["audited"], _HIGHER,
        )
    return metrics


def _obs_metrics(extra):
    """Tracked metrics for repro.bench.obs: instrumentation overhead and
    the instrumented read path's tail latency down.  Stage-sum
    reconciliation and counter determinism are judged strictly inside
    the experiment (a violation fails the run outright), so only the
    cost trajectory is tracked here."""
    metrics = {}
    overhead = extra.get("overhead", {})
    if "overhead_pct" in overhead:
        metrics["overhead_pct"] = (overhead["overhead_pct"], _LOWER)
    if "instrumented_us_per_query" in overhead:
        metrics["instrumented_us_per_query"] = (
            overhead["instrumented_us_per_query"], _LOWER,
        )
    e2e = extra.get("e2e", {})
    if e2e.get("p99") is not None:
        metrics["read_latency_p99_ms"] = (
            round(e2e["p99"] * 1e3, 4), _LOWER,
        )
    return metrics


#: experiment name -> extra-payload metric extractor.
METRIC_EXTRACTORS = {
    "micro": _micro_metrics,
    "serve": _serve_metrics,
    "cluster": _cluster_metrics,
    "audit": _audit_metrics,
    "shard": _shard_metrics,
    "chaos": _chaos_metrics,
    "replay": _replay_metrics,
    "obs": _obs_metrics,
}


def extract_metrics(result_name, extra):
    """Extract ``{metric: (value, direction)}`` for one experiment.

    The one extraction seam of the recorded perf trajectory
    (:mod:`repro.audit.trajectory`).  Returns ``None`` for experiments
    with no tracked metrics.
    """
    extractor = METRIC_EXTRACTORS.get(result_name)
    if extractor is None:
        return None
    return extractor(extra)
