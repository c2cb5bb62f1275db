"""repro.bench.micro — hot-path microbenchmarks on synthetic graphs.

Unlike the paper-reproduction experiments (tables/figures over the dataset
registry), these benches track the *engineering* hot paths this codebase
keeps optimizing, so every PR leaves a perf trajectory in
``bench_results/micro.json`` to regress against:

* ``isolated_deletion`` — §3.2.3 fast-path cost as n grows.  With the
  reverse hub map the purge visits only holders(hub) and stays roughly
  flat; the legacy PR 2 behaviour (timed alongside as ``sweep``) scans all
  n label sets and grows linearly (DESIGN.md §9).
* ``batch_queries`` — ``SPCEngine.query_many`` on a repeated-source batch
  (the PSPC-style shared-scan path) versus a per-pair ``query`` loop over
  the same pairs, both with the cache off so the work itself is measured.
  The sources are the top-degree vertices (the hot sources serving sees)
  and each path's time is the median of ``micro_repeats`` trials.
* ``update_latency`` — raw per-update wall clock over a hybrid
  insert/delete stream, the end-to-end number the Figure 10 experiments
  report on real datasets, split into the maintenance phases
  ``UpdateStats`` times (SrrSEARCH, BFS, removal pass), with the mean
  number of region pairs DecUPDATE keeps per delete.  A weighted twin
  runs the weight-aware stream on ``random_weighted`` (weights 1–10): a
  weight decrease counts as an insert and an increase as a delete, the
  repair each runs.  Each stream ends with ``engine.check()``, so a wrong
  maintained index fails the run.

Wired into the CLI as ``repro-bench micro``; CI runs the quick profile as
a perf-smoke job that fails on crash, never on timing.
"""

import statistics
import time

from repro.bench.tables import ExperimentResult, Table
from repro.bench.timing import distribution_summary
from repro.engine import EngineConfig, SPCEngine
from repro.graph.generators import barabasi_albert, erdos_renyi, random_weighted
from repro.workloads import hybrid_stream


def run(config):
    """Run the micro suite; returns an ExperimentResult."""
    result = ExperimentResult(
        name="micro",
        description="hot-path microbenchmarks (isolated deletion, "
                    "batch queries, update latency)",
    )
    result.tables.append(_bench_isolated_deletion(config, result.extra))
    result.tables.append(_bench_batch_queries(config, result.extra))
    result.tables.append(_bench_update_latency(config, result.extra))
    return result


def _engine(graph):
    """An engine with caching off: the benches measure work, not cache hits."""
    return SPCEngine(graph, config=EngineConfig(cache_size=0))


def _bench_isolated_deletion(config, extra):
    """§3.2.3 fast path (reverse hub map) vs the legacy O(n) sweep."""
    table = Table(
        "Isolated-vertex deletion vs n (reverse hub map vs legacy sweep)",
        ["n", "fast_path_us", "legacy_sweep_us", "sweep_ratio"],
    )
    series = []
    for n in config.micro_isolated_sizes:
        graph = barabasi_albert(n, attach=3, seed=7)
        engine = _engine(graph)
        anchor = max(graph.vertices(), key=graph.degree)
        fast, sweep = [], []
        pendant = max(graph.vertices()) + 1
        for r in range(config.micro_repeats):
            p = pendant + r
            engine.insert_vertex(p, edges=(anchor,))
            index = engine.index
            rp = index.rank(p)
            # Legacy baseline: what PR 2 paid per fast-path deletion — scan
            # every label set for the stranded hub.  Nobody holds rp (the
            # pendant ranks last), so the scan is side-effect free here.
            label_of = index.label_set
            start = time.perf_counter()
            for u in index.vertices():
                if u != p:
                    label_of(u).remove(rp)
            sweep.append(time.perf_counter() - start)
            stats = engine.delete_edge(p, anchor)
            assert stats.isolated_fast_path
            fast.append(stats.elapsed)
        fast_us = min(fast) * 1e6
        sweep_us = min(sweep) * 1e6
        table.add_row(n, round(fast_us, 1), round(sweep_us, 1),
                      round(sweep_us / fast_us, 2) if fast_us else 0.0)
        series.append({"n": n, "fast_path_us": fast_us,
                       "legacy_sweep_us": sweep_us})
    extra["isolated_deletion"] = series
    return table


def _bench_batch_queries(config, extra):
    """Grouped query_many (shared source scan) vs a per-pair query loop."""
    n, m = config.micro_query_graph
    graph = erdos_renyi(n, m, seed=11)
    engine = _engine(graph)
    vertices = sorted(graph.vertices())
    # Hot sources, as serving sees them: high degree, high rank, short
    # labels.  The lowest ids would be arbitrary, mostly long-label ones.
    by_degree = sorted(vertices, key=lambda v: (-graph.degree(v), v))
    sources = by_degree[: config.micro_query_sources]
    step = max(1, len(vertices) // config.micro_query_targets)
    targets = vertices[::step][: config.micro_query_targets]
    pairs = [(s, t) for s in sources for t in targets]

    batched_times, looped_times = [], []
    for _ in range(config.micro_repeats):
        start = time.perf_counter()
        batched = engine.query_many(pairs)
        batched_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        looped = [engine.query(s, t) for s, t in pairs]
        looped_times.append(time.perf_counter() - start)
        assert batched == looped
    batched_s = statistics.median(batched_times)
    looped_s = statistics.median(looped_times)

    table = Table(
        f"query_many from the top-degree sources (cache off, median of "
        f"{config.micro_repeats})",
        ["pairs", "sources", "batched_qps", "per_pair_qps", "speedup"],
    )
    batched_qps = len(pairs) / batched_s if batched_s else 0.0
    looped_qps = len(pairs) / looped_s if looped_s else 0.0
    table.add_row(
        len(pairs), len(sources), round(batched_qps), round(looped_qps),
        round(batched_qps / looped_qps, 2) if looped_qps else 0.0,
    )
    extra["batch_queries"] = {
        "pairs": len(pairs),
        "sources": len(sources),
        "batched_seconds": batched_s,
        "per_pair_seconds": looped_s,
    }
    return table


def _bench_update_latency(config, extra):
    """Per-update wall clock over hybrid streams, unweighted and weighted."""
    n, m = config.micro_update_graph
    table = Table(
        "update latency over a hybrid stream (phases: mean per update)",
        ["kind", "count", "mean_us", "median_us", "max_us", "kept",
         "srr_us", "bfs_us", "removal_us"],
    )
    summaries = {}
    for family, graph in (
        ("", erdos_renyi(n, m, seed=13)),
        ("weighted ", random_weighted(n, m, max_weight=10, seed=13)),
    ):
        engine = _engine(graph)
        stream = hybrid_stream(
            graph.copy(),
            insertions=config.micro_update_insertions,
            deletions=config.micro_update_deletions,
            seed=17,
        )
        all_stats = engine.apply_stream(stream)
        engine.check()  # raises on any wrong answer: CI's perf-smoke gate
        for kind in ("insert", "delete"):
            stats = [s for s in all_stats if s.kind == kind]
            summary = distribution_summary([s.elapsed for s in stats])
            # SrrSEARCH, the DecUPDATE/IncSPC BFS and the removal pass, as
            # UpdateStats times them.
            summary["phases_mean_s"] = {
                phase: sum(getattr(s, phase) for s in stats) / max(1, len(stats))
                for phase in ("srr_s", "bfs_s", "removal_s")
            }
            # Region pairs DecUPDATE left alone per delete (drop_kept).
            summary["kept_mean"] = (sum(s.kept for s in stats) / len(stats)
                                    if kind == "delete" and stats else None)
            summaries[(family + kind).replace(" ", "_")] = summary
            phases = summary["phases_mean_s"]
            table.add_row(
                family + kind, summary["count"],
                round(summary["mean"] * 1e6, 1),
                round(summary["median"] * 1e6, 1),
                round(summary["max"] * 1e6, 1),
                "—" if summary["kept_mean"] is None
                else round(summary["kept_mean"], 1),
                round(phases["srr_s"] * 1e6, 1),
                round(phases["bfs_s"] * 1e6, 1),
                round(phases["removal_s"] * 1e6, 1),
            )
    extra["update_latency"] = summaries
    return table
