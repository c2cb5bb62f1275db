"""Deterministic instrumented workload for the telemetry stack itself.

Every other harness in the repo measures the *serving* stack and treats
telemetry as a passenger; this one inverts that: the workload is shaped
so that the **telemetry is the deliverable** — every counter and every
histogram *count* (never a timing) must come out identical across two
same-seed runs.  That is what lets ``repro-bench obs`` assert the
registry's determinism fingerprint (:meth:`~repro.obs.MetricsRegistry
.counter_values`) instead of eyeballing dashboards.

How determinism is engineered, not hoped for:

* **single-threaded reads** — one seeded reader issues every scatter-
  gather query in program order, so per-stage histogram counts equal the
  read count exactly;
* **one applied batch per churn phase** — each phase is one
  ``submit_many`` (kept whole by the writer's drain contract) followed
  by a full :meth:`~repro.shard.ShardedCluster.sync`, so writer-batch /
  WAL / journal / publish counters cannot depend on drain timing;
* **publish_every=1** — every applied batch publishes right after its
  apply, so the writer is never dirty when its queue drains and the
  publish-on-idle path never fires, pinning the publish count to the
  batch count.

The driver exercises every instrumented seam at once: the shard router's
six-stage breakdown, the primary's writer spans, the answer tap feeding a
seeded :class:`~repro.audit.AuditSampler`, and the callback gauges bound
over live ``stats()``.  Wired into the benchmark CLI as
``repro-bench obs``.
"""

import random
import time

from repro.engine import EngineConfig, SPCEngine
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.loadgen import _Harness, make_workload
from repro.serve.service import ServeConfig
from repro.shard.shardcluster import ShardConfig, ShardedCluster

#: the acceptance-mandated read-path stages, in pipeline order; the
#: explicit ``unattributed`` remainder is what makes the per-stage sums
#: reconcile *exactly* with the end-to-end latency histogram.
STAGES = (
    "queue_wait", "snapshot_pin", "scatter", "shard_probe",
    "merge", "tap", "unattributed",
)


def run_obs_loadgen(backend="core", n=400, m=1200, shards=3, churn=48,
                    phases=4, reads_per_phase=160, batch_every=16,
                    batch_size=24, tap_rate=0.25, tap_capacity=256,
                    seed=0, instrument=True, registry=None, tracer=None,
                    state_dir=None):
    """Drive one deterministic instrumented run; returns a report dict.

    With ``instrument`` (the default) a :class:`~repro.obs
    .MetricsRegistry` + :class:`~repro.obs.Tracer` are installed across
    the whole fleet before any traffic flows; with ``instrument=False``
    the identical workload runs bare (the overhead-measurement control).
    The returned report carries the live ``registry`` / ``tracer`` /
    ``sampler`` objects plus the JSON-safe ``counter_values``
    determinism fingerprint.
    """
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    # publish_every=1: every applied batch publishes synchronously inside
    # the writer, so the publish count is pinned to the batch count (the
    # publish-on-idle path never finds the writer dirty).
    serve_config = ServeConfig(publish_every=1, queue_capacity=4096)
    shard_config = ShardConfig(shards=shards, seed=seed)
    if instrument:
        if registry is None:
            registry = MetricsRegistry()
        if tracer is None:
            tracer = Tracer(capacity=512, slow_threshold=0.005)
    else:
        registry = tracer = None

    started = time.perf_counter()
    with _Harness("obs", state_dir, registry=registry, tracer=tracer) as h:
        cluster = h.own(ShardedCluster(
            engine, h.state_dir, config=shard_config,
            serve_config=serve_config, overwrite=True,
        ))
        sampler = h.tap(cluster, tap_rate, tap_capacity, seed + 5)
        h.instrument(cluster, cluster.primary.engine, sampler)

        rng = random.Random(seed + 11)
        reads = batch_reads = submitted = 0
        cursor = 0
        for _ in range(phases):
            # --- churn phase: exactly one applied batch, fully synced.
            chunk = cycle[cursor:cursor + churn]
            if not chunk:
                cursor = 0
                chunk = cycle[:churn]
            cluster.submit_many(chunk)
            cluster.sync()
            submitted += len(chunk)
            cursor = (cursor + len(chunk)) % len(cycle)
            # --- read phase: single-threaded, seeded, program order.
            for i in range(reads_per_phase):
                s, t = pairs[rng.randrange(len(pairs))]
                cluster.query(s, t)
                reads += 1
                if batch_every and (i + 1) % batch_every == 0:
                    batch = [pairs[rng.randrange(len(pairs))]
                             for _ in range(batch_size)]
                    cluster.query_many(batch)
                    reads += 1  # one cut, one stage-histogram observation
                    batch_reads += len(batch)
        elapsed = time.perf_counter() - started
        report = {
            "backend": backend,
            "shards": shards,
            "phases": phases,
            "reads": reads,
            "batch_reads": batch_reads,
            "submitted": submitted,
            "elapsed_s": round(elapsed, 4),
            "stats": cluster.stats(),
            "sampler": sampler.stats(),
            "registry": registry,
            "tracer": tracer,
            "counter_values": (
                registry.counter_values() if registry is not None else None
            ),
        }
        return report


def run_overhead_probe(backend="core", n=400, m=1200, shards=3,
                       batch=256, loops=20, repeats=5, seed=0):
    """Measure instrumentation overhead on the scatter-gather read path.

    One fleet, one fixed seeded pair batch; the bare and instrumented
    arms run as many *alternating* short windows on the *same* fleet
    (``set_metrics`` toggled between them, mirroring the audit bench's
    tap-overhead methodology): each bare/instrumented window pair runs
    back-to-back within milliseconds, so machine-speed drift over the
    measurement cannot masquerade as instrumentation overhead, and the
    reported ``overhead_pct`` is the **median of per-pair ratios**,
    which drops the pairs a scheduler hiccup landed on.
    ``parallel_threshold`` is pushed above the batch size: a
    single-threaded gather is the fair arena, since worker scheduling
    noise would otherwise dwarf the few hundred nanoseconds of counter
    arithmetic being measured.  Returns a JSON-safe dict with
    ``overhead_pct``.
    """
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=16)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    rng = random.Random(seed + 3)
    batch_pairs = [pairs[rng.randrange(len(pairs))] for _ in range(batch)]
    with _Harness("obs-ovh") as h:
        cluster = h.own(ShardedCluster(
            engine, h.state_dir, shards=shards, seed=seed,
            parallel_threshold=batch + 1,
            serve_config=ServeConfig(queue_capacity=4096),
            overwrite=True,
        ))
        cluster.sync()

        def window_seconds():
            t0 = time.perf_counter()
            for _ in range(loops):
                cluster.query_many(batch_pairs)
            return time.perf_counter() - t0

        registry = MetricsRegistry()
        tracer = Tracer(capacity=64, sample_every=64)
        windows = max(2, repeats * 4)
        bare_s = instrumented_s = float("inf")
        ratios = []
        for _ in range(windows):
            # Warm each code path before its timed window so neither
            # side pays first-call costs.
            cluster.set_metrics(None)
            cluster.query_many(batch_pairs)
            bare_w = window_seconds()
            cluster.set_metrics(registry, tracer=tracer)
            cluster.query_many(batch_pairs)
            instrumented_w = window_seconds()
            bare_s = min(bare_s, bare_w)
            instrumented_s = min(instrumented_s, instrumented_w)
            ratios.append(instrumented_w / bare_w)
        cluster.set_metrics(None)
        ratios.sort()
        mid = len(ratios) // 2
        if len(ratios) % 2:
            median_ratio = ratios[mid]
        else:
            median_ratio = (ratios[mid - 1] + ratios[mid]) / 2.0
        overhead_pct = (median_ratio - 1.0) * 100.0
        return {
            "batch": batch,
            "loops": loops,
            "repeats": repeats,
            "queries": batch * loops,
            "bare_s": round(bare_s, 6),
            "instrumented_s": round(instrumented_s, 6),
            "bare_us_per_query": round(bare_s / (batch * loops) * 1e6, 3),
            "instrumented_us_per_query": round(
                instrumented_s / (batch * loops) * 1e6, 3
            ),
            "overhead_pct": round(overhead_pct, 2),
        }
