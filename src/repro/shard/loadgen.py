"""Shard load harness: a hub-partitioned fleet under live shadow audit.

Drives concurrent scatter-gather reads and a cyclic update stream against
a :class:`~repro.shard.ShardedCluster`, with the audit stack attached end
to end: an :class:`~repro.audit.AuditSampler` tapped into the shard
router — so what gets differentially verified is the *merged cross-shard
answer*, tagged with its consistent-cut seq — and a
:class:`~repro.audit.ShadowAuditor` replaying the primary's WAL.

The strict contract is the package's two safety claims, checked exactly:

* **zero divergences** — merging per-shard partials at a consistent cut
  must reproduce the full index's answers, under whatever churn ran;
* **refusal, never wrong** — with ``kill`` the run hard-stops one shard
  mid-stream: readers must observe :class:`~repro.exceptions.ShardError`
  refusals (counted, not failed) while the slice is missing, the fleet
  must serve again after ``restart``, and the divergence count must
  still be zero.

The report also carries the **memory criterion**: each shard's peak
materialized slice must stay within ``(1 + epsilon) / K`` of the
unsharded primary's label entries (strict mode fails the run otherwise).
Wired into the benchmark CLI as ``repro-bench shard``.
"""

from repro.audit.shadow import AuditSession
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ShardError
from repro.serve.loadgen import (
    _Harness,
    _load_report,
    _Reader,
    _run_load,
    make_workload,
)
from repro.serve.service import ServeConfig
from repro.shard.shardcluster import ShardConfig, ShardedCluster


def _primary_entries(engine):
    """Total label entries in the unsharded primary index (the 1/K
    criterion's denominator).  Call only while the writer is quiesced."""
    backend = engine.backend
    total = 0
    for v in engine.graph.vertices():
        lp = backend.label_payload(v)
        if lp is None:
            continue
        if isinstance(lp, dict):
            total += sum(len(entries) for entries in lp.values())
        else:
            total += len(lp)
    return total


class _ShardReader(_Reader):
    """Scatter-gather point and batch reads; a :class:`ShardError` is the
    designed degraded mode (a shard is down, or no consistent cut was
    reachable in time) and counts as a refusal, never a failure."""

    def __init__(self, cluster, events):
        super().__init__(cluster.query_tagged, cluster.query_many)
        self.events = events
        self.post_restart_reads = 0

    def judge(self, s, t, out):
        if "restarted" in self.events:
            self.post_restart_reads += 1


def run_shard_loadgen(backend="core", shards=4, partitioner="balanced",
                      readers=3, duration=1.2, n=240, m=720, churn=30,
                      batch_size=6, pause=0.001, seed=0,
                      sample_rate=0.2, reservoir=512, history=1024,
                      kill=False, restart=True, epsilon=0.35,
                      drain_timeout=30.0, state_dir=None, telemetry=None,
                      strict=True):
    """Run one audited shard-fleet load; returns a report dict.

    ``kill`` hard-stops shard-0 mid-run (and ``restart`` recovers it);
    ``epsilon`` is the slack of the per-shard ``(1+ε)/K`` memory bound.
    See the module docstring for the strict-mode contract.  With
    ``telemetry`` set to a directory, the fleet + audit stack are
    instrumented end to end and the registry is written there as a
    ``shard-<backend>[-kill].prom``/``.json`` pair.
    """
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    serve_config = ServeConfig(queue_capacity=4096)
    shard_config = ShardConfig(shards=shards, partitioner=partitioner)
    events = {}
    problems = []

    def kill_shard():
        cluster.kill_shard(0)
        events["killed"] = "shard-0"
        events["killed_at_seq"] = cluster.primary.applied_seq

    def restart_shard():
        cluster.restart_shard(0)
        events["restarted"] = "shard-0"
        events["restarted_at_seq"] = cluster.primary.applied_seq

    # Kill shard-0 at 0.35·T; optionally restart it at 0.65·T.
    faults = [(0.35, kill_shard)] if kill else []
    if kill and restart:
        faults.append((0.65, restart_shard))

    with _Harness("shard", state_dir, telemetry) as h:
        cluster = h.own(ShardedCluster(
            engine, h.state_dir, config=shard_config,
            serve_config=serve_config, overwrite=True,
        ))
        entries_at_start = _primary_entries(engine)
        audit = h.own(AuditSession(
            cluster, h.state_dir, sample_rate, reservoir, seed + 5, history,
        ))
        h.instrument(cluster, engine, audit)
        shard_readers = [_ShardReader(cluster, events) for _ in range(readers)]
        run = _run_load(
            "shard", shard_readers, pairs, seed + 30, cluster.submit_many,
            cycle, batch_size, pause, duration, refusal=ShardError,
            faults=faults,
        )
        recovered = True
        if "restarted" in events:
            # Prove recovery explicitly: a synced fleet must answer again.
            try:
                cluster.sync(timeout=30.0)
                cluster.query(*pairs[0])
            except ShardError as exc:
                recovered = False
                problems.append(f"post-restart read failed: {exc}")
        else:
            cluster.primary.flush(timeout=30.0)
        audit.drain(problems, drain_timeout)
        entries_at_end = _primary_entries(engine)
        router_stats = cluster.router.stats()
        partitioner_desc = cluster.partitioner.describe()
        telemetry_paths = h.write_telemetry(
            f"shard-{backend}" + ("-kill" if kill else "")
        )
        audit.close(problems)
        h.close(cluster, problems, ShardError)

    problems.extend(run["problems"])

    # -- memory criterion ------------------------------------------------
    # The primary's entry count moves with the churn; take the larger of
    # the start/end observations as the unsharded baseline.  Shard peaks
    # are tracked continuously by their stores.
    primary_entries = max(entries_at_start, entries_at_end)
    shard_peaks = {
        s["name"]: s["peak_entries"] for s in router_stats["shards"]
    }
    bound = (1.0 + epsilon) / shards
    ratios = {
        name: (peak / primary_entries if primary_entries else 0.0)
        for name, peak in shard_peaks.items()
    }
    memory = {
        "primary_entries": primary_entries,
        "shard_peak_entries": shard_peaks,
        "peak_ratio": {k: round(v, 4) for k, v in ratios.items()},
        "bound": round(bound, 4),
        "epsilon": epsilon,
        "within_bound": all(r <= bound for r in ratios.values()),
    }

    refusals = run["refusals"]
    if strict:
        audit.judge(problems)
        if "killed" in events and not refusals:
            problems.append(
                "shard-0 was killed but no reader observed a refusal — "
                "the router kept serving without a hub slice"
            )
        if "restarted" in events and not recovered:
            problems.append("fleet did not serve again after the restart")
        if not memory["within_bound"]:
            problems.append(
                f"memory criterion violated: peak shard ratios "
                f"{memory['peak_ratio']} exceed (1+{epsilon})/{shards} "
                f"= {bound:.3f}"
            )

    result = {
        "backend": backend,
        "shards": shards,
        "partitioner": partitioner_desc,
        "readers": readers,
        "graph": {"n": n, "m": m},
        **_load_report(run),
        "refusals": refusals,
        "sample_rate": sample_rate,
        "sampler": audit.sampler_stats,
        "auditor": audit.auditor_stats,
        "router": {
            "routed": router_stats["routed"],
            "refusals": router_stats["refusals"],
            "cut_waits": router_stats["cut_waits"],
        },
        "shards": router_stats["shards"],
        "memory": memory,
        "telemetry": telemetry_paths,
        "fault_injection": dict(
            events,
            post_restart_reads=sum(
                reader.post_restart_reads for reader in shard_readers
            ),
        ),
        "shard_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        raise audit.report.error(
            f"shard loadgen observed {len(problems)} problem(s) "
            f"({backend} backend, {shards} shards): {preview}"
        )
    return result
