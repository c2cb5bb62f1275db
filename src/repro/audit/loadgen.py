"""Serve-and-audit load harness: a replicated fleet under live shadow audit.

Drives routed read traffic and a cyclic update stream against an
:class:`~repro.cluster.SPCCluster` through the shared load driver of
:mod:`repro.serve.loadgen`, with the audit stack attached end to end: an
:class:`~repro.audit.AuditSampler` tapped into the router, a
:class:`~repro.audit.ShadowAuditor` tailing the primary's WAL, and an
optional *kill-and-corrupt* fault script:

* a third of the way in, replica-0 is killed mid-stream (the router
  routes around it);
* just before the midpoint, another replica's published snapshots are
  wrapped in a corrupting proxy (:func:`repro.audit.faults
  .corrupt_snapshot_wrapper`) — a byzantine replica that stays healthy
  and current while serving wrong answers.

With ``strict`` (the default) the run's contract is exact: a clean run
must end with **zero** divergences, and a corrupted run must end with at
least one divergence of **exactly** the severity class its corruption
mode maps to — anything else raises
:class:`~repro.exceptions.AuditDivergenceError`.  Timing numbers are
recorded, never judged (the CI audit-smoke job trips on contract
violations only).

Wired into the benchmark CLI as ``repro-bench audit`` (results land in
``bench_results/audit.json``); importable via :func:`run_audit_loadgen`.
"""

import time

from repro.audit.comparator import COUNT_MISMATCH, DIST_MISMATCH, REFUSAL
from repro.audit.faults import corrupt_snapshot_wrapper
from repro.audit.shadow import AuditSession
from repro.cluster.cluster import ClusterConfig, SPCCluster
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import AuditDivergenceError, ClusterError
from repro.serve.loadgen import (
    _Harness,
    _load_report,
    _Reader,
    _run_load,
    make_pair_picker,
    make_workload,
)
from repro.serve.service import ServeConfig

#: corruption mode -> the one severity class a strict run must report.
EXPECTED_SEVERITY = {
    "count": COUNT_MISMATCH,
    "dist": DIST_MISMATCH,
    "refusal": REFUSAL,
}


def run_audit_loadgen(backend="core", replicas=2, readers=3, duration=1.2,
                      n=240, m=720, churn=30, batch_size=6, pause=0.001,
                      seed=0, policy="bounded_staleness", staleness_delta=16,
                      publish_every=8, max_staleness=0.01,
                      sample_rate=0.2, reservoir=512, history=1024,
                      corrupt=None, kill=True, drain_timeout=30.0,
                      source_picker=None, picker_kwargs=None,
                      state_dir=None, telemetry=None, strict=True):
    """Run one audited, fault-injected cluster load; returns a report dict.

    ``corrupt`` is ``None`` (clean run) or a :data:`~repro.audit.faults
    .MODES` name; ``kill`` adds the mid-run replica kill.  See the module
    docstring for the strict-mode contract.  With ``telemetry`` set to a
    directory, the fleet + audit stack are instrumented end to end and
    the registry is written there as an
    ``audit-<backend>[-<corrupt>].prom``/``.json`` pair.
    """
    if corrupt is not None and corrupt not in EXPECTED_SEVERITY:
        raise AuditDivergenceError(
            f"unknown corruption mode {corrupt!r}; "
            f"choose from {sorted(EXPECTED_SEVERITY)}"
        )
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    vertices = sorted(graph.vertices())
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    cluster_config = ClusterConfig(
        replicas=replicas,
        policy=policy,
        staleness_delta=staleness_delta,
    )
    detection = {}
    events = {}
    problems = []

    def on_divergence(divergence):
        # Record *when* the tripwire fired, relative to the run — the
        # detection-latency number the report exposes.
        detection.setdefault("first_divergence_at", time.time())
        detection.setdefault("first_divergence_seq", divergence.seq)
        detection.setdefault("first_divergence_severity",
                             divergence.severity)

    def kill_replica():
        cluster.kill_replica("replica-0")
        events["killed"] = "replica-0"
        events["killed_at_seq"] = cluster.primary.applied_seq

    def corrupt_replica():
        victim = events.get("killed")
        candidates = [nm for nm in cluster.replicas if nm != victim]
        if not candidates:
            raise ClusterError(
                "corruption needs a live replica; run with "
                "replicas >= 2 when also killing one"
            )
        target = candidates[-1]
        cluster.replicas[target].set_snapshot_wrapper(
            corrupt_snapshot_wrapper(corrupt)
        )
        events["corrupted"] = target
        events["corrupted_at_seq"] = cluster.primary.applied_seq

    # Kill replica-0 at 0.3·T; tamper the last live replica at 0.45·T.
    faults = [(0.3, kill_replica)] if kill else []
    if corrupt:
        faults.append((0.45, corrupt_replica))

    with _Harness("audit", state_dir, telemetry) as h:
        serve_config = ServeConfig(
            publish_every=publish_every,
            max_staleness=max_staleness,
            queue_capacity=4096,
            durability_dir=h.state_dir,
        )
        cluster = h.own(SPCCluster(
            engine, h.state_dir, config=cluster_config,
            serve_config=serve_config, overwrite=True,
        ))
        audit = h.own(AuditSession(
            cluster, h.state_dir, sample_rate, reservoir, seed + 5, history,
            sink=on_divergence,
        ))
        h.instrument(cluster, engine, audit)
        run = _run_load(
            "audit",
            [_Reader(cluster.query_tagged, cluster.router.query_many_tagged)
             for _ in range(readers)],
            pairs, seed + 30, cluster.submit_many, cycle, batch_size, pause,
            duration, faults=faults,
            picker=lambda sd: make_pair_picker(source_picker, vertices, sd,
                                               picker_kwargs),
        )
        cluster.sync(timeout=30.0)
        audit.drain(problems, drain_timeout)
        telemetry_paths = h.write_telemetry(
            f"audit-{backend}" + (f"-{corrupt}" if corrupt else "")
        )
        audit.close(problems)
        h.close(cluster, problems, ClusterError)

    problems.extend(run["problems"])

    report = audit.report
    severities = report.severities_seen()
    expected = EXPECTED_SEVERITY.get(corrupt)
    if "first_divergence_at" in detection:
        detection["detected_during_run"] = (
            detection["first_divergence_at"] <= run["ended"]
        )
        detection["detection_after_s"] = round(
            detection.pop("first_divergence_at") - run["started"], 3
        )
    if strict:
        audit.judge(problems, clean=corrupt is None)
        if corrupt is not None:
            if not report.total:
                problems.append(
                    f"corrupted run ({corrupt}) went undetected across "
                    f"{audit.auditor_stats['audited']} audited answers"
                )
            elif severities != [expected]:
                problems.append(
                    f"corrupted run ({corrupt}) expected exactly the "
                    f"{expected!r} class, got {severities}"
                )

    result = {
        "backend": backend,
        "replicas": replicas,
        "readers": readers,
        "policy": policy,
        "graph": {"n": n, "m": m},
        **_load_report(run),
        "sample_rate": sample_rate,
        "sampler": audit.sampler_stats,
        "auditor": audit.auditor_stats,
        "corrupt_mode": corrupt,
        "expected_severity": expected,
        "severities_seen": severities,
        "detection": detection,
        "telemetry": telemetry_paths,
        "fault_injection": events,
        "audit_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        raise report.error(
            f"audit loadgen observed {len(problems)} problem(s) "
            f"({backend} backend): {preview}"
        )
    return result
