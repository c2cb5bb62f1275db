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

import shutil
import tempfile
import time

from repro.audit.comparator import (
    COUNT_MISMATCH,
    DIST_MISMATCH,
    REFUSAL,
    DivergenceReport,
)
from repro.audit.faults import corrupt_snapshot_wrapper
from repro.audit.sampler import AuditSampler
from repro.audit.shadow import ShadowAuditor
from repro.cluster.cluster import ClusterConfig, SPCCluster
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import AuditDivergenceError, ClusterError, ServeError
from repro.serve.loadgen import (
    _close_quietly,
    _latency_ms,
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
    own_dir = state_dir is None
    state_dir = state_dir or tempfile.mkdtemp(prefix="repro-audit-")
    serve_config = ServeConfig(
        publish_every=publish_every,
        max_staleness=max_staleness,
        queue_capacity=4096,
        durability_dir=state_dir,
    )
    cluster_config = ClusterConfig(
        replicas=replicas,
        policy=policy,
        staleness_delta=staleness_delta,
    )
    cluster = None
    auditor = None
    detection = {}
    try:
        cluster = SPCCluster(
            engine, state_dir, config=cluster_config,
            serve_config=serve_config, overwrite=True,
        )
        sampler = AuditSampler(
            rate=sample_rate, capacity=reservoir, seed=seed + 5
        )
        cluster.set_answer_tap(sampler)

        def on_divergence(divergence):
            # Record *when* the tripwire fired, relative to the run —
            # the detection-latency number the report exposes.
            detection.setdefault("first_divergence_at", time.time())
            detection.setdefault("first_divergence_seq", divergence.seq)
            detection.setdefault("first_divergence_severity",
                                 divergence.severity)

        auditor = ShadowAuditor(
            sampler, state_dir,
            report=DivergenceReport(sink=on_divergence),
            history=history,
        )
        registry = tracer = None
        if telemetry is not None:
            from repro.obs import MetricsRegistry, Tracer

            registry = MetricsRegistry()
            tracer = Tracer()
            cluster.set_metrics(registry, tracer=tracer)
            engine.set_metrics(registry)
            sampler.set_metrics(registry)
            auditor.set_metrics(registry)
    except BaseException:
        _close_quietly([auditor, cluster], state_dir if own_dir else None)
        raise

    events = {}

    def kill_replica():
        cluster.kill_replica("replica-0")
        events["killed"] = "replica-0"
        events["killed_at_seq"] = cluster.primary.applied_seq

    def corrupt_replica():
        victim = events.get("killed")
        candidates = [
            nm for nm in cluster.router.replica_names() if nm != victim
        ]
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
    problems = []
    try:
        run = _run_load(
            "audit",
            [_Reader(cluster.query_tagged, cluster.router.query_many_tagged)
             for _ in range(readers)],
            pairs, seed + 30, cluster.submit_many, cycle, batch_size, pause,
            duration, faults=faults,
            picker=lambda sd: make_pair_picker(source_picker, vertices, sd,
                                               picker_kwargs),
        )
        run_started, run_ended = run["started"], run["ended"]
        cluster.sync(timeout=30.0)
        if not auditor.drain(timeout=drain_timeout):
            problems.append(
                f"auditor failed to drain within {drain_timeout} s "
                f"(pending {auditor.stats()['pending']})"
            )
        elapsed = run_ended - run_started
        sampler_stats = sampler.stats()
        auditor_stats = auditor.stats()
        if registry is not None:
            from repro.obs.export import write_files

            stem = f"audit-{backend}" + (f"-{corrupt}" if corrupt else "")
            telemetry_paths = write_files(
                registry, telemetry, tracer=tracer, stem=stem,
            )
        try:
            auditor.close()
        except ServeError as exc:
            problems.append(f"auditor died: {exc}")
    except BaseException:
        _close_quietly([auditor, cluster], state_dir if own_dir else None)
        raise
    try:
        cluster.close()
    except ClusterError as exc:
        problems.append(f"shutdown failure: {exc}")
    if own_dir:
        shutil.rmtree(state_dir, ignore_errors=True)

    problems.extend(run["problems"])

    report = auditor.report
    severities = report.severities_seen()
    expected = EXPECTED_SEVERITY.get(corrupt)
    if "first_divergence_at" in detection:
        detection["detected_during_run"] = (
            detection["first_divergence_at"] <= run_ended
        )
        detection["detection_after_s"] = round(
            detection.pop("first_divergence_at") - run_started, 3
        )
    if strict:
        if auditor_stats["audited"] == 0:
            problems.append(
                "auditor audited zero samples — the run proves nothing "
                "(raise duration, sample_rate or reservoir)"
            )
        if corrupt is None and report.total:
            problems.append(
                f"clean run reported {report.total} divergence(s): "
                f"{report.divergences[0].describe()}"
            )
        if corrupt is not None:
            if not report.total:
                problems.append(
                    f"corrupted run ({corrupt}) went undetected across "
                    f"{auditor_stats['audited']} audited answers"
                )
            elif severities != [expected]:
                problems.append(
                    f"corrupted run ({corrupt}) expected exactly the "
                    f"{expected!r} class, got {severities}"
                )

    reads = run["reads"]
    result = {
        "backend": backend,
        "replicas": replicas,
        "readers": readers,
        "policy": policy,
        "duration_s": round(elapsed, 3),
        "graph": {"n": n, "m": m},
        "reads": reads,
        "read_qps": round(reads / elapsed) if elapsed else 0,
        "read_latency_ms": _latency_ms(run["latencies"]),
        "updates_submitted": run["submitted"],
        "sample_rate": sample_rate,
        "sampler": sampler_stats,
        "auditor": auditor_stats,
        "corrupt_mode": corrupt,
        "expected_severity": expected,
        "severities_seen": severities,
        "detection": detection,
        "telemetry": list(telemetry_paths) if registry is not None else None,
        "fault_injection": events,
        "audit_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        first = report.divergences[0] if report.divergences else None
        raise AuditDivergenceError(
            f"audit loadgen observed {len(problems)} problem(s) "
            f"({backend} backend): {preview}",
            seq=first.seq if first else None,
            divergences=report.divergences,
        )
    return result
