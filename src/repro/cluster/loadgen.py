"""Fault-injection load harness for the replicated serving layer.

Drives mixed traffic against an :class:`~repro.cluster.SPCCluster` — N
reader threads issuing routed point and batch queries, one submitter
feeding the primary a cyclic update stream — while a fault controller
kills one replica mid-stream and later crash-recovers it from the current
checkpoint + WAL tail.  It runs on the shared load driver of
:mod:`repro.serve.loadgen` and, like every harness on it, checks
*consistency*, never timing (CI's cluster-smoke job trips only on
violations):

* **staleness violations** — under ``bounded_staleness``, an answer
  tagged with a seq below ``primary_seq − Δ`` (primary seq sampled
  *before* routing, so the bound is conservative);
* **per-target snapshot regression** — one target handing a reader a
  lower seq than it already served that reader (publication per replica
  must be monotone; hopping between replicas may lower the seq, which is
  exactly what the staleness bound prices in);
* **malformed answers** — finite distance with no paths, or an infinite
  distance with a path count;
* **divergence** — a killed-and-restarted replica failing to converge
  back to the primary's seq, or any replica ending unhealthy;
* **the replay oracle** — after the run, every recorded
  ``(seq, pair, answer)`` from *any* target is checked against a
  progressive WAL replay at exactly that seq: the initial checkpoint
  payload is captured up front, then records are replayed batch by batch
  and each served answer must equal the reference index's.  An answer
  matching no replayable prefix of the log is a torn or diverged read,
  caught after the fact no matter which replica served it.

Wired into the benchmark CLI as ``repro-bench cluster`` (results land in
``bench_results/cluster.json``); importable via :func:`run_cluster_loadgen`.
"""

import os
import time

from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ClusterError
from repro.cluster.cluster import ClusterConfig, SPCCluster
from repro.serve.loadgen import (
    _check_answer,
    _Harness,
    _load_report,
    _Reader,
    _run_load,
    make_pair_picker,
    make_workload,
)
from repro.serve.persist import engine_from_payload, load_checkpoint
from repro.serve.service import SNAPSHOT_FILENAME, WAL_FILENAME, ServeConfig
from repro.serve.wal import read_wal


class _ClusterReader(_Reader):
    """Routed point and batch reads, each recorded with its claimed seq
    for the replay oracle and audited on the spot — both router paths
    share one audit, so they cannot silently get different coverage.

    Every answer is checked for a malformed shape (the serve loadgen's
    ``_check_answer``); the target's seq for staleness (``floor`` is
    sampled *before* routing, so the bound is conservative) and for
    per-target monotonicity.
    """

    def __init__(self, cluster, bounded, delta):
        super().__init__(cluster.query_tagged,
                         cluster.router.query_many_tagged)
        self.cluster = cluster
        self.bounded = bounded
        self.delta = delta
        self.floor = 0
        self.last_seq_by_target = {}
        self.served = []  # (seq, s, t, answer) — every answer served

    def before(self):
        self.floor = self.cluster.primary.applied_seq

    def judge(self, s, t, out):
        answer, seq, target = out
        self._audit(target, seq, [((s, t), answer)])

    def judge_many(self, batch, out):
        answers, seq, target = out
        self._audit(target, seq, list(zip(batch, answers)))

    def _audit(self, target, seq, answered):
        if self.bounded and seq < self.floor - self.delta:
            self.problems.append(
                f"staleness violation: {target} served seq {seq} with "
                f"primary at >= {self.floor}, delta {self.delta}"
            )
        last = self.last_seq_by_target.get(target)
        if last is not None and seq < last:
            self.problems.append(
                f"snapshot regressed on {target}: seq {seq} after {last}"
            )
        self.last_seq_by_target[target] = seq
        for (s, t), answer in answered:
            self.served.append((seq, s, t, answer))
            _check_answer(s, t, answer, self.problems, seq=seq)


def _verify_against_replay(state_dir, initial_payload, served, problems,
                           backend):
    """The replay oracle: every served (seq, pair, answer) must equal the
    reference engine's answer after replaying exactly ``seq`` batches.

    Mismatches are classified and filed through the shared audit
    comparator (:func:`repro.audit.classify_divergence`) — the same
    vocabulary the live :class:`~repro.audit.ShadowAuditor` uses — and
    returned as a :class:`~repro.audit.DivergenceReport` so the caller
    can raise :class:`~repro.exceptions.AuditDivergenceError` with the
    offending WAL seq attached.
    """
    from repro.audit.comparator import (
        Divergence,
        DivergenceReport,
        classify_divergence,
    )

    report = DivergenceReport()

    def audit(seq, queries, reference):
        for s, t, answer in queries:
            expected = reference.index.query(s, t)
            severity = classify_divergence(expected, answer)
            if severity is not None:
                divergence = Divergence(
                    query=(s, t), seq=seq, expected=expected, got=answer,
                    backend=backend, epoch=-1, severity=severity,
                )
                report.record(divergence)
                problems.append(
                    f"replay oracle: {divergence.describe()}"
                )

    by_seq = {}
    for seq, s, t, answer in served:
        by_seq.setdefault(seq, []).append((s, t, answer))
    reference = engine_from_payload(initial_payload)
    base_seq = initial_payload.get("applied_seq", 0)
    replayed = {base_seq}
    audit(base_seq, by_seq.get(base_seq, []), reference)
    wal_path = os.path.join(state_dir, WAL_FILENAME)
    for seq, updates in read_wal(wal_path):
        reference.apply_stream(updates)
        replayed.add(seq)
        audit(seq, by_seq.get(seq, []), reference)
    unreplayable = sorted(set(by_seq) - replayed)
    if unreplayable:
        problems.append(
            f"answers claimed seqs with no WAL prefix: {unreplayable[:5]}"
        )
    return report


def run_cluster_loadgen(backend="core", replicas=2, readers=4, duration=1.2,
                        n=240, m=720, churn=30, batch_size=6, pause=0.001,
                        seed=0, policy="bounded_staleness",
                        staleness_delta=16, publish_every=8,
                        max_staleness=0.01, inject_fault=True,
                        source_picker=None, picker_kwargs=None,
                        state_dir=None, telemetry=None, strict=True):
    """Run one replicated, fault-injected load; returns a report dict.

    With ``strict`` (the default) any observed inconsistency — staleness
    violation, per-target regression, divergence, a replay-oracle
    mismatch, or a crashed thread — raises
    :class:`~repro.exceptions.ClusterError` listing every problem.
    Timing numbers are recorded, never judged.  With ``telemetry`` set
    to a directory, the fleet is instrumented end to end
    (:meth:`~repro.cluster.SPCCluster.set_metrics`) and its registry is
    written there as a ``cluster-<backend>.prom``/``.json`` pair.
    """
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    vertices = sorted(graph.vertices())
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    cluster_config = ClusterConfig(
        replicas=replicas,
        policy=policy,
        staleness_delta=staleness_delta,
    )
    events = {}
    problems = []

    def kill_replica():
        cluster.kill_replica("replica-0")
        events["killed_at_seq"] = cluster.primary.applied_seq

    def restart_replica():
        # A mid-run durable checkpoint (no truncation: the replay oracle
        # needs the full log) makes the restart a true checkpoint + tail
        # recovery rather than a replay-everything one.
        cluster.checkpoint()
        target_seq = cluster.primary.applied_seq
        events["restarted_at_seq"] = target_seq
        began = time.perf_counter()
        replica = cluster.restart_replica("replica-0")
        events["converged"] = replica.catch_up(target_seq, timeout=30.0)
        if events["converged"]:
            events["catch_up_ms"] = round(
                (time.perf_counter() - began) * 1e3, 3
            )
        else:
            problems.append(
                f"restarted replica stuck at seq {replica.applied_seq}, "
                f"needed {target_seq}"
            )

    with _Harness("cluster", state_dir, telemetry) as h:
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
        # Snapshot the initial state *now*: mid-run checkpoints overwrite
        # snapshot.json, and the replay oracle must start from seq 0.
        initial_payload = load_checkpoint(
            os.path.join(h.state_dir, SNAPSHOT_FILENAME)
        )
        h.instrument(cluster, engine)
        bounded = policy == "bounded_staleness"
        cluster_readers = [
            _ClusterReader(cluster, bounded, staleness_delta)
            for _ in range(readers)
        ]
        run = _run_load(
            "cluster", cluster_readers, pairs, seed + 20,
            cluster.submit_many, cycle, batch_size, pause, duration,
            # Kill replica-0 a third of the way in, crash-recover it at
            # 0.6·T, and measure how long the restart takes to converge.
            faults=[(0.3, kill_replica), (0.6, restart_replica)]
            if inject_fault else (),
            picker=lambda sd: make_pair_picker(source_picker, vertices, sd,
                                               picker_kwargs),
        )
        final_seq = cluster.sync(timeout=30.0)
        stats = cluster.stats()
        cluster.check_invariants()
        telemetry_paths = h.write_telemetry(f"cluster-{backend}")
        for name, replica in cluster.replicas.items():
            if not replica.healthy:
                problems.append(
                    f"replica {name} ended unhealthy: {replica.fatal!r}"
                )
            elif replica.applied_seq != final_seq:
                problems.append(
                    f"replica {name} diverged: seq {replica.applied_seq} "
                    f"!= primary {final_seq}"
                )
        h.close(cluster, problems, ClusterError)

        problems.extend(run["problems"])
        served = [item for reader in cluster_readers
                  for item in reader.served]
        replay_report = _verify_against_replay(
            h.state_dir, initial_payload, served, problems, backend
        )

    primary_stats = stats["primary"]
    if primary_stats["errors"]:
        problems.append(
            f"primary rejected {primary_stats['errors']} update(s); the "
            f"cyclic stream is valid by construction"
        )
    report = {
        "backend": backend,
        "replicas": replicas,
        "readers": readers,
        "policy": policy,
        "staleness_delta": staleness_delta,
        "graph": {"n": n, "m": m},
        **_load_report(run),
        "answers_audited": len(served),
        "updates_applied": primary_stats["applied_updates"],
        "applied_batches": primary_stats["applied_batches"],
        "telemetry": telemetry_paths,
        "routed": stats["router"]["routed"],
        "primary_reads": stats["router"]["primary_reads"],
        "router_fallbacks": stats["router"]["fallbacks"],
        "router_waits": stats["router"]["waits"],
        "replica_stats": stats["replicas"],
        "fault_injection": events,
        "consistency_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        message = (
            f"cluster loadgen observed {len(problems)} inconsistencies "
            f"({backend} backend): {preview}"
        )
        if replay_report.total:
            # Replay-oracle divergences carry their offending WAL seq;
            # surface them through the audit stack's typed error.
            raise replay_report.error(message)
        raise ClusterError(message)
    return report
