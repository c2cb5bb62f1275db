"""ShadowAuditor end to end against a live SPCService."""

import time
from unittest import mock

import pytest

from repro.audit import (
    COUNT_MISMATCH,
    DIST_MISMATCH,
    REFUSAL,
    AuditSampler,
    DivergenceReport,
    ShadowAuditor,
    tamper_backend,
)
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import AuditDivergenceError, ServeError
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.serve.persist import load_checkpoint
from repro.serve.service import SNAPSHOT_FILENAME, ServeConfig, SPCService
from repro.workloads import random_insertions

BACKEND_GRAPHS = [
    ("core", lambda: erdos_renyi(30, 70, seed=3)),
    ("directed", lambda: random_directed(30, 70, seed=3)),
    ("weighted", lambda: random_weighted(30, 70, seed=3)),
    ("sd", lambda: erdos_renyi(30, 70, seed=3)),
]


def serve_with_audit(tmp_path, backend="core", graph=None, rate=1.0,
                     report=None):
    graph = graph if graph is not None else erdos_renyi(30, 70, seed=3)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    service = SPCService(
        engine,
        config=ServeConfig(publish_every=1, durability_dir=str(tmp_path)),
        overwrite=True,
    )
    sampler = AuditSampler(rate=rate, capacity=4096, seed=1)
    service.set_answer_tap(sampler)
    auditor = ShadowAuditor(sampler, str(tmp_path), report=report)
    return service, sampler, auditor


def drive(service, updates, pairs):
    for update in updates:
        service.submit(update)
        service.flush()
        for s, t in pairs:
            service.query(s, t)


@pytest.mark.parametrize("backend,maker", BACKEND_GRAPHS)
def test_clean_run_flags_nothing(tmp_path, backend, maker):
    graph = maker()
    vs = sorted(graph.vertices())
    pairs = [(vs[i], vs[-1 - i]) for i in range(6)]
    service, sampler, auditor = serve_with_audit(
        tmp_path, backend=backend, graph=graph
    )
    try:
        updates = list(random_insertions(graph.copy(), 6, seed=5))
        drive(service, updates, pairs)
        assert auditor.drain(timeout=20.0)
        assert auditor.report.total == 0
        assert auditor.audited > 0
        assert auditor.healthy
        stats = auditor.stats()
        assert stats["backend"] == backend
        assert stats["divergences"]["total"] == 0
    finally:
        auditor.close()
        service.close()


@pytest.mark.parametrize("mode,expected", [
    ("count", COUNT_MISMATCH),
    ("dist", DIST_MISMATCH),
    ("refusal", REFUSAL),
])
def test_tampered_service_is_flagged_with_the_right_class(
    tmp_path, mode, expected
):
    graph = erdos_renyi(30, 70, seed=3)
    vs = sorted(graph.vertices())
    pairs = [(vs[i], vs[-1 - i]) for i in range(6)]
    engine = SPCEngine(graph, config=EngineConfig(backend="core"))
    service = SPCService(
        engine,
        config=ServeConfig(publish_every=1, durability_dir=str(tmp_path)),
        overwrite=True,
    )
    sampler = AuditSampler(rate=1.0, capacity=4096, seed=1)
    service.set_answer_tap(sampler)
    auditor = ShadowAuditor(sampler, str(tmp_path))
    try:
        tamper_backend(engine.backend, mode)
        updates = list(random_insertions(graph.copy(), 4, seed=5))
        drive(service, updates, pairs)
        assert auditor.drain(timeout=20.0)
        assert auditor.report.total > 0
        assert auditor.report.severities_seen() == [expected]
        first = auditor.report.divergences[0]
        assert first.backend == "core"
        assert first.target == "service"
    finally:
        auditor.close()
        service.close()


def test_raise_sink_kills_the_auditor_and_close_reraises(tmp_path):
    graph = erdos_renyi(30, 70, seed=3)
    vs = sorted(graph.vertices())
    engine = SPCEngine(graph, config=EngineConfig(backend="core"))
    service = SPCService(
        engine,
        config=ServeConfig(publish_every=1, durability_dir=str(tmp_path)),
        overwrite=True,
    )
    sampler = AuditSampler(rate=1.0, capacity=4096, seed=1)
    service.set_answer_tap(sampler)
    auditor = ShadowAuditor(
        sampler, str(tmp_path), report=DivergenceReport(sink="raise")
    )
    try:
        tamper_backend(engine.backend, "count")
        for update in random_insertions(graph.copy(), 3, seed=5):
            service.submit(update)
            service.flush()
            for i in range(6):
                service.query(vs[i], vs[-1 - i])
        with pytest.raises(ServeError):
            auditor.drain(timeout=20.0)
        assert not auditor.healthy
        assert isinstance(auditor.fatal, AuditDivergenceError)
        with pytest.raises(AuditDivergenceError):
            auditor.close()
    finally:
        service.close()


def test_survives_wal_compaction(tmp_path):
    # A caught-up auditor may skip the compaction marker and keep
    # streaming, or re-bootstrap if its poll raced the truncation — both
    # are correct; what matters is that it stays healthy, catches up,
    # and flags nothing.
    graph = erdos_renyi(30, 70, seed=3)
    vs = sorted(graph.vertices())
    service, sampler, auditor = serve_with_audit(tmp_path, graph=graph)
    try:
        updates = list(random_insertions(graph.copy(), 6, seed=5))
        drive(service, updates[:3], [(vs[0], vs[-1])])
        assert auditor.drain(timeout=20.0)
        service.checkpoint(truncate_wal=True)
        drive(service, updates[3:], [(vs[1], vs[-2])])
        assert auditor.drain(timeout=20.0)
        assert auditor.seq == service.snapshot().seq
        assert auditor.audited >= 6
        assert auditor.report.total == 0
        assert auditor.healthy
    finally:
        auditor.close()
        service.close()


def test_lagging_auditor_rebootstraps_after_wal_compaction(tmp_path):
    # Deterministic version of the lagging case: blind the tailer so the
    # primary provably applies, compacts, and moves on while the auditor
    # is behind — its next real poll must see the compaction marker past
    # its position and re-bootstrap from the fresh checkpoint.
    import threading

    graph = erdos_renyi(30, 70, seed=3)
    vs = sorted(graph.vertices())
    service, sampler, auditor = serve_with_audit(tmp_path, graph=graph)
    try:
        updates = list(random_insertions(graph.copy(), 6, seed=5))
        drive(service, updates[:3], [(vs[0], vs[-1])])
        assert auditor.drain(timeout=20.0)
        assert auditor.seq == 3
        gate = threading.Event()
        tailer = auditor._tailer
        real_poll = tailer.poll
        tailer.poll = lambda: real_poll() if gate.is_set() else ([], False)
        drive(service, updates[3:5], [(vs[1], vs[-2])])  # seqs 4-5, unseen
        service.checkpoint(truncate_wal=True)            # marker at seq 5
        drive(service, updates[5:], [(vs[2], vs[-3])])   # seq 6, post-marker
        gate.set()
        assert auditor.drain(timeout=20.0)
        assert auditor.bootstraps == 2
        assert auditor.seq == service.snapshot().seq
        # Samples claiming seqs below the re-bootstrap base are an audit
        # coverage gap, accounted — never divergences.
        assert auditor.skipped_stale >= 1
        assert auditor.report.total == 0
        assert auditor.healthy
    finally:
        auditor.close()
        service.close()


def _force_gap_over_a_corrupt_checkpoint(auditor, tmp_path):
    """Corrupt the primary's checkpoint, then make the auditor's next poll
    report a stream gap, so its re-bootstrap reads the corrupt file.
    Returns the checkpoint's good bytes."""
    snapshot = tmp_path / SNAPSHOT_FILENAME
    good = snapshot.read_bytes()
    snapshot.write_bytes(good[: len(good) // 2])  # torn: fails to parse
    auditor._tailer.poll = lambda: ([], True)
    return good


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def test_unreadable_checkpoint_on_a_gap_is_retried(tmp_path):
    graph = erdos_renyi(30, 70, seed=3)
    vs = sorted(graph.vertices())
    engine = SPCEngine(graph, config=EngineConfig(backend="core"))
    service = SPCService(
        engine,
        config=ServeConfig(publish_every=1, durability_dir=str(tmp_path)),
        overwrite=True,
    )
    sampler = AuditSampler(rate=1.0, capacity=4096, seed=1)
    service.set_answer_tap(sampler)
    auditor = ShadowAuditor(sampler, str(tmp_path), poll_interval=0.001,
                            stall_budget=1 << 20)
    try:
        updates = list(random_insertions(graph.copy(), 4, seed=5))
        drive(service, updates[:2], [(vs[0], vs[-1])])
        assert auditor.drain(timeout=20.0)
        reads = []

        def counted_load(path):
            reads.append(path)
            return load_checkpoint(path)

        with mock.patch("repro.serve.follower.load_checkpoint", counted_load):
            good = _force_gap_over_a_corrupt_checkpoint(auditor, tmp_path)
            # Several failed re-bootstraps go by without killing the thread.
            _wait_until(lambda: len(reads) >= 5)
            assert auditor.healthy
            assert auditor.bootstraps == 1
            (tmp_path / SNAPSHOT_FILENAME).write_bytes(good)
            _wait_until(lambda: auditor.bootstraps == 2)
        drive(service, updates[2:], [(vs[1], vs[-2])])
        assert auditor.drain(timeout=20.0)
        assert auditor.healthy
        assert auditor.seq == service.snapshot().seq
        assert auditor.report.total == 0
    finally:
        auditor.close()
        service.close()


def test_unreadable_checkpoint_spends_the_stall_budget(tmp_path):
    graph = erdos_renyi(30, 70, seed=3)
    engine = SPCEngine(graph, config=EngineConfig(backend="core"))
    service = SPCService(
        engine,
        config=ServeConfig(publish_every=1, durability_dir=str(tmp_path)),
        overwrite=True,
    )
    sampler = AuditSampler(rate=1.0, capacity=4096, seed=1)
    auditor = ShadowAuditor(sampler, str(tmp_path), poll_interval=0.001,
                            stall_budget=3)
    try:
        _force_gap_over_a_corrupt_checkpoint(auditor, tmp_path)
        _wait_until(lambda: not auditor.healthy)
        assert isinstance(auditor.fatal, ServeError)
        assert "3 consecutive re-bootstraps" in str(auditor.fatal)
        assert isinstance(auditor.fatal.__cause__, ServeError)
        with pytest.raises(ServeError):
            auditor.close()
    finally:
        service.close()


def test_constructor_bootstrap_fails_loudly(tmp_path):
    service, _, auditor = serve_with_audit(tmp_path)
    auditor.close()
    snapshot = tmp_path / SNAPSHOT_FILENAME
    snapshot.write_bytes(snapshot.read_bytes()[:10])
    try:
        with pytest.raises(ServeError):
            ShadowAuditor(AuditSampler(rate=1.0, seed=1), str(tmp_path))
    finally:
        service.close()


def test_context_manager_and_repr(tmp_path):
    service, sampler, auditor = serve_with_audit(tmp_path)
    with auditor:
        assert "ShadowAuditor" in repr(auditor)
        assert auditor.seq == 0
    service.close()
