"""One stream follower, three payloads: Replica, Shard and ShadowAuditor
must share the re-bootstrap contract — the high-water stall rule on a
poisoned stream, and retry-then-die on an unreadable checkpoint."""

import os
import time
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from repro.audit import AuditSampler, ShadowAuditor
from repro.cluster import Replica
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ClusterError, ServeError, ShardError
from repro.graph.generators import erdos_renyi
from repro.resilience.chaos import flip_bit_in_record
from repro.serve.persist import load_checkpoint
from repro.serve.service import (
    JOURNAL_FILENAME,
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    ServeConfig,
    SPCService,
)
from repro.shard import Shard, make_partitioner
from repro.workloads import random_insertions


class Kind(NamedTuple):
    make: Callable        # (service, **follower kwargs) -> follower
    error: type           # the follower's own error type
    stream: str           # the log file it tails


def _auditor(service, **kw):
    sampler = AuditSampler(rate=1.0, capacity=4096, seed=1)
    service.set_answer_tap(sampler)
    return ShadowAuditor(sampler, service.config.durability_dir, **kw)


KINDS = {
    "replica": Kind(
        lambda service, **kw: Replica(
            service.config.durability_dir, name="r0", **kw
        ),
        ClusterError, WAL_FILENAME,
    ),
    "shard": Kind(
        lambda service, **kw: Shard(
            service.config.durability_dir, 0, make_partitioner("hash", 2),
            **kw
        ),
        ShardError, JOURNAL_FILENAME,
    ),
    "auditor": Kind(_auditor, ServeError, WAL_FILENAME),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def _service(tmp_path):
    graph = erdos_renyi(40, 90, seed=3)
    engine = SPCEngine(graph, config=EngineConfig(backend="core"))
    return SPCService(
        engine,
        config=ServeConfig(publish_every=1, durability_dir=str(tmp_path),
                           label_journal=True),
        overwrite=True,
    )


def _apply(service, updates):
    for update in updates:
        service.submit(update)
        service.flush()


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def _settle(follower, service):
    """Wait until the follower reflects everything the primary applied."""
    if isinstance(follower, ShadowAuditor):
        assert follower.drain(timeout=20.0)
        assert follower.seq == service.snapshot().seq
        assert follower.report.total == 0
    else:
        assert follower.catch_up(service.applied_seq, timeout=20.0)


def _force_gap_over_a_corrupt_checkpoint(follower, tmp_path):
    """Corrupt the primary's checkpoint, then make the follower's next poll
    report a stream gap, so its re-bootstrap reads the corrupt file.
    Returns the checkpoint's good bytes."""
    snapshot = tmp_path / SNAPSHOT_FILENAME
    good = snapshot.read_bytes()
    snapshot.write_bytes(good[: len(good) // 2])  # torn: fails to parse
    follower._tailer.poll = lambda: ([], True)
    return good


def test_poisoned_stream_spends_the_stall_budget(tmp_path, kind):
    # A flipped interior record past the checkpoint: every re-bootstrap
    # re-reads the same prefix and stops at the same record.  Ground
    # re-covered is not progress, so the budget must run out.
    service = _service(tmp_path)
    follower = None
    try:
        _apply(service, random_insertions(service.engine.graph, 6, seed=9))
        flip_bit_in_record(os.path.join(str(tmp_path), kind.stream),
                           record=3, seed=17)
        follower = kind.make(service, poll_interval=0.001,
                             stall_budget=3)
        _wait_until(lambda: not follower.healthy, timeout=5.0)
        assert isinstance(follower.fatal, kind.error)
        assert "corrupt" in str(follower.fatal)
        assert follower.bootstraps <= 1 + 3
        assert follower.stream_corruptions >= 1
    finally:
        if follower is not None:
            follower.kill()
        service.close()


def test_unreadable_checkpoint_on_a_gap_is_retried(tmp_path, kind):
    service = _service(tmp_path)
    follower = kind.make(service, poll_interval=0.001,
                         stall_budget=1 << 20)
    vs = sorted(service.engine.graph.vertices())
    try:
        updates = list(random_insertions(service.engine.graph.copy(), 4,
                                         seed=5))
        _apply(service, updates[:2])
        service.query(vs[0], vs[-1])
        _settle(follower, service)
        reads = []

        def counted_load(path):
            reads.append(path)
            return load_checkpoint(path)

        with mock.patch("repro.serve.follower.load_checkpoint", counted_load):
            good = _force_gap_over_a_corrupt_checkpoint(follower, tmp_path)
            # Several failed re-bootstraps go by without killing the thread.
            _wait_until(lambda: len(reads) >= 5)
            assert follower.healthy
            assert follower.bootstraps == 1
            (tmp_path / SNAPSHOT_FILENAME).write_bytes(good)
            _wait_until(lambda: follower.bootstraps == 2)
        _apply(service, updates[2:])
        service.query(vs[1], vs[-2])
        _settle(follower, service)
        assert follower.healthy
    finally:
        follower.close()
        service.close()


def test_unreadable_checkpoint_spends_the_stall_budget(tmp_path, kind):
    service = _service(tmp_path)
    follower = kind.make(service, poll_interval=0.001, stall_budget=3)
    try:
        _force_gap_over_a_corrupt_checkpoint(follower, tmp_path)
        _wait_until(lambda: not follower.healthy)
        assert isinstance(follower.fatal, kind.error)
        assert "3 consecutive re-bootstraps" in str(follower.fatal)
        assert isinstance(follower.fatal.__cause__, ServeError)
        with pytest.raises(kind.error):
            follower.close()
    finally:
        service.close()
