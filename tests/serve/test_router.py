"""The router contract: ClusterRouter and ShardRouter share one read path.

Both routers run over fake members with hand-set sequence numbers, so
every case is deterministic: per-member breakers and ``set_member``, the
floorless degraded path and its ``+degraded`` tap tag, the metric and
trace names ``set_metrics`` installs, ``set_metrics(None)`` leaving
no breaker listener behind, and an empty tagged batch claiming its floor
without a lease.
"""

import time

import pytest

from repro.cluster.router import ClusterRouter
from repro.exceptions import ClusterError, ShardError
from repro.obs import MetricsRegistry, Tracer
from repro.shard.scatter import ShardRouter

BREAKER = dict(breaker_threshold=2, breaker_cooldown=60.0)


class FakeSnapshot:
    def __init__(self, seq):
        self.seq = seq
        self.epoch = seq

    def query(self, s, t):
        return (1, 1)

    def query_many(self, pairs):
        return [(1, 1) for _pair in pairs]


class FakeReplica:
    """A replica (or the primary): one published snapshot, an applied
    seq, a health flag."""

    def __init__(self, name, applied_seq, published_seq=None, healthy=True):
        self.name = name
        self.applied_seq = applied_seq
        self.healthy = healthy
        seq = applied_seq if published_seq is None else published_seq
        self._snap = FakeSnapshot(seq)

    def snapshot(self):
        return self._snap


class FakeShard:
    """A shard whose ring holds views for ``seqs``; every partial is
    (1, 1), so a merged answer over K shards is (1, K)."""

    backend_name = "fake"
    counts = True

    def __init__(self, shard_id, seqs=(5,), healthy=True):
        self.shard_id = shard_id
        self.name = f"shard-{shard_id}"
        self.healthy = healthy
        self._seqs = set(seqs)

    @property
    def latest_seq(self):
        return max(self._seqs)

    @property
    def min_seq(self):
        return min(self._seqs)

    @property
    def applied_seq(self):
        return self.latest_seq

    def view_at(self, seq):
        return seq if seq in self._seqs else None

    def partial(self, s, t, view):
        return (1, 1)

    def stats(self):
        return {"name": self.name, "healthy": self.healthy}


def cluster_router(replicas=None, primary=None, **kw):
    primary = primary or FakeReplica("primary", 5)
    replicas = replicas or [FakeReplica("r0", 5), FakeReplica("r1", 5)]
    kw.setdefault("wait_timeout", 0.02)
    return ClusterRouter(primary, replicas, **BREAKER, **kw)


def shard_router(shards=None, **kw):
    shards = shards or [FakeShard(0), FakeShard(1)]
    kw.setdefault("wait_timeout", 0.02)
    return ShardRouter(shards, **BREAKER, **kw)


def _dead_first(make):
    """A router whose first member is down and whose second is fine."""
    if make is cluster_router:
        return make([FakeReplica("r0", 5, healthy=False),
                     FakeReplica("r1", 5)])
    return make([FakeShard(0, healthy=False), FakeShard(1)])


# name -> (router factory, error type, first member key, its key in
#          stats()["breakers"], unknown key, healthy member factory,
#          merged answer of the default fleet)
ROUTERS = {
    "cluster": (cluster_router, ClusterError, "r0", "r0", "r9",
                lambda key: FakeReplica(key, 5), (1, 1)),
    "shard": (shard_router, ShardError, 0, "0", 9,
              lambda key: FakeShard(key), (1, 2)),
}


@pytest.fixture(params=sorted(ROUTERS))
def spec(request):
    return ROUTERS[request.param]


def _read_or_refuse(router, error_type):
    try:
        router.query(0, 1)
    except error_type:
        pass


class TestMembers:
    def test_unknown_key_raises_the_routers_error(self, spec):
        make, error_type, _key, _stat, unknown, member, _answer = spec
        with pytest.raises(error_type, match="knows no"):
            make().set_member(unknown, member(unknown))

    def test_set_member_resets_the_tripped_breaker(self, spec):
        make, error_type, key, stat, _unknown, member, answer = spec
        router = _dead_first(make)
        for _ in range(4):
            _read_or_refuse(router, error_type)
        assert router.stats()["breakers"][stat]["state"] == "open"
        router.set_member(key, member(key))
        assert router.stats()["breakers"][stat]["state"] == "closed"
        assert router.query(0, 1) == answer


class TestClusterBreaker:
    def test_dead_replica_trips_and_is_skipped(self):
        router = cluster_router([FakeReplica("r0", 5, healthy=False),
                                 FakeReplica("r1", 5)])
        for _ in range(2):
            assert router.acquire().name == "r1"
        assert router.stats()["breakers"]["r0"]["state"] == "open"
        assert router.stats()["breaker_skips"] == 0
        for _ in range(3):
            assert router.acquire().name == "r1"
        assert router.stats()["breaker_skips"] == 3
        router.set_member("r0", FakeReplica("r0", 5))
        assert {router.acquire().name for _ in range(4)} == {"r0", "r1"}


def _lagging_cluster(**kw):
    # The primary applied seq 20 but published only seq 10; r0 sits at 9
    # and r1 died at 12.  Under Δ = 2 nothing is fresh enough.
    primary = FakeReplica("primary", 20, published_seq=10)
    replicas = [FakeReplica("r0", 9),
                FakeReplica("r1", 12, healthy=False)]
    return cluster_router(replicas, primary, policy="bounded_staleness",
                          staleness_delta=2, **kw)


class TestDegraded:
    def test_cluster_serves_the_freshest_snapshot_tagged(self):
        router = _lagging_cluster(degraded="stale")
        with router.acquire() as lease:
            assert (lease.name, lease.snapshot.seq) == ("r1", 12)
            assert lease.degraded
        assert router.stats()["degraded_serves"] == 1

    def test_cluster_refuses_past_the_max_lag(self):
        router = _lagging_cluster(degraded="stale", degraded_max_lag=5)
        with pytest.raises(ClusterError, match="lagging"):
            router.acquire()
        assert router.stats()["degraded_serves"] == 0

    def test_floored_reads_never_degrade(self):
        router = _lagging_cluster(degraded="stale")
        with pytest.raises(ClusterError):
            router.acquire(min_seq=1)

    def test_cluster_tap_and_tag_say_degraded(self):
        router = _lagging_cluster(degraded="stale")
        seen = []
        router.set_answer_tap(
            lambda answered, seq, target, epoch: seen.append((seq, target))
        )
        assert router.query_tagged(0, 1) == ((1, 1), 12, "r1+degraded")
        assert router.query_many_tagged([(0, 1)]) == (
            [(1, 1)], 12, "r1+degraded"
        )
        assert seen == [(12, "r1+degraded")] * 2

    def test_shard_tap_and_tag_say_degraded(self):
        router = shard_router(
            [FakeShard(0, seqs=(3, 4)), FakeShard(1, seqs=(3, 4),
                                                  healthy=False)],
            degraded="stale",
        )
        seen = []
        router.set_answer_tap(
            lambda answered, seq, target, epoch: seen.append((seq, target))
        )
        assert router.query_tagged(0, 1) == (
            (1, 2), 4, "shard-router+degraded"
        )
        assert router.query(0, 1) == (1, 2)
        assert seen == [(4, "shard-router+degraded")] * 2
        assert router.stats()["degraded_serves"] == 2


def _lagging_shards(**kw):
    # Shard 0 holds only seq 5, shard 1 only seq 3: no cut exists.
    return shard_router([FakeShard(0, seqs=(5,)), FakeShard(1, seqs=(3,))],
                        **kw)


class TestEmptyBatch:
    @pytest.mark.parametrize("make, error_type", [
        (_lagging_cluster, ClusterError), (_lagging_shards, ShardError),
    ], ids=["cluster", "shard"])
    def test_empty_tagged_batch_claims_the_floor_without_a_lease(
            self, make, error_type):
        router = make(wait_timeout=0.2)
        seen = []
        router.set_answer_tap(lambda *args: seen.append(args))
        t0 = time.monotonic()
        assert router.query_many_tagged([]) == ([], 0, None)
        assert router.query_many_tagged([], min_seq=7) == ([], 7, None)
        assert router.query_many([]) == []
        assert time.monotonic() - t0 < 0.1
        assert seen == []
        with pytest.raises(error_type):
            router.query_many_tagged([(0, 1)])


class TestMetrics:
    def test_cluster_names(self):
        registry, tracer = MetricsRegistry(), Tracer()
        router = _lagging_cluster()
        router.set_metrics(registry, tracer=tracer)
        with pytest.raises(ClusterError):
            router.query(0, 1)
        router.set_member("r1", FakeReplica("r1", 20))
        router.query(0, 1)
        router.query_many([(0, 1), (1, 0)])
        values = registry.counter_values()
        assert values["repro_cluster_leases"] == 2
        assert values["repro_cluster_lease_wait_seconds:count"] == 2
        assert values["repro_cluster_refusals"] == 1
        for state in ("closed", "open", "half_open"):
            assert f'repro_cluster_breaker_transitions{{to="{state}"}}' \
                in values
        assert values['repro_cluster_breaker_transitions{to="open"}'] == 1
        names = {trace.root.name for trace in tracer.recent()}
        assert names == {"cluster_query", "cluster_query_many"}
        spans = [c.name for c in tracer.recent()[-1].root.children]
        assert spans == ["queue_wait", "probe", "tap"]

    def test_shard_names(self):
        registry, tracer = MetricsRegistry(), Tracer()
        router = shard_router()
        router.set_metrics(registry, tracer=tracer)
        router.query(0, 1)
        router.query_many([(0, 1), (1, 0)])
        values = registry.counter_values()
        assert values["repro_shard_reads"] == 2
        assert values["repro_shard_read_refusals"] == 0
        assert values['repro_shard_stage_seconds{stage="merge"}:count'] == 1
        assert values['repro_shard_stage_seconds{stage="tap"}:count'] == 2
        names = [trace.root.name for trace in tracer.recent()]
        assert names == ["shard_query", "shard_query_many"]

    def test_set_metrics_none_detaches_every_breaker(self, spec):
        make, error_type, _key, stat, _unknown, _member, _answer = spec
        router = _dead_first(make)
        registry = MetricsRegistry()
        router.set_metrics(registry)
        router.set_metrics(None)
        for _ in range(4):
            _read_or_refuse(router, error_type)
        assert router.stats()["breakers"][stat]["state"] == "open"
        assert not any(
            value for key, value in registry.counter_values().items()
            if "breaker_transitions" in key
        )
