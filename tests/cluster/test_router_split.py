"""Replica-aware batch planning in ClusterRouter.query_many, and the
parallel_threshold check both routers share."""

import random

import pytest

import repro
from repro.cluster import SPCCluster
from repro.exceptions import ClusterError, ShardError
from repro.graph.generators import erdos_renyi
from repro.shard import ShardedCluster
from repro.workloads import InsertEdge


@pytest.fixture()
def fleet(tmp_path):
    g = erdos_renyi(32, 75, seed=11)
    engine = repro.open(g)
    with SPCCluster(
        engine, str(tmp_path), replicas=3, parallel_threshold=16
    ) as c:
        c.submit(InsertEdge(0, 31))
        c.sync()
        yield c, engine


def some_pairs(n, vmax=32, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(vmax), rng.randrange(vmax)) for _ in range(n)]


class TestQueryManySplit:
    def test_large_batch_matches_point_reads(self, fleet):
        c, _engine = fleet
        pairs = some_pairs(120)
        batch = c.router.query_many(pairs)
        assert batch == [c.router.query(s, t) for s, t in pairs]

    def test_large_batch_spreads_over_replicas(self, fleet):
        c, _engine = fleet
        c.router.query_many(some_pairs(300))
        routed = c.router.stats()["routed"]
        assert sum(1 for n in routed.values() if n > 0) >= 2

    def test_small_batch_stays_single_lease(self, fleet):
        c, _engine = fleet
        before = c.router.stats()["routed"]
        c.router.query_many(some_pairs(5))
        after = c.router.stats()["routed"]
        leases = sum(after.values()) - sum(before.values())
        assert leases <= 1  # primary fallback would show 0 here

    def test_single_healthy_replica_stays_single_lease(self, tmp_path):
        g = erdos_renyi(16, 34, seed=3)
        with SPCCluster(
            repro.open(g), str(tmp_path), replicas=1, parallel_threshold=8
        ) as c:
            c.sync()
            pairs = some_pairs(40, vmax=16)
            assert c.router.query_many(pairs) == [
                c.router.query(s, t) for s, t in pairs
            ]

    def test_split_respects_min_seq(self, fleet):
        c, _engine = fleet
        c.submit(InsertEdge(1, 30))
        seq = c.sync()
        answers = c.router.query_many(some_pairs(100), min_seq=seq)
        assert len(answers) == 100

    def test_tap_attributes_each_sub_batch_to_its_snapshot(self, fleet):
        c, _engine = fleet
        seen = []
        c.router.set_answer_tap(
            lambda answered, seq, target, epoch:
                seen.append((len(answered), seq, target))
        )
        pairs = some_pairs(120)
        c.router.query_many(pairs)
        assert sum(n for n, _s, _t in seen) == len(pairs)
        assert all(target for _n, _s, target in seen)

    def test_query_many_tagged_never_splits(self, fleet):
        c, _engine = fleet
        answers, seq, name = c.router.query_many_tagged(some_pairs(200))
        # one lease => one claimed seq and one serving target for all 200
        assert len(answers) == 200 and isinstance(name, str) and seq >= 0

    def test_threshold_validation(self, tmp_path):
        g = erdos_renyi(8, 12, seed=0)
        with pytest.raises(ClusterError, match="parallel_threshold"):
            SPCCluster(repro.open(g), str(tmp_path), parallel_threshold=1)

    @pytest.mark.parametrize("threshold", [1, 0, -5])
    def test_shard_threshold_validation(self, tmp_path, threshold):
        g = erdos_renyi(8, 12, seed=0)
        with pytest.raises(ShardError, match="parallel_threshold"):
            ShardedCluster(repro.open(g), str(tmp_path), shards=2,
                           parallel_threshold=threshold)
