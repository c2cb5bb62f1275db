"""Unit tests for workload generators."""

import pytest

import repro
from repro.exceptions import WorkloadError
from repro.graph import complete_graph, erdos_renyi, path_graph, random_directed
from repro.workloads import (
    DeleteEdge,
    InsertEdge,
    edge_degree,
    hybrid_stream,
    random_deletions,
    random_insertions,
    random_pairs,
    skewed_deletions,
    skewed_insertions,
    vertex_churn,
)


class TestInsertionWorkloads:
    def test_insertions_are_absent_and_distinct(self):
        g = erdos_renyi(30, 60, seed=1)
        updates = random_insertions(g, 20, seed=2)
        assert len(updates) == 20
        seen = set()
        for upd in updates:
            assert isinstance(upd, InsertEdge)
            assert not g.has_edge(upd.u, upd.v)
            key = (upd.u, upd.v)
            assert key not in seen
            seen.add(key)

    def test_insertions_deterministic(self):
        g = erdos_renyi(30, 60, seed=1)
        assert random_insertions(g, 10, seed=3) == random_insertions(g, 10, seed=3)

    def test_dense_graph_raises(self):
        g = complete_graph(5)
        with pytest.raises(WorkloadError):
            random_insertions(g, 3, seed=0)

    def test_undo(self):
        upd = InsertEdge(1, 2)
        assert upd.undo() == DeleteEdge(1, 2)
        assert DeleteEdge(1, 2).undo() == InsertEdge(1, 2)


class TestDirectedInsertions:
    """Insertions on a DiGraph emit the normalized (min, max) arc, so the
    absence test must look at that arc, not at the drawn (u, v)."""

    @pytest.mark.parametrize("make", [
        lambda g, seed: random_insertions(g, 60, seed=seed),
        lambda g, seed: skewed_insertions(g, 60, seed=seed, bucket="high"),
        lambda g, seed: skewed_insertions(g, 60, seed=seed, bucket="low"),
    ], ids=["random", "skewed-high", "skewed-low"])
    def test_emitted_arcs_are_absent(self, make):
        for seed in range(20):
            g = random_directed(300, 900, seed=seed)
            for upd in make(g, seed):
                assert not g.has_edge(upd.u, upd.v), (seed, upd)


class TestDeletionWorkloads:
    def test_deletions_exist_and_distinct(self):
        g = erdos_renyi(30, 60, seed=4)
        updates = random_deletions(g, 15, seed=5)
        assert len(updates) == 15
        assert len(set(updates)) == 15
        for upd in updates:
            assert g.has_edge(upd.u, upd.v)

    def test_too_many_deletions(self):
        g = path_graph(4)
        with pytest.raises(WorkloadError):
            random_deletions(g, 10, seed=0)


class TestHybridAndSkewed:
    def test_hybrid_stream_composition(self):
        g = erdos_renyi(40, 90, seed=6)
        stream = hybrid_stream(g, insertions=20, deletions=5, seed=7)
        assert len(stream) == 25
        ins = [u for u in stream if isinstance(u, InsertEdge)]
        dels = [u for u in stream if isinstance(u, DeleteEdge)]
        assert len(ins) == 20 and len(dels) == 5
        # Deletions are interleaved, not clumped at the end.
        first_del = next(i for i, u in enumerate(stream) if isinstance(u, DeleteEdge))
        assert first_del < len(stream) - 5

    def test_hybrid_stream_no_deletions(self):
        g = erdos_renyi(20, 40, seed=8)
        stream = hybrid_stream(g, insertions=5, deletions=0, seed=8)
        assert len(stream) == 5

    def test_skewed_insertions_bias(self):
        g = erdos_renyi(60, 140, seed=9)
        high = skewed_insertions(g, 25, seed=10, bucket="high")
        low = skewed_insertions(g, 25, seed=10, bucket="low")
        mean_high = sum(edge_degree(g, u.u, u.v) for u in high) / 25
        mean_low = sum(edge_degree(g, u.u, u.v) for u in low) / 25
        assert mean_high > mean_low

    def test_skewed_deletions_bias(self):
        g = erdos_renyi(60, 140, seed=11)
        high = skewed_deletions(g, 20, seed=12, bucket="high")
        low = skewed_deletions(g, 20, seed=12, bucket="low")
        mean_high = sum(edge_degree(g, u.u, u.v) for u in high) / 20
        mean_low = sum(edge_degree(g, u.u, u.v) for u in low) / 20
        assert mean_high >= mean_low

    def test_skewed_uniform_bucket(self):
        g = erdos_renyi(30, 60, seed=13)
        assert skewed_insertions(g, 5, seed=1, bucket="uniform") == random_insertions(
            g, 5, seed=1
        )


class TestVertexChurnAndQueries:
    def test_vertex_churn_shapes(self):
        g = erdos_renyi(20, 40, seed=14)
        updates = vertex_churn(g, inserts=5, deletes=3, seed=15)
        assert len(updates) == 8

    def test_vertex_churn_applies(self):
        g = erdos_renyi(15, 30, seed=16)
        dyn = repro.open(g.copy(), cache_size=0)
        for upd in vertex_churn(g, inserts=3, deletes=2, seed=17):
            try:
                dyn.apply(upd)
            except Exception as exc:  # deleted vertex may be a churn target
                from repro.exceptions import VertexNotFound

                assert isinstance(exc, VertexNotFound)
        assert dyn.check()

    def test_random_pairs(self):
        g = erdos_renyi(20, 40, seed=18)
        pairs = random_pairs(g, 50, seed=19, distinct=True)
        assert len(pairs) == 50
        assert all(s != t for s, t in pairs)

    def test_random_pairs_tiny_graph(self):
        g = path_graph(1)
        with pytest.raises(WorkloadError):
            random_pairs(g, 3)
