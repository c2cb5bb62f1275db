"""Unit tests for the directed SPC-Index: construction and queries."""

import pytest

from repro.directed import DirectedSPCIndex, build_directed_spc_index
from repro.graph import DiGraph, directed_scale_free, random_directed
from repro.order import VertexOrder
from repro.verify import verify_espc

INF = float("inf")


class TestDirectedConstruction:
    def test_simple_path(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        index = build_directed_spc_index(g, strategy="natural")
        assert index.query(0, 2) == (2, 1)
        assert index.query(2, 0) == (INF, 0)

    def test_diamond_counts(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        index = build_directed_spc_index(g)
        assert index.query(0, 3) == (2, 2)
        assert index.query(3, 0) == (INF, 0)

    def test_cycle_asymmetry(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        index = build_directed_spc_index(g)
        assert index.query(0, 2) == (2, 1)
        assert index.query(2, 1) == (2, 1)

    def test_self_query(self):
        g = DiGraph.from_edges([(0, 1)])
        index = build_directed_spc_index(g)
        assert index.query(0, 0) == (0, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_espc_random_digraphs(self, seed):
        g = random_directed(20, 55, seed=seed)
        index = build_directed_spc_index(g)
        assert verify_espc(g, index)

    def test_espc_scale_free(self):
        g = directed_scale_free(60, attach=2, seed=3)
        index = build_directed_spc_index(g)
        assert verify_espc(g, index)

    def test_in_out_labels_distinct(self):
        g = DiGraph.from_edges([(0, 1)])
        index = build_directed_spc_index(g, strategy="natural")
        # 0 is a hub of L_in(1) (path 0 -> 1) but L_out(1) has no 0 entry
        # for the reverse direction.
        assert (0, 1, 1) in index.in_labels(1)
        assert all(h != 0 for h, _, _ in index.out_labels(1))


class TestDirectedIndexApi:
    def test_add_and_drop_vertex(self):
        index = DirectedSPCIndex(VertexOrder([0, 1]))
        r = index.add_vertex(5)
        assert r == 2
        assert index.query(5, 5) == (0, 1)
        index.drop_vertex_labels(5)
        from repro.exceptions import VertexNotFound

        with pytest.raises(VertexNotFound):
            index.query(5, 5)

    def test_size_accounting(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        index = build_directed_spc_index(g)
        assert index.size_bytes == 8 * index.num_entries
        assert index.num_entries >= 2 * 3  # at least the self-labels

    def test_pre_query_directions(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        index = build_directed_spc_index(g, strategy="natural")
        # Forward pre-query from the top-ranked hub sees no higher hubs.
        assert index.pre_query(0, 2) == (INF, 0)
        d, _ = index.pre_query(1, 2)
        assert d >= index.distance(1, 2)
