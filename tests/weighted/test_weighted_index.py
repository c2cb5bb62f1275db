"""Unit tests for the weighted SPC-Index construction and queries."""

import pytest

from repro.graph import WeightedGraph, random_weighted
from repro.verify import verify_espc
from repro.weighted import build_weighted_spc_index

INF = float("inf")


class TestWeightedConstruction:
    def test_weighted_diamond(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)])
        index = build_weighted_spc_index(g)
        assert index.query(0, 3) == (3, 2)

    def test_weight_breaks_tie(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 2)])
        index = build_weighted_spc_index(g)
        assert index.query(0, 3) == (2, 1)

    def test_heavy_direct_edge_loses(self):
        g = WeightedGraph.from_edges([(0, 1, 5), (0, 2, 1), (2, 1, 1)])
        index = build_weighted_spc_index(g)
        assert index.query(0, 1) == (2, 1)

    def test_self_and_disconnected(self):
        g = WeightedGraph.from_edges([(0, 1, 2)])
        g.add_vertex(9)
        index = build_weighted_spc_index(g)
        assert index.query(0, 0) == (0, 1)
        assert index.query(0, 9) == (INF, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_espc_random_weighted(self, seed):
        g = random_weighted(18, 40, max_weight=4, seed=seed)
        index = build_weighted_spc_index(g)
        assert verify_espc(g, index)

    def test_unit_weights_match_unweighted(self):
        from repro.core import build_spc_index
        from repro.graph import Graph, erdos_renyi

        base = erdos_renyi(20, 45, seed=2)
        wg = WeightedGraph.from_edges((u, v, 1) for u, v in base.edges())
        for v in base.vertices():
            wg.add_vertex(v, exist_ok=True)
        unweighted = build_spc_index(base)
        weighted = build_weighted_spc_index(wg)
        for s in range(20):
            for t in range(20):
                assert weighted.query(s, t) == unweighted.query(s, t)


class TestWeightedIndexApi:
    def test_labels_and_sizes(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 3)])
        index = build_weighted_spc_index(g, strategy="natural")
        assert index.labels(2)[-1] == (2, 0, 1)
        assert index.size_bytes == 8 * index.num_entries

    def test_add_drop_vertex(self):
        g = WeightedGraph.from_edges([(0, 1, 1)])
        index = build_weighted_spc_index(g)
        index.add_vertex(7)
        assert index.query(7, 7) == (0, 1)
        index.drop_vertex_labels(7)
        from repro.exceptions import VertexNotFound

        with pytest.raises(VertexNotFound):
            index.label_set(7)

    def test_pre_query_upper_bound(self):
        g = random_weighted(12, 25, max_weight=3, seed=4)
        index = build_weighted_spc_index(g)
        for s in range(12):
            for t in range(12):
                assert index.pre_query(s, t)[0] >= index.query(s, t)[0]
