"""Unit tests for the weighted SPC-Index construction and queries."""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_spc_index
from repro.core.index import SPCIndex
from repro.graph import WeightedGraph, random_weighted
from repro.order import make_order
from repro.verify import verify_espc
from tests.property.strategies import small_weighted_graphs

INF = float("inf")


def dijkstra_builder(graph, order):
    """The weighted builder before core's ``hub_push`` took edge lengths:
    one pruned Dijkstra per hub over a (distance, rank) heap."""
    index = SPCIndex(order, with_self_labels=False)
    rank = order.rank_map()
    for root in order:
        r = rank[root]
        root_labels = index.label_set(root)
        root_labels.set(r, 0, 1)
        root_dist = dict(zip(root_labels.hubs, root_labels.dists))
        dist = {root: 0}
        count = {root: 1}
        settled = {root}
        heap = []
        for w, weight in graph.neighbors(root).items():
            if rank[w] > r:
                dist[w] = weight
                count[w] = 1
                heapq.heappush(heap, (weight, rank[w], w))
        while heap:
            dv, _, v = heapq.heappop(heap)
            if v in settled or dv > dist[v]:
                continue
            settled.add(v)
            ls = index.label_set(v)
            if any(root_dist.get(hub, INF) + d < dv for hub, d, _ in ls):
                continue
            ls.set(r, dv, count[v])
            for w, weight in graph.neighbors(v).items():
                if rank[w] <= r or w in settled:
                    continue
                cand = dv + weight
                dw = dist.get(w)
                if dw is None or cand < dw:
                    dist[w] = cand
                    count[w] = count[v]
                    heapq.heappush(heap, (cand, rank[w], w))
                elif cand == dw:
                    count[w] += count[v]
    return index


class TestSharedBuilderMatchesDijkstra:
    """Core's distance-bucketed ``hub_push`` builds, on a weighted graph,
    the label sets the per-hub Dijkstra builder built."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(g=small_weighted_graphs(max_vertices=10),
           halves=st.lists(st.booleans(), max_size=45))
    def test_label_sets_equal(self, g, halves):
        # Halve some weights so float and int lengths tie across buckets.
        for (u, v, w), half in zip(sorted(g.edges()), halves):
            if half:
                g.set_weight(u, v, w / 2)
        order = make_order(g, "degree")
        assert (build_spc_index(g, order=order).to_dict()
                == dijkstra_builder(g, order).to_dict())

    @pytest.mark.parametrize("seed", range(3))
    def test_random_weighted(self, seed):
        g = random_weighted(60, 150, max_weight=10, seed=seed)
        order = make_order(g, "degree")
        assert (build_spc_index(g, order=order).to_dict()
                == dijkstra_builder(g, order).to_dict())


class TestWeightedConstruction:
    def test_weighted_diamond(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)])
        index = build_spc_index(g)
        assert index.query(0, 3) == (3, 2)

    def test_weight_breaks_tie(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 2)])
        index = build_spc_index(g)
        assert index.query(0, 3) == (2, 1)

    def test_heavy_direct_edge_loses(self):
        g = WeightedGraph.from_edges([(0, 1, 5), (0, 2, 1), (2, 1, 1)])
        index = build_spc_index(g)
        assert index.query(0, 1) == (2, 1)

    def test_self_and_disconnected(self):
        g = WeightedGraph.from_edges([(0, 1, 2)])
        g.add_vertex(9)
        index = build_spc_index(g)
        assert index.query(0, 0) == (0, 1)
        assert index.query(0, 9) == (INF, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_espc_random_weighted(self, seed):
        g = random_weighted(18, 40, max_weight=4, seed=seed)
        index = build_spc_index(g)
        assert verify_espc(g, index)

    def test_unit_weights_match_unweighted(self):
        from repro.core import build_spc_index
        from repro.graph import Graph, erdos_renyi

        base = erdos_renyi(20, 45, seed=2)
        wg = WeightedGraph.from_edges((u, v, 1) for u, v in base.edges())
        for v in base.vertices():
            wg.add_vertex(v, exist_ok=True)
        unweighted = build_spc_index(base)
        weighted = build_spc_index(wg)
        for s in range(20):
            for t in range(20):
                assert weighted.query(s, t) == unweighted.query(s, t)


class TestWeightedIndexApi:
    def test_labels_and_sizes(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 3)])
        index = build_spc_index(g, strategy="natural")
        assert index.labels(2)[-1] == (2, 0, 1)
        assert index.size_bytes == 8 * index.num_entries

    def test_add_drop_vertex(self):
        g = WeightedGraph.from_edges([(0, 1, 1)])
        index = build_spc_index(g)
        index.add_vertex(7)
        assert index.query(7, 7) == (0, 1)
        index.drop_vertex_labels(7)
        from repro.exceptions import VertexNotFound

        with pytest.raises(VertexNotFound):
            index.label_set(7)

    def test_pre_query_upper_bound(self):
        g = random_weighted(12, 25, max_weight=3, seed=4)
        index = build_spc_index(g)
        for s in range(12):
            for t in range(12):
                assert index.pre_query(s, t)[0] >= index.query(s, t)[0]
