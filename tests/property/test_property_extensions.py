"""Property-based ESPC tests for the directed and weighted extensions."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_spc_index
from repro.directed import build_directed_spc_index, dec_spc_directed, inc_spc_directed
from repro.graph import DiGraph
from repro.order import make_order
from repro.verify import verify_espc
from repro.weighted import (
    build_weighted_spc_index,
    dec_spc_weighted,
    decrease_weight,
    inc_spc_weighted,
    increase_weight,
)
from tests.property.strategies import small_digraphs, small_graphs, small_weighted_graphs

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDirectedProperty:
    @settings(max_examples=40, **COMMON)
    @given(g=small_digraphs())
    def test_construction(self, g):
        index = build_directed_spc_index(g)
        assert verify_espc(g, index)

    @settings(max_examples=30, **COMMON)
    @given(g=small_digraphs(), ops=st.lists(st.integers(0, 10_000), max_size=5))
    def test_arc_insertions(self, g, ops):
        index = build_directed_spc_index(g)
        n = g.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for idx in ops:
            candidates = [p for p in pairs if not g.has_edge(*p)]
            if not candidates:
                break
            u, v = candidates[idx % len(candidates)]
            inc_spc_directed(g, index, u, v)
        assert verify_espc(g, index)

    @settings(max_examples=30, **COMMON)
    @given(g=small_digraphs(), ops=st.lists(st.integers(0, 10_000), max_size=5))
    def test_arc_deletions(self, g, ops):
        index = build_directed_spc_index(g)
        for idx in ops:
            arcs = sorted(g.edges())
            if not arcs:
                break
            u, v = arcs[idx % len(arcs)]
            dec_spc_directed(g, index, u, v)
        assert verify_espc(g, index)

    @settings(max_examples=30, **COMMON)
    @given(g=small_digraphs(),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)),
                        max_size=8))
    def test_mixed_arc_stream(self, g, ops):
        index = build_directed_spc_index(g)
        n = g.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for insert, idx in ops:
            if insert:
                candidates = [p for p in pairs if not g.has_edge(*p)]
                if candidates:
                    inc_spc_directed(g, index, *candidates[idx % len(candidates)])
            else:
                arcs = sorted(g.edges())
                if arcs:
                    dec_spc_directed(g, index, *arcs[idx % len(arcs)])
            assert verify_espc(g, index)

    @settings(max_examples=30, **COMMON)
    @given(g=small_graphs())
    def test_symmetric_digraph_matches_undirected(self, g):
        """On a directed index the builder pushes each hub forward and back, so
        on the symmetric digraph of G both sides equal G's labels."""
        order = list(make_order(g, "degree"))
        dg = DiGraph()
        for v in g.vertices():
            dg.add_vertex(v)
        for u, v in g.edges():
            dg.add_edge(u, v)
            dg.add_edge(v, u)
        index = build_spc_index(g, order=order)
        directed = build_directed_spc_index(dg, order=order)
        for v in g.vertices():
            labels = list(index.label_set(v))
            assert list(directed.in_label_set(v)) == labels
            assert list(directed.out_label_set(v)) == labels


class TestWeightedProperty:
    @settings(max_examples=40, **COMMON)
    @given(g=small_weighted_graphs())
    def test_construction(self, g):
        index = build_weighted_spc_index(g)
        assert verify_espc(g, index)

    @settings(max_examples=30, **COMMON)
    @given(
        g=small_weighted_graphs(),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["ins", "del", "setw"]),
                st.integers(0, 10_000),
                st.integers(1, 5),
            ),
            max_size=6,
        ),
    )
    def test_mixed_weighted_updates(self, g, ops):
        index = build_weighted_spc_index(g)
        n = g.num_vertices
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for kind, idx, w in ops:
            if kind == "ins":
                candidates = [p for p in all_pairs if not g.has_edge(*p)]
                if not candidates:
                    continue
                u, v = candidates[idx % len(candidates)]
                inc_spc_weighted(g, index, u, v, w)
            elif kind == "del":
                edges = sorted(g.edges())
                if not edges:
                    continue
                u, v, _ = edges[idx % len(edges)]
                dec_spc_weighted(g, index, u, v)
            else:
                edges = sorted(g.edges())
                if not edges:
                    continue
                u, v, old = edges[idx % len(edges)]
                if w < old:
                    decrease_weight(g, index, u, v, w)
                elif w > old:
                    increase_weight(g, index, u, v, w)
        assert verify_espc(g, index)
