"""Unit tests for directed IncSPC / DecSPC and the directed facade."""

import random

import pytest

import repro
from repro.core import build_spc_index, dec_spc, inc_spc
from repro.exceptions import EdgeNotFound
from repro.graph import DiGraph, random_directed
from repro.verify import check_invariants, verify_espc

INF = float("inf")


class TestDirectedIncremental:
    def test_shortcut_arc(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        index = build_spc_index(g)
        inc_spc(g, index, 0, 3)
        assert index.query(0, 3) == (1, 1)
        assert verify_espc(g, index)

    def test_tie_creating_arc(self):
        g = DiGraph.from_edges([(0, 1), (1, 3), (0, 2)])
        index = build_spc_index(g)
        inc_spc(g, index, 2, 3)
        assert index.query(0, 3) == (2, 2)
        assert verify_espc(g, index)

    def test_reverse_arc_insertion(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        index = build_spc_index(g)
        inc_spc(g, index, 2, 0)  # close the cycle
        assert index.query(2, 1) == (2, 1)
        assert verify_espc(g, index)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_arc_insertions(self, seed):
        rng = random.Random(seed)
        g = random_directed(15, 30, seed=seed)
        index = build_spc_index(g)
        done = 0
        while done < 10:
            u, v = rng.randrange(15), rng.randrange(15)
            if u == v or g.has_edge(u, v):
                continue
            inc_spc(g, index, u, v)
            done += 1
            assert verify_espc(g, index), f"seed={seed} arc=({u},{v})"


class TestDirectedDecremental:
    def test_delete_only_path(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        index = build_spc_index(g)
        dec_spc(g, index, 1, 2)
        assert index.query(0, 2) == (INF, 0)
        assert verify_espc(g, index)

    def test_delete_one_of_two_paths(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        index = build_spc_index(g)
        dec_spc(g, index, 1, 3)
        assert index.query(0, 3) == (2, 1)
        assert verify_espc(g, index)

    def test_reroute_through_longer_path(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (2, 3), (3, 1)])
        index = build_spc_index(g)
        dec_spc(g, index, 0, 1)
        assert index.query(0, 1) == (3, 1)
        assert verify_espc(g, index)

    def test_default_delete_of_an_arc_with_a_degree_one_tail(self):
        """``repro.dec_spc`` with its default arguments on a DiGraph.  Vertex
        0 has total degree 1, which once sent the delete down the
        undirected §3.2.3 fast path; it read the arc backwards and raised
        EdgeNotFound on an arc that exists."""
        g = repro.DiGraph.from_edges([(0, 1), (1, 2)])
        index = repro.build_spc_index(g)
        stats = repro.dec_spc(g, index, 0, 1)
        assert not stats.isolated_fast_path
        assert index.query(0, 2) == (INF, 0)
        assert verify_espc(g, index)
        assert check_invariants(index)

    def test_missing_arc_raises(self):
        g = DiGraph.from_edges([(0, 1)])
        index = build_spc_index(g)
        with pytest.raises(EdgeNotFound):
            dec_spc(g, index, 1, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_arc_deletions(self, seed):
        rng = random.Random(100 + seed)
        g = random_directed(14, 40, seed=seed)
        index = build_spc_index(g)
        arcs = sorted(g.edges())
        rng.shuffle(arcs)
        for u, v in arcs[:12]:
            dec_spc(g, index, u, v)
            assert verify_espc(g, index), f"seed={seed} arc=({u},{v})"


class TestDirectedFacade:
    def test_docstring_example(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        dyn = repro.open(g, cache_size=0)
        assert dyn.query(0, 2) == (2, 1)
        dyn.insert_edge(0, 2)
        assert dyn.query(0, 2) == (1, 1)

    def test_vertex_lifecycle(self):
        g = DiGraph.from_edges([(0, 1)])
        dyn = repro.open(g, cache_size=0)
        dyn.insert_vertex(5, edges=[0], in_edges=[1])
        assert dyn.query(5, 1) == (2, 1)
        assert dyn.query(0, 5) == (2, 1)
        dyn.delete_vertex(5)
        assert not dyn.graph.has_vertex(5)
        assert verify_espc(dyn.graph, dyn.index)

    def test_history_and_rebuild(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        dyn = repro.open(g, cache_size=0)
        dyn.insert_edge(2, 0)
        dyn.delete_edge(2, 0)
        assert dyn.history.updates == 2
        assert dyn.rebuild() > 0
        assert verify_espc(dyn.graph, dyn.index)

    def test_mixed_random_updates(self):
        rng = random.Random(9)
        g = random_directed(12, 25, seed=9)
        dyn = repro.open(g, cache_size=0)
        for step in range(20):
            if step % 2 == 0:
                while True:
                    u, v = rng.randrange(12), rng.randrange(12)
                    if u != v and not dyn.graph.has_edge(u, v):
                        dyn.insert_edge(u, v)
                        break
            else:
                u, v = rng.choice(sorted(dyn.graph.edges()))
                dyn.delete_edge(u, v)
            assert verify_espc(dyn.graph, dyn.index), f"step {step}"
