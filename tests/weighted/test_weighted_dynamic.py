"""Unit tests for weighted updates: insert/delete and weight changes."""

import random

import pytest

import repro
from repro.core import build_spc_index, dec_spc
from repro.exceptions import EdgeNotFound
from repro.graph import WeightedGraph, random_weighted
from repro.verify import verify_espc

from tests.weighted.updates import decrease_weight, inc_spc_weighted, increase_weight

INF = float("inf")


class TestWeightedIncremental:
    def test_insert_shortcut(self):
        g = WeightedGraph.from_edges([(0, 1, 3), (1, 2, 3)])
        index = build_spc_index(g)
        inc_spc_weighted(g, index, 0, 2, 4)
        assert index.query(0, 2) == (4, 1)
        assert verify_espc(g, index)

    def test_insert_tie(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2)])
        index = build_spc_index(g)
        inc_spc_weighted(g, index, 0, 2, 4)
        assert index.query(0, 2) == (4, 2)
        assert verify_espc(g, index)

    def test_insert_useless_heavy_edge(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (1, 2, 1)])
        index = build_spc_index(g)
        inc_spc_weighted(g, index, 0, 2, 10)
        assert index.query(0, 2) == (2, 1)
        assert verify_espc(g, index)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_insertions(self, seed):
        rng = random.Random(seed)
        g = random_weighted(14, 25, max_weight=4, seed=seed)
        index = build_spc_index(g)
        done = 0
        while done < 8:
            u, v = rng.randrange(14), rng.randrange(14)
            if u == v or g.has_edge(u, v):
                continue
            inc_spc_weighted(g, index, u, v, rng.randint(1, 4))
            done += 1
            assert verify_espc(g, index), f"seed={seed}"


class TestWeightChanges:
    def test_decrease_creates_shortcut(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2), (0, 2, 10)])
        index = build_spc_index(g)
        decrease_weight(g, index, 0, 2, 3)
        assert index.query(0, 2) == (3, 1)
        assert verify_espc(g, index)

    def test_decrease_to_tie(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2), (0, 2, 10)])
        index = build_spc_index(g)
        decrease_weight(g, index, 0, 2, 4)
        assert index.query(0, 2) == (4, 2)
        assert verify_espc(g, index)

    def test_decrease_runs_incspc(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2), (0, 2, 10)])
        engine = repro.open(g, cache_size=0)
        stats = engine.set_weight(0, 2, 3)
        assert stats.kind == "insert"
        assert engine.query(0, 2) == (3, 1)
        assert engine.check()

    def test_increase_breaks_tie(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 3, 2), (0, 2, 2), (2, 3, 2)])
        index = build_spc_index(g)
        assert index.query(0, 3) == (4, 2)
        increase_weight(g, index, 2, 3, 5)
        assert index.query(0, 3) == (4, 1)
        assert verify_espc(g, index)

    def test_increase_changes_distance(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        index = build_spc_index(g)
        increase_weight(g, index, 0, 1, 10)
        assert index.query(0, 1) == (6, 1)  # 0-2-1 via weights 5+1
        assert verify_espc(g, index)

    def test_increase_runs_decspc(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        engine = repro.open(g, cache_size=0)
        stats = engine.set_weight(0, 1, 10)
        assert stats.kind == "delete"
        assert not stats.isolated_fast_path
        assert engine.query(0, 1) == (6, 1)
        assert engine.check()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_weight_churn(self, seed):
        rng = random.Random(50 + seed)
        g = random_weighted(12, 24, max_weight=5, seed=seed)
        index = build_spc_index(g)
        for _ in range(12):
            u, v, w = rng.choice(sorted(g.edges()))
            new_w = rng.randint(1, 6)
            if new_w == w:
                continue
            if new_w < w:
                decrease_weight(g, index, u, v, new_w)
            else:
                increase_weight(g, index, u, v, new_w)
            assert verify_espc(g, index), f"seed={seed}"


class TestWeightedDecremental:
    def test_delete_reroutes(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        index = build_spc_index(g)
        dec_spc(g, index, 0, 1)
        assert index.query(0, 1) == (6, 1)
        assert verify_espc(g, index)

    def test_delete_disconnects(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (1, 2, 2)])
        index = build_spc_index(g)
        dec_spc(g, index, 1, 2, use_isolated_fast_path=False)
        assert index.query(0, 2) == (INF, 0)
        assert verify_espc(g, index)

    def test_isolated_fast_path(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 4)])
        index = build_spc_index(g)
        stats = dec_spc(g, index, 2, 3)
        assert stats.isolated_fast_path
        assert index.query(3, 0) == (INF, 0)
        assert verify_espc(g, index)

    def test_missing_edge(self):
        g = WeightedGraph.from_edges([(0, 1, 1)], vertices=[2])
        index = build_spc_index(g)
        with pytest.raises(EdgeNotFound):
            dec_spc(g, index, 0, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_deletions(self, seed):
        rng = random.Random(80 + seed)
        g = random_weighted(13, 30, max_weight=4, seed=seed)
        index = build_spc_index(g)
        edges = sorted(g.edges())
        rng.shuffle(edges)
        for u, v, _ in edges[:10]:
            dec_spc(g, index, u, v)
            assert verify_espc(g, index), f"seed={seed}"


class TestWeightedFacade:
    def test_docstring_example(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2), (0, 2, 5)])
        dyn = repro.open(g, cache_size=0)
        assert dyn.query(0, 2) == (4, 1)
        dyn.set_weight(0, 2, 4)
        assert dyn.query(0, 2) == (4, 2)

    def test_set_weight_noop(self):
        g = WeightedGraph.from_edges([(0, 1, 2)])
        dyn = repro.open(g, cache_size=0)
        stats = dyn.set_weight(0, 1, 2)
        assert stats.kind == "noop"

    def test_vertex_lifecycle(self):
        g = WeightedGraph.from_edges([(0, 1, 1)])
        dyn = repro.open(g, cache_size=0)
        dyn.insert_vertex(5, edges=[(0, 2), (1, 2)])
        assert dyn.query(5, 1) == (2, 1)
        dyn.delete_vertex(5)
        assert not dyn.graph.has_vertex(5)
        assert verify_espc(dyn.graph, dyn.index)

    def test_history_and_rebuild(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (1, 2, 1)])
        dyn = repro.open(g, cache_size=0)
        dyn.insert_edge(0, 2, 3)
        dyn.delete_edge(0, 2)
        dyn.set_weight(0, 1, 4)
        assert dyn.history.updates == 3
        assert dyn.rebuild() > 0
        assert verify_espc(dyn.graph, dyn.index)
