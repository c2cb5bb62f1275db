"""Tests for batch-update coalescing."""

import random

import pytest

import repro
from repro.core.batch import coalesce_edge_updates
from repro.exceptions import WorkloadError
from repro.graph import Graph, erdos_renyi, path_graph
from repro.workloads import DeleteEdge, InsertEdge, InsertVertex


class TestCoalesce:
    def test_cancelling_pair_disappears(self):
        g = path_graph(3)
        ops = [InsertEdge(0, 2), DeleteEdge(0, 2)]
        effective, cancelled = coalesce_edge_updates(g, ops)
        assert effective == []
        assert cancelled == 2

    def test_delete_then_reinsert_cancels(self):
        g = Graph.from_edges([(0, 1)])
        ops = [DeleteEdge(0, 1), InsertEdge(0, 1), InsertEdge(0, 2)]
        effective, cancelled = coalesce_edge_updates(g, ops)
        assert effective == [InsertEdge(0, 2)]
        assert cancelled == 2

    def test_endpoint_order_normalized(self):
        g = path_graph(3)
        ops = [InsertEdge(2, 0), DeleteEdge(0, 2)]
        effective, cancelled = coalesce_edge_updates(g, ops)
        assert effective == []
        assert cancelled == 2

    def test_net_insert_keeps_one_op(self):
        g = path_graph(3)
        ops = [InsertEdge(0, 2), DeleteEdge(0, 2), InsertEdge(0, 2)]
        effective, cancelled = coalesce_edge_updates(g, ops)
        assert effective == [InsertEdge(0, 2)]
        assert cancelled == 2

    def test_rejects_vertex_updates(self):
        g = path_graph(3)
        with pytest.raises(WorkloadError):
            coalesce_edge_updates(g, [InsertVertex(9)])

    def test_pure_function_no_mutation(self):
        g = path_graph(3)
        before = sorted(g.edges())
        coalesce_edge_updates(g, [InsertEdge(0, 2)])
        assert sorted(g.edges()) == before


class TestApplyBatch:
    def test_batch_equals_sequential_final_state(self):
        rng = random.Random(4)
        g = erdos_renyi(15, 30, seed=4)

        # A churny batch: random ops, some of which cancel.
        ops = []
        simulated = g.copy()
        for _ in range(30):
            u, v = rng.sample(sorted(simulated.vertices()), 2)
            if simulated.has_edge(u, v):
                ops.append(DeleteEdge(u, v))
                simulated.remove_edge(u, v)
            elif rng.random() < 0.7:
                ops.append(InsertEdge(u, v))
                simulated.add_edge(u, v)

        dyn = repro.open(g.copy(), cache_size=0)
        stats, cancelled = dyn.apply_batch(ops)
        assert sorted(dyn.graph.edges()) == sorted(simulated.edges())
        assert len(stats) + cancelled == len(ops)
        assert dyn.check()

    def test_fully_cancelling_batch_is_free(self):
        g = path_graph(4)
        dyn = repro.open(g, cache_size=0)
        entries_before = dyn.index.num_entries
        stats, cancelled = dyn.apply_batch(
            [InsertEdge(0, 3), DeleteEdge(0, 3), DeleteEdge(1, 2), InsertEdge(1, 2)]
        )
        assert stats == []
        assert cancelled == 4
        assert dyn.index.num_entries == entries_before
