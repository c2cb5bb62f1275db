"""GraphReplayer: inverse capture, the rewind window, time-travel answers."""

import pytest

from repro.audit import GraphReplayer, apply_graph_update
from repro.engine import baseline_answer
from repro.graph import DiGraph, Graph, WeightedGraph
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.workloads import (
    DeleteEdge,
    DeleteVertex,
    InsertEdge,
    InsertVertex,
    SetWeight,
)


def snapshot_state(graph):
    """A comparable full-state digest of any graph flavour."""
    if hasattr(graph, "set_weight"):
        return (sorted(graph.vertices()),
                sorted((u, v, w) for u, v, w in graph.edges()))
    return (sorted(graph.vertices()), sorted(graph.edges()))


def rewind(undos):
    for fn, args in reversed(undos):
        fn(*args)


def make_core():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    return g


class TestInverseCapture:
    @pytest.mark.parametrize("update", [
        InsertEdge(0, 2),
        DeleteEdge(0, 1),
        InsertVertex(9, edges=(0, 2)),
        DeleteVertex(1),
    ])
    def test_core_round_trip(self, update):
        g = make_core()
        before = snapshot_state(g)
        rewind(apply_graph_update(g, update))
        assert snapshot_state(g) == before

    def test_insert_edge_autocreates_and_uncreates_endpoints(self):
        g = make_core()
        before = snapshot_state(g)
        undos = apply_graph_update(g, InsertEdge(7, 8))
        assert g.has_vertex(7) and g.has_vertex(8)
        rewind(undos)
        assert snapshot_state(g) == before

    def test_directed_round_trip(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        before = snapshot_state(g)
        for update in [InsertEdge(2, 1), DeleteEdge(0, 1), DeleteVertex(2)]:
            rewind(apply_graph_update(g, update))
            assert snapshot_state(g) == before

    def test_weighted_round_trip_restores_weights(self):
        g = WeightedGraph.from_edges([(0, 1, 2.0), (1, 2, 1.0), (2, 0, 5.0)])
        before = snapshot_state(g)
        for update in [
            InsertEdge(0, 3, weight=4.0),
            DeleteEdge(2, 0),
            SetWeight(0, 1, 9.0),
            InsertVertex(7, edges=((1, 3.0),)),
            DeleteVertex(2),
        ]:
            rewind(apply_graph_update(g, update))
            assert snapshot_state(g) == before

    def test_unsupported_update_rejected(self):
        with pytest.raises(TypeError):
            apply_graph_update(make_core(), object())


class TestReplayer:
    def test_contiguity_enforced(self):
        replayer = GraphReplayer(make_core(), 0)
        replayer.apply_batch(1, [InsertEdge(0, 2)])
        with pytest.raises(ValueError):
            replayer.apply_batch(3, [InsertEdge(1, 3)])

    def test_history_validation(self):
        with pytest.raises(ValueError):
            GraphReplayer(make_core(), 0, history=0)

    def test_answer_at_every_retained_seq_matches_fresh_replay(self):
        g = erdos_renyi(24, 48, seed=5)
        replayer = GraphReplayer(g.copy(), 0, history=16)
        batches = [
            [InsertEdge(0, 9), InsertEdge(1, 7)],
            [DeleteEdge(0, 9)],
            [InsertVertex(99, edges=(0, 1))],
            [DeleteVertex(99), InsertEdge(2, 11)],
        ]
        for seq, batch in enumerate(batches, start=1):
            replayer.apply_batch(seq, batch)
        pairs = [(0, 1), (2, 9), (0, 23)]
        for seq in range(5):
            # Rebuild the state at `seq` from scratch as the oracle.
            fresh = g.copy()
            for batch in batches[:seq]:
                for update in batch:
                    apply_graph_update(fresh, update)
            for s, t in pairs:
                expected = baseline_answer(fresh, s, t)
                got = replayer.answer_at(
                    seq, lambda graph: baseline_answer(graph, s, t)
                )
                assert got == expected, (seq, s, t)
            # Time travel must leave the replayer where it was.
            assert replayer.seq == 4

    def test_rewind_window_is_bounded(self):
        replayer = GraphReplayer(Graph.from_edges([(0, 1)]), 0, history=2)
        for seq in range(1, 6):
            replayer.apply_batch(seq, [InsertEdge(seq, seq + 1)])
        assert replayer.oldest_rewindable == 3
        with pytest.raises(LookupError):
            replayer.answer_at(2, lambda g: None)
        with pytest.raises(LookupError):
            replayer.answer_at(6, lambda g: None)  # ahead of the stream
        # The newest retained states stay reachable.
        assert replayer.answer_at(3, lambda g: g.has_vertex(5)) is False
        assert replayer.answer_at(5, lambda g: g.has_vertex(5)) is True

    def test_repeated_time_travel_recaptures_thunks(self):
        # Two rewinds through the same batch: the second must undo the
        # *re-applied* updates, not replay spent thunks.
        replayer = GraphReplayer(Graph.from_edges([(0, 1)]), 0, history=8)
        replayer.apply_batch(1, [InsertEdge(1, 2)])
        replayer.apply_batch(2, [DeleteEdge(0, 1)])
        for _ in range(3):
            assert replayer.answer_at(1, lambda g: g.has_edge(0, 1)) is True
            assert replayer.answer_at(0, lambda g: g.has_edge(1, 2)) is False
        assert not replayer.graph.has_edge(0, 1)
        assert replayer.graph.has_edge(1, 2)

    @pytest.mark.parametrize("maker,flags", [
        (lambda: erdos_renyi(16, 30, seed=2), {}),
        (lambda: random_directed(16, 30, seed=2), {"directed": True}),
        (lambda: random_weighted(16, 30, seed=2), {"weighted": True}),
    ])
    def test_time_travel_answers_match_on_every_graph_flavour(self, maker, flags):
        g = maker()
        replayer = GraphReplayer(g.copy(), 0, history=8)
        vs = sorted(g.vertices())
        if flags.get("weighted"):
            batches = [[DeleteEdge(*next(iter(sorted((u, v) for u, v, _ in g.edges()))))],
                       [InsertEdge(vs[0], vs[-1], weight=2.5)]]
        else:
            batches = [[DeleteEdge(*next(iter(sorted(g.edges()))))],
                       [InsertEdge(vs[0], vs[-1])]]
        for seq, batch in enumerate(batches, start=1):
            replayer.apply_batch(seq, batch)
        fresh = g.copy()
        for seq in range(3):
            if seq:
                for update in batches[seq - 1]:
                    apply_graph_update(fresh, update)
            for s, t in [(vs[0], vs[-1]), (vs[1], vs[2])]:
                assert replayer.answer_at(
                    seq, lambda graph: baseline_answer(graph, s, t)
                ) == baseline_answer(fresh, s, t)
