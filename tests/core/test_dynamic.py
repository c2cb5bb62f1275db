"""Unit tests for the engine facade on the core backend."""

import repro
from repro.graph import Graph, erdos_renyi, path_graph
from repro.workloads import DeleteEdge, InsertEdge, hybrid_stream

INF = float("inf")


class TestFacadeBasics:
    def test_query_matches_docstring(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
        dyn = repro.open(g, cache_size=0)
        assert dyn.query(0, 2) == (2, 2)
        dyn.insert_edge(0, 2)
        assert dyn.query(0, 2) == (1, 1)

    def test_distance_count_helpers(self):
        dyn = repro.open(path_graph(4), cache_size=0)
        assert dyn.distance(0, 3) == 3
        assert dyn.count(0, 3) == 1

    def test_insert_edge_creates_missing_vertices(self):
        dyn = repro.open(path_graph(3), cache_size=0)
        dyn.insert_edge(2, 7)
        assert dyn.graph.has_vertex(7)
        assert dyn.query(0, 7) == (3, 1)
        assert dyn.check()

    def test_delete_edge(self):
        dyn = repro.open(path_graph(4), cache_size=0)
        dyn.delete_edge(1, 2)
        assert dyn.query(0, 3) == (INF, 0)


class TestVertexOperations:
    def test_insert_isolated_vertex(self):
        dyn = repro.open(path_graph(3), cache_size=0)
        stats = dyn.insert_vertex(9)
        assert stats.kind == "insert_vertex"
        assert dyn.query(9, 9) == (0, 1)
        assert dyn.query(0, 9) == (INF, 0)

    def test_insert_vertex_with_edges(self):
        dyn = repro.open(path_graph(3), cache_size=0)
        dyn.insert_vertex(9, edges=[0, 2])
        assert dyn.query(9, 1) == (2, 2)  # via 0 and via 2
        assert dyn.check()

    def test_delete_vertex(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        dyn = repro.open(g, cache_size=0)
        dyn.delete_vertex(2)
        assert not dyn.graph.has_vertex(2)
        assert dyn.query(0, 1) == (1, 1)
        assert dyn.query(0, 3) == (INF, 0)
        assert dyn.check()

    def test_delete_cut_vertex_of_star(self):
        from repro.graph import star_graph

        dyn = repro.open(star_graph(6), cache_size=0)
        dyn.delete_vertex(0)
        for u in range(1, 6):
            for v in range(u + 1, 6):
                assert dyn.query(u, v) == (INF, 0)

    def test_reinsert_deleted_vertex_id(self):
        dyn = repro.open(path_graph(3), cache_size=0)
        dyn.insert_vertex(5, edges=[0])
        dyn.delete_vertex(5)
        # Rank numbers are not recycled, but the id can return.
        dyn.insert_vertex(5, edges=[2])
        assert dyn.query(5, 0) == (3, 1)
        assert dyn.check()


class TestStreamsAndHistory:
    def test_apply_stream_records_history(self):
        g = erdos_renyi(15, 30, seed=4)
        dyn = repro.open(g.copy(), cache_size=0)
        stream = hybrid_stream(g, insertions=6, deletions=2, seed=4)
        stats_list = dyn.apply_stream(stream)
        assert len(stats_list) == 8
        assert dyn.history.updates == 8
        assert dyn.history.insertions == 6
        assert dyn.history.deletions == 2
        assert dyn.history.accumulated_time > 0
        assert dyn.check()

    def test_apply_single_updates(self):
        dyn = repro.open(path_graph(4), cache_size=0)
        dyn.apply(InsertEdge(0, 3))
        assert dyn.query(0, 3) == (1, 1)
        dyn.apply(DeleteEdge(0, 3))
        assert dyn.query(0, 3) == (3, 1)

    def test_net_entry_change_tracking(self):
        dyn = repro.open(path_graph(5), cache_size=0)
        before = dyn.index.num_entries
        dyn.insert_edge(0, 4)
        after = dyn.index.num_entries
        assert dyn.history.net_entry_change == after - before

    def test_vertex_ops_do_not_double_count_history(self):
        # insert_vertex with 2 edges = 1 vertex marker + 2 edge inserts;
        # the history totals must equal the true index growth exactly.
        dyn = repro.open(path_graph(4), cache_size=0)
        before = dyn.index.num_entries
        stats = dyn.insert_vertex(9, edges=[0, 3])
        growth = dyn.index.num_entries - before
        assert dyn.history.vertex_ops == 1
        assert dyn.history.insertions == 2
        # The self-label added by add_vertex is not an update stat; label
        # ops recorded must match growth minus that one self-label.
        assert dyn.history.totals.net_entry_change == growth - 1
        # The returned aggregate covers both edge insertions.
        assert stats.inserted == dyn.history.totals.inserted


class TestRebuildPolicy:
    def test_manual_rebuild(self):
        dyn = repro.open(path_graph(5), cache_size=0)
        dyn.insert_edge(0, 4)
        elapsed = dyn.rebuild()
        assert elapsed > 0
        assert dyn.query(0, 4) == (1, 1)

    def test_lazy_rebuild_every_n(self):
        g = erdos_renyi(12, 20, seed=5)
        dyn = repro.open(g, cache_size=0, rebuild_every=3)
        count = 0
        for u in range(12):
            for v in range(u + 1, 12):
                if not dyn.graph.has_edge(u, v):
                    dyn.insert_edge(u, v)
                    count += 1
                if count >= 7:
                    break
            if count >= 7:
                break
        assert dyn._updates_since_rebuild < 3
        assert dyn.check()
