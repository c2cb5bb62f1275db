"""The SD (distance-only) backend: explicit opt-in, (sd, None) answers."""

import pytest

import repro
from repro.engine import available_backends, get_backend
from repro.exceptions import EdgeNotFound, EngineError, IndexCorruption
from repro.graph.generators import erdos_renyi, path_graph
from repro.sd import SDIndex


@pytest.fixture
def sd_engine():
    return repro.open(path_graph(5), backend="sd")


class TestSelection:
    def test_registered(self):
        assert available_backends()["sd"] == "Graph"
        assert get_backend("sd").name == "sd"

    def test_core_still_wins_auto_selection(self):
        assert repro.open(path_graph(3)).backend_name == "core"

    def test_explicit_opt_in(self, sd_engine):
        assert sd_engine.backend_name == "sd"
        assert isinstance(sd_engine.index, SDIndex)


class TestServing:
    def test_distances_no_counts(self, sd_engine):
        assert sd_engine.query(0, 4) == (4, None)
        assert sd_engine.query(2, 2) == (0, None)
        assert sd_engine.distance(0, 3) == 3
        assert sd_engine.count(0, 3) is None

    def test_disconnected(self):
        g = repro.Graph.from_edges([(0, 1)], vertices=[2])
        engine = repro.open(g, backend="sd")
        assert engine.query(0, 2) == (float("inf"), None)

    def test_query_many_matches_query(self):
        g = erdos_renyi(30, 60, seed=5)
        engine = repro.open(g, backend="sd")
        vs = sorted(g.vertices())
        pairs = [(s, t) for s in vs[:3] for t in vs]
        assert engine.query_many(pairs) == [engine.query(s, t) for s, t in pairs]

    def test_matches_core_distances(self):
        g = erdos_renyi(25, 50, seed=9)
        core = repro.open(g.copy())
        sd = repro.open(g.copy(), backend="sd")
        for s in sorted(g.vertices())[:5]:
            for t in g.vertices():
                assert sd.distance(s, t) == core.distance(s, t)


class TestMaintenance:
    def test_insert_edge_updates_distances(self, sd_engine):
        sd_engine.insert_edge(0, 4)
        assert sd_engine.query(0, 4) == (1, None)
        assert sd_engine.check()

    def test_insert_creates_missing_vertex(self, sd_engine):
        sd_engine.insert_edge(4, 99)
        assert sd_engine.query(0, 99) == (5, None)

    def test_delete_edge_rebuilds(self, sd_engine):
        sd_engine.delete_edge(2, 3)
        assert sd_engine.query(0, 4) == (float("inf"), None)
        assert sd_engine.check()

    def test_delete_missing_edge_raises(self, sd_engine):
        with pytest.raises(EdgeNotFound):
            sd_engine.delete_edge(0, 4)

    def test_rejects_weights(self, sd_engine):
        with pytest.raises(EngineError):
            sd_engine.insert_edge(0, 2, weight=3)

    def test_vertex_lifecycle(self, sd_engine):
        sd_engine.insert_vertex(10, edges=(0,))
        assert sd_engine.query(10, 4) == (5, None)
        sd_engine.delete_vertex(10)
        assert 10 not in sd_engine.graph
        assert sd_engine.check()

    def test_delete_vertex_rebuilds_once(self, sd_engine, monkeypatch):
        from repro.engine.adapters import SDBackend

        builds = []
        original = SDBackend.build_index
        monkeypatch.setattr(
            SDBackend, "build_index",
            lambda self: builds.append(1) or original(self),
        )
        sd_engine.insert_vertex(10, edges=(0, 2, 4))
        builds.clear()
        sd_engine.delete_vertex(10)  # degree 3, but one rebuild only
        assert len(builds) == 1
        assert sd_engine.query(0, 4) == (4, None)
        assert sd_engine.check()

    def test_stream_stays_correct(self):
        g = erdos_renyi(20, 35, seed=3)
        engine = repro.open(g, backend="sd")
        edges = sorted(engine.graph.edges())
        engine.delete_edge(*edges[0])
        engine.insert_edge(*edges[0])
        engine.delete_edge(*edges[1])
        assert engine.check()
        assert engine.check_invariants()


class TestDropVertexLabels:
    def test_drop_purges_dangling_hub_references(self):
        from repro.graph.generators import path_graph as pg
        from repro.sd import build_sd_index

        g = pg(3)  # 0 - 1 - 2; vertex 1 is the shared hub
        index = build_sd_index(g, order=[1, 0, 2])
        g.remove_edge(0, 1)
        g.remove_edge(1, 2)
        g.remove_vertex(1)
        index.drop_vertex_labels(1)
        assert index.distance(0, 2) == float("inf")
        r1 = 0  # rank of the dropped hub under the explicit order
        for v in (0, 2):
            assert r1 not in index.label_arrays(v)[0]


class TestInvariants:
    def test_check_invariants_passes(self, sd_engine):
        assert sd_engine.check_invariants()

    def test_check_invariants_catches_corruption(self, sd_engine):
        hubs, dists = sd_engine.index.label_arrays(4)
        dists[0] = -1
        with pytest.raises(IndexCorruption):
            sd_engine.check_invariants()


class TestBatchedRebuild:
    """One rebuild per drained batch of deletes."""

    def test_delete_batch_rebuilds_once(self):
        engine = repro.open(erdos_renyi(20, 40, seed=2), backend="sd")
        edges = sorted(engine.graph.edges())[:5]
        before = engine.backend.rebuild_count
        from repro.workloads import DeleteEdge

        stats, _ = engine.apply_batch([DeleteEdge(u, v) for u, v in edges])
        assert len(stats) == 5
        assert engine.backend.rebuild_count == before + 1
        assert engine.check()

    def test_insert_after_deferred_delete_flushes_first(self):
        engine = repro.open(path_graph(6), backend="sd")
        from repro.workloads import DeleteEdge, InsertEdge

        before = engine.backend.rebuild_count
        # delete 2-3 (deferred), then insert 0-5: inc_sd must repair a
        # *current* index, so the pending rebuild flushes before it runs.
        engine.apply_batch([DeleteEdge(2, 3), InsertEdge(0, 5)],
                           coalesce=False)
        assert engine.backend.rebuild_count == before + 1
        assert engine.query(2, 3) == (5, None)  # 2-1-0-5-4-3
        assert engine.check()

    def test_single_delete_outside_batch_rebuilds_immediately(self, sd_engine):
        before = sd_engine.backend.rebuild_count
        sd_engine.delete_edge(2, 3)
        assert sd_engine.backend.rebuild_count == before + 1
        assert sd_engine.query(0, 4) == (float("inf"), None)

    def test_vertex_removal_batch_rebuilds_once(self):
        engine = repro.open(erdos_renyi(20, 40, seed=2), backend="sd")
        from repro.workloads import DeleteVertex

        victims = sorted(engine.graph.vertices())[:3]
        before = engine.backend.rebuild_count
        engine.apply_stream([DeleteVertex(v) for v in victims])
        assert engine.backend.rebuild_count == before + 1
        for v in victims:
            assert v not in engine.graph
        assert engine.check()
