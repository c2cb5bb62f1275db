"""SPCEngine: correctness across backends, caching, batching, policies."""

import random

import pytest

import repro
from repro.engine import EngineConfig, SPCEngine, baseline_answer
from repro.exceptions import EngineError
from repro.graph import DiGraph, Graph, WeightedGraph, erdos_renyi, path_graph
from repro.traversal.bfs import bfs_counting_sssp, directed_bfs_counting_sssp
from repro.traversal.dijkstra import dijkstra_counting_sssp
from repro.workloads import DeleteEdge, InsertEdge, SetWeight, hybrid_stream

INF = float("inf")


def ground_truth(graph, s, t, sssp):
    if s == t:
        return (0, 1)
    dist, count = sssp(graph, s)
    return (dist.get(t, INF), count.get(t, 0))


class TestCorrectnessAcrossBackends:
    """repro.open works for all three graph families, and answers match a
    fresh BFS/Dijkstra counting ground truth before and after a mixed
    insert/delete stream (the acceptance criterion)."""

    def test_core_backend_mixed_stream(self):
        rng = random.Random(3)
        g = erdos_renyi(18, 36, seed=3)
        engine = repro.open(g.copy())
        vertices = sorted(g.vertices())
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(40)]
        for s, t in pairs:
            assert engine.query(s, t) == ground_truth(
                engine.graph, s, t, bfs_counting_sssp)
        for upd in hybrid_stream(g, insertions=8, deletions=3, seed=3):
            engine.apply(upd)
        for s, t in pairs:  # repeat traffic: second pass is served hot
            assert engine.query(s, t) == ground_truth(
                engine.graph, s, t, bfs_counting_sssp)
            assert engine.query(s, t) == ground_truth(
                engine.graph, s, t, bfs_counting_sssp)

    def test_directed_backend_mixed_stream(self):
        g = DiGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (0, 5)]
        )
        engine = repro.open(g)
        assert engine.backend_name == "directed"
        stream = [
            InsertEdge(2, 4), DeleteEdge(1, 2), InsertEdge(5, 1),
            DeleteEdge(0, 5), InsertEdge(3, 5),
        ]
        for upd in stream:
            engine.apply(upd)
        for s in sorted(engine.graph.vertices()):
            for t in sorted(engine.graph.vertices()):
                assert engine.query(s, t) == ground_truth(
                    engine.graph, s, t, directed_bfs_counting_sssp)
                assert engine.query(s, t) == ground_truth(
                    engine.graph, s, t, directed_bfs_counting_sssp)

    def test_weighted_backend_mixed_stream(self):
        g = WeightedGraph.from_edges(
            [(0, 1, 2), (1, 2, 2), (0, 2, 5), (2, 3, 1), (1, 3, 4), (3, 4, 2)]
        )
        engine = repro.open(g)
        assert engine.backend_name == "weighted"
        engine.insert_edge(0, 4, 7)
        engine.delete_edge(1, 3)
        engine.set_weight(0, 2, 4)
        for s in sorted(engine.graph.vertices()):
            for t in sorted(engine.graph.vertices()):
                assert engine.query(s, t) == ground_truth(
                    engine.graph, s, t, dijkstra_counting_sssp)
                assert engine.query(s, t) == ground_truth(
                    engine.graph, s, t, dijkstra_counting_sssp)

    def test_check_runs_on_every_backend(self):
        assert repro.open(path_graph(5)).check()
        assert repro.open(DiGraph.from_edges([(0, 1), (1, 2)])).check()
        assert repro.open(WeightedGraph.from_edges([(0, 1, 3)])).check()

    def test_vertex_churn_core(self):
        engine = repro.open(path_graph(4))
        engine.insert_vertex(9, edges=[0, 3])
        assert engine.query(9, 1) == (2, 1)
        engine.delete_vertex(9)
        assert engine.query(0, 3) == (3, 1)
        assert engine.check()

    def test_vertex_churn_directed(self):
        engine = repro.open(DiGraph.from_edges([(0, 1), (1, 2)]))
        engine.insert_vertex(9, edges=[0], in_edges=[2])
        assert engine.query(2, 1) == (3, 1)  # 2 -> 9 -> 0 -> 1
        engine.delete_vertex(9)
        assert engine.query(2, 1) == (INF, 0)
        assert engine.check()

    def test_vertex_churn_weighted(self):
        engine = repro.open(WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2)]))
        engine.insert_vertex(9, edges=[(0, 1), (2, 1)])
        assert engine.query(0, 2) == (2, 1)  # via 9, beats 0-1-2 (cost 4)
        assert engine.check()

    def test_in_edges_rejected_on_undirected_backends(self):
        with pytest.raises(EngineError):
            repro.open(path_graph(3)).insert_vertex(9, in_edges=[0])
        with pytest.raises(EngineError):
            repro.open(WeightedGraph.from_edges([(0, 1, 1)])).insert_vertex(
                9, in_edges=[0])


class TestQueryMany:
    def test_matches_per_pair_query(self):
        g = erdos_renyi(16, 32, seed=9)
        engine = repro.open(g)
        uncached = repro.open(g.copy(), cache_size=0)
        vertices = sorted(g.vertices())
        rng = random.Random(9)
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(50)]
        pairs += pairs[:10]  # duplicates exercise the cache path
        assert engine.query_many(pairs) == [uncached.query(s, t) for s, t in pairs]

    def test_empty_batch(self):
        assert repro.open(path_graph(3)).query_many([]) == []


class TestQueryCache:
    def test_repeat_queries_hit_the_cache(self):
        engine = repro.open(path_graph(6))
        engine.query(0, 5)
        engine.query(0, 5)
        engine.query(5, 0)  # symmetric key on undirected backends
        info = engine.cache_info()
        assert info["hits"] == 2
        assert info["misses"] == 1

    def test_directed_cache_keys_are_asymmetric(self):
        engine = repro.open(DiGraph.from_edges([(0, 1)]))
        assert engine.query(0, 1) == (1, 1)
        assert engine.query(1, 0) == (INF, 0)

    def test_no_stale_answers_after_insert_edge(self):
        engine = repro.open(path_graph(4))
        assert engine.query(0, 3) == (3, 1)
        engine.insert_edge(0, 3)
        assert engine.query(0, 3) == (1, 1)

    def test_no_stale_answers_after_delete_edge(self):
        engine = repro.open(path_graph(4))
        assert engine.query(0, 3) == (3, 1)
        engine.delete_edge(2, 3)
        assert engine.query(0, 3) == (INF, 0)

    def test_no_stale_answers_after_apply_batch(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        engine = repro.open(g)
        assert engine.query(0, 3) == (3, 1)
        engine.apply_batch([InsertEdge(0, 3), DeleteEdge(1, 2)])
        assert engine.query(0, 3) == (1, 1)
        assert engine.query(1, 2) == (3, 1)  # now the long way: 1-0-3-2

    def test_no_stale_answers_after_set_weight(self):
        engine = repro.open(WeightedGraph.from_edges(
            [(0, 1, 2), (1, 2, 2), (0, 2, 5)]))
        assert engine.query(0, 2) == (4, 1)
        engine.set_weight(0, 2, 4)
        assert engine.query(0, 2) == (4, 2)

    def test_no_stale_answers_after_rebuild(self):
        engine = repro.open(path_graph(4))
        engine.query(0, 3)
        assert engine.rebuild() > 0
        assert engine.query(0, 3) == (3, 1)

    def test_cache_disabled_by_config(self):
        engine = repro.open(path_graph(3), cache_size=0)
        engine.query(0, 2)
        assert engine.cache_info() is None

    def test_epoch_advances_per_mutation(self):
        engine = repro.open(path_graph(4))
        e0 = engine.epoch
        engine.insert_edge(0, 2)
        engine.delete_edge(0, 2)
        assert engine.epoch == e0 + 2


class TestApplyBatch:
    def test_coalesces_churn_on_every_backend(self):
        # undirected
        engine = repro.open(path_graph(4))
        stats, cancelled = engine.apply_batch(
            [InsertEdge(0, 3), DeleteEdge(0, 3), DeleteEdge(1, 2),
             InsertEdge(1, 2)])
        assert stats == [] and cancelled == 4
        # directed: (0, 1) and (1, 0) are distinct arcs, no false cancel
        dengine = repro.open(DiGraph.from_edges([(0, 1), (1, 2)]))
        dstats, dcancelled = dengine.apply_batch(
            [InsertEdge(1, 0), DeleteEdge(0, 1)])
        assert len(dstats) == 2 and dcancelled == 0
        assert dengine.query(1, 0) == (1, 1)
        assert dengine.query(0, 2) == (INF, 0)  # the 0 -> 1 arc is gone
        # weighted: delete + reinsert at a new weight nets to set_weight
        wengine = repro.open(WeightedGraph.from_edges([(0, 1, 5), (1, 2, 1)]))
        wstats, wcancelled = wengine.apply_batch(
            [DeleteEdge(0, 1), InsertEdge(0, 1, weight=2)])
        assert len(wstats) == 1 and wcancelled == 1
        assert wengine.graph.weight(0, 1) == 2
        assert wengine.query(0, 2) == (3, 1)
        assert wengine.check()

    def test_weighted_batch_set_weight_op(self):
        engine = repro.open(WeightedGraph.from_edges([(0, 1, 5), (1, 2, 1)]))
        stats, cancelled = engine.apply_batch([SetWeight(0, 1, 3)])
        assert len(stats) == 1 and cancelled == 0
        assert engine.graph.weight(0, 1) == 3

    def test_coalesce_opt_out(self):
        engine = repro.open(path_graph(4))
        stats, cancelled = engine.apply_batch(
            [InsertEdge(0, 3), DeleteEdge(0, 3)], coalesce=False)
        assert len(stats) == 2 and cancelled == 0
        cfg_engine = repro.open(path_graph(4), coalesce_batches=False)
        stats, cancelled = cfg_engine.apply_batch(
            [InsertEdge(0, 3), DeleteEdge(0, 3)])
        assert len(stats) == 2 and cancelled == 0


class TestApplyLoggedBatches:
    """The replica-side replay path: WAL records applied verbatim under
    one batch bracket."""

    def test_replays_records_in_order_and_returns_last_seq(self):
        engine = repro.open(path_graph(5))
        reference = repro.open(path_graph(5))
        records = [
            (3, [InsertEdge(0, 2), InsertEdge(0, 3)]),
            (4, [DeleteEdge(0, 2)]),
            (5, [InsertEdge(1, 4)]),
        ]
        assert engine.apply_logged_batches(records) == 5
        for _, updates in records:
            reference.apply_stream(updates)
        for s in range(5):
            for t in range(5):
                assert engine.query(s, t) == reference.query(s, t)

    def test_empty_stream_returns_none(self):
        engine = repro.open(path_graph(3))
        assert engine.apply_logged_batches([]) is None
        assert engine.apply_logged_batches([(7, [])]) == 7

    def test_single_batch_bracket_across_records(self):
        calls = []
        engine = repro.open(path_graph(4))
        backend = engine.backend
        orig_begin, orig_end = backend.begin_update_batch, backend.end_update_batch
        backend.begin_update_batch = lambda: calls.append("begin")
        backend.end_update_batch = lambda: calls.append("end")
        try:
            engine.apply_logged_batches(
                [(1, [InsertEdge(0, 2)]), (2, [InsertEdge(0, 3)])]
            )
        finally:
            backend.begin_update_batch = orig_begin
            backend.end_update_batch = orig_end
        assert calls == ["begin", "end"]

    def test_bracket_closes_on_failure(self):
        calls = []
        engine = repro.open(path_graph(4))
        backend = engine.backend
        orig_end = backend.end_update_batch
        backend.end_update_batch = lambda: calls.append("end")
        try:
            with pytest.raises(Exception):
                engine.apply_logged_batches([(1, [object()])])
        finally:
            backend.end_update_batch = orig_end
        assert calls == ["end"]


class TestUniformStatsAndPolicies:
    """The directed-parity satellite: stats history, rebuild policies and
    drift checks now behave identically on every backend."""

    def test_directed_history_records_update_stats(self):
        engine = repro.open(DiGraph.from_edges([(0, 1), (1, 2), (2, 3)]))
        s1 = engine.insert_edge(0, 3)
        s2 = engine.delete_edge(1, 2)
        assert s1.kind == "insert" and s1.elapsed > 0
        assert s2.kind == "delete" and s2.elapsed > 0
        assert engine.history.updates == 2
        assert engine.history.insertions == 1
        assert engine.history.deletions == 1
        assert engine.history.accumulated_time > 0
        assert engine.history.totals.total_label_ops > 0

    def test_directed_rebuild_every(self):
        engine = repro.open(
            DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]),
            rebuild_every=2,
        )
        engine.insert_edge(0, 2)
        assert engine._updates_since_rebuild == 1
        engine.insert_edge(0, 3)  # triggers the lazy rebuild
        assert engine._updates_since_rebuild == 0
        assert engine.check()

    def test_directed_drift_report(self):
        engine = repro.open(DiGraph.from_edges([(0, 1), (1, 2), (0, 2)]))
        report = engine.drift(samples=50)
        assert "sampled_inversions" in report
        assert "rebuild_recommended" in report

    def test_weighted_history_parity(self):
        engine = repro.open(WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2)]))
        engine.insert_edge(0, 2, 3)
        engine.set_weight(0, 2, 5)
        engine.delete_edge(0, 2)
        assert engine.history.updates == 3
        assert engine.history.insertions == 1
        # weight increases run the decremental path and report as deletions
        assert engine.history.deletions == 2

    def test_core_drift_rebuild_threshold_still_works(self):
        g = erdos_renyi(14, 24, seed=2)
        engine = repro.open(
            g, rebuild_drift_threshold=0.0, drift_check_every=1, cache_size=0)
        engine.insert_edge(*next(
            (u, v) for u in sorted(g.vertices()) for v in sorted(g.vertices())
            if u < v and not g.has_edge(u, v)))
        # with threshold 0 and per-update checks, any inversion rebuilds
        assert engine._updates_since_rebuild in (0, 1)
        assert engine.check()


class TestReviewRegressions:
    def test_noop_set_weight_keeps_cache_and_rebuild_counter(self):
        engine = repro.open(
            WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2)]), rebuild_every=2)
        engine.query(0, 2)
        epoch = engine.epoch
        for _ in range(5):
            stats = engine.set_weight(0, 1, 2)  # unchanged weight
        assert stats.kind == "noop"
        assert engine.epoch == epoch  # cache stays warm
        assert engine._updates_since_rebuild == 0  # no spurious rebuilds
        assert engine.history.updates == 5  # but the history still records

    def test_check_sample_pairs_works_on_large_directed_and_weighted(self):
        from repro.graph import random_directed, random_weighted

        # The directed/weighted verifiers used to be exhaustive-only and
        # raised above 300/200 vertices; check(sample_pairs=...) must work.
        assert repro.open(random_directed(350, 700, seed=1)).check(
            sample_pairs=40)
        assert repro.open(random_weighted(250, 500, seed=2)).check(
            sample_pairs=40)

    def test_failed_weighted_insert_leaves_engine_untouched(self):
        engine = repro.open(WeightedGraph.from_edges([(0, 1, 1)]))
        epoch = engine.epoch
        with pytest.raises(EngineError):
            engine.insert_edge(5, 6)  # weight missing
        assert not engine.graph.has_vertex(5)
        assert not engine.graph.has_vertex(6)
        assert engine.epoch == epoch
        assert engine.history.updates == 0

    def test_coalesced_batch_rejects_weight_on_unweighted_graph(self):
        from repro.exceptions import WorkloadError

        engine = repro.open(path_graph(3))
        with pytest.raises(WorkloadError):
            engine.apply_batch([InsertEdge(0, 2, weight=5.0)])

    def test_delete_edge_undo_carries_weight(self):
        engine = repro.open(WeightedGraph.from_edges([(0, 1, 2), (1, 2, 3)]))
        upd = DeleteEdge(0, 1, weight=engine.graph.weight(0, 1))
        engine.apply(upd)
        engine.apply(upd.undo())
        assert engine.query(0, 2) == (5, 1)
        assert engine.check()


class TestEngineMisc:
    def test_weight_rejected_on_unweighted_backends(self):
        with pytest.raises(EngineError):
            repro.open(path_graph(3)).insert_edge(0, 2, weight=4)
        with pytest.raises(EngineError):
            repro.open(DiGraph.from_edges([(0, 1)])).insert_edge(1, 0, weight=4)

    def test_weight_required_on_weighted_backend(self):
        engine = repro.open(WeightedGraph.from_edges([(0, 1, 1)]))
        with pytest.raises(EngineError):
            engine.insert_edge(0, 2)

    def test_set_weight_rejected_on_unweighted_backends(self):
        with pytest.raises(EngineError):
            repro.open(path_graph(3)).set_weight(0, 1, 2)

    def test_open_accepts_prebuilt_index(self):
        from repro import build_spc_index

        g = path_graph(5)
        index = build_spc_index(g)
        engine = repro.open(g, index=index)
        assert engine.index is index
        assert engine.query(0, 4) == (4, 1)

    def test_open_config_plus_overrides(self):
        cfg = EngineConfig(rebuild_every=7)
        engine = repro.open(path_graph(3), config=cfg, cache_size=0)
        assert engine.config.rebuild_every == 7
        assert engine.config.cache_size == 0

    def test_engine_constructor_backend_kwarg(self):
        engine = SPCEngine(path_graph(3), backend="core")
        assert engine.backend_name == "core"

    def test_repr_names_backend(self):
        assert "backend='core'" in repr(repro.open(path_graph(3)))


class TestBaselineAnswer:
    """``baseline_answer`` picks its traversal from the graph's type."""

    def test_weighted_graph_counts_by_length(self):
        # The hop count would answer (1, 1): the direct edge is longest.
        g = WeightedGraph.from_edges([(0, 1, 5), (1, 2, 1), (0, 2, 1)])
        assert baseline_answer(g, 0, 1) == (2, 1)

    def test_directed_graph_follows_arcs(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        assert baseline_answer(g, 0, 2) == (2, 1)
        assert baseline_answer(g, 2, 0) == (INF, 0)

    def test_engine_recompute_matches_query_on_every_family(self):
        graphs = [path_graph(4), DiGraph.from_edges([(0, 1), (1, 2), (2, 0)]),
                  WeightedGraph.from_edges([(0, 1, 5), (1, 2, 1), (0, 2, 1)])]
        for g in graphs:
            engine = repro.open(g)
            for s in g.vertices():
                for t in g.vertices():
                    assert engine.recompute(s, t) == engine.query(s, t)
