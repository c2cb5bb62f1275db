"""Tests for the ordering-drift diagnostics (§6 lazy-rebuild support)."""

import repro
from repro.graph import Graph, erdos_renyi, star_graph
from repro.order import (
    degree_order,
    drift_report,
    random_order,
    rank_displacement,
    sampled_inversions,
)


class TestDriftMetrics:
    def test_fresh_degree_order_has_no_drift(self):
        g = erdos_renyi(40, 100, seed=1)
        order = degree_order(g)
        assert sampled_inversions(g, order, samples=2000) == 0.0
        assert rank_displacement(g, order) == 0.0

    def test_random_order_drifts_heavily(self):
        g = erdos_renyi(60, 140, seed=2)
        order = random_order(g, seed=3)
        inv = sampled_inversions(g, order, samples=3000)
        assert inv > 0.25
        assert rank_displacement(g, order) > 0.1

    def test_drift_grows_with_updates(self):
        # Freeze an order, then invert the degree structure: the former
        # star center loses everything, a former leaf becomes the hub.
        g = star_graph(12)
        order = degree_order(g)  # center 0 ranks first
        for leaf in range(2, 12):
            g.remove_edge(0, leaf)
            g.add_edge(1, leaf)
        # Only pairs with distinct degrees count: (1, x) for the 11 others,
        # of which exactly (0, 1) is inverted -> expected fraction 1/11.
        inv = sampled_inversions(g, order, samples=5000)
        assert 0.05 < inv < 0.15

    def test_report_shape(self):
        g = erdos_renyi(30, 70, seed=4)
        report = drift_report(g, degree_order(g))
        assert set(report) == {
            "rank_displacement", "sampled_inversions", "rebuild_recommended",
        }
        assert not report["rebuild_recommended"]

    def test_tiny_graphs(self):
        g = Graph()
        g.add_vertex(0)
        order = degree_order(g)
        assert sampled_inversions(g, order) == 0.0
        assert rank_displacement(Graph(), order) == 0.0


class TestDriftRebuildPolicy:
    def test_facade_drift_method(self):
        g = erdos_renyi(25, 50, seed=5)
        dyn = repro.open(g, cache_size=0)
        report = dyn.drift()
        assert report["sampled_inversions"] == 0.0

    def test_drift_triggered_rebuild(self):
        # Degree-inverting churn with an aggressive drift policy must
        # trigger at least one rebuild and keep answers exact.
        g = star_graph(14)
        dyn = repro.open(
            g, cache_size=0, rebuild_drift_threshold=0.05, drift_check_every=5,
        )
        for leaf in range(2, 12):
            dyn.delete_edge(0, leaf)
            dyn.insert_edge(1, leaf)
        assert dyn._updates_since_rebuild < 20  # a rebuild happened
        assert dyn.check()
