"""Unit tests for the verifier itself — it must catch corruption."""

import pytest

from repro.core import SPCIndex, build_spc_index
from repro.exceptions import IndexCorruption
from repro.graph import erdos_renyi, path_graph
from repro.order import VertexOrder
from repro.verify import check_invariants, indexes_equivalent, verify_espc


class TestVerifyEspc:
    def test_accepts_correct_index(self):
        g = erdos_renyi(30, 60, seed=1)
        index = build_spc_index(g)
        assert verify_espc(g, index)

    def test_detects_wrong_count(self):
        g = path_graph(4)
        index = build_spc_index(g)
        # Corrupt one count.
        ls = index.label_set(3)
        hub = ls.hubs[0]
        d, c = ls.get(hub)
        ls.set(hub, d, c + 5)
        with pytest.raises(IndexCorruption):
            verify_espc(g, index)

    def test_detects_wrong_distance(self):
        g = path_graph(4)
        index = build_spc_index(g)
        ls = index.label_set(3)
        hub = ls.hubs[0]
        _, c = ls.get(hub)
        ls.set(hub, 1, c)  # distance underestimate must surface
        with pytest.raises(IndexCorruption):
            verify_espc(g, index)

    def test_detects_missing_label(self):
        g = path_graph(5)
        index = build_spc_index(g)
        ls = index.label_set(4)
        ls.remove(ls.hubs[0])
        with pytest.raises(IndexCorruption):
            verify_espc(g, index)

    def test_sampled_mode(self):
        g = erdos_renyi(50, 120, seed=2)
        index = build_spc_index(g)
        assert verify_espc(g, index, sample_pairs=200)

    def test_explicit_pairs(self):
        g = path_graph(4)
        index = build_spc_index(g)
        assert verify_espc(g, index, sample_pairs=[(0, 3), (1, 2)])

    def test_empty_graph(self):
        from repro.graph import Graph

        g = Graph()
        index = build_spc_index(g)
        assert verify_espc(g, index)


class TestCheckInvariants:
    def test_accepts_correct_index(self, paper_index):
        assert check_invariants(paper_index)

    def test_detects_missing_self_label(self):
        index = SPCIndex(VertexOrder([0, 1]))
        index.label_set(1).remove(1)
        with pytest.raises(IndexCorruption):
            check_invariants(index)

    def test_detects_rank_violation(self):
        index = SPCIndex(VertexOrder([0, 1]))
        # Hub ranked BELOW the owner is illegal.
        index.label_set(0).set(1, 1, 1)
        with pytest.raises(IndexCorruption):
            check_invariants(index)

    def test_detects_nonpositive_count(self):
        index = SPCIndex(VertexOrder([0, 1]))
        index.label_set(1).set(0, 1, 0)
        with pytest.raises(IndexCorruption):
            check_invariants(index)

    def test_detects_zero_distance_non_self(self):
        index = SPCIndex(VertexOrder([0, 1]))
        index.label_set(1).set(0, 0, 1)
        with pytest.raises(IndexCorruption):
            check_invariants(index)


class TestIndexesEquivalent:
    def test_equivalent_after_rebuild(self):
        from repro.core import inc_spc

        g = erdos_renyi(20, 35, seed=3)
        index = build_spc_index(g)
        inc_spc(g, index, *_absent_edge(g))
        rebuilt = build_spc_index(g)
        assert indexes_equivalent(index, rebuilt, g)

    def test_detects_difference(self):
        g = path_graph(4)
        a = build_spc_index(g)
        b = build_spc_index(g)
        ls = b.label_set(3)
        hub = ls.hubs[0]
        d, c = ls.get(hub)
        ls.set(hub, d, c + 1)
        assert not indexes_equivalent(a, b, g)

    def test_checks_the_given_pairs(self):
        # An index wrong on one pair only: the explicit pair list must be
        # what is checked, not a random sample that misses it.
        g = path_graph(80)
        index = build_spc_index(g)
        wrong = _WrongOn(index, (0, 79))
        assert indexes_equivalent(index, wrong, g, sample_pairs=[(0, 1)])
        assert not indexes_equivalent(index, wrong, g,
                                      sample_pairs=[(0, 79)])


class _WrongOn:
    """An index that answers like ``index`` except on one pair."""

    def __init__(self, index, pair):
        self._index = index
        self._pair = pair

    def query(self, s, t):
        d, c = self._index.query(s, t)
        return (d, c + 1) if (s, t) == self._pair else (d, c)


def _absent_edge(g):
    vs = sorted(g.vertices())
    for u in vs:
        for v in vs:
            if u < v and not g.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")
