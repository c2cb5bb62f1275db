"""Tests for the recommendation helpers."""

import repro
from repro.applications import (
    mutual_friend_candidates,
    rank_pairs_by_affinity,
    recommend_friends,
)
from repro.core import build_spc_index
from repro.graph import Graph, powerlaw_cluster


def intro_graph():
    """The paper's Figure 1 graph H: a-v2/v4-c paths, a-v1-b path.

    Vertices: a, b, c, v1..v4.  spc(a, c) = 3 > spc(a, b) = 1 at equal
    distance 2, so c outranks b as a friend recommendation for a.
    """
    return Graph.from_edges([
        ("a", "v1"), ("v1", "b"),
        ("a", "v2"), ("v2", "c"),
        ("a", "v3"), ("v3", "c"),
        ("a", "v4"), ("v4", "c"),
    ])


class TestIntroExample:
    def test_c_outranks_b(self):
        g = intro_graph()
        index = build_spc_index(g)
        recs = recommend_friends(g, index, "a", k=2)
        assert recs[0] == ("c", 3)
        assert recs[1] == ("b", 1)

    def test_candidates_at_radius(self):
        g = intro_graph()
        index = build_spc_index(g)
        cands = dict(mutual_friend_candidates(g, index, "a"))
        assert cands == {"b": 1, "c": 3}

    def test_affinity_ranking(self):
        g = intro_graph()
        index = build_spc_index(g)
        ranked = rank_pairs_by_affinity(index, [("a", "b"), ("a", "c"), ("a", "v1")])
        assert ranked[0] == ("a", "v1")   # distance 1 first
        assert ranked[1] == ("a", "c")    # then more paths at distance 2
        assert ranked[2] == ("a", "b")


class TestDynamicRecommendation:
    def test_recommendations_follow_updates(self):
        g = powerlaw_cluster(120, attach=3, triangle_prob=0.5, seed=9)
        dyn = repro.open(g, cache_size=0)
        user = max(g.vertices(), key=g.degree)
        recs = recommend_friends(dyn.graph, dyn, user, k=3)
        assert recs
        top = recs[0][0]
        dyn.insert_edge(user, top)
        new_recs = recommend_friends(dyn.graph, dyn, user, k=3)
        assert all(cand != top for cand, _ in new_recs)

    def test_counts_are_mutual_friends_at_radius_2(self):
        g = powerlaw_cluster(80, attach=2, triangle_prob=0.4, seed=11)
        index = build_spc_index(g)
        user = next(iter(g.vertices()))
        for cand, count in mutual_friend_candidates(g, index, user):
            mutual = len(set(g.neighbors(user)) & set(g.neighbors(cand)))
            assert count == mutual
