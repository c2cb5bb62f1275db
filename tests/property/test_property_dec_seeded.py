"""The boundary-seeded DecUPDATE against the full-BFS kernel it replaced.

``repro.core.decremental.dec_bfs`` repairs each affected hub's region (the
opposite side's targets ranked below h) from the stored entries of its
boundary, and never walks outside it.  Before, it ran one rank-pruned BFS
from h over every vertex ranked below h.  This module keeps that kernel as
the reference:

* on mixed insert/delete streams, undirected and directed, an index
  maintained by the seeded kernel equals one maintained by the reference,
  label set for label set, after every update, with equal
  insert/renew/removal counts;
* the seeded kernel only expands region vertices;
* named streams pin the cases the seeding has to get right: the DESIGN.md
  §5 stale-label stream, a delete that leaves a region with no seeds, a
  kept target adjacent to its hub that seeds the region, and a directed
  hub on both sides of the arc.

The drivers drop kept holders (``decremental.drop_kept``) before they call
the kernel, so both kernels here repair the same region;
``test_property_dec_kept.py`` checks the drop itself.
"""

from bisect import bisect_left
from collections import deque
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.decremental
from repro.core import build_spc_index, dec_spc, inc_spc
from repro.core.labels import prequery_prunes
from repro.core.stats import UpdateStats
from repro.graph import DiGraph, Graph, erdos_renyi, path_graph
from repro.order import VertexOrder
from repro.verify import check_invariants, verify_espc
from tests.property.strategies import small_digraphs, small_graphs

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: The drivers of every family call ``dec_bfs`` through these module globals.
DRIVER_MODULES = (repro.core.decremental,)

#: The kernel under test, bound before any patching.
SEEDED = repro.core.decremental.dec_bfs

#: UpdateStats fields both kernels must agree on (visits differ by design).
COUNTED = ("sr_a", "sr_b", "r_a", "r_b", "affected_hubs", "inserted",
           "renew_dist", "renew_count", "removed")


def full_bfs_dec_bfs(step, labels_of, root_labels, holders, rank, h_vertex,
                     targets, stats):
    """The DecUPDATE kernel before boundary seeding: a rank-pruned BFS from
    h over every vertex ranked at or below h, writing only ``targets``."""
    h = rank[h_vertex]
    root_get = {hr: d for hr, d, _ in root_labels if hr != h}.get

    updated = set()
    dist = {h_vertex: 0}
    count = {h_vertex: 1}
    queue = deque([h_vertex])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        stats.bfs_visits += 1
        ls = labels_of(v)
        if prequery_prunes(ls.hubs, ls.dists, bisect_left(ls.hubs, h),
                           root_get, dv):
            continue
        if v in targets:
            existing = ls.get(h)
            if existing is None:
                ls.set(h, dv, count[v])
                stats.inserted += 1
            else:
                d_i, c_i = existing
                if d_i != dv:
                    ls.set(h, dv, count[v])
                    stats.renew_dist += 1
                elif c_i != count[v]:
                    ls.set(h, dv, count[v])
                    stats.renew_count += 1
            updated.add(v)
        cv = count[v]
        dnext = dv + 1
        for w in step(v):
            dw = dist.get(w)
            if dw is None:
                if h <= rank[w]:
                    dist[w] = dnext
                    count[w] = cv
                    queue.append(w)
            elif dw == dnext:
                count[w] += cv

    for u in holders(h) & targets:
        if u not in updated:
            labels_of(u).remove(h)
            stats.removed += 1


def reference_dec_bfs(step, back, labels_of, root_labels, holders, rank,
                      h_vertex, region, stats, lengths=None):
    """The drivers' call, answered by the full-BFS kernel.

    The region stands in for the old target set.  The targets it leaves out
    rank at or above h: the full BFS never reaches them, and none can hold
    h except h itself, whose self-label a visit at distance 0 rewrote
    unchanged.  The streams here are unit-length
    (``test_property_dec_kept.py`` covers the weighted family).
    """
    assert lengths is None
    del back  # the full BFS starts at h and needs no seeds
    full_bfs_dec_bfs(step, labels_of, root_labels, holders, rank, h_vertex,
                     set(region), stats)


def apply_with(kernel, update, *args):
    """Run ``update(*args)`` with every driver calling ``kernel``."""
    with ExitStack() as stack:
        for module in DRIVER_MODULES:
            stack.enter_context(mock.patch.object(module, "dec_bfs", kernel))
        return update(*args)


class Recorder:
    """Wraps the seeded kernel: records each call and checks that it only
    ever expands (calls ``step`` on) a vertex of its region."""

    def __init__(self):
        self.calls = []

    def __call__(self, step, back, labels_of, root_labels, holders, rank,
                 h_vertex, region, stats, lengths=None):
        inside = set(region)
        self.calls.append((h_vertex, inside, back, stats.bfs_visits))

        def region_step(v):
            assert v in inside, f"hub {h_vertex} expanded {v} outside its region"
            return step(v)

        SEEDED(region_step, back, labels_of, root_labels, holders, rank,
               h_vertex, region, stats, lengths)
        assert stats.bfs_visits - self.calls[-1][3] <= len(inside)


def _counted(stats):
    return {f: getattr(stats, f) for f in COUNTED}


def _twin_delete(live, ref, delete, a, b, recorder=None):
    """Delete (a, b) from both indexes; the live one runs the seeded kernel
    (through ``recorder`` when given), the reference the full BFS."""
    (g_live, i_live), (g_ref, i_ref) = live, ref
    s_ref = apply_with(reference_dec_bfs, delete, g_ref, i_ref, a, b,
                       UpdateStats())
    if recorder is None:
        s_live = delete(g_live, i_live, a, b, UpdateStats())
    else:
        s_live = apply_with(recorder, delete, g_live, i_live, a, b,
                            UpdateStats())
    assert _counted(s_live) == _counted(s_ref)
    assert i_live.to_dict() == i_ref.to_dict()
    return s_live


def _pick(candidates, idx):
    return candidates[idx % len(candidates)] if candidates else None


ops_lists = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "del"]), st.integers(0, 10_000)),
    max_size=10,
)


def _twins(graph, build, **kwargs):
    """Two independent (graph, index) copies: the live and the reference."""
    return tuple((g, build(g, **kwargs)) for g in (graph.copy(), graph.copy()))


def _run_stream(graph, build, insert, delete, ops, pairs):
    live, ref = _twins(graph, build)
    recorder = Recorder()
    for kind, idx in ops:
        g = live[0]
        if kind == "del":
            edge = _pick(sorted(g.edges()), idx)
            if edge:
                _twin_delete(live, ref, delete, *edge, recorder=recorder)
        else:
            edge = _pick([(u, v) for u, v in pairs(sorted(g.vertices()))
                          if not g.has_edge(u, v)], idx)
            if edge:
                insert(live[0], live[1], *edge)
                insert(ref[0], ref[1], *edge)
                assert live[1].to_dict() == ref[1].to_dict()
    return live


def _undirected_pairs(vs):
    return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]


def _directed_pairs(vs):
    return [(u, v) for u in vs for v in vs if u != v]


class TestStreamsMatchFullBfs:
    @settings(max_examples=100, **COMMON)
    @given(g=small_graphs(max_vertices=11), ops=ops_lists)
    def test_undirected(self, g, ops):
        _, index = _run_stream(g, build_spc_index, inc_spc, dec_spc, ops,
                               _undirected_pairs)
        assert check_invariants(index)

    @settings(max_examples=100, **COMMON)
    @given(g=small_digraphs(max_vertices=8), ops=ops_lists)
    def test_directed(self, g, ops):
        _, index = _run_stream(g, build_spc_index,
                               inc_spc, dec_spc, ops,
                               _directed_pairs)
        assert check_invariants(index)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graph_churn(self, seed):
        """Longer streams than hypothesis draws, on a sparse random graph
        whose deletes have large regions."""
        ops = [("ins" if i % 3 == 0 else "del", seed * 7919 + i * 104729)
               for i in range(30)]
        graph, index = _run_stream(erdos_renyi(40, 90, seed=seed),
                                   build_spc_index, inc_spc, dec_spc, ops,
                                   _undirected_pairs)
        assert verify_espc(graph, index)


class TestNamedCases:
    def test_stale_label_stream(self):
        """DESIGN.md §5: shortcuts leave stale labels behind; deleting them
        raises distances back to the stale values."""
        live, ref = _twins(path_graph(8), build_spc_index)
        for u, v in [(0, 7), (2, 6)]:
            inc_spc(*live[0:2], u, v)
            inc_spc(*ref[0:2], u, v)
        for u, v in [(2, 6), (0, 7)]:
            _twin_delete(live, ref, dec_spc, u, v, Recorder())
        assert verify_espc(*live)

    def test_region_cut_off_has_no_seeds(self):
        """Deleting a bridge strands each hub's region: nothing seeds it,
        nothing is visited, and every (h, ·, ·) entry across it goes."""
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3),
                              (3, 4), (4, 5), (5, 3)])
        live, ref = _twins(g, build_spc_index)
        recorder = Recorder()
        stats = _twin_delete(live, ref, dec_spc, 2, 3, recorder)
        assert recorder.calls and stats.bfs_visits == 0
        assert stats.removed > 0
        index = live[1]
        left, right = {0, 1, 2}, {3, 4, 5}
        rank = index.order.rank_map()
        for side, other in ((left, right), (right, left)):
            for v in side:
                assert not set(index.label_set(v).hubs) & {rank[u] for u in other}
        assert verify_espc(*live)

    def test_hub_adjacent_to_its_region(self):
        """On the square 0-1-2-3, deleting (1, 2) leaves hub 0 (a common
        hub of both endpoints) adjacent to target 3.  3 holds (0, 1, 1) and
        1 < sd(0, 1) + 1 + sd(2, 3) = 3, so 3 is kept: it stays out of hub
        0's region, and its entry seeds region vertex 2 at distance 2.

        A region vertex adjacent to its hub can no longer occur at all:
        the edge makes h its highest-ranked shortest path, so it holds
        (h, 1, 1), below every bound but the deleted edge's own.  The
        self-label therefore never seeds (test_property_dec_kept.py)."""
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        live, ref = _twins(g, build_spc_index, order=VertexOrder([0, 1, 2, 3]))
        recorder = Recorder()
        stats = _twin_delete(live, ref, dec_spc, 1, 2, recorder)
        assert stats.kept == 1
        assert any(
            h_vertex == 0 and inside == {2} and 3 in back(2)
            for h_vertex, inside, back, _ in recorder.calls
        )
        index = live[1]
        assert index.label_set(3).get(0) == (1, 1)  # hub 0 has rank 0
        assert index.label_set(2).get(0) == (2, 1)  # was (2, 2) via 1 and 3
        assert verify_espc(*live)

    def test_directed_hub_on_both_sides_keeps_its_self_label(self):
        """On the cycle 0 -> 1 -> 2 -> 0, deleting 0 -> 1 puts 2 in both
        SRa and SRb.  Its two repairs must leave both self-labels alone."""
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        live, ref = _twins(g, build_spc_index,
                           order=VertexOrder([2, 0, 1]))
        recorder = Recorder()
        _twin_delete(live, ref, dec_spc, 0, 1, recorder)
        assert [c[0] for c in recorder.calls].count(2) == 2
        index = live[1]
        rank_2 = index.order.rank_map()[2]
        assert index.in_label_set(2).get(rank_2) == (0, 1)
        assert index.out_label_set(2).get(rank_2) == (0, 1)
        assert check_invariants(index)
        assert index.query(2, 1) == (float("inf"), 0)
        assert index.query(1, 0) == (2, 1)
