"""The maintenance kernels against the versions that built their own root map.

Every maintenance search takes its PreQUERY root map from the root's
``LabelSet.root_get`` cache and bisects L(v) once per visit; IncSPC tests
v's own (h, ·, ·) entry before it scans the hubs above h.  The reference
kernels below do what the kernels they replaced did: each rebuilds the
root map per search, scans up to a rank bound and looks the own entry up
again with ``get``.  They take the kernels' ``lengths`` argument and run
one Dijkstra loop for every family, over a (distance, tie-break) heap, so
they also check that the kernels' distance buckets visit what a heap
settles.  The drivers are the same, so the reference runs them with these
kernels patched in under their module names.

On hypothesis insert/delete/weight streams on the undirected, directed
and weighted backends, every label set must equal the reference's after
every update, and so must every count of the update's ``UpdateStats``,
BFS visits included.  A named stream pins a root map that must follow its
label set: the insert writes into L(h) after a BFS rooted at h has cached
its map, and the delete's DecUPDATE then roots a BFS at h again.
"""

import heapq
import itertools
from bisect import bisect_right
from contextlib import ExitStack
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.decremental
import repro.core.incremental
from repro.core import build_spc_index, dec_spc, inc_spc
from repro.graph import Graph, WeightedGraph
from tests.property.strategies import small_digraphs, small_graphs
from tests.weighted.updates import decrease_weight, inc_spc_weighted, increase_weight

INF = float("inf")
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: UpdateStats fields both runs must agree on: every count.
COUNTED = ("bfs_visits", "inserted", "renew_dist", "renew_count", "removed",
           "affected_hubs", "sr_a", "sr_b", "r_a", "r_b",
           "isolated_fast_path")


def ref_prequery_prunes(labels, root_get, bound, dist):
    """The prune primitive the reference kernels call."""
    hubs = labels.hubs
    dists = labels.dists
    for i in range(bisect_right(hubs, bound)):
        rd = root_get(hubs[i])
        if rd is not None and rd + dists[i] < dist:
            return True
    return False


def unit_lengths(step):
    """``lengths`` for a unit-length graph: every edge of ``step`` is 1."""
    return lambda v: dict.fromkeys(step(v), 1)


def ref_inc_bfs(step, labels_of, root_labels, rank, h, va, vb, stats,
                lengths=None):
    """``repro.core.incremental.inc_bfs`` with a per-BFS root map, on a
    (distance, tie-break) heap."""
    entry = labels_of(va).get(h)
    if entry is None:
        return
    d0, c0 = entry
    edges = lengths or unit_lengths(step)
    d0 += edges(va)[vb]
    root_get = dict(zip(root_labels.hubs, root_labels.dists)).get

    dist = {vb: d0}
    count = {vb: c0}
    settled = set()
    heap = [(d0, 0, vb)]
    pushes = itertools.count(1)
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        stats.bfs_visits += 1

        ls = labels_of(v)
        if ref_prequery_prunes(ls, root_get, h, dv):
            continue

        existing = ls.get(h)
        if existing is not None:
            d_i, c_i = existing
            if dv == d_i:
                ls.set(h, dv, count[v] + c_i)
                stats.renew_count += 1
            else:
                ls.set(h, dv, count[v])
                stats.renew_dist += 1
        else:
            ls.set(h, dv, count[v])
            stats.inserted += 1

        cv = count[v]
        for w, length in edges(v).items():
            if w in settled or h > rank[w]:
                continue
            cand = dv + length
            dw = dist.get(w)
            if dw is None or cand < dw:
                dist[w] = cand
                count[w] = cv
                heapq.heappush(heap, (cand, next(pushes), w))
            elif cand == dw:
                count[w] += cv


def ref_dec_bfs(step, back, labels_of, root_labels, holders, rank, h_vertex,
                region, stats, lengths=None):
    """``repro.core.decremental.dec_bfs`` with a per-BFS root map, on a
    (distance, tie-break) heap."""
    h = rank[h_vertex]

    root_get = {hr: d for hr, d, _ in root_labels if hr != h}.get
    above_h = h - 1
    inside = set(region)
    held = holders(h)
    forward = lengths or unit_lengths(step)
    backward = lengths or unit_lengths(back)

    dist = {}
    count = {}
    heap = []
    pushes = itertools.count()
    for u in region:
        best = INF
        cu = 0
        for w, length in backward(u).items():
            if w in held and w not in inside:
                dw, cw = labels_of(w).get(h)
                dw += length
                if dw < best:
                    best = dw
                    cu = cw
                elif dw == best:
                    cu += cw
        if cu:
            dist[u] = best
            count[u] = cu
            heapq.heappush(heap, (best, next(pushes), u))

    updated = set()
    settled = set()
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        stats.bfs_visits += 1

        ls = labels_of(v)
        if ref_prequery_prunes(ls, root_get, above_h, dv):
            continue

        cv = count[v]
        existing = ls.get(h)
        if existing is None:
            ls.set(h, dv, cv)
            stats.inserted += 1
        else:
            d_i, c_i = existing
            if d_i != dv:
                ls.set(h, dv, cv)
                stats.renew_dist += 1
            elif c_i != cv:
                ls.set(h, dv, cv)
                stats.renew_count += 1
        updated.add(v)

        for w, length in forward(v).items():
            if w in inside and w not in settled:
                cand = dv + length
                dw = dist.get(w)
                if dw is None or cand < dw:
                    dist[w] = cand
                    count[w] = cv
                    heapq.heappush(heap, (cand, next(pushes), w))
                elif cand == dw:
                    count[w] += cv

    for u in held & inside:
        if u not in updated:
            labels_of(u).remove(h)
            stats.removed += 1


#: (module, name, reference): every place a driver looks a kernel up.  The
#: drivers of all three families are core's.
REFERENCES = (
    (repro.core.incremental, "inc_bfs", ref_inc_bfs),
    (repro.core.decremental, "dec_bfs", ref_dec_bfs),
)


def _counts(stats):
    return None if stats is None else tuple(getattr(stats, f) for f in COUNTED)


def _twin_runs(ops, apply_op, make):
    """Apply each op to a live-kernel and a reference-kernel index and
    compare every label set and every update count after every op."""
    live, ref = make(), make()
    for op in ops:
        stats = apply_op(live, op)
        with ExitStack() as stack:
            for module, name, kernel in REFERENCES:
                stack.enter_context(mock.patch.object(module, name, kernel))
            ref_stats = apply_op(ref, op)
        assert _counts(stats) == _counts(ref_stats)
        assert live[1].to_dict() == ref[1].to_dict()


def _pick(candidates, idx):
    return candidates[idx % len(candidates)] if candidates else None


ops_lists = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "ins", "setw"]),
              st.integers(0, 10_000),
              st.sampled_from([1, 2, 3, 0.5, 1.5, 2.5])),
    max_size=10,
)


class TestKernelsMatchReference:
    def test_root_map_follows_label_writes(self):
        def make():
            graph = Graph.from_edges([(0, 1), (0, 4), (1, 2), (1, 3), (3, 4)])
            return graph, build_spc_index(graph)

        def apply_op(state, op):
            graph, index = state
            kernel, edge = op
            return kernel(graph, index, *edge)

        _twin_runs([(inc_spc, (2, 3)), (dec_spc, (0, 1))], apply_op, make)

    @settings(max_examples=80, **COMMON)
    @given(g=small_graphs(max_vertices=10), ops=ops_lists)
    def test_undirected(self, g, ops):
        def make():
            graph = g.copy()
            return graph, build_spc_index(graph)

        def apply_op(state, op):
            graph, index = state
            kind, idx, _ = op
            if kind == "del":
                edge = _pick(sorted(graph.edges()), idx)
                return edge and dec_spc(graph, index, *edge)
            vs = sorted(graph.vertices())
            edge = _pick([(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                          if not graph.has_edge(u, v)], idx)
            return edge and inc_spc(graph, index, *edge)

        _twin_runs(ops, apply_op, make)

    @settings(max_examples=80, **COMMON)
    @given(g=small_digraphs(max_vertices=8), ops=ops_lists)
    def test_directed(self, g, ops):
        def make():
            graph = g.copy()
            return graph, build_spc_index(graph)

        def apply_op(state, op):
            graph, index = state
            kind, idx, _ = op
            if kind == "del":
                arc = _pick(sorted(graph.edges()), idx)
                return arc and dec_spc(graph, index, *arc)
            vs = sorted(graph.vertices())
            arc = _pick([(u, v) for u in vs for v in vs
                         if u != v and not graph.has_edge(u, v)], idx)
            return arc and inc_spc(graph, index, *arc)

        _twin_runs(ops, apply_op, make)

    @settings(max_examples=80, **COMMON)
    @given(
        n=st.integers(2, 8),
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                 st.sampled_from([1, 2, 0.5, 1.5])),
                       max_size=16),
        ops=ops_lists,
    )
    def test_weighted(self, n, edges, ops):
        def make():
            graph = WeightedGraph()
            for v in range(n):
                graph.add_vertex(v)
            for u, v, w in edges:
                if u < n and v < n and u != v and not graph.has_edge(u, v):
                    graph.add_edge(u, v, w)
            return graph, build_spc_index(graph)

        def apply_op(state, op):
            graph, index = state
            kind, idx, w = op
            if kind == "ins":
                vs = sorted(graph.vertices())
                edge = _pick([(u, v) for i, u in enumerate(vs)
                              for v in vs[i + 1:]
                              if not graph.has_edge(u, v)], idx)
                return edge and inc_spc_weighted(graph, index, *edge, w)
            edge = _pick(sorted(graph.edges()), idx)
            if edge is None:
                return None
            u, v, old = edge
            if kind == "del":
                return dec_spc(graph, index, u, v)
            if w < old:
                return decrease_weight(graph, index, u, v, w)
            if w > old:
                return increase_weight(graph, index, u, v, w)
            return None

        _twin_runs(ops, apply_op, make)
