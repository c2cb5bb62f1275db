"""The rank-bounded, first-witness prune test against the full-minimum scan.

``prequery_prunes`` replaced six inline loops that computed the minimum of
``root_dist[hub] + sd(hub, v)`` over *all* of L(v) and pruned when it fell
below D[v].  The kernels now pass it L(v)'s arrays and the position
``end = bisect_left(hubs, h)`` of the root hub h; IncSPC tests v's own
(h, ·, ·) entry at that position itself, first.  These tests keep the full
loop, over every hub of L(v) except that own entry, as the reference:

* on random rank-constrained label sets, the primitive decides exactly as
  the reference does, ties and empty prefixes included;
* on mixed insert/delete streams, kernels running the primitive leave every
  label set equal to kernels running the reference, after every update.
"""

from bisect import bisect_left
from contextlib import ExitStack
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.decremental
import repro.core.incremental
from repro.core import build_spc_index, dec_spc, inc_spc
from repro.core.labels import LabelSet, prequery_prunes
from repro.graph import WeightedGraph
from tests.property.strategies import small_digraphs, small_graphs
from tests.weighted.updates import decrease_weight, inc_spc_weighted, increase_weight

INF = float("inf")
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

# The directed and weighted families run core's drivers and kernels, so
# patching core covers them.
KERNEL_MODULES = (repro.core.decremental, repro.core.incremental)


def full_minimum_prunes(hubs, dists, end, root_get, dist):
    """The loop the kernels ran before: the minimum over all of L(v).

    Only the entry at ``end`` is left out: there L(v) holds the root hub h
    itself, if at all, and PreQUERY proper never counts h (IncSPC tests it
    before the scan).  Every hub past it is scanned, so the rank bound is
    checked, not assumed.
    """
    best = INF
    for i in range(len(hubs)):
        if i == end:
            continue
        rd = root_get(hubs[i])
        if rd is not None:
            cand = rd + dists[i]
            if cand < best:
                best = cand
    return best < dist


def label_set(entries):
    ls = LabelSet()
    for hub, d in entries.items():
        ls.set(hub, d, 1)
    return ls


distances = st.one_of(
    st.integers(0, 12),
    st.floats(0, 12, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, 1.5, 2.25, 3.0]),
)


def scan_args(ls, h):
    """The arguments a kernel visiting ``ls`` for root hub ``h`` passes."""
    return ls.hubs, ls.dists, bisect_left(ls.hubs, h)


@st.composite
def prune_cases(draw):
    """(L(v), root map, h, D[v]) obeying the rank constraint.

    The root's hubs all rank at or above the root hub ``h``, and the root
    holds its self-label (h, 0).  L(v) holds hubs ranked at or above v,
    which may lie on either side of h, and h itself or not.
    """
    h = draw(st.integers(0, 10))
    owner = draw(st.integers(h, 14))
    held = draw(st.dictionaries(st.integers(0, owner), distances, max_size=10))
    root = dict(draw(st.dictionaries(st.integers(0, h - 1), distances,
                                     max_size=8) if h else st.just({})))
    root[h] = 0
    # Mostly probe at a candidate distance (or just past it), so that ties
    # and near-ties are common rather than accidental.
    cands = [root[h] + d for h, d in held.items() if h in root]
    if cands and draw(st.booleans()):
        dist = draw(st.sampled_from(cands))
        if draw(st.booleans()):
            dist += draw(st.sampled_from([1, 0.5]))
    else:
        dist = draw(st.one_of(distances, st.just(INF)))
    return label_set(held), root, h, dist


class TestPrimitive:
    @settings(max_examples=400, **COMMON)
    @given(case=prune_cases())
    def test_matches_full_minimum(self, case):
        ls, root, h, dist = case
        args = scan_args(ls, h)
        assert prequery_prunes(*args, root.get, dist) == \
            full_minimum_prunes(*args, root.get, dist)

    def test_tie_does_not_prune(self):
        ls = label_set({0: 1, 1: 2.5})
        root = {0: 2, 1: 0.5, 2: 0}
        assert not prequery_prunes(*scan_args(ls, 2), root.get, 3)
        assert prequery_prunes(*scan_args(ls, 2), root.get, 3.5)

    def test_empty_prefix_scans_nothing(self):
        # Every hub of L(v) ranks at or below h: nothing is looked up, even
        # though the root map (wrongly) holds a shorter witness.
        ls = label_set({5: 0, 7: 1})
        root = {5: 0, 7: 0}
        assert not prequery_prunes(*scan_args(ls, 5), root.get, 10)
        assert prequery_prunes(*scan_args(ls, 6), root.get, 10)

    def test_first_witness_stops_the_scan(self):
        seen = []
        root = {0: 1, 1: 0, 2: 0, 3: 0}

        def get(hub):
            seen.append(hub)
            return root.get(hub)

        ls = label_set({0: 1, 1: 1, 2: 1})
        assert prequery_prunes(*scan_args(ls, 3), get, 3)
        assert seen == [0]


def _twin_runs(ops, apply_op, make, snapshot):
    """Apply each op to a primitive-run and a reference-run index pair and
    compare every label set after every op."""
    live, ref = make(), make()
    for op in ops:
        applied = apply_op(live, op)
        with ExitStack() as stack:
            for module in KERNEL_MODULES:
                stack.enter_context(mock.patch.object(
                    module, "prequery_prunes", full_minimum_prunes))
            assert apply_op(ref, op) == applied
        assert snapshot(live) == snapshot(ref)


def _pick(candidates, idx):
    return candidates[idx % len(candidates)] if candidates else None


ops_lists = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "ins", "setw"]),
              st.integers(0, 10_000),
              st.sampled_from([1, 2, 3, 0.5, 1.5, 2.5])),
    max_size=8,
)


class TestStreamsMatchReference:
    @settings(max_examples=40, **COMMON)
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
                if edge:
                    dec_spc(graph, index, *edge)
                return edge
            vs = sorted(graph.vertices())
            edge = _pick([(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                          if not graph.has_edge(u, v)], idx)
            if edge:
                inc_spc(graph, index, *edge)
            return edge

        _twin_runs(ops, apply_op, make, lambda state: state[1].to_dict())

    @settings(max_examples=40, **COMMON)
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
                if arc:
                    dec_spc(graph, index, *arc)
                return arc
            vs = sorted(graph.vertices())
            arc = _pick([(u, v) for u in vs for v in vs
                         if u != v and not graph.has_edge(u, v)], idx)
            if arc:
                inc_spc(graph, index, *arc)
            return arc

        _twin_runs(ops, apply_op, make, lambda state: state[1].to_dict())

    @settings(max_examples=40, **COMMON)
    @given(
        n=st.integers(2, 8),
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                 st.sampled_from([1, 2, 0.5, 1.5])),
                       max_size=16),
        ops=ops_lists,
    )
    def test_weighted_int_and_float(self, n, edges, ops):
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
                if edge:
                    inc_spc_weighted(graph, index, *edge, w)
                return edge
            edge = _pick(sorted(graph.edges()), idx)
            if edge is None:
                return None
            u, v, old = edge
            if kind == "del":
                dec_spc(graph, index, u, v)
            elif w < old:
                decrease_weight(graph, index, u, v, w)
            elif w > old:
                increase_weight(graph, index, u, v, w)
            return edge

        _twin_runs(ops, apply_op, make, lambda state: state[1].to_dict())
