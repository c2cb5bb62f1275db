"""DecUPDATE's kept holders against the drivers that repaired every target.

Before each affected hub h's repair, ``repro.core.decremental.drop_kept``
leaves out of h's region every target u that holds (h, d, ·) with
d < sd(h, near end) + 1 + sd(far end, u).  No h–u path over the deleted edge
is that short, so u's shortest h-paths survive the delete, and so does its
entry (DESIGN.md §4, "Kept holders").  This module keeps the drivers as
they were before the drop, every target below h repaired, as the reference.
On a weighted graph the bound reads sd(h, near end) + w_ab + sd(far end, u),
and the reference is the full-Dijkstra weighted maintenance the shared
kernels replaced: IncSPC's partial Dijkstra, a SrrSEARCH that queries the
index, and a rank-pruned Dijkstra from every affected hub over all its
targets.  On mixed insert/delete streams, undirected and directed, and on
insert/delete/weight-change streams, weighted, after every update:

* both indexes hold the same exact entries, those with d = sd(h, u);
* every entry only the maintained index holds is stale, d > sd(h, u): a
  kept entry never undercuts or equals the true distance;
* every query equals BFS or Dijkstra, and the structural invariants hold;
* on unit-length graphs no region vertex is adjacent to its hub, so the
  hub's self-label never seeds (a neighbour u of h ranked below h holds
  (h, 1, 1), which is kept).  A weighted edge to h need not be a shortest
  path, so there the self-label may seed, as any exact entry does.
"""

import heapq
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.decremental
from repro.core import build_spc_index, dec_spc, inc_spc
from repro.core.decremental import (
    dec_bfs,
    regions_below,
    srr_search,
    try_isolated_fast_path,
)
from repro.core.stats import UpdateStats
from repro.directed import build_directed_spc_index, dec_spc_directed, inc_spc_directed
from repro.exceptions import EdgeNotFound
from repro.graph import Graph, erdos_renyi, random_weighted
from repro.order import VertexOrder
from repro.traversal.bfs import bfs_counting_sssp, directed_bfs_counting_sssp
from repro.traversal.dijkstra import dijkstra_counting_sssp
from repro.verify import check_invariants, verify_espc
from repro.weighted import (
    build_weighted_spc_index,
    dec_spc_weighted,
    decrease_weight,
    inc_spc_weighted,
    increase_weight,
)
from tests.property.strategies import (
    small_digraphs,
    small_graphs,
    small_weighted_graphs,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

INF = float("inf")


def reference_dec_spc(graph, index, a, b):
    """``dec_spc`` before kept holders: each hub repairs every target
    ranked below it."""
    stats = UpdateStats(kind="delete", edge=(a, b))
    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)
    if try_isolated_fast_path(graph, index, a, b, stats):
        return stats
    rank = index.order.rank_map()
    label_of = index.label_set
    step = graph.neighbors
    lab = set(label_of(a).hubs) & set(label_of(b).hubs)
    sr_a, r_a, _ = srr_search(step, a, b, lab, rank)
    sr_b, r_b, _ = srr_search(step, b, a, lab, rank)
    graph.remove_edge(a, b)
    below_b = regions_below(sr_b | r_b, rank)
    below_a = regions_below(sr_a | r_a, rank)
    for h_vertex in sorted(sr_a | sr_b, key=lambda v: rank[v]):
        h = rank[h_vertex]
        region = below_b(h) if h_vertex in sr_a else below_a(h)
        dec_bfs(step, step, label_of, label_of(h_vertex), index.holders, rank,
                h_vertex, region, stats)
    return stats


def reference_dec_spc_directed(graph, index, a, b):
    """``dec_spc_directed`` before kept holders."""
    stats = UpdateStats(kind="delete", edge=(a, b))
    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)
    rank = index.order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set
    lab_in = set(lin(a).hubs) & set(lin(b).hubs)
    lab_out = set(lout(a).hubs) & set(lout(b).hubs)
    sr_a, r_a, _ = srr_search(graph.predecessors, a, b, lab_in, rank)
    sr_b, r_b, _ = srr_search(graph.successors, b, a, lab_out, rank)
    graph.remove_edge(a, b)
    below_b = regions_below(sr_b | r_b, rank)
    below_a = regions_below(sr_a | r_a, rank)
    for h_vertex in sorted(sr_a | sr_b, key=lambda v: rank[v]):
        h = rank[h_vertex]
        if h_vertex in sr_a:
            dec_bfs(graph.successors, graph.predecessors, lin, lout(h_vertex),
                    index.in_holders, rank, h_vertex, below_b(h), stats)
        if h_vertex in sr_b:
            dec_bfs(graph.predecessors, graph.successors, lout, lin(h_vertex),
                    index.out_holders, rank, h_vertex, below_a(h), stats)
    return stats


def reference_inc_weighted(graph, index, a, b, mutate):
    """Weighted IncSPC before the shared kernels: a partial Dijkstra per
    affected hub, entering the edge from either end."""
    aff_a = set(index.label_set(a).hubs)
    aff_b = set(index.label_set(b).hubs)
    mutate()
    rank = index.order.rank_map()
    w_ab = graph.weight(a, b)
    for h in sorted(aff_a | aff_b):
        if h in aff_a and h <= rank[b]:
            _inc_update_dijkstra(graph, index, h, a, b, w_ab)
        if h in aff_b and h <= rank[a]:
            _inc_update_dijkstra(graph, index, h, b, a, w_ab)


def _inc_update_dijkstra(graph, index, h, va, vb, w_ab):
    rank = index.order.rank_map()
    label_of = index.label_set
    entry = label_of(va).get(h)
    if entry is None:
        return
    d0, c0 = entry
    root_labels = label_of(index.order.vertex(h))
    root_dist = dict(zip(root_labels.hubs, root_labels.dists))
    dist = {vb: d0 + w_ab}
    count = {vb: c0}
    settled = set()
    heap = [(d0 + w_ab, rank[vb], vb)]
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        ls = label_of(v)
        if any(root_dist.get(hub, INF) + d < dv for hub, d, _ in ls):
            continue  # the witness x = h counts here
        own = ls.get(h)
        cv = count[v]
        ls.set(h, dv, cv + own[1] if own and own[0] == dv else cv)
        for w, weight in graph.neighbors(v).items():
            if w in settled or h > rank[w]:
                continue
            cand = dv + weight
            dw = dist.get(w)
            if dw is None or cand < dw:
                dist[w] = cand
                count[w] = cv
                heapq.heappush(heap, (cand, rank[w], w))
            elif cand == dw:
                count[w] += cv


def reference_dec_weighted(graph, index, a, b, mutate=None):
    """Weighted DecSPC before the shared kernels: SrrSEARCH by Dijkstra
    and label queries, then a full rank-pruned Dijkstra from every
    affected hub that repairs all its targets."""
    stats = UpdateStats(kind="delete", edge=(a, b))
    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)
    if mutate is None and try_isolated_fast_path(graph, index, a, b, stats):
        return stats
    rank = index.order.rank_map()
    w_ab = graph.weight(a, b)
    lab = set(index.label_set(a).hubs) & set(index.label_set(b).hubs)
    sr_a, r_a = _srr_search_dijkstra(graph, index, a, b, w_ab, lab)
    sr_b, r_b = _srr_search_dijkstra(graph, index, b, a, w_ab, lab)
    if mutate is None:
        graph.remove_edge(a, b)
    else:
        mutate()
    for h_vertex in sorted(sr_a | sr_b, key=lambda v: rank[v]):
        targets = sr_b | r_b if h_vertex in sr_a else sr_a | r_a
        _dec_update_dijkstra(graph, index, h_vertex, targets)
    return stats


def _srr_search_dijkstra(graph, index, a, b, w_ab, lab):
    rank = index.order.rank_map()
    sr, r = set(), set()
    dist = {a: 0}
    count = {a: 1}
    settled = set()
    heap = [(0, rank[a], a)]
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        d_q, c_q = index.query(v, b)
        if dv + w_ab != d_q:
            continue
        if rank[v] in lab or count[v] == c_q:
            sr.add(v)
        else:
            r.add(v)
        cv = count[v]
        for w, weight in graph.neighbors(v).items():
            if w in settled:
                continue
            cand = dv + weight
            dw = dist.get(w)
            if dw is None or cand < dw:
                dist[w] = cand
                count[w] = cv
                heapq.heappush(heap, (cand, rank[w], w))
            elif cand == dw:
                count[w] += cv
    return sr, r


def _dec_update_dijkstra(graph, index, h_vertex, targets):
    rank = index.order.rank_map()
    label_of = index.label_set
    h = rank[h_vertex]
    root_dist = {hr: d for hr, d, _ in label_of(h_vertex) if hr != h}
    updated = set()
    dist = {h_vertex: 0}
    count = {h_vertex: 1}
    settled = set()
    heap = [(0, h, h_vertex)]
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        ls = label_of(v)
        if any(root_dist.get(hub, INF) + d < dv for hub, d, _ in ls):
            continue
        cv = count[v]
        if v in targets:
            ls.set(h, dv, cv)
            updated.add(v)
        for w, weight in graph.neighbors(v).items():
            if w in settled or h > rank[w]:
                continue
            cand = dv + weight
            dw = dist.get(w)
            if dw is None or cand < dw:
                dist[w] = cand
                count[w] = cv
                heapq.heappush(heap, (cand, rank[w], w))
            elif cand == dw:
                count[w] += cv
    for u in index.holders(h) & targets:
        if u not in updated:
            label_of(u).remove(h)


def no_self_seed_dec_bfs(step, back, labels_of, root_labels, holders, rank,
                         h_vertex, region, stats, lengths=None):
    """``dec_bfs``, after asserting, on a unit-length graph, that no region
    vertex has its hub among its seed candidates."""
    if lengths is None:
        for u in region:
            assert h_vertex not in back(u), (
                f"region vertex {u} neighbours hub {h_vertex}")
    dec_bfs(step, back, labels_of, root_labels, holders, rank, h_vertex,
            region, stats, lengths)


def checked_delete(delete, *args):
    """Run the maintained driver with the self-seed assertion in place."""
    with mock.patch.object(repro.core.decremental, "dec_bfs",
                           no_self_seed_dec_bfs):
        return delete(*args)


class Family(NamedTuple):
    """One graph family: its drivers, label sides and ground truth.

    ``update`` and ``reference`` apply one update ``(graph, index, kind, a,
    b, w)``: kind "ins" inserts (a, b), of weight w on a weighted graph,
    "del" deletes it, and "setw" sets its weight to w.
    """

    build: Callable
    update: Callable
    reference: Callable
    pairs: Callable
    sides: Callable
    verify: Callable
    invariants: Callable


def _unit_updates(insert, delete):
    """``Family.update`` over an unweighted insert and delete driver."""
    def update(graph, index, kind, a, b, w):
        return (insert if kind == "ins" else delete)(graph, index, a, b)
    return update


def weighted_update(graph, index, kind, a, b, w):
    if kind == "ins":
        return inc_spc_weighted(graph, index, a, b, w)
    if kind == "del":
        return dec_spc_weighted(graph, index, a, b)
    change = decrease_weight if w < graph.weight(a, b) else increase_weight
    return change(graph, index, a, b, w)


def reference_weighted_update(graph, index, kind, a, b, w):
    if kind == "ins":
        return reference_inc_weighted(graph, index, a, b,
                                      lambda: graph.add_edge(a, b, w))
    if kind == "del":
        return reference_dec_weighted(graph, index, a, b)
    reweight = lambda: graph.set_weight(a, b, w)  # noqa: E731
    if w < graph.weight(a, b):
        return reference_inc_weighted(graph, index, a, b, reweight)
    return reference_dec_weighted(graph, index, a, b, reweight)


def _undirected_sides(graph, index):
    """[(label sets, sd(h, u) lookup)] for the one side of an undirected index."""
    dist = {h: bfs_counting_sssp(graph, h)[0] for h in graph.vertices()}
    return [(index.label_set, lambda h, u: dist[h].get(u, INF))]


def _weighted_sides(graph, index):
    """As ``_undirected_sides``, with Dijkstra distances."""
    dist = {h: dijkstra_counting_sssp(graph, h)[0] for h in graph.vertices()}
    return [(index.label_set, lambda h, u: dist[h].get(u, INF))]


def _directed_sides(graph, index):
    """L_in(u) holds (h, sd(h, u), ·), L_out(u) holds (h, sd(u, h), ·)."""
    dist = {h: directed_bfs_counting_sssp(graph, h)[0] for h in graph.vertices()}
    return [
        (index.in_label_set, lambda h, u: dist[h].get(u, INF)),
        (index.out_label_set, lambda h, u: dist[u].get(h, INF)),
    ]


def _undirected_pairs(vs):
    return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]


UNDIRECTED = Family(
    build_spc_index, _unit_updates(inc_spc, dec_spc),
    _unit_updates(inc_spc, reference_dec_spc), _undirected_pairs,
    _undirected_sides, verify_espc, check_invariants,
)
DIRECTED = Family(
    build_directed_spc_index, _unit_updates(inc_spc_directed, dec_spc_directed),
    _unit_updates(inc_spc_directed, reference_dec_spc_directed),
    lambda vs: [(u, v) for u in vs for v in vs if u != v],
    _directed_sides, verify_espc, check_invariants,
)
WEIGHTED = Family(
    build_weighted_spc_index, weighted_update, reference_weighted_update,
    _undirected_pairs, _weighted_sides, verify_espc, check_invariants,
)


def _entries(index, labels_of):
    """{(u, hub vertex): (d, c)} over one side of ``index``."""
    vertex_of = index.order.vertex
    return {(u, vertex_of(hr)): (d, c)
            for u in index.vertices() for hr, d, c in labels_of(u)}


def _exact(entries, sd):
    return {(u, h): e for (u, h), e in entries.items() if e[0] == sd(h, u)}


def assert_kept_sound(family, graph, live, ref):
    """The checks of the module docstring, on the current graph."""
    for (live_side, sd), (ref_side, _) in zip(family.sides(graph, live),
                                              family.sides(graph, ref)):
        got, want = _entries(live, live_side), _entries(ref, ref_side)
        assert _exact(got, sd) == _exact(want, sd)
        for (u, h), entry in got.items():
            if want.get((u, h)) != entry:
                assert entry[0] > sd(h, u), (
                    f"entry ({h}, {entry}) of {u} only the kept index holds "
                    f"is not stale: sd = {sd(h, u)}")
    assert family.verify(graph, live)
    assert family.invariants(live)


def run_stream(family, graph, ops):
    """Apply ``ops`` to a maintained and a reference (graph, index) pair,
    checking after every update; returns the summed kept count."""
    g_live, g_ref = graph.copy(), graph.copy()
    live, ref = family.build(g_live), family.build(g_ref)
    kept = 0
    for kind, idx, w in ops:
        if kind == "ins":
            choices = [(u, v) for u, v in family.pairs(sorted(g_live.vertices()))
                       if not g_live.has_edge(u, v)]
        else:
            choices = [edge[:2] for edge in sorted(g_live.edges())]
        if not choices:
            continue
        a, b = choices[idx % len(choices)]
        if kind == "setw" and w == g_live.weight(a, b):
            continue
        kept += checked_delete(family.update, g_live, live, kind, a, b, w).kept
        family.reference(g_ref, ref, kind, a, b, w)
        assert_kept_sound(family, g_live, live, ref)
    return kept


ops_lists = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "del"]), st.integers(0, 10_000),
              st.just(1)),
    max_size=12,
)
weighted_ops = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "setw", "setw"]),
              st.integers(0, 10_000),
              st.sampled_from([1, 2, 3, 4, 0.5, 1.5, 2.5])),
    max_size=12,
)


class TestStreamsAgainstRepairAll:
    @settings(max_examples=300, **COMMON)
    @given(g=small_graphs(max_vertices=11), ops=ops_lists)
    def test_undirected(self, g, ops):
        run_stream(UNDIRECTED, g, ops)

    @settings(max_examples=300, **COMMON)
    @given(g=small_digraphs(max_vertices=8), ops=ops_lists)
    def test_directed(self, g, ops):
        run_stream(DIRECTED, g, ops)

    @settings(max_examples=300, **COMMON)
    @given(g=small_weighted_graphs(max_vertices=9), ops=weighted_ops)
    def test_weighted(self, g, ops):
        run_stream(WEIGHTED, g, ops)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graph_churn(self, seed):
        """Longer insert-heavy streams than hypothesis draws, so stale
        entries pile up before the deletes meet them."""
        ops = [("del" if i % 3 == 0 else "ins", seed * 7919 + i * 104729, 1)
               for i in range(36)]
        assert run_stream(UNDIRECTED, erdos_renyi(30, 60, seed=seed), ops) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_weighted_churn(self, seed):
        """The weighted twin: inserts and weight decreases leave stale
        entries that later deletes and increases meet."""
        kinds = ["ins", "setw", "del", "ins", "setw", "setw"]
        ops = [(kinds[i % 6], seed * 7919 + i * 104729, 1 + (i * 7 + seed) % 4)
               for i in range(36)]
        graph = random_weighted(24, 50, max_weight=4, seed=seed)
        assert run_stream(WEIGHTED, graph, ops) > 0


def _twin(edges, order):
    """Two independent (graph, index) copies of one graph."""
    graphs = [Graph.from_edges(edges) for _ in range(2)]
    return [(g, build_spc_index(g, order=VertexOrder(order))) for g in graphs]


class TestNamedCases:
    def test_kept_stale_entry_stays_stale(self):
        """u = 4 holds (1, 3, 1) over 1-2-3-4.  Inserting (0, 4) makes
        1-0-4 shorter, through 0, which outranks hub 1, so that entry goes
        stale.  Deleting (5, 6) of the other 1-4 path, 1-5-6-7-4, puts 4 on
        6's side with bound sd(1, 5) + 1 + sd(6, 4) = 4 > 3: the entry is
        kept and stays stale, where the reference removes it."""
        edges = [(1, 0), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (7, 4)]
        (g_live, live), (g_ref, ref) = _twin(edges, [0, 1, 5, 6, 7, 2, 3, 4])
        for graph, index in ((g_live, live), (g_ref, ref)):
            inc_spc(graph, index, 0, 4)
        assert live.label_set(4).get(1) == (3, 1)  # hub 1 has rank 1
        stats = checked_delete(dec_spc, g_live, live, 5, 6)
        ref_stats = reference_dec_spc(g_ref, ref, 5, 6)
        assert live.label_set(4).get(1) == (3, 1)
        assert ref.label_set(4).get(1) is None
        assert stats.kept > 0 and stats.removed < ref_stats.removed
        assert live.query(1, 4) == (2, 1)
        assert_kept_sound(UNDIRECTED, g_live, live, ref)

    def test_square_keeps_the_holder_next_to_its_hub(self):
        """test_property_dec_seeded's adjacency case: deleting (1, 2) of the
        square 0-1-2-3 keeps target 3, which holds (0, 1, 1) below its bound
        3; the reference rewrites that entry unchanged."""
        (g_live, live), (g_ref, ref) = _twin(
            [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 1, 2, 3])
        stats = checked_delete(dec_spc, g_live, live, 1, 2)
        ref_stats = reference_dec_spc(g_ref, ref, 1, 2)
        assert stats.kept == 1
        assert live.to_dict() == ref.to_dict()
        assert stats.bfs_visits < ref_stats.bfs_visits
