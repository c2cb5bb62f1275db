"""The directed family on core's drivers against its former own drivers.

The directed IncSPC and DecSPC once had drivers of their own over the
shared kernels: one loop that paired successors with in-labels and
predecessors with out-labels, and repaired a hub in SRa ∩ SRb on both
sides.  Core's ``inc_spc`` and ``dec_spc`` now take the steps from the
graph and the sides from the index, so they run the directed algorithm
too.  The former drivers are kept below as the reference:

* on hypothesis arc streams, cycles included, every label set, both
  reverse hub maps and every ``UpdateStats`` count (visits included) must
  equal the reference's after every update;
* a delete on a 2-cycle whose hub sits in SRa ∩ SRb must run both of its
  repairs;
* an arc delete that strands a vertex must not take the undirected
  §3.2.3 fast path;
* arc-delete streams through ``dec_spc`` with its default arguments, on
  graphs with pendant arcs, delete arcs whose tail or head has total
  degree 1 and still equal the reference.
"""

from time import perf_counter
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.core.decremental
from repro.core import build_spc_index, dec_spc, inc_spc
from repro.core.decremental import dec_bfs, drop_kept, regions_below, srr_search
from repro.core.incremental import inc_bfs
from repro.core.stats import UpdateStats
from repro.exceptions import EdgeNotFound
from repro.graph import DiGraph
from repro.order import VertexOrder
from repro.verify import check_invariants, verify_espc
from tests.property.strategies import small_digraphs

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: UpdateStats fields both drivers must agree on: every count.
COUNTED = ("bfs_visits", "inserted", "renew_dist", "renew_count", "removed",
           "kept", "affected_hubs", "sr_a", "sr_b", "r_a", "r_b",
           "isolated_fast_path")


def reference_inc_spc_directed(graph, index, a, b):
    """The directed IncSPC driver before the fold into ``inc_spc``."""
    stats = UpdateStats(kind="insert", edge=(a, b))
    order = index.order
    rank = order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set
    aff_in = list(lin(a).hubs)
    aff_out = list(lout(b).hubs)
    stats.affected_hubs = len(set(aff_in) | set(aff_out))

    graph.add_edge(a, b)

    in_a, out_b = set(aff_in), set(aff_out)
    vertex = order.vertex
    t0 = perf_counter()
    for h in sorted(in_a | out_b):
        hub_vertex = vertex(h)
        if h in in_a and h <= rank[b]:
            inc_bfs(graph.successors, lin, lout(hub_vertex), rank, h, a, b,
                    stats)
        if h in out_b and h <= rank[a]:
            inc_bfs(graph.predecessors, lout, lin(hub_vertex), rank, h, b, a,
                    stats)
    stats.bfs_s += perf_counter() - t0
    return stats


def reference_dec_spc_directed(graph, index, a, b):
    """The directed DecSPC driver before the fold into ``dec_spc``."""
    stats = UpdateStats(kind="delete", edge=(a, b))
    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)

    rank = index.order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set
    lab_in = set(lin(a).hubs) & set(lin(b).hubs)
    lab_out = set(lout(a).hubs) & set(lout(b).hubs)

    t0 = perf_counter()
    sr_a, r_a, dist_a = srr_search(graph.predecessors, a, b, lab_in, rank)
    sr_b, r_b, dist_b = srr_search(graph.successors, b, a, lab_out, rank)
    stats.srr_s += perf_counter() - t0
    stats.sr_a, stats.sr_b = len(sr_a), len(sr_b)
    stats.r_a, stats.r_b = len(r_a), len(r_b)

    graph.remove_edge(a, b)

    below_b = regions_below(sr_b | r_b, rank)
    below_a = regions_below(sr_a | r_a, rank)
    affected = sorted(sr_a | sr_b, key=lambda v: rank[v])
    stats.affected_hubs = len(affected)
    for h_vertex in affected:
        h = rank[h_vertex]
        if h_vertex in sr_a:
            region = drop_kept(below_b(h), index.in_holders(h), lin, h,
                               dist_a[h_vertex] + 1, dist_b, stats)
            dec_bfs(graph.successors, graph.predecessors, lin, lout(h_vertex),
                    index.in_holders, rank, h_vertex, region, stats)
        if h_vertex in sr_b:
            region = drop_kept(below_a(h), index.out_holders(h), lout, h,
                               dist_b[h_vertex] + 1, dist_a, stats)
            dec_bfs(graph.predecessors, graph.successors, lout, lin(h_vertex),
                    index.out_holders, rank, h_vertex, region, stats)
    return stats


def _counts(stats):
    return {f: getattr(stats, f) for f in COUNTED}


def _twins(graph, order=None):
    """(graph, index) pairs for the live and the reference drivers."""
    return [(g, build_spc_index(g, order=order))
            for g in (graph.copy(), graph.copy())]


def _assert_same(live, ref):
    index, ref_index = live[1], ref[1]
    assert index.to_dict() == ref_index.to_dict()
    assert index.in_holders_map() == ref_index.in_holders_map()
    assert index.out_holders_map() == ref_index.out_holders_map()


def _twin_update(live, ref, kind, a, b):
    """Apply one update through both drivers; compare labels and counts."""
    driver, reference = (
        (inc_spc, reference_inc_spc_directed) if kind == "ins"
        else (dec_spc, reference_dec_spc_directed))
    stats = driver(*live, a, b)
    assert _counts(stats) == _counts(reference(*ref, a, b))
    _assert_same(live, ref)
    return stats


arc_ops = st.lists(
    st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 10_000)),
    max_size=12,
)


class TestDirectedDriversMatchReference:
    @settings(max_examples=120, **COMMON)
    @given(g=small_digraphs(max_vertices=8), ops=arc_ops)
    def test_arc_streams(self, g, ops):
        live, ref = _twins(g)
        graph = live[0]
        for kind, idx in ops:
            if kind == "del":
                arcs = sorted(graph.edges())
            else:
                vs = sorted(graph.vertices())
                arcs = [(u, v) for u in vs for v in vs
                        if u != v and not graph.has_edge(u, v)]
            if arcs:
                _twin_update(live, ref, kind, *arcs[idx % len(arcs)])
        assert check_invariants(live[1])
        assert verify_espc(*live)

    @settings(max_examples=120, **COMMON)
    @given(g=small_digraphs(max_vertices=7),
           pendants=st.lists(st.tuples(st.integers(0, 6), st.booleans()),
                             min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 10_000), max_size=10))
    def test_delete_streams_with_degree_one_endpoints(self, g, pendants,
                                                      picks):
        """Each pendant is a new vertex with one arc to or from a vertex of
        ``g``.  Every delete takes an arc with an endpoint of total degree
        1 while there is one; ``dec_spc`` runs with its default
        arguments, fast path included."""
        n = g.num_vertices
        for i, (v, outward) in enumerate(pendants):
            p = n + i
            g.add_vertex(p)
            g.add_edge(*((v % n, p) if outward else (p, v % n)))
        live, ref = _twins(g)
        graph = live[0]
        for idx in picks:
            arcs = sorted(graph.edges())
            if not arcs:
                break
            pendant = [(a, b) for a, b in arcs
                       if 1 in (graph.degree(a), graph.degree(b))]
            arcs = pendant or arcs
            stats = _twin_update(live, ref, "del", *arcs[idx % len(arcs)])
            assert not stats.isolated_fast_path
        assert check_invariants(live[1])
        assert verify_espc(*live)

    def test_two_cycle_hub_on_both_sides_gets_both_repairs(self):
        """Arcs 1 <-> 2, 0 -> 1 and 2 -> 0; delete 1 -> 2.  Hub 0 has
        sd(0, 1) + 1 = sd(0, 2) and sd(2, 0) + 1 = sd(1, 0), with one path
        each way, so it is in SRa and in SRb and must be repaired twice."""
        g = DiGraph.from_edges([(1, 2), (2, 1), (0, 1), (2, 0)])
        live, ref = _twins(g, order=VertexOrder([0, 1, 2]))
        hubs = []

        def recording(step, back, labels_of, root_labels, holders, rank,
                      h_vertex, *args):
            hubs.append(h_vertex)
            return dec_bfs(step, back, labels_of, root_labels, holders, rank,
                           h_vertex, *args)

        with mock.patch.object(repro.core.decremental, "dec_bfs", recording):
            stats = dec_spc(*live, 1, 2)
        assert hubs.count(0) == 2
        assert _counts(stats) == _counts(reference_dec_spc_directed(*ref, 1, 2))
        _assert_same(live, ref)
        index = live[1]
        assert index.query(0, 2) == (float("inf"), 0)
        assert index.query(2, 1) == (1, 1)
        assert check_invariants(index)
        assert verify_espc(*live)

    def test_stranding_arc_delete_takes_no_fast_path(self):
        """Deleting 0 -> 1 leaves 1 with no arc.  1 ranks below 0 and had
        total degree 1, which the undirected §3.2.3 fast path would take,
        but it must not run on a directed graph: neither through the
        public entry point nor through the engine."""
        g = DiGraph.from_edges([(0, 1), (0, 2), (2, 0)])
        live, ref = _twins(g)  # the engine's degree order: 0, 2, 1
        stats = _twin_update(live, ref, "del", 0, 1)
        assert not stats.isolated_fast_path
        assert live[1].query(0, 1) == (float("inf"), 0)
        assert check_invariants(live[1])

        engine = repro.open(g.copy(), cache_size=0)
        stats = engine.delete_edge(0, 1)
        assert not stats.isolated_fast_path
        assert engine.index.to_dict() == live[1].to_dict()
        assert engine.check()
