"""The lockstep SrrSEARCH against the label-scan kernel it replaced.

``repro.core.decremental.srr_search`` judges each vertex v it visits from a
counting BFS out of the far endpoint, run on G_i in lockstep with the near
BFS.  Before, it answered SpcQUERY(v, far end) by scanning L(v) against the
far endpoint's label set.  This module keeps that kernel as the reference:

* on mixed insert/delete streams, undirected and directed, both kernels
  return the same (SR, R) before every delete, on all three unit-weight
  sides: undirected, directed predecessors and directed successors.  The
  inserts leave stale IncSPC labels behind, so the reference's label scan
  runs over the index the drivers really hold;
* named cases pin the Figure 6 example, a bridge delete, and a directed
  3-cycle whose third vertex lies on both sides of the deleted arc.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_spc_index, dec_spc, inc_spc
from repro.core.decremental import srr_search
from repro.graph import DiGraph, Graph, erdos_renyi, path_graph
from repro.order import VertexOrder
from repro.traversal import bfs_counting_pair
from repro.verify import verify_espc
from tests.conftest import PAPER_EDGES
from tests.property.strategies import small_digraphs, small_graphs

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

INF = float("inf")


def label_scan_srr_search(step, labels_of, start, fixed, lab, rank):
    """SrrSEARCH before the lockstep BFS: a pruned counting BFS from
    ``start`` that answers SpcQUERY(v, far end) by pairing ``labels_of(v)``
    with ``fixed``, the far endpoint's label set."""
    fixed_entry = {h: (d, c) for h, d, c in fixed}
    sr, r = set(), set()
    dist = {start: 0}
    count = {start: 1}
    queue = [start]
    for v in queue:
        dv = dist[v]
        d_q, c_q = INF, 0
        for h, d, c in labels_of(v):
            e = fixed_entry.get(h)
            if e is not None:
                cand = d + e[0]
                if cand < d_q:
                    d_q, c_q = cand, c * e[1]
                elif cand == d_q:
                    c_q += c * e[1]
        if dv + 1 != d_q:
            continue
        if rank[v] in lab or count[v] == c_q:
            sr.add(v)
        else:
            r.add(v)
        for w in step(v):
            dw = dist.get(w)
            if dw is None:
                dist[w] = dv + 1
                count[w] = count[v]
                queue.append(w)
            elif dw == dv + 1:
                count[w] += count[v]
    return sr, r


def undirected_sides(graph, index, a, b):
    """(lockstep, reference) results for both sides of edge (a, b)."""
    rank = index.order.rank_map()
    label_of = index.label_set
    la, lb = label_of(a), label_of(b)
    lab = set(la.hubs) & set(lb.hubs)
    step = graph.neighbors
    return [
        (srr_search(step, a, b, lab, rank)[:2],
         label_scan_srr_search(step, label_of, a, lb, lab, rank)),
        (srr_search(step, b, a, lab, rank)[:2],
         label_scan_srr_search(step, label_of, b, la, lab, rank)),
    ]


def directed_sides(graph, index, a, b):
    """(lockstep, reference) results for the source (predecessors) and
    target (successors) sides of arc a -> b."""
    rank = index.order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set
    lab_in = set(lin(a).hubs) & set(lin(b).hubs)
    lab_out = set(lout(a).hubs) & set(lout(b).hubs)
    return [
        (srr_search(graph.predecessors, a, b, lab_in, rank)[:2],
         label_scan_srr_search(graph.predecessors, lout, a, lin(b), lab_in,
                               rank)),
        (srr_search(graph.successors, b, a, lab_out, rank)[:2],
         label_scan_srr_search(graph.successors, lin, b, lout(a), lab_out,
                               rank)),
    ]


def agreed(results):
    """Assert each side's two results are equal; return the lockstep ones."""
    for lockstep, reference in results:
        assert lockstep == reference
    return [lockstep for lockstep, _ in results]


def _pick(candidates, idx):
    return candidates[idx % len(candidates)] if candidates else None


def run_stream(graph, index, sides, insert, delete, ops, pairs):
    """Replay ``ops``; before every delete both kernels must agree."""
    deletes = 0
    for kind, idx in ops:
        if kind == "del":
            edge = _pick(sorted(graph.edges()), idx)
            if edge:
                agreed(sides(graph, index, *edge))
                delete(graph, index, *edge)
                deletes += 1
        else:
            edge = _pick([(u, v) for u, v in pairs(sorted(graph.vertices()))
                          if not graph.has_edge(u, v)], idx)
            if edge:
                insert(graph, index, *edge)
    return deletes


def _undirected_pairs(vs):
    return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]


def _directed_pairs(vs):
    return [(u, v) for u in vs for v in vs if u != v]


ops_lists = st.lists(
    st.tuples(st.sampled_from(["ins", "ins", "del"]), st.integers(0, 10_000)),
    max_size=14,
)


class TestStreamsMatchLabelScan:
    @settings(max_examples=150, **COMMON)
    @given(g=small_graphs(max_vertices=11), ops=ops_lists)
    def test_undirected(self, g, ops):
        run_stream(g, build_spc_index(g), undirected_sides, inc_spc, dec_spc,
                   ops, _undirected_pairs)

    @settings(max_examples=150, **COMMON)
    @given(g=small_digraphs(max_vertices=8), ops=ops_lists)
    def test_directed(self, g, ops):
        run_stream(g, build_spc_index(g), directed_sides,
                   inc_spc, dec_spc, ops, _directed_pairs)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graph_churn(self, seed):
        """Longer streams than hypothesis draws, on a sparse random graph
        whose sides reach several levels deep."""
        graph = erdos_renyi(40, 90, seed=seed)
        ops = [("ins" if i % 3 == 0 else "del", seed * 7919 + i * 104729)
               for i in range(30)]
        index = build_spc_index(graph)
        assert run_stream(graph, index, undirected_sides, inc_spc, dec_spc,
                          ops, _undirected_pairs) == 20
        assert verify_espc(graph, index)


class TestNamedCases:
    def test_figure6_every_edge(self):
        """The Figure 2 graph with the paper's order: both kernels agree on
        every edge (tests/core/test_paper_examples.py pins the (v1, v2)
        sets of Example 3.13)."""
        graph = Graph.from_edges(PAPER_EDGES)
        index = build_spc_index(graph, order=VertexOrder(range(12)))
        for a, b in sorted(graph.edges()):
            agreed(undirected_sides(graph, index, a, b))

    def test_stale_labels_present(self):
        """DESIGN.md §5: shortcuts leave stale labels behind; the kernels
        must still agree before each delete that raises a distance back."""
        graph = path_graph(8)
        index = build_spc_index(graph)
        for u, v in [(0, 7), (2, 6)]:
            inc_spc(graph, index, u, v)
        vertex = index.order.vertex
        assert any(d > bfs_counting_pair(graph, vertex(h), v)[0]
                   for v in graph.vertices() for h, d, _ in index.label_set(v))
        for u, v in [(2, 6), (0, 7), (3, 4)]:
            agreed(undirected_sides(graph, index, u, v))
            dec_spc(graph, index, u, v)
        assert verify_espc(graph, index)

    def test_bridge_delete(self):
        """Deleting the bridge (2, 3) between two triangles: each side is
        its own triangle.  The far BFS crosses the bridge on G_i, so every
        vertex of a side is one step nearer its own endpoint."""
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3),
                                  (3, 4), (4, 5), (5, 3)])
        index = build_spc_index(graph)
        left, right = agreed(undirected_sides(graph, index, 2, 3))
        assert set().union(*left) == {0, 1, 2}
        assert set().union(*right) == {3, 4, 5}

    def test_directed_cycle_vertex_on_both_sides(self):
        """On the cycle 0 -> 1 -> 2 -> 0, deleting 0 -> 1 puts 2 on both
        sides: it reaches 1 only through the arc and 0 reaches it only
        through the arc."""
        graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        index = build_spc_index(graph, order=VertexOrder([2, 0, 1]))
        source, target = agreed(directed_sides(graph, index, 0, 1))
        assert 2 in set().union(*source) and 2 in set().union(*target)
        stats = dec_spc(graph, index, 0, 1)
        assert stats.sr_a + stats.r_a == 2 and stats.sr_b + stats.r_b == 2
