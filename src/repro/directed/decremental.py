"""Directed DecSPC (Appendix C.1).

Deleting arc (a, b) partitions the affected vertices by side of the arc:

* **source side** — SRa ∪ Ra: vertices v with sd(v, a) + 1 = sd(v, b); their
  paths v → ... → a → b lose the arc.  Found with a *backward* pruned BFS
  from a (following in-arcs computes sd(·, a) and spc(·, a)), beside a
  backward BFS from b that gives sd(·, b) and spc(·, b).  A vertex is a
  hub (SRa) if it is a common hub of L_in(a) and L_in(b) (Condition A) or
  spc(v, a) = spc(v, b) (Condition B);
* **target side** — SRb ∪ Rb: vertices v with sd(b, v) + 1 = sd(a, v), found
  with *forward* BFSs from b and a, Condition A over L_out(a) ∩ L_out(b).

Repair runs per affected hub in descending rank order: hubs from SRa run a
forward boundary-seeded BFS fixing (h, ·, ·) entries in L_in(u) for u on
the target side, seeded across in-arcs; hubs from SRb run the mirror-image
backward BFS fixing out-labels on the source side, seeded across out-arcs.
Before either, the targets whose (h, ·, ·) entry is shorter than every
path over the arc are kept out of the region (``drop_kept``).  The removal
phase then deletes untouched (h, ·, ·) labels of the remaining region.
As in the undirected code, it runs for every affected hub, not only for
common hubs of the arc's endpoints (DESIGN.md §5).  Both phases
are the undirected kernels
:func:`repro.core.decremental.srr_search` and
:func:`repro.core.decremental.dec_bfs`, given one side each.
"""

from time import perf_counter

from repro.core.decremental import dec_bfs, drop_kept, regions_below, srr_search
from repro.core.stats import UpdateStats
from repro.exceptions import EdgeNotFound


def dec_spc_directed(graph, index, a, b, stats=None):
    """Delete arc a -> b from ``graph`` and repair ``index``."""
    if stats is None:
        stats = UpdateStats(kind="delete", edge=(a, b))
    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)

    rank = index.order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set
    lab_in = set(lin(a).hubs) & set(lin(b).hubs)
    lab_out = set(lout(a).hubs) & set(lout(b).hubs)

    t0 = perf_counter()
    # Source side, paths v -> a: walk in-arcs from a and from b.
    sr_a, r_a, dist_a = srr_search(graph.predecessors, a, b, lab_in, rank)
    # Target side, paths b -> v: walk out-arcs from b and from a.
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
        # Unlike the undirected case, SRa and SRb need not be disjoint: on a
        # cycle a vertex can both precede and follow the deleted arc.  Such
        # hubs need the repair in *both* directions.
        # dist_a holds sd(v, a), dist_b sd(b, v): an h -> u path over the
        # arc is at least sd(h, a) + 1 + sd(b, u) long, a u -> h one
        # sd(u, a) + 1 + sd(b, h).
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
