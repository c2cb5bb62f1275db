"""Directed IncSPC (Appendix C.1).

Inserting arc (a, b): "the affected hubs can be replaced by the hubs from
L_in(a) ∪ L_out(b)".

* A hub h ∈ L_in(a) witnesses paths h → a; the new arc extends them to
  h → a → b → ..., so a *forward* pruned BFS from b repairs in-labels.
* A hub h ∈ L_out(b) witnesses paths b → h; the new arc extends them to
  ... → a → b → h, so a *backward* pruned BFS from a repairs out-labels.

Rank conditions mirror the undirected case: h must rank at least as high as
the BFS entry vertex, otherwise h cannot be the highest-ranked vertex on any
path crossing the new arc.  Both BFSs are the undirected
:func:`repro.core.incremental.inc_bfs`, given one side each.
"""

from time import perf_counter

from repro.core.incremental import inc_bfs
from repro.core.stats import UpdateStats


def inc_spc_directed(graph, index, a, b, stats=None):
    """Insert arc a -> b into ``graph`` and repair ``index``."""
    if stats is None:
        stats = UpdateStats(kind="insert", edge=(a, b))
    order = index.order
    rank = order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set
    lin_a, lout_b = lin(a), lout(b)
    aff_in = list(lin_a.hubs)
    aff_out = list(lout_b.hubs)
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
