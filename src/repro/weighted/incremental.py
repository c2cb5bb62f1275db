"""Weighted IncSPC (Appendix C.2): edge insertion and weight decrease.

"When an edge (a, b) with weight w_ab is inserted, the affected hubs come
from L(a) ∪ L(b).  Starting from b, a partial Dijkstra-like execution is
performed with an initial distance of d_hb + w_ab and initial path counting
of c_hb, where (h, d_hb, c_hb) ∈ L(a)."  That is core's
:func:`repro.core.incremental.inc_spc` over the edge lengths.  Decreasing
the weight of an existing edge is the identical procedure with the new
weight: only the graph mutation differs.
"""

from repro.core.incremental import inc_spc
from repro.exceptions import GraphError


def inc_spc_weighted(graph, index, a, b, weight, stats=None):
    """Insert edge (a, b, weight) into ``graph`` and repair ``index``."""
    return inc_spc(graph, index, a, b, stats,
                   mutate=lambda: graph.add_edge(a, b, weight))


def decrease_weight(graph, index, a, b, new_weight, stats=None):
    """Decrease the weight of edge (a, b) and repair ``index``.

    A decrease can only create new shortest paths through (a, b), so it is
    handled exactly like an insertion with initial distance d + w'.
    """
    old = graph.weight(a, b)
    if new_weight >= old:
        raise GraphError(
            f"decrease_weight: new weight {new_weight} is not below {old}; "
            "use increase_weight for increases"
        )
    return inc_spc(graph, index, a, b, stats,
                   mutate=lambda: graph.set_weight(a, b, new_weight))
