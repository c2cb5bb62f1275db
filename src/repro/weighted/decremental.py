"""Weighted DecSPC (Appendix C.2): edge deletion and weight increase.

"For edge deletion or weight increase cases, the conditions for the SR and
R sets remain applicable ... the distance constraint for affected vertices
is based on weight rather than the number of hops, i.e.
|sd(v, a) − sd(v, b)| = w_ab.  The main difference when applying Algorithm 5
and Algorithm 6 ... is the use of a Dijkstra-like search."

That is core's :func:`repro.core.decremental.dec_spc` over the edge
lengths, with the old weight w_ab in place of the +1 hop: SrrSEARCH runs on
G_i, kept holders and boundary-seeded DecUPDATE on the modified graph.  A
deletion is ``dec_spc`` itself, §3.2.3 fast path included; a weight
increase differs only in its graph mutation.
"""

from repro.core.decremental import dec_spc
from repro.exceptions import GraphError

#: A weighted deletion is core's DecSPC unchanged.
dec_spc_weighted = dec_spc


def increase_weight(graph, index, a, b, new_weight, stats=None):
    """Increase the weight of edge (a, b) and repair ``index``."""
    old = graph.weight(a, b)
    if new_weight <= old:
        raise GraphError(
            f"increase_weight: new weight {new_weight} is not above {old}; "
            "use decrease_weight for decreases"
        )
    return dec_spc(graph, index, a, b, stats,
                   mutate=lambda: graph.set_weight(a, b, new_weight))
