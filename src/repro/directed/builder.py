"""Directed HP-SPC construction (Appendix C.1).

"The index construction involves performing two BFSs from each hub, one in
each direction, to generate labels for the L_in and L_out sets of other
vertices."  The forward BFS from root r follows out-arcs and pushes
(r, D, C) into L_in(w) — paths r → w; the backward BFS follows in-arcs and
pushes into L_out(w) — paths w → r.  Both run the undirected builder's
:func:`repro.core.builder.hub_push`, always pairing an out-side root label
set with in-side target label sets or the mirror.
"""

from repro.core.builder import hub_push
from repro.directed.index import DirectedSPCIndex
from repro.order import VertexOrder, make_order


def build_directed_spc_index(graph, order=None, strategy="degree"):
    """Construct the directed SPC-Index of a :class:`DiGraph`."""
    if order is None:
        order = make_order(graph, strategy)
    elif not isinstance(order, VertexOrder):
        order = VertexOrder(order)
    index = DirectedSPCIndex(order, with_self_labels=False)
    rank = order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set

    for root in order:
        r = rank[root]
        lin(root).set(r, 0, 1)
        lout(root).set(r, 0, 1)
        if root not in graph:
            continue
        # Forward: paths root -> w; prune via L_out(root) x L_in(w).
        hub_push(graph.successors, lout(root), lin, rank, root, r)
        # Backward: paths w -> root; prune via L_out(w) x L_in(root).
        hub_push(graph.predecessors, lin(root), lout, rank, root, r)
    return index
