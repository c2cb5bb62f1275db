"""HP-SPC: static construction of the SPC-Index (§2.2, from Zhang & Yu [30]).

Every vertex v, in descending order of rank, performs a *hub pushing* step: a
pruned BFS over G_v — the subgraph of vertices ranked no higher than v.  The
BFS tracks the restricted distance D[w] and restricted counting C[w] (paths
whose intermediate vertices all rank below v, i.e. paths on which v is the
highest-ranked vertex).  When a vertex w is dequeued, the existing index is
probed: if it already certifies a distance shorter than D[w], every path the
BFS is following through w is non-shortest, so the search prunes; otherwise
the label (v, D[w], C[w]) — which equals (v, sd(v,w), spc(v̂,w)) whenever it
matters — is pushed into L(w) and the BFS continues.

The pruning probe uses the standard PLL engineering trick: the root's label
set is loaded into a dict once per BFS, making each probe O(|L(w)|).
"""

from collections import deque

from repro.core.index import SPCIndex
from repro.order import VertexOrder, make_order


def build_spc_index(graph, order=None, strategy="degree"):
    """Construct the SPC-Index of ``graph`` under ``order``.

    Parameters
    ----------
    graph:
        A :class:`repro.graph.Graph` (undirected, unweighted, simple).
    order:
        A :class:`repro.order.VertexOrder`, or None to derive one.
    strategy:
        Ordering strategy passed to :func:`repro.order.make_order` when
        ``order`` is None — ``"degree"`` is the paper's choice.

    Returns
    -------
    SPCIndex
        An index satisfying the Exact Shortest Paths Covering constraint:
        for every pair (s, t), SpcQUERY(s, t) = (sd(s,t), spc(s,t)).
    """
    if order is None:
        order = make_order(graph, strategy)
    elif not isinstance(order, VertexOrder):
        order = VertexOrder(order)
    index = SPCIndex(order, with_self_labels=False)
    rank = order.rank_map()

    for root in order:  # live vertices, highest rank first
        r = rank[root]
        root_labels = index.label_set(root)
        root_labels.set(r, 0, 1)  # self label (v, 0, 1)
        # Vertices may exist in the order but not the graph only if the
        # caller passed a stale order; they stay isolated.
        if root in graph:
            hub_push(graph.neighbors, root_labels, index.label_set, rank, root, r)
    return index


def hub_push(step, root_labels, labels_of, rank, root, r):
    """One pruned BFS rooted at ``root`` (rank ``r``), pushing hub-``r`` labels.

    The BFS follows ``step`` (``graph.neighbors`` here; ``successors`` or
    ``predecessors`` in the directed builder) and writes into
    ``labels_of(w)``.  The pruning probe pairs each visited label set with
    ``root_labels``, the root's opposite-side label set, which must already
    hold the root's self label.  An undirected graph is the directed case
    with both sides equal to L.
    """
    root_dist = dict(zip(root_labels.hubs, root_labels.dists))

    dist = {root: 0}
    count = {root: 1}
    queue = deque()
    for w in step(root):
        if rank[w] > r:
            dist[w] = 1
            count[w] = 1
            queue.append(w)

    while queue:
        v = queue.popleft()
        dv = dist[v]
        # Pruning probe: distance via hubs ranked higher than root.
        ls = labels_of(v)
        hubs, dists = ls.hubs, ls.dists
        pruned = False
        for i in range(len(hubs)):
            rd = root_dist.get(hubs[i])
            if rd is not None and rd + dists[i] < dv:
                pruned = True
                break
        if pruned:
            continue
        ls.set(r, dv, count[v])
        cv = count[v]
        dnext = dv + 1
        for w in step(v):
            dw = dist.get(w)
            if dw is None:
                if rank[w] > r:
                    dist[w] = dnext
                    count[w] = cv
                    queue.append(w)
            elif dw == dnext:
                count[w] += cv
