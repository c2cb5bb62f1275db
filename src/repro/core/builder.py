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

On a weighted graph (Appendix C.2) the same search runs over edge lengths:
"Dijkstra's algorithm replaces BFS for index construction, and a priority
queue is used instead of a FIFO queue."  Every kernel drains its queue one
distance at a time: the next BFS level as a plain list on unit lengths,
else the nearest distance bucket (:func:`open_bucket`, :func:`next_bucket`),
so both are one loop.

On a directed graph (Appendix C.1) "the index construction involves
performing two BFSs from each hub, one in each direction, to generate labels
for the L_in and L_out sets of other vertices": the forward search from root
r follows out-arcs and pushes (r, D, C) into L_in(w), the backward search
follows in-arcs and pushes into L_out(w).  On a one-sided index the backward
search would repeat the forward one, so it runs only on a second side.

The pruning probe uses the standard PLL engineering trick: the root's label
set is loaded into a dict once per BFS, making each probe O(|L(w)|).
"""

from heapq import heappop, heappush

from repro.core.index import DirectedSPCIndex, SPCIndex
from repro.graph.directed import DiGraph
from repro.graph.weighted import WeightedGraph
from repro.order import VertexOrder, make_order


def edge_lengths(graph):
    """The kernels' ``lengths`` argument for ``graph``.

    None means every edge has length 1 (a BFS); a :class:`WeightedGraph`
    passes its ``neighbors``, which maps v to ``{w: l(v, w)}``.
    """
    return graph.neighbors if isinstance(graph, WeightedGraph) else None


def edge_steps(graph):
    """The drivers' (forward, backward) steps over ``graph``.

    A :class:`DiGraph` steps forward along out-arcs (``successors``) and
    backward along in-arcs (``predecessors``); any other graph steps along
    ``neighbors`` both ways.
    """
    if isinstance(graph, DiGraph):
        return graph.successors, graph.predecessors
    return graph.neighbors, graph.neighbors


def open_bucket(buckets, heap, d):
    """Return the bucket of vertices at distance ``d``, opening it if new.

    ``buckets`` maps each distance to its list of vertices and ``heap``
    holds their distinct distances: a search's queue beyond its current
    frontier.  A unit-length search keeps its next level as a plain list
    instead; only DecUPDATE's seeds are bucketed there.
    """
    bucket = buckets.get(d)
    if bucket is None:
        bucket = buckets[d] = []
        heappush(heap, d)
    return bucket


def next_bucket(buckets, heap):
    """Pop the nearest non-empty bucket: (its vertices, its distance).

    Returns ``([], None)`` once the queue is drained.  A distance whose
    bucket was already taken (DecUPDATE merges seeds into a unit level)
    is skipped.
    """
    while heap:
        d = heappop(heap)
        bucket = buckets.pop(d, None)
        if bucket:
            return bucket, d
    return [], None


def build_spc_index(graph, order=None, strategy="degree"):
    """Construct the SPC-Index of ``graph`` under ``order``.

    Parameters
    ----------
    graph:
        A :class:`repro.graph.Graph` (undirected, simple), a
        :class:`repro.graph.WeightedGraph`, whose labels then store path
        lengths instead of hop counts, or a :class:`repro.graph.DiGraph`,
        whose index has two sides, L_in and L_out (Appendix C.1).
    order:
        A :class:`repro.order.VertexOrder`, or None to derive one.
    strategy:
        Ordering strategy passed to :func:`repro.order.make_order` when
        ``order`` is None — ``"degree"`` is the paper's choice.

    Returns
    -------
    SPCIndex
        An index satisfying the Exact Shortest Paths Covering constraint:
        for every pair (s, t), SpcQUERY(s, t) = (sd(s,t), spc(s,t)).  A
        :class:`DirectedSPCIndex` for a ``DiGraph``.
    """
    if order is None:
        order = make_order(graph, strategy)
    elif not isinstance(order, VertexOrder):
        order = VertexOrder(order)
    index_type = DirectedSPCIndex if isinstance(graph, DiGraph) else SPCIndex
    index = index_type(order, with_self_labels=False)
    two_sided = index.two_sided
    rank = order.rank_map()
    forward, backward = edge_steps(graph)
    lengths = edge_lengths(graph)
    lin, lout = index.in_label_set, index.out_label_set

    for root in order:  # live vertices, highest rank first
        r = rank[root]
        root_in, root_out = lin(root), lout(root)
        root_in.set(r, 0, 1)  # self label (v, 0, 1)
        if two_sided:
            root_out.set(r, 0, 1)
        # Vertices may exist in the order but not the graph only if the
        # caller passed a stale order; they stay isolated.
        if root not in graph:
            continue
        # Forward: paths root -> w, pruned via L_out(root) x L_in(w).
        hub_push(forward, root_out, lin, rank, root, r, lengths)
        if two_sided:
            # Backward: paths w -> root, pruned via L_out(w) x L_in(root).
            hub_push(backward, root_in, lout, rank, root, r, lengths)
    return index


def hub_push(step, root_labels, labels_of, rank, root, r, lengths=None):
    """One pruned search rooted at ``root`` (rank ``r``), pushing hub-``r`` labels.

    The search follows ``step`` (a step of :func:`edge_steps`) and writes
    into ``labels_of(w)``.  The pruning probe pairs each visited label set
    with ``root_labels``, the root's opposite-side label set, which must
    already hold the root's self label.  On a one-sided index both sides
    are L.  ``lengths`` is None for unit-length edges, or maps v to
    ``{w: l(v, w)}`` (:func:`edge_lengths`).

    Distances are drained in increasing order; within one distance the
    order does not matter (DESIGN.md §4).  The root is the first visit:
    its probe cannot prune, and it rewrites the self label unchanged.
    """
    root_dist = dict(zip(root_labels.hubs, root_labels.dists))

    dist = {root: 0}
    count = {root: 1}
    buckets = {}
    heap = []
    frontier, dv = [root], 0
    while frontier:
        dnext = dv + 1
        nxt = []
        for v in frontier:
            if dist[v] != dv:
                continue  # reached again by a shorter path
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
            cv = count[v]
            ls.set(r, dv, cv)
            if lengths is None:
                for w in step(v):
                    dw = dist.get(w)
                    if dw is None:
                        if rank[w] > r:
                            dist[w] = dnext
                            count[w] = cv
                            nxt.append(w)
                    elif dw == dnext:
                        count[w] += cv
                continue
            for w, length in lengths(v).items():
                dw = dist.get(w)
                dw_new = dv + length
                if dw is None:
                    if rank[w] <= r:
                        continue
                elif dw_new >= dw:
                    if dw_new == dw:
                        count[w] += cv
                    continue
                dist[w] = dw_new
                count[w] = cv
                open_bucket(buckets, heap, dw_new).append(w)
        if lengths is None:
            frontier, dv = nxt, dnext
        else:
            frontier, dv = next_bucket(buckets, heap)
