"""Weighted HP-SPC construction: pruned Dijkstra per hub (Appendix C.2).

"Dijkstra's algorithm replaces BFS for index construction, and a priority
queue is used instead of a FIFO queue."  The pruning probe and rank
restriction are unchanged; counting follows the standard Dijkstra counting
recurrence — counts are final when a vertex is settled, because every
tied predecessor has strictly smaller distance under positive weights.
"""

import heapq

from repro.core.index import SPCIndex
from repro.order import VertexOrder, make_order

INF = float("inf")


def build_weighted_spc_index(graph, order=None, strategy="degree"):
    """Construct the weighted SPC-Index of a :class:`WeightedGraph`."""
    if order is None:
        order = make_order(graph, strategy)
    elif not isinstance(order, VertexOrder):
        order = VertexOrder(order)
    index = SPCIndex(order, with_self_labels=False)
    rank = order.rank_map()

    for root in order:
        r = rank[root]
        index.label_set(root).set(r, 0, 1)
        if root not in graph:
            continue
        _hub_push_dijkstra(graph, index, rank, root, r)
    return index


def _hub_push_dijkstra(graph, index, rank, root, r):
    label_of = index.label_set
    root_labels = label_of(root)
    root_dist = dict(zip(root_labels.hubs, root_labels.dists))

    dist = {root: 0}
    count = {root: 1}
    settled = set()
    heap = []
    for w, weight in graph.neighbors(root).items():
        if rank[w] > r:
            dist[w] = weight
            count[w] = 1
            heapq.heappush(heap, (weight, rank[w], w))
    settled.add(root)

    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        ls = label_of(v)
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
        for w, weight in graph.neighbors(v).items():
            if rank[w] <= r or w in settled:
                continue
            cand = dv + weight
            dw = dist.get(w)
            if dw is None or cand < dw:
                dist[w] = cand
                count[w] = cv
                heapq.heappush(heap, (cand, rank[w], w))
            elif cand == dw:
                count[w] += cv
    return index
