"""Weighted IncSPC (Appendix C.2): edge insertion and weight decrease.

"When an edge (a, b) with weight w_ab is inserted, the affected hubs come
from L(a) ∪ L(b).  Starting from b, a partial Dijkstra-like execution is
performed with an initial distance of d_hb + w_ab and initial path counting
of c_hb, where (h, d_hb, c_hb) ∈ L(a)."  (The label is read from L(a) — the
search enters the edge at a and continues beyond b.)  Decreasing the weight
of an existing edge is the identical procedure with the new weight.
"""

import heapq
from bisect import bisect_left
from time import perf_counter

from repro.core.labels import prequery_prunes
from repro.core.stats import UpdateStats
from repro.exceptions import GraphError


def inc_spc_weighted(graph, index, a, b, weight, stats=None):
    """Insert edge (a, b, weight) into ``graph`` and repair ``index``."""
    if stats is None:
        stats = UpdateStats(kind="insert", edge=(a, b))
    aff_a = list(index.label_set(a).hubs)
    aff_b = list(index.label_set(b).hubs)
    stats.affected_hubs = len(set(aff_a) | set(aff_b))

    graph.add_edge(a, b, weight)
    _repair_after_shortening(graph, index, a, b, weight, aff_a, aff_b, stats)
    return stats


def decrease_weight(graph, index, a, b, new_weight, stats=None):
    """Decrease the weight of edge (a, b) and repair ``index``.

    A decrease can only create new shortest paths through (a, b), so it is
    handled exactly like an insertion with initial distance d + w'.
    """
    if stats is None:
        stats = UpdateStats(kind="insert", edge=(a, b))
    old = graph.weight(a, b)
    if new_weight >= old:
        raise GraphError(
            f"decrease_weight: new weight {new_weight} is not below {old}; "
            "use increase_weight for increases"
        )
    aff_a = list(index.label_set(a).hubs)
    aff_b = list(index.label_set(b).hubs)
    stats.affected_hubs = len(set(aff_a) | set(aff_b))

    graph.set_weight(a, b, new_weight)
    _repair_after_shortening(graph, index, a, b, new_weight, aff_a, aff_b, stats)
    return stats


def _repair_after_shortening(graph, index, a, b, weight, aff_a, aff_b, stats):
    rank = index.order.rank_map()
    in_a, in_b = set(aff_a), set(aff_b)
    t0 = perf_counter()
    for h in sorted(in_a | in_b):
        if h in in_a and h <= rank[b]:
            _inc_update_dijkstra(graph, index, h, a, b, weight, stats)
        if h in in_b and h <= rank[a]:
            _inc_update_dijkstra(graph, index, h, b, a, weight, stats)
    stats.bfs_s += perf_counter() - t0


def _inc_update_dijkstra(graph, index, h, va, vb, w_ab, stats):
    """Partial Dijkstra rooted at hub ``h``, entering the edge at va -> vb."""
    order = index.order
    rank = order.rank_map()
    label_of = index.label_set
    entry = label_of(va).get(h)
    if entry is None:
        return
    d0, c0 = entry

    root_get = label_of(order.vertex(h)).root_get()

    dist = {vb: d0 + w_ab}
    count = {vb: c0}
    settled = set()
    heap = [(d0 + w_ab, rank[vb], vb)]
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        stats.bfs_visits += 1
        # The witness x = h first, as in repro.core.incremental.inc_bfs.
        ls = label_of(v)
        hubs = ls.hubs
        dists = ls.dists
        i = bisect_left(hubs, h)
        own = i < len(hubs) and hubs[i] == h
        if own and dists[i] < dv:
            continue
        if prequery_prunes(hubs, dists, i, root_get, dv):
            continue
        cv = count[v]
        if not own:
            ls.set(h, dv, cv)
            stats.inserted += 1
        elif dv == dists[i]:
            ls.set(h, dv, cv + ls.counts[i])
            stats.renew_count += 1
        else:
            ls.set(h, dv, cv)
            stats.renew_dist += 1
        for w, weight in graph.neighbors(v).items():
            if w in settled or h > rank[w]:
                continue
            cand = dv + weight
            dw = dist.get(w)
            if dw is None or cand < dw:
                dist[w] = cand
                count[w] = cv
                heapq.heappush(heap, (cand, rank[w], w))
            elif cand == dw:
                count[w] += cv
