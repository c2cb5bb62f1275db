"""Weighted DecSPC (Appendix C.2): edge deletion and weight increase.

"For edge deletion or weight increase cases, the conditions for the SR and
R sets remain applicable ... the distance constraint for affected vertices
is based on weight rather than the number of hops, i.e.
|sd(v, a) − sd(v, b)| = w_ab.  The main difference when applying Algorithm 5
and Algorithm 6 ... is the use of a Dijkstra-like search."

Both phases mirror the unweighted DecSPC with the old edge weight playing
the role of the +1 hop: SrrSEARCH runs on G_i and prunes vertices v with
sd(v, a) + w_ab != sd(v, b); DecUPDATE runs rank-pruned Dijkstras on the
modified graph.  The §3.2.3 isolated-vertex fast path applies verbatim to
full deletions of a pendant, lower-ranked endpoint, so both backends call
:func:`repro.core.decremental.try_isolated_fast_path`.
"""

import heapq
from bisect import bisect_left
from time import perf_counter

from repro.core.decremental import try_isolated_fast_path
from repro.core.labels import prequery_prunes
from repro.core.stats import UpdateStats
from repro.exceptions import EdgeNotFound, GraphError

INF = float("inf")


def dec_spc_weighted(graph, index, a, b, stats=None, use_isolated_fast_path=True):
    """Delete edge (a, b) from ``graph`` and repair ``index``."""
    if stats is None:
        stats = UpdateStats(kind="delete", edge=(a, b))
    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)
    if use_isolated_fast_path and try_isolated_fast_path(graph, index, a, b, stats):
        return stats
    w_ab = graph.weight(a, b)
    _decremental_repair(graph, index, a, b, w_ab, stats, remove=True, new_weight=None)
    return stats


def increase_weight(graph, index, a, b, new_weight, stats=None):
    """Increase the weight of edge (a, b) and repair ``index``."""
    if stats is None:
        stats = UpdateStats(kind="delete", edge=(a, b))
    old = graph.weight(a, b)
    if new_weight <= old:
        raise GraphError(
            f"increase_weight: new weight {new_weight} is not above {old}; "
            "use decrease_weight for decreases"
        )
    _decremental_repair(
        graph, index, a, b, old, stats, remove=False, new_weight=new_weight
    )
    return stats


def _decremental_repair(graph, index, a, b, w_ab, stats, remove, new_weight):
    order = index.order
    rank = order.rank_map()
    la = index.label_set(a)
    lb = index.label_set(b)
    lab = set(la.hubs) & set(lb.hubs)

    t0 = perf_counter()
    sr_a, r_a = _srr_search_dijkstra(graph, index, a, b, w_ab, lab)
    sr_b, r_b = _srr_search_dijkstra(graph, index, b, a, w_ab, lab)
    stats.srr_s += perf_counter() - t0
    stats.sr_a, stats.sr_b = len(sr_a), len(sr_b)
    stats.r_a, stats.r_b = len(r_a), len(r_b)

    if remove:
        graph.remove_edge(a, b)
    else:
        graph.set_weight(a, b, new_weight)

    targets_b = sr_b | r_b
    targets_a = sr_a | r_a
    affected = sorted(sr_a | sr_b, key=lambda v: rank[v])
    stats.affected_hubs = len(affected)
    for h_vertex in affected:
        if h_vertex in sr_a:
            _dec_update_dijkstra(graph, index, h_vertex, targets_b, stats)
        else:
            _dec_update_dijkstra(graph, index, h_vertex, targets_a, stats)


def _srr_search_dijkstra(graph, index, a, b, w_ab, lab):
    """Weighted Algorithm 5: Dijkstra from ``a`` pruned at unaffected vertices."""
    rank = index.order.rank_map()
    label_of = index.label_set
    lb = label_of(b)
    b_entry = {h: (d, c) for h, d, c in lb}

    sr, r = set(), set()
    dist = {a: 0}
    count = {a: 1}
    settled = set()
    heap = [(0, rank[a], a)]
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        ls = label_of(v)
        hubs, dists, counts = ls.hubs, ls.dists, ls.counts
        d_q, c_q = INF, 0
        for i in range(len(hubs)):
            e = b_entry.get(hubs[i])
            if e is not None:
                cand = dists[i] + e[0]
                if cand < d_q:
                    d_q = cand
                    c_q = counts[i] * e[1]
                elif cand == d_q:
                    c_q += counts[i] * e[1]
        if dv + w_ab != d_q:
            continue
        if rank[v] in lab or count[v] == c_q:
            sr.add(v)
        else:
            r.add(v)
        cv = count[v]
        for w, weight in graph.neighbors(v).items():
            if w in settled:
                continue
            cand = dv + weight
            dw = dist.get(w)
            if dw is None or cand < dw:
                dist[w] = cand
                count[w] = cv
                heapq.heappush(heap, (cand, rank[w], w))
            elif cand == dw:
                count[w] += cv
    return sr, r


def _dec_update_dijkstra(graph, index, h_vertex, targets, stats):
    """Weighted Algorithm 6: rank-pruned Dijkstra from an affected hub."""
    t0 = perf_counter()
    order = index.order
    rank = order.rank_map()
    label_of = index.label_set
    h = rank[h_vertex]
    root_get = label_of(h_vertex).root_get()

    updated = set()
    dist = {h_vertex: 0}
    count = {h_vertex: 1}
    settled = set()
    heap = [(0, h, h_vertex)]
    while heap:
        dv, _, v = heapq.heappop(heap)
        if v in settled or dv > dist[v]:
            continue
        settled.add(v)
        stats.bfs_visits += 1
        ls = label_of(v)
        hubs = ls.hubs
        i = bisect_left(hubs, h)
        if prequery_prunes(hubs, ls.dists, i, root_get, dv):
            continue
        cv = count[v]
        if v in targets:
            if i == len(hubs) or hubs[i] != h:
                ls.set(h, dv, cv)
                stats.inserted += 1
            elif ls.dists[i] != dv:
                ls.set(h, dv, cv)
                stats.renew_dist += 1
            elif ls.counts[i] != cv:
                ls.set(h, dv, cv)
                stats.renew_count += 1
            updated.add(v)
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
    t1 = perf_counter()
    stats.bfs_s += t1 - t0

    # Unconditional removal phase — see the note in
    # repro.core.decremental.dec_bfs: stale labels from incremental
    # updates can resurface if removal is gated on the common-hub flag.
    # Narrowed to holders(h) ∩ targets via the reverse hub map.
    for u in index.holders(h) & targets:
        if u not in updated:
            label_of(u).remove(h)
            stats.removed += 1
    stats.removal_s += perf_counter() - t1
