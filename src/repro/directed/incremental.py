"""Directed IncSPC (Appendix C.1).

Inserting arc (a, b): "the affected hubs can be replaced by the hubs from
L_in(a) ∪ L_out(b)".

* A hub h ∈ L_in(a) witnesses paths h → a; the new arc extends them to
  h → a → b → ..., so a *forward* pruned BFS from b repairs in-labels.
* A hub h ∈ L_out(b) witnesses paths b → h; the new arc extends them to
  ... → a → b → h, so a *backward* pruned BFS from a repairs out-labels.

Rank conditions mirror the undirected case: h must rank at least as high as
the BFS entry vertex, otherwise h cannot be the highest-ranked vertex on any
path crossing the new arc.
"""

from collections import deque
from time import perf_counter

from repro.core.labels import prequery_prunes
from repro.core.stats import UpdateStats


def inc_spc_directed(graph, index, a, b, stats=None):
    """Insert arc a -> b into ``graph`` and repair ``index``."""
    if stats is None:
        stats = UpdateStats(kind="insert", edge=(a, b))
    order = index.order
    rank = order.rank_map()
    aff_in = list(index.in_label_set(a).hubs)
    aff_out = list(index.out_label_set(b).hubs)
    stats.affected_hubs = len(set(aff_in) | set(aff_out))

    graph.add_edge(a, b)

    in_a, out_b = set(aff_in), set(aff_out)
    t0 = perf_counter()
    for h in sorted(in_a | out_b):
        if h in in_a and h <= rank[b]:
            _inc_update_directed(graph, index, h, a, b, stats, forward=True)
        if h in out_b and h <= rank[a]:
            _inc_update_directed(graph, index, h, b, a, stats, forward=False)
    stats.bfs_s += perf_counter() - t0
    return stats


def _inc_update_directed(graph, index, h, va, vb, stats, forward):
    """Pruned directed BFS entering the new arc at va, starting beyond vb."""
    order = index.order
    rank = order.rank_map()
    hub_vertex = order.vertex(h)
    if forward:
        entry = index.in_label_set(va).get(h)
        step = graph.successors
        root_side = index.out_label_set(hub_vertex)
        target_side = index.in_label_set
    else:
        entry = index.out_label_set(va).get(h)
        step = graph.predecessors
        root_side = index.in_label_set(hub_vertex)
        target_side = index.out_label_set
    if entry is None:
        return
    d0, c0 = entry
    root_get = dict(zip(root_side.hubs, root_side.dists)).get

    dist = {vb: d0 + 1}
    count = {vb: c0}
    queue = deque([vb])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        stats.bfs_visits += 1
        ls = target_side(v)
        if prequery_prunes(ls, root_get, h, dv):
            continue
        existing = ls.get(h)
        if existing is not None:
            d_i, c_i = existing
            if dv == d_i:
                ls.set(h, dv, count[v] + c_i)
                stats.renew_count += 1
            else:
                ls.set(h, dv, count[v])
                stats.renew_dist += 1
        else:
            ls.set(h, dv, count[v])
            stats.inserted += 1
        cv = count[v]
        dnext = dv + 1
        for w in step(v):
            dw = dist.get(w)
            if dw is None:
                if h <= rank[w]:
                    dist[w] = dnext
                    count[w] = cv
                    queue.append(w)
            elif dw == dnext:
                count[w] += cv
