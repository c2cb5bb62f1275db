"""Directed DecSPC (Appendix C.1).

Deleting arc (a, b) partitions the affected vertices by side of the arc:

* **source side** — SRa ∪ Ra: vertices v with sd(v, a) + 1 = sd(v, b); their
  paths v → ... → a → b lose the arc.  Found with a *backward* pruned BFS
  from a (following in-arcs computes sd(·, a) and spc(·, a)).  A vertex is a
  hub (SRa) if it is a common hub of L_in(a) and L_in(b) (Condition A) or
  spc(v, a) = spc(v, b) (Condition B);
* **target side** — SRb ∪ Rb: vertices v with sd(b, v) + 1 = sd(a, v), found
  with a *forward* BFS from b, Condition A over L_out(a) ∩ L_out(b).

Repair runs per affected hub in descending rank order: hubs from SRa run a
forward rank-pruned BFS fixing (h, ·, ·) entries in L_in(u) for u on the
target side; hubs from SRb run the mirror-image backward BFS fixing
out-labels on the source side.  The removal phase then deletes untouched
(h, ·, ·) labels of opposite-side vertices.  As in the undirected code, it
runs for every affected hub, not only for common hubs of the arc's
endpoints (DESIGN.md §5).
"""

from collections import deque
from time import perf_counter

from repro.core.labels import prequery_prunes
from repro.core.stats import UpdateStats
from repro.exceptions import EdgeNotFound

INF = float("inf")


def dec_spc_directed(graph, index, a, b, stats=None):
    """Delete arc a -> b from ``graph`` and repair ``index``."""
    if stats is None:
        stats = UpdateStats(kind="delete", edge=(a, b))
    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)

    order = index.order
    rank = order.rank_map()
    lab_in = set(index.in_label_set(a).hubs) & set(index.in_label_set(b).hubs)
    lab_out = set(index.out_label_set(a).hubs) & set(index.out_label_set(b).hubs)

    t0 = perf_counter()
    sr_a, r_a = _srr_search_directed(graph, index, a, b, lab_in, source_side=True)
    sr_b, r_b = _srr_search_directed(graph, index, a, b, lab_out, source_side=False)
    stats.srr_s += perf_counter() - t0
    stats.sr_a, stats.sr_b = len(sr_a), len(sr_b)
    stats.r_a, stats.r_b = len(r_a), len(r_b)

    graph.remove_edge(a, b)

    targets_b = sr_b | r_b
    targets_a = sr_a | r_a
    affected = sorted(sr_a | sr_b, key=lambda v: rank[v])
    stats.affected_hubs = len(affected)
    for h_vertex in affected:
        # Unlike the undirected case, SRa and SRb need not be disjoint: on a
        # cycle a vertex can both precede and follow the deleted arc.  Such
        # hubs need the repair BFS in *both* directions.
        if h_vertex in sr_a:
            _dec_update_directed(graph, index, h_vertex, targets_b, stats,
                                 forward=True)
        if h_vertex in sr_b:
            _dec_update_directed(graph, index, h_vertex, targets_a, stats,
                                 forward=False)
    return stats


def _srr_search_directed(graph, index, a, b, lab, source_side):
    """One side of the directed SrrSEARCH, on G_i (arc still present)."""
    rank = index.order.rank_map()
    if source_side:
        # Paths v -> a: walk in-arcs from a; probe sd/spc(v -> b).
        start = a
        step = graph.predecessors
        probe_side = index.out_label_set  # of v
        fixed = index.in_label_set(b)
    else:
        # Paths b -> v: walk out-arcs from b; probe sd/spc(a -> v).
        start = b
        step = graph.successors
        probe_side = index.in_label_set  # of v
        fixed = index.out_label_set(a)
    fixed_entry = {h: (d, c) for h, d, c in fixed}

    sr, r = set(), set()
    dist = {start: 0}
    count = {start: 1}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        ls = probe_side(v)
        hubs, dists, counts = ls.hubs, ls.dists, ls.counts
        d_q, c_q = INF, 0
        for i in range(len(hubs)):
            e = fixed_entry.get(hubs[i])
            if e is not None:
                cand = dists[i] + e[0]
                if cand < d_q:
                    d_q = cand
                    c_q = counts[i] * e[1]
                elif cand == d_q:
                    c_q += counts[i] * e[1]
        if dv + 1 != d_q:
            continue
        if rank[v] in lab or count[v] == c_q:
            sr.add(v)
        else:
            r.add(v)
        cv = count[v]
        dnext = dv + 1
        for w in step(v):
            dw = dist.get(w)
            if dw is None:
                dist[w] = dnext
                count[w] = cv
                queue.append(w)
            elif dw == dnext:
                count[w] += cv
    return sr, r


def _dec_update_directed(graph, index, h_vertex, targets, stats, forward):
    """Directed Algorithm 6: one rank-pruned BFS from an affected hub."""
    t0 = perf_counter()
    order = index.order
    rank = order.rank_map()
    h = rank[h_vertex]
    if forward:
        step = graph.successors
        root_side = index.out_label_set(h_vertex)
        target_side = index.in_label_set
    else:
        step = graph.predecessors
        root_side = index.in_label_set(h_vertex)
        target_side = index.out_label_set
    root_get = {hr: d for hr, d, _ in root_side if hr != h}.get
    above_h = h - 1

    updated = set()
    dist = {h_vertex: 0}
    count = {h_vertex: 1}
    queue = deque([h_vertex])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        stats.bfs_visits += 1
        ls = target_side(v)
        if prequery_prunes(ls, root_get, above_h, dv):
            continue
        if v in targets:
            existing = ls.get(h)
            if existing is None:
                ls.set(h, dv, count[v])
                stats.inserted += 1
            else:
                d_i, c_i = existing
                if d_i != dv:
                    ls.set(h, dv, count[v])
                    stats.renew_dist += 1
                elif c_i != count[v]:
                    ls.set(h, dv, count[v])
                    stats.renew_count += 1
            updated.add(v)
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
    t1 = perf_counter()
    stats.bfs_s += t1 - t0

    # Unconditional removal phase — see the note in
    # repro.core.decremental._dec_update: stale labels from incremental
    # updates can resurface if removal is gated on the common-hub flag.
    # The reverse hub map of the side being repaired narrows the pass to
    # the targets that actually hold h.
    holder_set = index.in_holders(h) if forward else index.out_holders(h)
    for u in holder_set & targets:
        if u not in updated:
            target_side(u).remove(h)
            stats.removed += 1
    stats.removal_s += perf_counter() - t1
