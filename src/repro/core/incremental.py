"""IncSPC: incremental maintenance of the SPC-Index (§3.1, Algorithms 2-3).

When an edge (a, b) is inserted, only labels whose hub lies in

    AFF = { h | h ∈ L(a) ∪ L(b) }

can be outdated or missing (any other hub either pruned before reaching a/b
or cannot reach them, so no new ĥ-shortest path crosses the new edge).  For
every affected hub h, a pruned BFS is started *on the far side of the new
edge*: if h ∈ L(a) with entry (h, d, c), new ĥ-shortest paths through (a, b)
all look like h ⇝ a → b ⇝ w, so the BFS starts at b with D[b] = d + 1 and
C[b] = c, exactly as if it had stepped across the edge.

The BFS prunes at v when the current index certifies a strictly shorter
distance (Lemma 3.4 requires the relaxed, *strict* test so equal-length new
paths — count-only changes — are still discovered).  Non-pruned vertices get
their (h, ·, ·) label renewed (count accumulated when the distance is
unchanged, replaced when it shrank) or freshly inserted.

Per Lemma 3.1, stale labels whose distances became overestimates are left in
place: SpcQUERY takes a minimum over hubs, so they can never surface, and
skipping their removal is part of what makes IncSPC fast.

On a weighted graph (Appendix C.2) the search starts at b with
D[b] = d + w_ab, "a partial Dijkstra-like execution", over the same
distance buckets; decreasing an edge's weight is the same repair with the
new weight, because it too only creates shorter paths through (a, b).

On a directed graph (Appendix C.1) "the affected hubs can be replaced by the
hubs from L_in(a) ∪ L_out(b)" for the new arc a → b.  A hub h ∈ L_in(a)
witnesses paths h → a, which the arc extends to h → a → b → ..., so a
forward search from b repairs in-labels; a hub h ∈ L_out(b) witnesses
paths b → h, extended to ... → a → b → h, so a backward search from a
repairs out-labels.  The undirected case is the same loop on one side:
L_in = L_out = L, and both searches follow ``neighbors``.
"""

from bisect import bisect_left
from time import perf_counter

from repro.core.builder import edge_lengths, edge_steps, next_bucket, open_bucket
from repro.core.labels import prequery_prunes
from repro.core.stats import UpdateStats


def inc_spc(graph, index, a, b, stats=None, mutate=None):
    """Insert edge (a, b) into ``graph`` and repair ``index`` (Algorithm 2).

    The graph mutation is performed here (line 1 of the algorithm); both
    endpoints must already exist — the dynamic facade handles new-vertex
    bookkeeping.  ``mutate`` replaces the unit edge insertion: the weighted
    backend passes one that adds a weighted edge or lowers a weight.
    On a directed graph (a, b) is the arc a → b.  Returns an
    :class:`UpdateStats`.
    """
    if stats is None:
        stats = UpdateStats(kind="insert", edge=(a, b))
    order = index.order
    lin, lout = index.in_label_set, index.out_label_set
    rank_a = order.rank(a)
    rank_b = order.rank(b)

    # Snapshot AFF before any label changes; updates only ever touch hubs
    # already in AFF, so the snapshot is complete.
    in_a = set(lin(a).hubs)
    out_b = set(lout(b).hubs)
    aff = sorted(in_a | out_b)
    stats.affected_hubs = len(aff)

    if mutate is None:
        graph.add_edge(a, b)
    else:
        mutate()

    forward, backward = edge_steps(graph)
    lengths = edge_lengths(graph)
    rank = order.rank_map()  # read-only hot-loop access
    vertex = order.vertex
    t0 = perf_counter()
    for h in aff:  # ascending rank number == descending order of rank
        if h in in_a and h <= rank_b:
            inc_bfs(forward, lin, lout(vertex(h)), rank, h, a, b, stats,
                    lengths)
        if h in out_b and h <= rank_a:
            inc_bfs(backward, lout, lin(vertex(h)), rank, h, b, a, stats,
                    lengths)
    stats.bfs_s += perf_counter() - t0
    return stats


def inc_bfs(step, labels_of, root_labels, rank, h, va, vb, stats, lengths=None):
    """Pruned search rooted at hub ``h`` entering the new edge va → vb (Algorithm 3).

    The search starts at vb from va's (h, d, c) entry, read here, with
    D = d + l(va, vb) and C = c.  It follows ``step`` and repairs
    ``labels_of(v)``; ``root_labels`` is the hub's own label set on the
    opposite side, the PreQUERY array.  ``lengths`` is None for unit-length
    edges, or maps v to ``{w: l(v, w)}``
    (:func:`repro.core.builder.edge_lengths`).  :func:`inc_spc` runs it
    once per side: forward into L_in, backward into L_out.
    """
    entry = labels_of(va).get(h)
    if entry is None:
        # The (h, ·, ·) entry vanished since the AFF snapshot — cannot happen
        # for insertions (labels are never removed), but guard for safety.
        return
    d0, c0 = entry
    d0 += 1 if lengths is None else lengths(va)[vb]
    root_get = root_labels.root_get()

    dist = {vb: d0}
    count = {vb: c0}
    buckets = {}
    heap = []
    frontier, dv = [vb], d0
    while frontier:
        dnext = dv + 1
        nxt = []
        for v in frontier:
            if dist[v] != dv:
                continue  # reached again by a shorter path
            stats.bfs_visits += 1

            # Prune when d_L = SpcQUERY(h, v), via the root-label array, is
            # below D[v].  The probe must see the up-to-date index, including
            # labels renewed earlier in this same update.  The witness x = h
            # comes first: the root holds its self-label (h, 0, 1), so it is
            # v's own (h, ·, ·) entry alone, found by the visit's one bisect.
            ls = labels_of(v)
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

            if lengths is None:
                for w in step(v):
                    dw = dist.get(w)
                    if dw is None:
                        if h <= rank[w]:
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
                    if h > rank[w]:
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
