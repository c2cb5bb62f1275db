"""DecSPC: decremental maintenance of the SPC-Index (§3.2, Algorithms 4-6).

Deleting an edge (a, b) may *increase* distances and *decrease* counts, so
outdated labels cannot be left behind the way IncSPC leaves stale distance
overestimates.  DecSPC works in two phases:

1.  **SrrSEARCH** (Algorithm 5) partitions the vertices whose shortest paths
    cross (a, b) into *affected hubs* SR (Sender-and-Receiver — labels with
    these vertices as hubs may need renewal, insertion or deletion) and
    *affected ordinary vertices* R (Receiver-Only — only their own label
    sets may change).  A vertex v on a's side is affected iff
    sd(v,a) + 1 = sd(v,b); it is a hub (SR) iff it is a common hub of a and
    b (Condition A: some v̂-shortest path crosses the edge) or
    spc(v,a) = spc(v,b) (Condition B: *all* shortest v-b paths cross it).
    Everything is computed on G_i, before the edge is removed.  Per side, a
    counting BFS from the near endpoint stops at unaffected vertices, and a
    counting BFS from the far endpoint, run in lockstep a level ahead,
    gives sd and spc to the far end; no label set is read.

2.  **DecUPDATE** (Algorithm 6) repairs, for each affected hub h (in
    descending order of rank, so PreQUERY's upper bound d̄ — computed from
    strictly higher-ranked, already-repaired hubs — is sound), the
    (h, ·, ·) labels of the opposite side's SR ∪ R on G_{i+1}.  Only those
    targets ranked below h can change, and of them only those that no
    entry proves untouched: a target u holding (h, d, ·) with
    d < sd(h, near end) + 1 + sd(far end, u) has no shortest h–u path over
    the edge, so it is *kept* (:func:`drop_kept`, the Ramalingam–Reps
    test).  The rank-pruned BFS runs inside the remaining region alone,
    seeded from the unchanged (h, ·, ·) entries of its boundary, kept
    holders included.  Visited targets get their label renewed or
    inserted and are marked U[v] = True; labels of unvisited region
    vertices are removed afterwards: either h got disconnected from them
    or their label became dominated.

The §3.2.3 isolated-vertex optimization short-circuits the whole procedure
when the deletion strands a degree-1, lower-ranked endpoint: its label set
collapses to the self-label and no other vertex can hold it as a hub.

On a weighted graph (Appendix C.2) "the conditions for the SR and R sets
remain applicable" with the edge weight w_ab in place of the +1 hop, and an
increase of w_ab is repaired like a deletion.  The kernels take the edge
lengths as one more argument and drain the same distance buckets.

On a directed graph (Appendix C.1) deleting the arc a → b splits the
affected vertices by side of the arc.  On a's side (SRa ∪ Ra) are the v
with sd(v, a) + 1 = sd(v, b), found by walking in-arcs back from a and b,
with Condition A over L_in(a) ∩ L_in(b); their paths v → a → b lose the
arc.  On b's side (SRb ∪ Rb) are the v with sd(b, v) + 1 = sd(a, v),
found by walking out-arcs forward, with Condition A over
L_out(a) ∩ L_out(b).  An SRa hub repairs in-labels on b's side by a
forward search, an SRb hub out-labels on a's side by a backward one.  The
undirected case is the same loop on one side: L_in = L_out = L, both
walks follow ``neighbors``, and SRa and SRb are disjoint, since
sd(v, a) + w_ab = sd(v, b) and sd(v, b) + w_ab = sd(v, a) cannot both hold.
On a directed cycle a hub can sit on both sides and gets both repairs.
"""

from bisect import bisect_left, bisect_right
from heapq import heapify
from time import perf_counter

from repro.core.builder import edge_lengths, edge_steps, next_bucket, open_bucket
from repro.core.labels import prequery_prunes
from repro.core.stats import UpdateStats
from repro.exceptions import EdgeNotFound

INF = float("inf")


def dec_spc(graph, index, a, b, stats=None, use_isolated_fast_path=True,
            mutate=None):
    """Delete edge (a, b) from ``graph`` and repair ``index`` (Algorithm 4).

    The graph mutation happens here, *after* SrrSEARCH probes G_i.
    ``mutate`` replaces the edge removal: a weight increase passes one that
    raises the edge's weight, and the isolated-vertex fast path, which
    strands an endpoint, is then skipped.  On a directed graph (a, b) is
    the arc a → b, and the fast path is never taken: it reads one degree
    and one side.  ``use_isolated_fast_path=False`` turns it off on the
    other families too (the ablation).  Returns an :class:`UpdateStats`
    whose sr_a/sr_b/r_a/r_b fields feed Table 5.
    """
    if stats is None:
        stats = UpdateStats(kind="delete", edge=(a, b))

    if not graph.has_edge(a, b):
        raise EdgeNotFound(a, b)

    forward, backward = edge_steps(graph)
    # Steps that differ mean a directed graph: no fast path (DESIGN.md §4).
    if (mutate is None and use_isolated_fast_path and forward == backward
            and try_isolated_fast_path(graph, index, a, b, stats)):
        return stats

    rank = index.order.rank_map()
    lin, lout = index.in_label_set, index.out_label_set
    lengths = edge_lengths(graph)
    w_ab = 1 if lengths is None else lengths(a)[b]
    # Common hubs of a and b (rank numbers), Condition A of each side.
    lab_in = set(lin(a).hubs) & set(lin(b).hubs)
    lab_out = set(lout(a).hubs) & set(lout(b).hubs)

    t0 = perf_counter()
    # a's side, paths v -> a: walk back from a and from b.
    sr_a, r_a, dist_a = srr_search(backward, a, b, lab_in, rank, lengths)
    # b's side, paths b -> v: walk forward from b and from a.
    sr_b, r_b, dist_b = srr_search(forward, b, a, lab_out, rank, lengths)
    stats.srr_s += perf_counter() - t0
    stats.sr_a, stats.sr_b = len(sr_a), len(sr_b)
    stats.r_a, stats.r_b = len(r_a), len(r_b)

    if mutate is None:
        graph.remove_edge(a, b)
    else:
        mutate()

    below_b = regions_below(sr_b | r_b, rank)  # opposite side for SRa hubs
    below_a = regions_below(sr_a | r_a, rank)

    affected_hubs = sorted(sr_a | sr_b, key=lambda v: rank[v])
    stats.affected_hubs = len(affected_hubs)
    in_holders, out_holders = index.in_holders, index.out_holders
    for h_vertex in affected_hubs:  # descending order of rank
        h = rank[h_vertex]
        # dist_a holds sd(v, a), dist_b sd(b, v): an h -> u path over the
        # edge is at least sd(h, a) + w_ab + sd(b, u) long, a u -> h one
        # sd(u, a) + w_ab + sd(b, h).  One side: SRa and SRb are disjoint.
        if h_vertex in sr_a:
            region = drop_kept(below_b(h), in_holders(h), lin, h,
                               dist_a[h_vertex] + w_ab, dist_b, stats)
            dec_bfs(forward, backward, lin, lout(h_vertex), in_holders, rank,
                    h_vertex, region, stats, lengths)
        if h_vertex in sr_b:
            region = drop_kept(below_a(h), out_holders(h), lout, h,
                               dist_b[h_vertex] + w_ab, dist_a, stats)
            dec_bfs(backward, forward, lout, lin(h_vertex), out_holders, rank,
                    h_vertex, region, stats, lengths)
    return stats


def try_isolated_fast_path(graph, index, a, b, stats):
    """§3.2.3: deleting the last edge of a lower-ranked, degree-1 vertex.

    Returns True when the optimization applied (edge removed, index fixed).
    The vertex being stranded must rank *below* the surviving endpoint:
    every path leaving it starts with the higher-ranked neighbor, so in a
    canonical index no label uses it as hub, and its own labels all die
    with the disconnection.

    One caveat keeps this from being pure O(1): earlier *incremental*
    updates legitimately retain stale labels (Lemma 3.1), and a stale
    entry may still reference the stranded vertex as hub even though the
    canonical argument says none can (same failure family as DESIGN.md
    §5).  Those entries would answer finite distances to a now-isolated
    vertex.  The reverse hub map lists exactly who holds the stranded
    vertex's hub, so purging them is O(affected) — PR 2 had to sweep all
    n label sets here (see DESIGN.md §9).
    """
    rank = index.order.rank_map()
    deg_a = graph.degree(a)
    deg_b = graph.degree(b)
    if deg_b == 1 and deg_a == 1:
        # Both stranded: keep the paper's convention that b is the
        # lower-ranked one.
        if rank[a] > rank[b]:
            a, b = b, a
    elif deg_a == 1:
        a, b = b, a
    elif deg_b != 1:
        return False
    # Here deg(b) == 1; the optimization needs a ranked higher than b.
    if rank[a] > rank[b]:
        return False
    graph.remove_edge(a, b)
    rb = rank[b]
    label_of = index.label_set
    for u in list(index.holders(rb)):
        if u != b and label_of(u).remove(rb):
            stats.removed += 1
    lb = label_of(b)
    stats.removed += len(lb) - 1
    lb.clear()
    lb.set(rb, 0, 1)
    stats.isolated_fast_path = True
    return True


def srr_search(step, start, far, lab, rank, lengths=None):
    """Algorithm 5: compute (SR, R) for the side of the edge at ``start``.

    Runs on G_i (edge still present).  Two counting searches follow
    ``step`` in lockstep: the near one from ``start`` gives sd/spc(v, start)
    and is pruned at unaffected vertices, as the paper's; the far one from
    ``far`` gives sd/spc(v, far end).  With w_ab the length of the edge (1,
    or ``lengths(start)[far]``), a vertex at near distance dv is judged
    after the far search has expanded every bucket below dv + w_ab, so its
    distances up to dv + w_ab and their counts are final; v is affected iff
    its far distance is dv + w_ab.  ``lab`` holds the common hubs of the
    edge endpoints as rank numbers (Condition A).  :func:`dec_spc` runs it
    once per side: backward from a, forward from b.

    Returns (SR, R, dist).  ``dist`` is the near search's distance map; on
    every affected vertex it is exact, sd(v, start) on G_i, because a
    shortest path from an affected vertex to ``start`` runs through
    affected vertices only.  DecUPDATE reads the hubs' and the targets'
    distances from it (:func:`drop_kept`).
    """
    w_ab = 1 if lengths is None else lengths(start)[far]
    sr, r = set(), set()
    dist = {start: 0}
    count = {start: 1}
    buckets = {}
    heap = []
    fdist, fcount, fbuckets, fheap = {far: 0}, {far: 1}, {}, []
    ffrontier, fd = [far], 0
    frontier, dv = [start], 0
    while frontier:
        dnext = dv + 1
        nxt = []
        reach = dv + w_ab
        while ffrontier and fd < reach:
            ffrontier, fd = _expand_far(step, lengths, ffrontier, fd, fdist,
                                        fcount, fbuckets, fheap)
        for v in frontier:
            if dist[v] != dv:
                continue  # reached again by a shorter path
            if fdist.get(v) != reach:
                continue  # unaffected: no shortest path to the far end crosses the edge
            cv = count[v]
            if rank[v] in lab or cv == fcount[v]:
                sr.add(v)
            else:
                r.add(v)
            if lengths is None:
                for w in step(v):
                    dw = dist.get(w)
                    if dw is None:
                        dist[w] = dnext
                        count[w] = cv
                        nxt.append(w)
                    elif dw == dnext:
                        count[w] += cv
                continue
            for w, length in lengths(v).items():
                dw = dist.get(w)
                dw_new = dv + length
                if dw is None or dw_new < dw:
                    dist[w] = dw_new
                    count[w] = cv
                    open_bucket(buckets, heap, dw_new).append(w)
                elif dw_new == dw:
                    count[w] += cv
        if lengths is None:
            frontier, dv = nxt, dnext
        else:
            frontier, dv = next_bucket(buckets, heap)
    return sr, r, dist


def _expand_far(step, lengths, frontier, dv, dist, count, buckets, heap):
    """Expand one bucket of SrrSEARCH's far search; returns the next one.

    The far search is never pruned, so a bucket is expanded whole; the
    lockstep loop calls this once per bucket, not once per vertex.
    """
    if lengths is None:
        dnext = dv + 1
        nxt = []
        for u in frontier:
            cu = count[u]
            for w in step(u):
                dw = dist.get(w)
                if dw is None:
                    dist[w] = dnext
                    count[w] = cu
                    nxt.append(w)
                elif dw == dnext:
                    count[w] += cu
        return nxt, dnext
    for u in frontier:
        if dist[u] != dv:
            continue
        cu = count[u]
        for w, length in lengths(u).items():
            dw = dist.get(w)
            dw_new = dv + length
            if dw is None or dw_new < dw:
                dist[w] = dw_new
                count[w] = cu
                open_bucket(buckets, heap, dw_new).append(w)
            elif dw_new == dw:
                count[w] += cu
    return next_bucket(buckets, heap)


def regions_below(targets, rank):
    """Return ``region(h)``: the vertices of ``targets`` ranked strictly below h.

    The targets are sorted by rank once per delete; each affected hub then
    takes its region as a ``bisect_right`` slice.  No target ranked at or
    above h can hold h (the rank constraint), and h itself keeps its
    self-label, so the slice is exactly the set DecUPDATE may change.
    """
    ordered = sorted(targets, key=rank.__getitem__)
    ranks = [rank[v] for v in ordered]
    return lambda h: ordered[bisect_right(ranks, h):]


def drop_kept(region, held, labels_of, h, reach, far_dist, stats):
    """Return the vertices of ``region`` whose (h, ·, ·) entry may change.

    ``reach`` is sd(h, near end) + w_ab, the edge's length on G_i (1
    unweighted), and ``far_dist`` maps each target u to sd(far end, u), both
    on G_i (:func:`srr_search`), so every h–u path over the edge is at least
    ``reach + far_dist[u]`` long, before the delete or weight increase and
    after.  A holder u of (h, d, ·) with d below that bound has shortest
    h–u paths that avoid the edge: they, and so its entry, survive.  It
    is *kept*: left out of the region, it seeds its region neighbours as a
    non-target does, and the removal pass leaves it alone (DESIGN.md §4).
    ``held`` is the reverse hub map's holders(h).  Its time counts in
    ``stats.bfs_s``.
    """
    t0 = perf_counter()
    repair = [u for u in region
              if u not in held or labels_of(u).get(h)[0] >= reach + far_dist[u]]
    stats.kept += len(region) - len(repair)
    stats.bfs_s += perf_counter() - t0
    return repair


def dec_bfs(step, back, labels_of, root_labels, holders, rank, h_vertex, region,
            stats, lengths=None):
    """Algorithm 6: repair the (h, ·, ·) labels of ``region`` from its boundary.

    ``region`` lists the opposite-side targets ranked strictly below h.
    Every other vertex's (h, ·, ·) entry survives the delete unchanged, so
    a region vertex starts from its neighbours outside the region that hold
    h: ``back`` (the reverse of ``step``) finds them, and their stored
    entries seed the minimum distance d_w + l(w, u) with the summed counts
    of the seeds at that minimum.  A distance-bucketed search along
    ``step`` then relaxes the region and never leaves it.  ``labels_of``
    gives the label sets the search probes and writes, ``root_labels`` the
    hub's own label set on the opposite side (the PreQUERY array), and
    ``holders`` the reverse hub map of the side being repaired.
    ``lengths`` is None for unit-length edges, or maps v to
    ``{w: l(v, w)}`` on an undirected weighted graph.  :func:`dec_spc`
    passes the two steps of :func:`repro.core.builder.edge_steps`, forward
    then backward for an SRa hub and the mirror pair for an SRb hub; on an
    undirected graph both are ``neighbors``.  DESIGN.md §4 argues
    soundness: seeds are not PreQUERY-checked, because a stale seed only
    ever offers a distance that the visit's own PreQUERY prunes.
    """
    t0 = perf_counter()
    h = rank[h_vertex]

    # PreQUERY array: the root's labels; each visit scans only the hubs
    # ranked strictly above h.
    root_get = root_labels.root_get()
    inside = set(region)
    held = holders(h)

    dist = {}
    count = {}
    buckets = {}  # seeded distance -> region vertices starting there
    entry_of = {}  # boundary vertex -> its (h, ·, ·) entry, looked up once
    for u in region:
        best = INF
        cu = 0
        near = back(u) if lengths is None else lengths(u)
        for w in near:
            if w in held and w not in inside:
                e = entry_of.get(w)
                if e is None:
                    e = entry_of[w] = labels_of(w).get(h)
                dw, cw = e
                dw += 1 if lengths is None else near[w]
                if dw < best:
                    best = dw
                    cu = cw
                elif dw == best:
                    cu += cw
        if cu:  # some neighbour outside the region holds h
            dist[u] = best
            count[u] = cu
            buckets.setdefault(best, []).append(u)

    updated = set()  # U[v] = True
    heap = list(buckets)
    heapify(heap)
    frontier, dv = next_bucket(buckets, heap)
    while frontier:
        dnext = dv + 1
        nxt = buckets.pop(dnext, []) if lengths is None else None
        for v in frontier:
            if dist[v] != dv:
                continue  # a seed the region reached by a shorter path
            stats.bfs_visits += 1

            # Prune when PreQUERY(h, v) via hubs ranked above h gives d̄ < D[v].
            # The visit's one bisect bounds the scan and finds v's own entry.
            ls = labels_of(v)
            hubs = ls.hubs
            i = bisect_left(hubs, h)
            if prequery_prunes(hubs, ls.dists, i, root_get, dv):
                continue

            cv = count[v]
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

            if lengths is None:
                for w in step(v):
                    if w in inside:
                        dw = dist.get(w)
                        if dw is None or dw > dnext:
                            dist[w] = dnext
                            count[w] = cv
                            nxt.append(w)
                        elif dw == dnext:
                            count[w] += cv
                continue
            for w, length in lengths(v).items():
                if w in inside:
                    dw = dist.get(w)
                    dw_new = dv + length
                    if dw is None or dw > dw_new:
                        dist[w] = dw_new
                        count[w] = cv
                        open_bucket(buckets, heap, dw_new).append(w)
                    elif dw == dw_new:
                        count[w] += cv
        if nxt:
            frontier, dv = nxt, dnext
        else:  # weighted, or a unit gap up to the next seeded distance
            frontier, dv = next_bucket(buckets, heap)
    t1 = perf_counter()
    stats.bfs_s += t1 - t0

    # Label removal: unvisited or pruned region vertices have spc(ĥ, u) = 0
    # — they either lost their connection to h or are fully dominated by
    # higher hubs — so any (h, ·, ·) entry they still hold must go.  The
    # paper runs this phase only when h is a common hub of the deleted edge
    # (the H_ab flag); we run it unconditionally because stale labels
    # retained by earlier *incremental* updates (Lemma 3.1's optimization)
    # can resurface when a deletion raises a distance back to the stale
    # value, and those labels are not covered by the common-hub argument.
    # See DESIGN.md §5.  The reverse hub map narrows the pass from the
    # region to the region vertices that actually hold h (DESIGN.md §9);
    # the intersection is a fresh set, safe to iterate while removals
    # shrink holders(h).
    for u in held & inside:
        if u not in updated:
            labels_of(u).remove(h)
            stats.removed += 1
    stats.removal_s += perf_counter() - t1
