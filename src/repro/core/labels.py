"""Label storage for the SPC-Index (§2.2, Table 2).

Each vertex v owns a label set L(v): triples (h, sd(h, v), σ_{h,v}) where h
is a hub ranked at least as high as v and σ_{h,v} = spc(ĥ, v), the number of
shortest h-v paths on which h is the highest-ranked vertex.

``LabelSet`` keeps the triples in three parallel lists sorted by hub rank
ascending (rank 0 = highest) — the in-memory equivalent of the paper's
"labels of each vertex are stored in an array in descending order of
ranking".  Sorted storage makes SpcQUERY a two-pointer merge and point
lookups a bisect.

Hubs are stored as *rank numbers*, not vertex ids: ranks are dense ints,
compare in one machine op, and stay stable across updates because new
vertices always append to the order.

``pack_entry``/``unpack_entry`` reproduce the paper's physical encoding
("each label entry (v, d, c) is encoded in a 64-bit integer ... v, d, and c
take up 25, 10, and 29 bits") so the Table 4 index-size accounting can use
the same 8-bytes-per-entry rule as the paper.

A ``LabelSet`` can additionally be *bound* to an index-level reverse hub
map (hub rank -> set of holder vertices) via :meth:`bind`.  Once bound,
every mutation — :meth:`set`, :meth:`remove`, :meth:`clear` — keeps the
shared map in sync, so the maintenance algorithms never have to thread
holder bookkeeping through their hot loops.  The reverse map is what makes
"who holds hub h?" an O(1) lookup instead of an O(n) sweep over every
label set (see DESIGN.md §9).

The same reporting seam optionally feeds a *dirty-vertex sink*: a set the
owning index installs (``set_dirty_sink``) that collects the owner vertex
of every mutated label set.  The backend drains it for two consumers
without the maintenance algorithms knowing: the copy-on-write publish,
which re-copies only the dirty label sets (:func:`frozen_labels`,
DESIGN.md §10), and the label journal of hub-partitioned shards
(DESIGN.md §13).
"""

from bisect import bisect_left, bisect_right

INF = float("inf")

HUB_BITS = 25
DIST_BITS = 10
COUNT_BITS = 29

_HUB_MAX = (1 << HUB_BITS) - 1
_DIST_MAX = (1 << DIST_BITS) - 1
_COUNT_MAX = (1 << COUNT_BITS) - 1

ENTRY_BYTES = 8


def pack_entry(hub, dist, count):
    """Pack (hub, dist, count) into the paper's 64-bit layout.

    Counts larger than 29 bits saturate at the field maximum, mirroring what
    a fixed-width implementation would be forced to do.
    """
    if not 0 <= hub <= _HUB_MAX:
        raise ValueError(f"hub {hub} out of {HUB_BITS}-bit range")
    if not 0 <= dist <= _DIST_MAX:
        raise ValueError(f"dist {dist} out of {DIST_BITS}-bit range")
    c = min(count, _COUNT_MAX)
    if c < 0:
        raise ValueError(f"count {count} must be non-negative")
    return (hub << (DIST_BITS + COUNT_BITS)) | (dist << COUNT_BITS) | c


def unpack_entry(packed):
    """Invert :func:`pack_entry`; returns (hub, dist, count)."""
    hub = packed >> (DIST_BITS + COUNT_BITS)
    dist = (packed >> COUNT_BITS) & _DIST_MAX
    count = packed & _COUNT_MAX
    return hub, dist, count


class LabelSet:
    """Sorted triple store for one vertex's labels.

    The three parallel lists are public attributes (``hubs``, ``dists``,
    ``counts``) because the update algorithms iterate them in hot loops;
    mutate only through :meth:`set` / :meth:`remove` so sortedness holds.

    When owned by an index, the set is *bound* (:meth:`bind`) to the
    index's reverse hub map; mutations then maintain the map transparently.
    """

    __slots__ = ("hubs", "dists", "counts", "_holders", "_owner", "_sink")

    def __init__(self):
        self.hubs = []
        self.dists = []
        self.counts = []
        self._holders = None
        self._owner = None
        self._sink = None

    def bind(self, holders, owner):
        """Attach this set to a shared reverse hub map.

        ``holders`` is the index's ``{hub_rank: set(vertex_id)}`` dict and
        ``owner`` the vertex whose labels this set stores.  Any hubs already
        present are registered immediately, so binding a populated set (as
        ``from_dict`` / ``copy`` do) leaves the map consistent.
        """
        self._holders = holders
        self._owner = owner
        for h in self.hubs:
            s = holders.get(h)
            if s is None:
                holders[h] = {owner}
            else:
                s.add(owner)

    def __len__(self):
        return len(self.hubs)

    def __iter__(self):
        """Iterate (hub_rank, dist, count) triples in ascending rank order."""
        return zip(self.hubs, self.dists, self.counts)

    def __contains__(self, hub):
        i = bisect_left(self.hubs, hub)
        return i < len(self.hubs) and self.hubs[i] == hub

    def get(self, hub):
        """Return (dist, count) for ``hub`` or None if absent."""
        hubs = self.hubs
        i = bisect_left(hubs, hub)
        if i < len(hubs) and hubs[i] == hub:
            return self.dists[i], self.counts[i]
        return None

    def set(self, hub, dist, count):
        """Insert or replace the entry for ``hub``.

        Returns ``"inserted"`` or ``"replaced"`` so callers can maintain the
        paper's RenewC / RenewD / Insert statistics without a second lookup.
        """
        sink = self._sink
        if sink is not None:
            sink.add(self._owner)
        hubs = self.hubs
        i = bisect_left(hubs, hub)
        if i < len(hubs) and hubs[i] == hub:
            self.dists[i] = dist
            self.counts[i] = count
            return "replaced"
        hubs.insert(i, hub)
        self.dists.insert(i, dist)
        self.counts.insert(i, count)
        holders = self._holders
        if holders is not None:
            s = holders.get(hub)
            if s is None:
                holders[hub] = {self._owner}
            else:
                s.add(self._owner)
        return "inserted"

    def remove(self, hub):
        """Delete the entry for ``hub``; returns True if it existed."""
        hubs = self.hubs
        i = bisect_left(hubs, hub)
        if i < len(hubs) and hubs[i] == hub:
            sink = self._sink
            if sink is not None:
                sink.add(self._owner)
            del hubs[i]
            del self.dists[i]
            del self.counts[i]
            holders = self._holders
            if holders is not None:
                s = holders.get(hub)
                if s is not None:
                    s.discard(self._owner)
                    if not s:
                        del holders[hub]
            return True
        return False

    def clear(self):
        """Remove every entry.

        Marks the owner dirty even when already empty: a vertex drop must
        reach the delta journal so shards forget the vertex too.
        """
        sink = self._sink
        if sink is not None:
            sink.add(self._owner)
        holders = self._holders
        if holders is not None:
            owner = self._owner
            for h in self.hubs:
                s = holders.get(h)
                if s is not None:
                    s.discard(owner)
                    if not s:
                        del holders[h]
        del self.hubs[:]
        del self.dists[:]
        del self.counts[:]

    def as_dict(self):
        """Return {hub_rank: (dist, count)} — handy for tests."""
        return {h: (d, c) for h, d, c in self}

    def copy(self):
        """Return an independent, *unbound* copy of this label set.

        The copy does not report into any reverse hub map; the adopting
        index re-binds it (see ``SPCIndex.copy``).
        """
        other = LabelSet()
        other.hubs = list(self.hubs)
        other.dists = list(self.dists)
        other.counts = list(self.counts)
        return other

    def packed(self):
        """Return the entries in the paper's 64-bit packed encoding."""
        return [pack_entry(h, d, c) for h, d, c in self]

    def __repr__(self):
        entries = ", ".join(f"({h},{d},{c})" for h, d, c in self)
        return f"LabelSet[{entries}]"


def frozen_labels(prev, live, dirty, copy):
    """Return a vertex -> labels dict for a published, read-only view.

    ``live`` is the index's own vertex -> labels map and ``copy`` the
    function that duplicates one vertex's labels.  With ``prev`` None every
    entry is copied.  Otherwise ``prev`` is the map of an earlier view of
    the same live index and ``dirty`` holds every vertex whose labels
    changed since that view was taken: the result shares ``prev``'s entry
    for every other vertex, copies each dirty vertex still in ``live`` and
    drops the dirty ones that are gone.  Nothing in the result is reachable
    from ``live``, so later mutations never show through.
    """
    if prev is None:
        return {v: copy(x) for v, x in live.items()}
    out = dict(prev)
    for v in dirty:
        x = live.get(v)
        if x is None:
            out.pop(v, None)
        else:
            out[v] = copy(x)
    return out


def counting_probe(source_labels, target_label_of, hub_filter=None):
    """Return ``probe(t) -> (sd, spc)`` sharing one scan of the source labels.

    The PSPC-style batch-serving primitive behind ``source_probe`` on every
    counting index: ``source_labels`` (an iterable of (hub, dist, count)
    triples — the query source's label set) is materialized into one
    hub -> (dist, count) dict, and each ``probe(t)`` answers by a single
    scan over ``target_label_of(t)``'s label arrays — the same array-probe
    trick SrrSEARCH uses.  Equivalent to the two-pointer merge query for
    every t; profitable whenever several queries share a source.

    ``hub_filter`` (a ``rank -> bool`` predicate) restricts the merge to a
    hub subset, yielding a *partial* answer: the (dist, count) contribution
    of just those hubs.  Partials over a partition of the hub space combine
    back to the full answer with
    :func:`repro.audit.comparator.merge_partial_answers` — the algebra the
    scatter-gather shard router is built on (DESIGN.md §13).
    """
    s_entry = {}
    if hub_filter is None:
        for h, d, c in source_labels:
            s_entry[h] = (d, c)
    else:
        for h, d, c in source_labels:
            if hub_filter(h):
                s_entry[h] = (d, c)

    def probe(t):
        lt = target_label_of(t)
        hubs, dists, counts = lt.hubs, lt.dists, lt.counts
        best = INF
        count = 0
        get = s_entry.get
        for i in range(len(hubs)):
            e = get(hubs[i])
            if e is not None:
                d = e[0] + dists[i]
                if d < best:
                    best = d
                    count = e[1] * counts[i]
                elif d == best:
                    count += e[1] * counts[i]
        return best, count

    return probe


def prequery_prunes(labels, root_get, bound, dist):
    """Return True if some hub ranked ``<= bound`` certifies a path < ``dist``.

    The prune test of every counting maintenance BFS: the visit at v with
    tentative distance ``dist`` = D[v] is pruned when a hub x in L(v) with
    rank number at most ``bound`` gives ``root_get(x) + sd(x, v) < dist``,
    where ``root_get`` is the ``dict.get`` of the BFS root's hub -> distance
    map.  DecSPC passes ``bound = h - 1`` (PreQUERY: hubs strictly above h),
    IncSPC ``bound = h``.

    Equal to comparing the full minimum over L(v) against ``dist``, but
    cheaper twice over.  It scans only ``hubs[:bisect_right(hubs, bound)]``:
    the root's labels obey the rank constraint (every hub ranks at or above
    its holder, see ``check_invariants``), so no hub past the bound can be
    in the root's map.  And it stops at the first witness, since one hub
    below ``dist`` already decides the test.  A tie ``== dist`` never
    prunes: equal-length paths still have to be counted.
    """
    hubs = labels.hubs
    dists = labels.dists
    for i in range(bisect_right(hubs, bound)):
        rd = root_get(hubs[i])
        if rd is not None and rd + dists[i] < dist:
            return True
    return False
