"""SD-Index: Pruned Landmark Labeling for shortest *distances* (§2.3, [3]).

The SD-Index is the distance-only sibling of the SPC-Index: it keeps only
the hubs of *canonical* labels with their distances — enough to answer
sd(s, t) but not spc(s, t).  We implement it for two reasons the paper makes
explicit:

1.  §2.3 compares the two schemas (e.g. "(v0, 2) belongs to L(v5) in
    SD-Index, but v2 is no longer a hub of v8") — tests pin that behaviour;
2.  the ablation benchmark demonstrates *why* SD-style maintenance cannot
    be transplanted to counting (see repro.sd.incremental).

Construction differs from HP-SPC in exactly one place: the pruned BFS stops
when the existing index matches the tentative distance (d_L <= D, not
d_L < D), which is what drops the non-canonical labels.
"""

from bisect import bisect_left, bisect_right
from collections import deque

from repro.core.labels import frozen_labels
from repro.exceptions import VertexNotFound
from repro.order import VertexOrder, make_order

INF = float("inf")


class SDIndex:
    """Distance-only 2-hop labeling (hub, distance) per vertex."""

    __slots__ = ("_order", "_labels", "_dirty")

    def __init__(self, order):
        if not isinstance(order, VertexOrder):
            order = VertexOrder(order)
        self._order = order
        self._labels = {v: ([], []) for v in order}  # hubs, dists
        self._dirty = None

    @property
    def order(self):
        """The total order the index was built under."""
        return self._order

    def label_arrays(self, v):
        """Return the internal (hubs, dists) parallel lists of ``v``."""
        try:
            return self._labels[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def labels(self, v):
        """Return L(v) as [(hub_vertex_id, dist)] in rank order."""
        hubs, dists = self.label_arrays(v)
        return [(self._order.vertex(h), d) for h, d in zip(hubs, dists)]

    def hubs(self, v):
        """Return the set of hub vertex ids of L(v)."""
        hubs, _ = self.label_arrays(v)
        return {self._order.vertex(h) for h in hubs}

    def distance(self, s, t):
        """Return sd(s, t) by merging L(s) and L(t); inf if disconnected."""
        hubs_s, dists_s = self.label_arrays(s)
        hubs_t, dists_t = self.label_arrays(t)
        i, j = 0, 0
        best = INF
        while i < len(hubs_s) and j < len(hubs_t):
            hs, ht = hubs_s[i], hubs_t[j]
            if hs == ht:
                d = dists_s[i] + dists_t[j]
                if d < best:
                    best = d
                i += 1
                j += 1
            elif hs < ht:
                i += 1
            else:
                j += 1
        return best

    def query(self, s, t):
        """Return (sd(s, t), None) — the engine-facing answer shape.

        The SD-Index carries no counts, so the spc slot is ``None``; this
        lets the SD backend serve distance-only traffic through the same
        :class:`~repro.engine.SPCEngine` API as the counting backends.
        """
        return self.distance(s, t), None

    def source_probe(self, s):
        """Return ``probe(t) -> (sd, None)`` sharing one scan of L(s).

        The distance-only twin of :func:`repro.core.labels.counting_probe`,
        rank-bounded the same way: each probe scans L(t) only up to the
        largest hub rank in L(s).
        """
        hubs_s, dists_s = self.label_arrays(s)
        s_entry = dict(zip(hubs_s, dists_s))
        bound = hubs_s[-1] if hubs_s else -1
        label_of = self.label_arrays

        def probe(t):
            hubs, dists = label_of(t)
            best = INF
            get = s_entry.get
            for i in range(bisect_right(hubs, bound)):
                rd = get(hubs[i])
                if rd is not None:
                    d = rd + dists[i]
                    if d < best:
                        best = d
            return best, None

        return probe

    def set_dirty_sink(self, sink):
        """Install (or clear) a dirty-vertex sink.

        The SD-Index has no :class:`LabelSet` seam, so the mutation points
        (``add_vertex``, ``drop_vertex_labels``, ``inc_sd``'s upserts)
        report into the sink directly.
        """
        self._dirty = sink

    def add_vertex(self, v):
        """Register a new (isolated) vertex with the lowest rank."""
        r = self._order.append(v)
        self._labels[v] = ([r], [0])
        if self._dirty is not None:
            self._dirty.add(v)
        return r

    def drop_vertex_labels(self, v):
        """Forget ``v``'s labels and tombstone its rank slot.

        Entries elsewhere referencing ``v`` as hub are purged too —
        leaving them would answer finite distances through a vertex that
        no longer exists.  The SD-Index keeps no reverse hub map (the SD
        backend rebuilds on deletions rather than repairing), so this is
        an O(n) sweep, acceptable for the rare direct-library use.
        """
        if v not in self._labels:
            raise VertexNotFound(v)
        rv = self._order.rank(v)
        sink = self._dirty
        if sink is not None:
            sink.add(v)
        del self._labels[v]
        for u, (hubs, dists) in self._labels.items():
            i = bisect_left(hubs, rv)
            if i < len(hubs) and hubs[i] == rv:
                del hubs[i]
                del dists[i]
                if sink is not None:
                    sink.add(u)
        self._order.remove(v)

    @property
    def num_entries(self):
        """Total number of (hub, dist) entries."""
        return sum(len(h) for h, _ in self._labels.values())

    # ------------------------------------------------------------------
    # Serialization — same shape as SPCIndex.to_dict, minus the counts
    # ------------------------------------------------------------------

    def to_dict(self):
        """Return a JSON-serializable snapshot of the index.

        Tombstoned rank slots serialize as null so ranks survive roundtrips.
        """
        return {
            "order": self._order.as_raw_list(),
            "labels": {
                str(v): [[h, d] for h, d in zip(hubs, dists)]
                for v, (hubs, dists) in self._labels.items()
            },
        }

    @classmethod
    def from_dict(cls, payload, vertex_type=int):
        """Rebuild an index from :meth:`to_dict` output."""
        index = cls(VertexOrder(payload["order"]))
        for key, entries in payload["labels"].items():
            hubs, dists = index.label_arrays(vertex_type(key))
            for h, d in entries:
                hubs.append(h)
                dists.append(d)
        return index

    def copy(self):
        """Return an independent deep copy (order copied, labels duplicated)."""
        clone = SDIndex(VertexOrder(self._order.as_raw_list()))
        clone._labels = {
            v: (list(hubs), list(dists))
            for v, (hubs, dists) in self._labels.items()
        }
        return clone

    def frozen(self, prev, dirty):
        """Return a read-only, copy-on-write view for publishing.

        Like :meth:`repro.core.index.SPCIndex.frozen`: a dirty vertex gets
        fresh copies of its (hubs, dists) lists, every other vertex shares
        ``prev``'s pair.
        """
        view = SDIndex.__new__(SDIndex)
        view._order = self._order.copy()
        view._labels = frozen_labels(prev and prev._labels, self._labels,
                                     dirty, _copy_arrays)
        view._dirty = None
        return view

    def __repr__(self):
        return f"SDIndex(n={len(self._labels)}, entries={self.num_entries})"


def _copy_arrays(arrays):
    hubs, dists = arrays
    return list(hubs), list(dists)


def build_sd_index(graph, order=None, strategy="degree"):
    """Construct the SD-Index by classic pruned landmark labeling."""
    if order is None:
        order = make_order(graph, strategy)
    elif not isinstance(order, VertexOrder):
        order = VertexOrder(order)
    index = SDIndex(order)
    rank = order.rank_map()

    for root in order:
        r = rank[root]
        if root not in graph:
            _append(index, root, r, 0)
            continue
        root_hubs, root_dists = index.label_arrays(root)
        root_dist = dict(zip(root_hubs, root_dists))
        _append(index, root, r, 0)

        dist = {root: 0}
        queue = deque()
        for w in graph.neighbors(root):
            if rank[w] > r:
                dist[w] = 1
                queue.append(w)
        while queue:
            v = queue.popleft()
            dv = dist[v]
            hubs, dists = index.label_arrays(v)
            pruned = False
            for i in range(len(hubs)):
                rd = root_dist.get(hubs[i])
                # SD pruning is non-strict: equality means the pair is
                # already covered by a higher hub, and for pure distances
                # that is enough.
                if rd is not None and rd + dists[i] <= dv:
                    pruned = True
                    break
            if pruned:
                continue
            _append(index, v, r, dv)
            dnext = dv + 1
            for w in graph.neighbors(v):
                if w not in dist and rank[w] > r:
                    dist[w] = dnext
                    queue.append(w)
    return index


def _append(index, v, hub, d):
    hubs, dists = index.label_arrays(v)
    hubs.append(hub)
    dists.append(d)
