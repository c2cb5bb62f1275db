"""Weighted SPC-Index (Appendix C.2).

"For weighted graphs, the labels store the sum of weights along the
shortest paths instead of the number of hops."  Structurally identical to
the unweighted index — the same sorted LabelSet and merge queries work with
float or int distances — so this class mirrors
:class:`repro.core.index.SPCIndex` with weighted semantics documented,
including the incrementally-maintained reverse hub map (DESIGN.md §9).
"""

from repro.core.labels import (
    ENTRY_BYTES,
    LabelSet,
    counting_probe,
    frozen_labels,
)
from repro.exceptions import VertexNotFound
from repro.order import VertexOrder

INF = float("inf")

_NO_HOLDERS = frozenset()


class WeightedSPCIndex:
    """Hub labeling for shortest-path counting on weighted graphs."""

    __slots__ = ("_order", "_labels", "_holders", "_dirty")

    def __init__(self, order, with_self_labels=True):
        if not isinstance(order, VertexOrder):
            order = VertexOrder(order)
        self._order = order
        self._labels = {}
        self._holders = {}
        self._dirty = None
        rank = order.rank_map()
        for v in order:
            ls = LabelSet()
            ls.bind(self._holders, v)
            if with_self_labels:
                ls.set(rank[v], 0, 1)
            self._labels[v] = ls

    @property
    def order(self):
        """The total order ≤ the index was built under."""
        return self._order

    def rank(self, v):
        """Rank number of vertex ``v`` (0 = highest)."""
        return self._order.rank(v)

    def __contains__(self, v):
        return v in self._labels

    def vertices(self):
        """Iterate over indexed vertex ids."""
        return iter(self._labels)

    def label_set(self, v):
        """The internal LabelSet of ``v`` (library use)."""
        try:
            return self._labels[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def labels(self, v):
        """L(v) in id space: [(hub_vertex, dist, count)]."""
        ls = self.label_set(v)
        return [(self._order.vertex(h), d, c) for h, d, c in ls]

    def holders(self, hub_rank):
        """Vertices whose label set contains ``hub_rank`` (read-only set)."""
        return self._holders.get(hub_rank, _NO_HOLDERS)

    def holders_map(self):
        """The internal {hub_rank: set(vertex_id)} reverse map (read-only)."""
        return self._holders

    def query(self, s, t):
        """Return (sd(s, t), spc(s, t)) under edge-weight distances."""
        return _merge(self.label_set(s), self.label_set(t), None)

    def pre_query(self, s, t):
        """Upper-bound (d̄, c̄) via hubs ranked strictly above s."""
        return _merge(self.label_set(s), self.label_set(t), self._order.rank(s))

    def distance(self, s, t):
        """Return the weighted shortest distance sd(s, t)."""
        return self.query(s, t)[0]

    def count(self, s, t):
        """Return spc(s, t)."""
        return self.query(s, t)[1]

    def source_probe(self, s):
        """Return ``probe(t) -> (sd, spc)`` sharing one scan of L(s).

        See :func:`repro.core.labels.counting_probe`; identical under
        weighted distances.
        """
        return counting_probe(self.label_set(s), self.label_set)

    def set_dirty_sink(self, sink):
        """Install (or clear) a dirty-vertex sink (see SPCIndex)."""
        self._dirty = sink
        for ls in self._labels.values():
            ls._sink = sink

    def add_vertex(self, v):
        """Register a new isolated vertex with the lowest rank."""
        r = self._order.append(v)
        ls = LabelSet()
        ls.bind(self._holders, v)
        ls._sink = self._dirty
        ls.set(r, 0, 1)
        self._labels[v] = ls
        return r

    def drop_vertex_labels(self, v):
        """Forget ``v``'s label set and tombstone its rank.

        Stale entries elsewhere that reference ``v`` as hub are purged via
        the reverse hub map — O(|L(v)| + |holders(v)|).
        """
        ls = self._labels.get(v)
        if ls is None:
            raise VertexNotFound(v)
        rv = self._order.rank(v)
        ls.clear()
        for u in list(self._holders.get(rv, _NO_HOLDERS)):
            self._labels[u].remove(rv)
        del self._labels[v]
        self._order.remove(v)

    @property
    def num_entries(self):
        """Total label entries."""
        return sum(len(ls) for ls in self._labels.values())

    @property
    def size_bytes(self):
        """Size under the paper's 8-bytes-per-entry rule."""
        return self.num_entries * ENTRY_BYTES

    def to_dict(self):
        """Return a JSON-serializable snapshot (tombstones become null)."""
        return {
            "order": self._order.as_raw_list(),
            "labels": {
                str(v): [[h, d, c] for h, d, c in ls]
                for v, ls in self._labels.items()
            },
        }

    @classmethod
    def from_dict(cls, payload, vertex_type=int):
        """Rebuild an index from :meth:`to_dict` output."""
        index = cls(VertexOrder(payload["order"]), with_self_labels=False)
        for key, entries in payload["labels"].items():
            ls = index.label_set(vertex_type(key))
            for h, d, c in entries:
                ls.set(h, d, c)
        return index

    def copy(self):
        """Return an independent deep copy (reverse hub map rebuilt)."""
        clone = WeightedSPCIndex(
            VertexOrder(self._order.as_raw_list()), with_self_labels=False
        )
        for v, ls in self._labels.items():
            dup = ls.copy()
            dup.bind(clone._holders, v)
            clone._labels[v] = dup
        return clone

    def frozen(self, prev, dirty):
        """Return a read-only, copy-on-write view for publishing (see
        :meth:`repro.core.index.SPCIndex.frozen`)."""
        view = WeightedSPCIndex.__new__(WeightedSPCIndex)
        view._order = self._order.copy()
        view._labels = frozen_labels(prev and prev._labels, self._labels,
                                     dirty, LabelSet.copy)
        view._holders = None
        view._dirty = None
        return view

    def __repr__(self):
        return f"WeightedSPCIndex(n={len(self._labels)}, entries={self.num_entries})"


def _merge(ls, lt, stop_rank):
    hubs_s, dists_s, counts_s = ls.hubs, ls.dists, ls.counts
    hubs_t, dists_t, counts_t = lt.hubs, lt.dists, lt.counts
    i, j = 0, 0
    len_s, len_t = len(hubs_s), len(hubs_t)
    best = INF
    count = 0
    while i < len_s and j < len_t:
        hs = hubs_s[i]
        ht = hubs_t[j]
        if hs == ht:
            if stop_rank is not None and hs >= stop_rank:
                break
            d = dists_s[i] + dists_t[j]
            if d < best:
                best = d
                count = counts_s[i] * counts_t[j]
            elif d == best:
                count += counts_s[i] * counts_t[j]
            i += 1
            j += 1
        elif hs < ht:
            i += 1
        else:
            j += 1
    return best, count
