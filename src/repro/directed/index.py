"""Directed SPC-Index (Appendix C.1): two label sets per vertex.

``L_in(v)`` holds (h, d, c) triples describing the c shortest paths h → v of
length d on which h is the highest-ranked vertex; ``L_out(v)`` describes the
paths v → h.  A query SPC(s, t) merges L_out(s) against L_in(t): a common
hub h contributes paths s → h → t.
"""

from repro.core.labels import (
    ENTRY_BYTES,
    LabelSet,
    counting_probe,
    frozen_labels,
    merge_query,
)
from repro.exceptions import VertexNotFound
from repro.order import VertexOrder

_NO_HOLDERS = frozenset()


class DirectedSPCIndex:
    """Hub labeling for shortest-path counting on directed graphs.

    Maintains one reverse hub map per label family: ``in_holders(h)`` lists
    the vertices with h in L_in, ``out_holders(h)`` those with h in L_out
    (DESIGN.md §9).
    """

    __slots__ = ("_order", "_lin", "_lout", "_in_holders", "_out_holders",
                 "_dirty")

    def __init__(self, order, with_self_labels=True):
        if not isinstance(order, VertexOrder):
            order = VertexOrder(order)
        self._order = order
        self._lin = {}
        self._lout = {}
        self._in_holders = {}
        self._out_holders = {}
        self._dirty = None
        rank = order.rank_map()
        for v in order:
            lin, lout = LabelSet(), LabelSet()
            lin.bind(self._in_holders, v)
            lout.bind(self._out_holders, v)
            if with_self_labels:
                lin.set(rank[v], 0, 1)
                lout.set(rank[v], 0, 1)
            self._lin[v] = lin
            self._lout[v] = lout

    @property
    def order(self):
        """The total order ≤ the index was built under."""
        return self._order

    def rank(self, v):
        """Rank number of vertex ``v`` (0 = highest)."""
        return self._order.rank(v)

    def __contains__(self, v):
        return v in self._lin

    def vertices(self):
        """Iterate over all indexed vertex ids."""
        return iter(self._lin)

    # ------------------------------------------------------------------
    # Label access
    # ------------------------------------------------------------------

    def in_label_set(self, v):
        """The internal L_in(v) (library use)."""
        try:
            return self._lin[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def out_label_set(self, v):
        """The internal L_out(v) (library use)."""
        try:
            return self._lout[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def in_labels(self, v):
        """L_in(v) in id space: [(hub_vertex, dist, count)]."""
        return [(self._order.vertex(h), d, c) for h, d, c in self.in_label_set(v)]

    def out_labels(self, v):
        """L_out(v) in id space: [(hub_vertex, dist, count)]."""
        return [(self._order.vertex(h), d, c) for h, d, c in self.out_label_set(v)]

    def in_holders(self, hub_rank):
        """Vertices with ``hub_rank`` in their L_in (read-only set)."""
        return self._in_holders.get(hub_rank, _NO_HOLDERS)

    def out_holders(self, hub_rank):
        """Vertices with ``hub_rank`` in their L_out (read-only set)."""
        return self._out_holders.get(hub_rank, _NO_HOLDERS)

    def in_holders_map(self):
        """The internal L_in reverse map {hub_rank: set(vertex)} (read-only)."""
        return self._in_holders

    def out_holders_map(self):
        """The internal L_out reverse map {hub_rank: set(vertex)} (read-only)."""
        return self._out_holders

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s, t):
        """Return (sd(s→t), spc(s→t)); (inf, 0) when t is unreachable."""
        return merge_query(self.out_label_set(s), self.in_label_set(t), None)

    def pre_query_forward(self, h, v):
        """Upper-bound (d̄, c̄) for h → v via hubs ranked strictly above h."""
        return merge_query(self.out_label_set(h), self.in_label_set(v),
                           self._order.rank(h))

    def distance(self, s, t):
        """Return sd(s→t)."""
        return self.query(s, t)[0]

    def count(self, s, t):
        """Return spc(s→t)."""
        return self.query(s, t)[1]

    def source_probe(self, s):
        """Return ``probe(t) -> (sd(s→t), spc(s→t))`` sharing one L_out(s) scan.

        Directed twin of :func:`repro.core.labels.counting_probe`: the
        source dict comes from L_out(s) and each probe scans L_in(t), up
        to the largest hub rank in L_out(s).
        """
        return counting_probe(self.out_label_set(s), self.in_label_set)

    def set_dirty_sink(self, sink):
        """Install (or clear) a dirty-vertex sink over both label families."""
        self._dirty = sink
        for ls in self._lin.values():
            ls._sink = sink
        for ls in self._lout.values():
            ls._sink = sink

    # ------------------------------------------------------------------
    # Dynamic-maintenance support / accounting
    # ------------------------------------------------------------------

    def add_vertex(self, v):
        """Register a new isolated vertex with the lowest rank."""
        r = self._order.append(v)
        lin, lout = LabelSet(), LabelSet()
        lin.bind(self._in_holders, v)
        lout.bind(self._out_holders, v)
        lin._sink = self._dirty
        lout._sink = self._dirty
        lin.set(r, 0, 1)
        lout.set(r, 0, 1)
        self._lin[v] = lin
        self._lout[v] = lout
        return r

    def drop_vertex_labels(self, v):
        """Forget both label sets of ``v`` and tombstone its rank.

        Stale entries referencing ``v`` as hub in either label family are
        purged via the reverse hub maps — O(labels of v + holders of v).
        """
        lin = self._lin.get(v)
        if lin is None:
            raise VertexNotFound(v)
        rv = self._order.rank(v)
        lin.clear()
        self._lout[v].clear()
        for u in list(self._in_holders.get(rv, _NO_HOLDERS)):
            self._lin[u].remove(rv)
        for u in list(self._out_holders.get(rv, _NO_HOLDERS)):
            self._lout[u].remove(rv)
        del self._lin[v]
        del self._lout[v]
        self._order.remove(v)

    @property
    def num_entries(self):
        """Total entries across all L_in and L_out sets."""
        return sum(len(ls) for ls in self._lin.values()) + sum(
            len(ls) for ls in self._lout.values()
        )

    @property
    def size_bytes(self):
        """Size under the paper's 8-bytes-per-entry rule."""
        return self.num_entries * ENTRY_BYTES

    def to_dict(self):
        """Return a JSON-serializable snapshot (tombstones become null)."""
        return {
            "order": self._order.as_raw_list(),
            "in_labels": {
                str(v): [[h, d, c] for h, d, c in ls]
                for v, ls in self._lin.items()
            },
            "out_labels": {
                str(v): [[h, d, c] for h, d, c in ls]
                for v, ls in self._lout.items()
            },
        }

    @classmethod
    def from_dict(cls, payload, vertex_type=int):
        """Rebuild an index from :meth:`to_dict` output."""
        index = cls(VertexOrder(payload["order"]), with_self_labels=False)
        for key, entries in payload["in_labels"].items():
            ls = index.in_label_set(vertex_type(key))
            for h, d, c in entries:
                ls.set(h, d, c)
        for key, entries in payload["out_labels"].items():
            ls = index.out_label_set(vertex_type(key))
            for h, d, c in entries:
                ls.set(h, d, c)
        return index

    def copy(self):
        """Return an independent deep copy (reverse hub maps rebuilt)."""
        clone = DirectedSPCIndex(
            VertexOrder(self._order.as_raw_list()), with_self_labels=False
        )
        for v, ls in self._lin.items():
            dup = ls.copy()
            dup.bind(clone._in_holders, v)
            clone._lin[v] = dup
        for v, ls in self._lout.items():
            dup = ls.copy()
            dup.bind(clone._out_holders, v)
            clone._lout[v] = dup
        return clone

    def frozen(self, prev, dirty):
        """Return a read-only, copy-on-write view for publishing.

        Like :meth:`repro.core.index.SPCIndex.frozen`, over L_in and L_out
        together: one dirty vertex re-copies both of its label sets.
        """
        view = DirectedSPCIndex.__new__(DirectedSPCIndex)
        view._order = self._order.copy()
        view._lin = frozen_labels(prev and prev._lin, self._lin, dirty,
                                  LabelSet.copy)
        view._lout = frozen_labels(prev and prev._lout, self._lout, dirty,
                                   LabelSet.copy)
        view._in_holders = view._out_holders = None
        view._dirty = None
        return view

    def __repr__(self):
        return f"DirectedSPCIndex(n={len(self._lin)}, entries={self.num_entries})"

