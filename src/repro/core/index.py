"""The SPC-Index: hub labeling for shortest path counting (§2.2).

``SPCIndex`` owns a :class:`~repro.order.VertexOrder` (the total order ≤)
and the label sets of every vertex, on one *side* or two:

* an undirected or weighted index has one side: a single
  :class:`~repro.core.labels.LabelSet` L(v) per vertex, read as both L_in
  and L_out;
* a directed index (:class:`DirectedSPCIndex`, Appendix C.1) has two:
  ``L_in(v)`` holds (h, d, c) triples describing the c shortest paths
  h → v of length d on which h is the highest-ranked vertex, ``L_out(v)``
  the paths v → h.

Every method is written once over the sides, so the label shape is this
module's one decision.  The index answers

* :meth:`query` — SpcQUERY (Algorithm 1): scan the common hubs of L_out(s)
  and L_in(t); the answer is (sd, spc) where spc sums σ_{h,s}·σ_{h,t}
  over the common hubs minimizing sd(s,h)+sd(h,t);
* :meth:`pre_query` — PreQUERY (§3.2.2): same, but only hubs ranked
  *strictly higher* than s participate, yielding an upper bound used as the
  pruning test in DecUPDATE;
* :meth:`distance` / :meth:`count` — conveniences over :meth:`query`.

The index never touches the graph at query time; that is the point of 2-hop
labeling and what the benchmarks in Figure 7(c) measure.

The weighted backend keeps its labels in this same class: "for weighted
graphs, the labels store the sum of weights along the shortest paths
instead of the number of hops" (Appendix C.2), and a :class:`LabelSet`
holds int or float distances alike.

Alongside each side's forward map (vertex -> label set) the index
maintains a *reverse hub map* ``holders``: hub rank -> set of vertices
whose label set on that side contains that hub.  Every :class:`LabelSet`
is bound to its side's map on creation, so the builder and the Inc/Dec
maintenance algorithms keep it in sync for free.  The map is what turns
"remove hub h from everyone who holds it" — the §3.2.3 isolated-vertex
sweep, DecUPDATE's removal pass, vertex dropping — from O(n) scans into
O(affected) lookups (DESIGN.md §9).
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


class SPCIndex:
    """Hub-labeling index answering shortest-path counting queries.

    Instances are normally produced by :func:`repro.core.builder.build_spc_index`
    and maintained by IncSPC / DecSPC; direct construction creates an index
    with only self-labels, correct for an edgeless graph.

    One side: ``in_label_set`` and ``out_label_set`` both read L, and
    ``in_holders`` / ``out_holders`` the one reverse hub map.
    """

    __slots__ = ("_order", "_labels", "_holders", "_out_labels",
                 "_out_holders", "_dirty")

    #: Whether L_out is a second label family (:class:`DirectedSPCIndex`).
    two_sided = False

    def __init__(self, order, with_self_labels=True):
        if not isinstance(order, VertexOrder):
            order = VertexOrder(order)
        self._order = order
        self._dirty = None
        self._set_sides({}, {}, {}, {})
        rank = order.rank_map()
        for v in order:
            self._new_label_sets(v, rank[v] if with_self_labels else None)

    def _set_sides(self, labels, holders, out_labels, out_holders):
        """Install the sides' maps; a one-sided index drops the out pair."""
        self._labels, self._holders = labels, holders
        if self.two_sided:
            self._out_labels, self._out_holders = out_labels, out_holders
        else:
            self._out_labels, self._out_holders = labels, holders

    def _new_label_sets(self, v, self_rank):
        """Give ``v`` a fresh label set on every side, bound to its map."""
        for labels, holders in self.sides():
            ls = LabelSet()
            ls.bind(holders, v)
            ls._sink = self._dirty
            if self_rank is not None:
                ls.set(self_rank, 0, 1)
            labels[v] = ls

    def sides(self):
        """The label sides as ``(labels, holders)`` pairs: one, or L_in then L_out.

        ``labels`` maps each vertex to its :class:`LabelSet` and ``holders``
        is that side's reverse hub map (None on a :meth:`frozen` view).
        Both are the live internal dicts: read-only.
        """
        if self.two_sided:
            return ((self._labels, self._holders),
                    (self._out_labels, self._out_holders))
        return ((self._labels, self._holders),)

    # ------------------------------------------------------------------
    # Order / rank access
    # ------------------------------------------------------------------

    @property
    def order(self):
        """The total order ≤ the index was built under."""
        return self._order

    def rank(self, v):
        """Rank number of vertex ``v`` (0 = highest rank)."""
        return self._order.rank(v)

    def vertex_of_rank(self, r):
        """Vertex id holding rank number ``r``."""
        return self._order.vertex(r)

    def __contains__(self, v):
        return v in self._labels

    def vertices(self):
        """Iterate over all indexed vertex ids."""
        return iter(self._labels)

    # ------------------------------------------------------------------
    # Label access
    # ------------------------------------------------------------------

    def in_label_set(self, v):
        """Return the internal :class:`LabelSet` L_in(v) (library use)."""
        try:
            return self._labels[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def out_label_set(self, v):
        """Return the internal :class:`LabelSet` L_out(v) (library use)."""
        try:
            return self._out_labels[v]
        except KeyError:
            raise VertexNotFound(v) from None

    #: L(v) of a one-sided index.
    label_set = in_label_set

    def in_labels(self, v):
        """Return L_in(v) as [(hub_vertex_id, dist, count)] in rank order.

        This is the public, id-space view matching the paper's Table 2.
        """
        return [(self._order.vertex(h), d, c) for h, d, c in self.in_label_set(v)]

    def out_labels(self, v):
        """Return L_out(v) as [(hub_vertex_id, dist, count)] in rank order."""
        return [(self._order.vertex(h), d, c) for h, d, c in self.out_label_set(v)]

    labels = in_labels

    def hubs(self, v):
        """Return the set of hub vertex ids appearing in L_in(v)."""
        return {self._order.vertex(h) for h in self.in_label_set(v).hubs}

    # ------------------------------------------------------------------
    # Reverse hub maps
    # ------------------------------------------------------------------

    def in_holders(self, hub_rank):
        """Vertices whose L_in contains ``hub_rank`` — O(1) lookup.

        Returns the live internal set (empty frozenset when nobody holds
        the hub): treat it as read-only, and copy before iterating if the
        loop body mutates label sets.
        """
        return self._holders.get(hub_rank, _NO_HOLDERS)

    def out_holders(self, hub_rank):
        """Vertices whose L_out contains ``hub_rank`` (read-only set)."""
        return self._out_holders.get(hub_rank, _NO_HOLDERS)

    holders = in_holders

    def in_holders_map(self):
        """The internal L_in reverse map {hub_rank: set(vertex_id)} (read-only)."""
        return self._holders

    def out_holders_map(self):
        """The internal L_out reverse map {hub_rank: set(vertex_id)} (read-only)."""
        return self._out_holders

    holders_map = in_holders_map

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s, t):
        """SpcQUERY(s, t): return (sd(s→t), spc(s→t)) from L_out(s) × L_in(t).

        Disconnected pairs return (inf, 0); query(v, v) returns (0, 1) via
        the self-label.
        """
        return merge_query(self.out_label_set(s), self.in_label_set(t), None)

    def pre_query(self, s, t):
        """PreQUERY(s, t): like :meth:`query` but hubs ranked at or below s
        are excluded — the upper bound (d̄, c̄) used by DecUPDATE."""
        return merge_query(self.out_label_set(s), self.in_label_set(t),
                           self._order.rank(s))

    def distance(self, s, t):
        """Return sd(s→t) (inf when disconnected)."""
        return self.query(s, t)[0]

    def count(self, s, t):
        """Return spc(s→t) (0 when disconnected)."""
        return self.query(s, t)[1]

    def source_probe(self, s):
        """Return ``probe(t) -> (sd, spc)`` sharing one scan of L_out(s).

        See :func:`repro.core.labels.counting_probe` — equivalent to
        :meth:`query` for every t, profitable whenever several queries
        share a source.
        """
        return counting_probe(self.out_label_set(s), self.in_label_set)

    def set_dirty_sink(self, sink):
        """Install (or clear, with ``None``) a dirty-vertex sink.

        ``sink`` is a set; every subsequent label mutation, on either side,
        adds the owning vertex to it.  The backend arms it and drains it for
        the copy-on-write publish and the label journal (see
        ``SPCBackend.snapshot_index``); ``copy`` / ``frozen`` /
        ``from_dict`` clones never inherit the sink.
        """
        self._dirty = sink
        for labels, _ in self.sides():
            for ls in labels.values():
                ls._sink = sink

    # ------------------------------------------------------------------
    # Dynamic-maintenance support
    # ------------------------------------------------------------------

    def add_vertex(self, v):
        """Register a new (isolated) vertex with the lowest rank.

        Matches §3: "for a newly-added isolated vertex v, we only need to
        add an empty label set L(v)" — plus the conventional self-label so
        query(v, v) answers (0, 1).
        """
        r = self._order.append(v)
        self._new_label_sets(v, r)
        return r

    def drop_vertex_labels(self, v):
        """Forget a vertex's label sets (used after all its edges are gone).

        The vertex's rank slot is tombstoned, never recycled: ranks must
        stay stable for the labels of other vertices to remain meaningful.
        The same id may later be re-added (it gets a fresh lowest rank).

        Any label entry elsewhere that still references ``v`` as hub (a
        stale Lemma 3.1 leftover) is purged via each side's reverse hub
        map, so the whole operation costs O(|L(v)| + |holders(v)|), not O(n).
        """
        if v not in self._labels:
            raise VertexNotFound(v)
        rv = self._order.rank(v)
        for labels, holders in self.sides():
            labels[v].clear()  # unregisters v from every holders(h) it appeared in
            for u in list(holders.get(rv, _NO_HOLDERS)):
                labels[u].remove(rv)
            del labels[v]
        self._order.remove(v)

    # ------------------------------------------------------------------
    # Size accounting (Table 4)
    # ------------------------------------------------------------------

    @property
    def num_entries(self):
        """Total number of label entries across all vertices and sides."""
        return sum(len(ls) for labels, _ in self.sides()
                   for ls in labels.values())

    @property
    def size_bytes(self):
        """Index size under the paper's 8-bytes-per-entry encoding."""
        return self.num_entries * ENTRY_BYTES

    def average_label_size(self):
        """Average |L(v)| — the paper's parameter l."""
        if not self._labels:
            return 0.0
        return self.num_entries / len(self._labels)

    def max_label_size(self):
        """Largest label set over all vertices and sides."""
        return max((len(ls) for labels, _ in self.sides()
                    for ls in labels.values()), default=0)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _payload_keys(self):
        return ("in_labels", "out_labels") if self.two_sided else ("labels",)

    def to_dict(self):
        """Return a JSON-serializable snapshot of the index.

        One side serializes as ``labels``, two as ``in_labels`` and
        ``out_labels``.  Tombstoned rank slots serialize as null so ranks
        survive roundtrips.
        """
        payload = {"order": self._order.as_raw_list()}
        for key, (labels, _) in zip(self._payload_keys(), self.sides()):
            payload[key] = {
                str(v): [[h, d, c] for h, d, c in ls]
                for v, ls in labels.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload, vertex_type=int):
        """Rebuild an index from :meth:`to_dict` output.

        The reverse hub maps are derivable from the labels, so they are not
        serialized; the bound ``set`` calls here rebuild them exactly.
        """
        index = cls(VertexOrder(payload["order"]), with_self_labels=False)
        label_of = (index.in_label_set, index.out_label_set)
        for key, side_of in zip(index._payload_keys(), label_of):
            for v, entries in payload[key].items():
                ls = side_of(vertex_type(v))
                for h, d, c in entries:
                    ls.set(h, d, c)
        return index

    def copy(self):
        """Return an independent deep copy (order shared structurally).

        Copied label sets are re-bound to the clone's own reverse hub maps,
        which ``bind`` repopulates from their hubs.
        """
        clone = type(self)(VertexOrder(self._order.as_raw_list()),
                           with_self_labels=False)
        for (labels, _), (dups, holders) in zip(self.sides(), clone.sides()):
            for v, ls in labels.items():
                dup = ls.copy()
                dup.bind(holders, v)
                dups[v] = dup
        return clone

    def frozen(self, prev, dirty):
        """Return a read-only view of the current labels for publishing.

        The view answers every query like a :meth:`copy` but carries no
        reverse hub map, so ``holders`` fails on it.  With ``prev`` None it
        copies every label set.  Otherwise ``prev`` is an earlier view of
        this same index: the view shares ``prev``'s label set for every
        vertex outside ``dirty`` and copies only the dirty ones — on a
        directed index both of a dirty vertex's sets — so the caller must
        pass every vertex dirtied since ``prev`` was taken (see
        :func:`repro.core.labels.frozen_labels`).
        """
        view = type(self).__new__(type(self))
        view._order = self._order.copy()
        view._dirty = None
        before = prev.sides() if prev is not None else ((None, None),) * 2
        copies = [frozen_labels(old, labels, dirty, LabelSet.copy)
                  for (labels, _), (old, _) in zip(self.sides(), before)]
        view._set_sides(copies[0], None, copies[-1], None)
        return view

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={len(self._labels)}, "
            f"entries={self.num_entries}, "
            f"avg_label={self.average_label_size():.1f})"
        )


class DirectedSPCIndex(SPCIndex):
    """The SPC-Index of a directed graph (Appendix C.1): L_in and L_out.

    A query SPC(s, t) merges L_out(s) against L_in(t): a common hub h
    contributes paths s → h → t.  Each side keeps its own reverse hub map:
    ``in_holders(h)`` lists the vertices with h in L_in, ``out_holders(h)``
    those with h in L_out (DESIGN.md §9).
    """

    __slots__ = ()

    two_sided = True
