"""The SPC-Index: hub labeling for shortest path counting (§2.2).

``SPCIndex`` owns a :class:`~repro.order.VertexOrder` (the total order ≤)
and one :class:`~repro.core.labels.LabelSet` per vertex.  It answers

* :meth:`query` — SpcQUERY (Algorithm 1): scan the common hubs of L(s) and
  L(t); the answer is (sd, spc) where spc sums σ_{h,s}·σ_{h,t} over the
  common hubs minimizing sd(h,s)+sd(h,t);
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

Alongside the forward map (vertex -> L(v)) the index maintains a *reverse
hub map* ``holders``: hub rank -> set of vertices whose label set contains
that hub.  Every :class:`LabelSet` is bound to it on creation, so the
builders and the Inc/Dec maintenance algorithms keep it in sync for free.
The map is what turns "remove hub h from everyone who holds it" — the
§3.2.3 isolated-vertex sweep, DecUPDATE's removal pass, vertex dropping —
from O(n) scans into O(affected) lookups (DESIGN.md §9).
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
    (weighted: :func:`repro.weighted.build_weighted_spc_index`) and
    maintained by IncSPC / DecSPC; direct construction creates an index
    with only self-labels, correct for an edgeless graph.
    """

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

    def label_set(self, v):
        """Return the internal :class:`LabelSet` of ``v`` (library use)."""
        try:
            return self._labels[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def labels(self, v):
        """Return L(v) as [(hub_vertex_id, dist, count)] in rank order.

        This is the public, id-space view matching the paper's Table 2.
        """
        ls = self.label_set(v)
        return [(self._order.vertex(h), d, c) for h, d, c in ls]

    def hubs(self, v):
        """Return the set of hub vertex ids appearing in L(v)."""
        return {self._order.vertex(h) for h in self.label_set(v).hubs}

    # ------------------------------------------------------------------
    # Reverse hub map
    # ------------------------------------------------------------------

    def holders(self, hub_rank):
        """Vertices whose label set contains ``hub_rank`` — O(1) lookup.

        Returns the live internal set (empty frozenset when nobody holds
        the hub): treat it as read-only, and copy before iterating if the
        loop body mutates label sets.
        """
        return self._holders.get(hub_rank, _NO_HOLDERS)

    def holders_map(self):
        """The internal {hub_rank: set(vertex_id)} reverse map (read-only)."""
        return self._holders

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s, t):
        """SpcQUERY(s, t): return (sd(s, t), spc(s, t)).

        Disconnected pairs return (inf, 0); query(v, v) returns (0, 1) via
        the self-label.
        """
        ls = self.label_set(s)
        lt = self.label_set(t)
        return merge_query(ls, lt, stop_rank=None)

    def pre_query(self, s, t):
        """PreQUERY(s, t): like :meth:`query` but hubs ranked at or below s
        are excluded — the upper bound (d̄, c̄) used by DecUPDATE."""
        ls = self.label_set(s)
        lt = self.label_set(t)
        return merge_query(ls, lt, stop_rank=self._order.rank(s))

    def distance(self, s, t):
        """Return sd(s, t) (inf when disconnected)."""
        return self.query(s, t)[0]

    def count(self, s, t):
        """Return spc(s, t) (0 when disconnected)."""
        return self.query(s, t)[1]

    def source_probe(self, s):
        """Return ``probe(t) -> (sd, spc)`` sharing one scan of L(s).

        See :func:`repro.core.labels.counting_probe` — equivalent to
        :meth:`query` for every t, profitable whenever several queries
        share a source.
        """
        return counting_probe(self.label_set(s), self.label_set)

    def set_dirty_sink(self, sink):
        """Install (or clear, with ``None``) a dirty-vertex sink.

        ``sink`` is a set; every subsequent label mutation adds the owning
        vertex to it.  The backend arms it and drains it for the
        copy-on-write publish and the label journal (see
        ``SPCBackend.snapshot_index``); ``copy`` / ``frozen`` /
        ``from_dict`` clones never inherit the sink.
        """
        self._dirty = sink
        for ls in self._labels.values():
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
        ls = LabelSet()
        ls.bind(self._holders, v)
        ls._sink = self._dirty
        ls.set(r, 0, 1)
        self._labels[v] = ls
        return r

    def drop_vertex_labels(self, v):
        """Forget a vertex's label set (used after all its edges are gone).

        The vertex's rank slot is tombstoned, never recycled: ranks must
        stay stable for the labels of other vertices to remain meaningful.
        The same id may later be re-added (it gets a fresh lowest rank).

        Any label entry elsewhere that still references ``v`` as hub (a
        stale Lemma 3.1 leftover) is purged via the reverse hub map, so the
        whole operation costs O(|L(v)| + |holders(v)|), not O(n).
        """
        ls = self._labels.get(v)
        if ls is None:
            raise VertexNotFound(v)
        rv = self._order.rank(v)
        ls.clear()  # unregisters v from every holders(h) it appeared in
        for u in list(self._holders.get(rv, _NO_HOLDERS)):
            self._labels[u].remove(rv)
        del self._labels[v]
        self._order.remove(v)

    # ------------------------------------------------------------------
    # Size accounting (Table 4)
    # ------------------------------------------------------------------

    @property
    def num_entries(self):
        """Total number of label entries across all vertices."""
        return sum(len(ls) for ls in self._labels.values())

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
        """Largest |L(v)| over all vertices."""
        return max((len(ls) for ls in self._labels.values()), default=0)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self):
        """Return a JSON-serializable snapshot of the index.

        Tombstoned rank slots serialize as null so ranks survive roundtrips.
        """
        return {
            "order": self._order.as_raw_list(),
            "labels": {
                str(v): [[h, d, c] for h, d, c in ls]
                for v, ls in self._labels.items()
            },
        }

    @classmethod
    def from_dict(cls, payload, vertex_type=int):
        """Rebuild an index from :meth:`to_dict` output.

        The reverse hub map is derivable from the labels, so it is not
        serialized; the bound ``set`` calls here rebuild it exactly.
        """
        order = VertexOrder(payload["order"])
        index = cls(order, with_self_labels=False)
        for key, entries in payload["labels"].items():
            v = vertex_type(key)
            ls = index.label_set(v)
            for h, d, c in entries:
                ls.set(h, d, c)
        return index

    def copy(self):
        """Return an independent deep copy (order shared structurally).

        Copied label sets are re-bound to the clone's own reverse hub map,
        which ``bind`` repopulates from their hubs.
        """
        clone = SPCIndex(VertexOrder(self._order.as_raw_list()), with_self_labels=False)
        for v, ls in self._labels.items():
            dup = ls.copy()
            dup.bind(clone._holders, v)
            clone._labels[v] = dup
        return clone

    def frozen(self, prev, dirty):
        """Return a read-only view of the current labels for publishing.

        The view answers every query like a :meth:`copy` but carries no
        reverse hub map, so ``holders`` fails on it.  With ``prev`` None it
        copies every label set.  Otherwise ``prev`` is an earlier view of
        this same index: the view shares ``prev``'s label set for every
        vertex outside ``dirty`` and copies only the dirty ones, so the
        caller must pass every vertex dirtied since ``prev`` was taken (see
        :func:`repro.core.labels.frozen_labels`).
        """
        view = SPCIndex.__new__(SPCIndex)
        view._order = self._order.copy()
        view._labels = frozen_labels(prev and prev._labels, self._labels,
                                     dirty, LabelSet.copy)
        view._holders = None
        view._dirty = None
        return view

    def __repr__(self):
        return (
            f"SPCIndex(n={len(self._labels)}, entries={self.num_entries}, "
            f"avg_label={self.average_label_size():.1f})"
        )

