"""Shard: one hub slice of the index, kept fresh by tailing the journal.

A :class:`Shard` is a *materialized view*, not an engine: it holds no
graph and runs no maintenance algorithm (the paper's pruning rules need
the whole index — a slice would under-prune and corrupt counts; see
DESIGN.md §13).  Its state is a :class:`ShardStore` mapping every vertex
to the label entries whose hub falls in this shard's slice, bootstrapped
by filtering the primary's checkpoint
(:func:`repro.serve.persist.checkpoint_label_slice`) and advanced by
the shared :class:`~repro.serve.follower.StreamFollower` loop tailing
the primary's label-delta journal.

For reads the applier *publishes* an immutable view (a shallow copy of
the store — entry lists are shared structurally, so a view costs O(V)
references, not a label copy) per applied journal record into a bounded
seq-indexed ring.  Rings are what make cross-shard consistency cheap:
because every shard publishes at every journal seq, the router can pick
one seq and read each shard's view *at exactly that seq* — a consistent
cut — instead of coordinating the appliers.
"""

import threading
from collections import OrderedDict

from repro.engine import get_backend
from repro.exceptions import ShardError, VertexNotFound
from repro.serve.follower import StreamFollower
from repro.serve.persist import checkpoint_label_slice, filter_label_payload
from repro.serve.service import JOURNAL_FILENAME
from repro.shard.journal import OP_LABEL, OP_NOP, OP_RESET, decode_label_op

INF = float("inf")

#: nominal bytes per label entry — the accounting unit bench reports use
#: to turn entry counts into comparable "index memory" figures.
ENTRY_BYTES = 8


def partial_answer(s_entries, t_entries, counts=True):
    """Two-pointer merge of two hub-sliced label entry lists.

    Exactly the full index's query merge (entries are sorted by hub
    rank), restricted to whatever hubs survived this shard's filter: the
    minimal ``d(s,h) + d(h,t)`` over the slice's common hubs, with path
    counts multiplied per hub and summed over minimal-distance hubs.
    Returns the partial ``(dist, count)`` — ``(inf, 0)`` when the slice
    contributes nothing, ``(dist, None)`` for distance-only families —
    ready for :func:`repro.audit.merge_partial_answers`.
    """
    best = INF
    total = 0
    i = j = 0
    ns, nt = len(s_entries), len(t_entries)
    while i < ns and j < nt:
        es = s_entries[i]
        et = t_entries[j]
        hs, ht = es[0], et[0]
        if hs < ht:
            i += 1
        elif ht < hs:
            j += 1
        else:
            d = es[1] + et[1]
            if counts:
                if d < best:
                    best = d
                    total = es[2] * et[2]
                elif d == best:
                    total += es[2] * et[2]
            elif d < best:
                best = d
            i += 1
            j += 1
    if not counts:
        return (best, None)
    return (best, total if best != INF else 0)


class ShardStore:
    """{vertex: hub-sliced label payload} with entry accounting.

    Every vertex the primary knows is present — an empty slice still
    records *existence*, which is how shards distinguish "no in-range
    labels" from "unknown vertex" (and how the router keeps
    :class:`~repro.exceptions.VertexNotFound` parity with an engine).
    ``num_entries`` / ``peak_entries`` count label entries in the slice;
    the bench's 1/K memory criterion reads them.
    """

    __slots__ = ("directed", "_labels", "num_entries", "peak_entries")

    def __init__(self, directed=False):
        self.directed = directed
        self._labels = {}
        self.num_entries = 0
        self.peak_entries = 0

    def _size(self, lp):
        if self.directed:
            return len(lp["in"]) + len(lp["out"])
        return len(lp)

    def put(self, v, lp):
        old = self._labels.get(v)
        if old is not None:
            self.num_entries -= self._size(old)
        self._labels[v] = lp
        self.num_entries += self._size(lp)
        if self.num_entries > self.peak_entries:
            self.peak_entries = self.num_entries

    def drop(self, v):
        old = self._labels.pop(v, None)
        if old is not None:
            self.num_entries -= self._size(old)

    def reset(self, items):
        self._labels = {}
        self.num_entries = 0
        for v, lp in items:
            self._labels[v] = lp
            self.num_entries += self._size(lp)
        if self.num_entries > self.peak_entries:
            self.peak_entries = self.num_entries

    def view(self):
        """A read-consistent shallow copy (entry lists shared)."""
        return dict(self._labels)

    def __len__(self):
        return len(self._labels)

    def __contains__(self, v):
        return v in self._labels

    def __repr__(self):
        return (
            f"ShardStore(vertices={len(self._labels)}, "
            f"entries={self.num_entries}, peak={self.peak_entries})"
        )


class Shard(StreamFollower):
    """One hub slice of the primary's index, following its label journal.

    Parameters
    ----------
    primary_dir:
        The primary's ``durability_dir`` — checkpoint, WAL and the label
        journal (``labels.jsonl``) all live there.
    shard_id:
        This shard's slot in the partitioner.
    partitioner:
        A :class:`~repro.shard.HubPartitioner`; this shard keeps hubs
        with ``partitioner.shard_of(h) == shard_id``.
    ring_size:
        How many recent per-seq views to retain for consistent cuts.
    stall_budget:
        Consecutive no-progress re-bootstraps before the applier dies
        (``None`` uses :attr:`MAX_STALLED_BOOTSTRAPS`); the chaos harness
        shortens it so a corrupted journal is declared dead quickly.
    """

    error_type = ShardError

    def __init__(self, primary_dir, shard_id, partitioner, name=None,
                 poll_interval=0.002, ring_size=64, stall_budget=None):
        self.shard_id = shard_id
        self.name = name or f"shard-{shard_id}"
        self._keep = partitioner.keep(shard_id)
        self._ring_size = max(2, ring_size)
        self._views = OrderedDict()   # seq -> published view, oldest first
        self._lock = threading.Lock()
        self._store = None
        super().__init__(
            primary_dir, f"shard {self.name!r}", f"spc-{self.name}",
            poll_interval, stall_budget,
            stream=JOURNAL_FILENAME, decode=decode_label_op,
        )

    # ------------------------------------------------------------------
    # Read path (router threads, lock only for ring lookups)
    # ------------------------------------------------------------------

    def view_at(self, seq):
        """The published view for ``seq``, or ``None`` if not in the ring."""
        with self._lock:
            return self._views.get(seq)

    @property
    def latest_seq(self):
        """Seq of the freshest published view."""
        with self._lock:
            return next(reversed(self._views)) if self._views else 0

    @property
    def min_seq(self):
        """Oldest seq still in the ring (consistent cuts can't go below)."""
        with self._lock:
            return next(iter(self._views)) if self._views else 0

    def partial(self, s, t, view):
        """This slice's partial ``(dist, count)`` for (s, t) on ``view``.

        Vertex-set parity with an engine: every shard holds *every*
        vertex (with a possibly empty slice), so any shard can — and
        must — raise :class:`~repro.exceptions.VertexNotFound` for a
        vertex the primary does not know at this cut.
        """
        try:
            ls = view[s]
        except KeyError:
            raise VertexNotFound(s) from None
        try:
            lt = view[t]
        except KeyError:
            raise VertexNotFound(t) from None
        if self.directed:
            s_entries, t_entries = ls["out"], lt["in"]
        else:
            s_entries, t_entries = ls, lt
        return partial_answer(s_entries, t_entries, counts=self.counts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        """JSON-safe counters (monitoring, bench results)."""
        store = self._store
        with self._lock:
            ring = len(self._views)
        return {
            "name": self.name,
            "shard_id": self.shard_id,
            "backend": self.backend_name,
            "applied_seq": self._applied_seq,
            "vertices": len(store),
            "entries": store.num_entries,
            "peak_entries": store.peak_entries,
            "ring": ring,
            "records_applied": self._records_applied,
            "bootstraps": self._bootstraps,
            "stream_corruptions": self.stream_corruptions,
            "healthy": self.healthy,
        }

    def __repr__(self):
        return (
            f"Shard(name={self.name!r}, backend={self.backend_name!r}, "
            f"applied_seq={self._applied_seq}, "
            f"entries={self._store.num_entries}, healthy={self.healthy})"
        )

    # ------------------------------------------------------------------
    # StreamFollower hooks
    # ------------------------------------------------------------------

    def _load(self, payload):
        """(Re)build the slice from a checkpoint payload."""
        backend_cls = get_backend(payload["backend"])
        self.backend_name = backend_cls.name
        self.directed = backend_cls.directed
        self.counts = backend_cls.counts
        store = ShardStore(directed=backend_cls.directed)
        store.reset(checkpoint_label_slice(payload, self._keep).items())
        if self._store is not None:
            # A re-bootstrap continues the lifetime peak across stores.
            store.peak_entries = max(
                store.peak_entries, self._store.peak_entries
            )
        self._store = store
        seq = payload.get("applied_seq", 0)
        with self._lock:
            self._views.clear()
        self._publish(seq)
        return seq

    def _apply(self, records):
        for seq, ops in records:
            self._apply_ops(ops)
            # One view per seq: the aligned rings are what give the
            # router its consistent cross-shard cuts.
            self._publish(seq)

    def _publish(self, seq):
        view = self._store.view()
        with self._lock:
            self._views[seq] = view
            while len(self._views) > self._ring_size:
                self._views.popitem(last=False)
        self._notify_published()

    def _apply_ops(self, ops):
        store = self._store
        keep = self._keep
        for op in ops:
            kind = op[0]
            if kind == OP_LABEL:
                v, lp = op[1], op[2]
                if lp is None:
                    store.drop(v)
                else:
                    store.put(v, filter_label_payload(lp, keep))
            elif kind == OP_RESET:
                store.reset(
                    (v, filter_label_payload(lp, keep)) for v, lp in op[1]
                )
            elif kind != OP_NOP:  # decode_label_op already screened these
                raise ShardError(f"unknown label-journal op kind {kind!r}")
