"""Immutable, epoch-tagged views of the index — the reader half of serve.

A :class:`SnapshotView` is what concurrent readers hold: one published
state of the index, pinned forever.  The writer never mutates a
published snapshot, so readers answer ``query`` / ``query_many`` with no
locks at all — the only synchronization in the whole read path is the
single atomic attribute read that fetches the current snapshot from the
service.

Publication is copy-on-write (the backend's ``snapshot_index`` hook,
DESIGN.md §10): a snapshot's index is a frozen vertex -> labels map that
shares every label object unchanged since the previous snapshot and holds
fresh copies only of the vertices the writer dirtied since.  No label
object of a snapshot is ever reachable from the live index, but one
object may belong to many snapshots, so mutating a snapshot's labels
corrupts every snapshot that shares them.

Snapshots carry three coordinates:

* ``epoch`` — the engine's topology-change counter at publication;
* ``seq``   — the WAL sequence number of the last batch the snapshot
  reflects (0 = the initial state), which is what ties a served answer
  back to a replayable prefix of the update log;
* ``published_at`` — wall-clock publication time, for staleness metrics.

Every mutation method of the engine API exists here too — and raises
:class:`~repro.exceptions.ReadOnlyError`.  A snapshot that silently
accepted ``insert_edge`` would fork a stale copy of the index that no
published epoch describes; failing loudly is the contract.
"""

from repro.exceptions import ReadOnlyError

#: engine-API mutation verbs a snapshot must refuse.
_MUTATORS = (
    "insert_edge",
    "delete_edge",
    "set_weight",
    "insert_vertex",
    "delete_vertex",
    "apply",
    "apply_stream",
    "apply_batch",
    "rebuild",
)


def _rejector(name):
    def method(self, *args, **kwargs):
        raise ReadOnlyError(
            f"SnapshotView.{name}: snapshots are immutable — submit "
            f"updates through SPCService.submit so the writer "
            f"applies them and publishes a fresh snapshot"
        )

    method.__name__ = name
    method.__doc__ = f"Rejected: raises ReadOnlyError ({name} mutates)."
    return method


class SnapshotView:
    """One published, immutable state of an SPC index.

    Created by :class:`~repro.serve.SPCService` at publication time; hold
    one (via ``service.snapshot()``) to answer a batch of queries against
    a single consistent epoch, or query the service directly to always
    read the freshest snapshot.
    """

    __slots__ = ("_index", "backend_name", "epoch", "seq", "published_at")

    def __init__(self, index, backend_name, epoch, seq, published_at):
        self._index = index
        self.backend_name = backend_name
        self.epoch = epoch
        self.seq = seq
        self.published_at = published_at

    @property
    def index(self):
        """The pinned frozen index view (read-only by contract).

        Its label objects are shared with earlier and later snapshots, and
        it has no reverse hub map (``holders`` fails on it).
        """
        return self._index

    # ------------------------------------------------------------------
    # Read path — lock-free, cache-free
    # ------------------------------------------------------------------

    def query(self, s, t):
        """Return (sd(s, t), spc(s, t)) as of this snapshot's epoch."""
        return self._index.query(s, t)

    def query_many(self, pairs):
        """Answer a batch of (s, t) pairs against this one epoch.

        Delegates to :func:`repro.engine.engine.batch_answers` — the same
        PSPC-style shared scan as ``SPCEngine.query_many``, minus the
        cache: a snapshot is immutable, so the caller can memoize freely.
        """
        from repro.engine.engine import batch_answers

        return batch_answers(self._index, pairs)

    def distance(self, s, t):
        """Return sd(s, t) as of this snapshot's epoch."""
        return self.query(s, t)[0]

    def count(self, s, t):
        """Return spc(s, t) as of this snapshot's epoch."""
        return self.query(s, t)[1]

    def __repr__(self):
        return (
            f"SnapshotView(backend={self.backend_name!r}, "
            f"epoch={self.epoch}, seq={self.seq})"
        )


for _name in _MUTATORS:
    setattr(SnapshotView, _name, _rejector(_name))
del _name
