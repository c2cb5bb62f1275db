"""Replica: one follower service kept in sync by tailing the primary's WAL.

A :class:`Replica` owns a full :class:`~repro.engine.SPCEngine` of its own
— bootstrapped from the primary's durable checkpoint — and follows the
primary's write-ahead log as a replication stream through the shared
:class:`~repro.serve.follower.StreamFollower` loop: every polled tail is
applied through the engine's logged apply path (one
``begin/end_update_batch`` bracket per tail, so e.g. an SD replica
rebuilds once per tail, not once per record) and a fresh immutable
:class:`~repro.serve.SnapshotView` is published, tagged with the
replica's applied sequence number.  Readers query the replica exactly
like they query the primary service: lock-free, against the current
snapshot.

Bootstrap is warm or cold: if the replica runs the same backend family
as the primary the index is rehydrated (no rebuild); a different family
of the *same graph type* (core ⇄ sd) cold starts by rebuilding its own
index from the checkpointed graph; a different graph family raises
:class:`~repro.exceptions.CheckpointMismatchError`.

A replica never writes: it keeps no WAL and no checkpoint of its own, and
its engine is reached only through published snapshots.
"""

import time

from repro.engine import EngineConfig, SPCEngine, get_backend
from repro.exceptions import CheckpointMismatchError, ClusterError
from repro.serve.follower import StreamFollower
from repro.serve.persist import engine_from_payload, graph_from_payload
from repro.serve.snapshot import SnapshotView


class Replica(StreamFollower):
    """A read-only follower of one primary's durability directory.

    Parameters
    ----------
    primary_dir:
        The primary service's ``durability_dir`` — the checkpoint +
        WAL pair that is both the bootstrap source and the replication
        stream.
    name:
        Identifier used by the router and in error messages.
    backend:
        Backend family for this replica's engine; ``None`` follows the
        checkpoint's family (warm bootstrap).  A different family must
        share the checkpoint's graph type.
    poll_interval:
        Seconds the applier sleeps between empty polls of the WAL.
    stall_budget:
        Consecutive no-progress re-bootstraps before the applier dies
        (``None`` uses :attr:`MAX_STALLED_BOOTSTRAPS`).  The chaos
        harness shortens it so a corrupted stream is declared dead — and
        the supervisor's repair kicks in — within the fault window.
    """

    error_type = ClusterError

    def __init__(self, primary_dir, name="replica", backend=None,
                 poll_interval=0.002, stall_budget=None):
        self.name = name
        self.backend_override = backend
        self._snapshot = None
        self._honest_snapshot = None
        self._snapshot_wrapper = None
        self._engine = None
        super().__init__(
            primary_dir, f"replica {name!r}", f"spc-replica-{name}",
            poll_interval, stall_budget,
        )

    # ------------------------------------------------------------------
    # Read path (any thread, lock-free — same contract as SPCService)
    # ------------------------------------------------------------------

    def snapshot(self):
        """The current :class:`SnapshotView` (pin it for a consistent batch)."""
        return self._snapshot

    def set_snapshot_wrapper(self, wrapper):
        """Install (or clear, with ``None``) a publication wrapper.

        ``wrapper(snapshot)`` receives every :class:`SnapshotView` this
        replica is about to publish and returns what readers will see —
        a fault-injection seam (see :mod:`repro.audit.faults`): wrapping
        the published view in a corrupting proxy simulates a replica whose
        *serving* state was tampered with after an honest bootstrap, while
        the engine, WAL tail and checkpoints stay clean.  The current
        snapshot is re-published immediately so the tamper takes effect
        without waiting for the next applied batch.

        The re-publish re-wraps the last *honest* published view rather
        than rebuilding one from the engine: this method runs on the
        caller's thread, and snapshotting the engine here would race the
        applier mid-batch — a torn view pairing a half-applied index
        with the pre-batch seq.  Worst case the re-publish briefly
        shadows a newer snapshot the applier raced in; that is ordinary
        staleness, repaired at the next applied batch.
        """
        self._snapshot_wrapper = wrapper
        honest = self._honest_snapshot
        self._snapshot = wrapper(honest) if wrapper is not None else honest

    def query(self, s, t):
        """Answer (sd, spc) from the freshest replicated snapshot."""
        return self._snapshot.query(s, t)

    def query_many(self, pairs):
        """Answer a batch of pairs against one single snapshot."""
        return self._snapshot.query_many(pairs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def backend_name(self):
        """The registry name of this replica's backend."""
        return self._engine.backend_name

    def check_invariants(self):
        """Validate the replica engine's structural label invariants."""
        self._engine.check_invariants()
        return True

    def stats(self):
        """A dict snapshot of the replica counters (monitoring only)."""
        snap = self._snapshot
        return {
            "name": self.name,
            "backend": self._engine.backend_name,
            "applied_seq": self._applied_seq,
            "snapshot_seq": snap.seq if snap is not None else None,
            "batches_applied": self._records_applied,
            "bootstraps": self._bootstraps,
            "stream_corruptions": self.stream_corruptions,
            "healthy": self.healthy,
        }

    def __repr__(self):
        return (
            f"Replica(name={self.name!r}, backend={self._engine.backend_name!r}, "
            f"applied_seq={self._applied_seq}, healthy={self.healthy})"
        )

    # ------------------------------------------------------------------
    # StreamFollower hooks
    # ------------------------------------------------------------------

    def _load(self, payload):
        """(Re)build the engine from a checkpoint, warm or cold."""
        ckpt_backend = payload.get("backend")
        want = self.backend_override or ckpt_backend
        if want == ckpt_backend:
            self._engine = engine_from_payload(payload)
        else:
            self._engine = self._cold_bootstrap(payload, want)
        seq = payload.get("applied_seq", 0)
        self._publish(seq)
        return seq

    def _cold_bootstrap(self, payload, want):
        """Build a fresh index of a different family over the checkpointed
        graph — only families sharing the graph type can follow the WAL."""
        want_cls = get_backend(want)
        ckpt_cls = get_backend(payload["backend"])
        if want_cls.graph_type is not ckpt_cls.graph_type:
            raise CheckpointMismatchError(
                f"replica {self.name!r} wants backend {want!r} "
                f"({want_cls.graph_type.__name__}) but the primary "
                f"checkpoint is {payload['backend']!r} "
                f"({ckpt_cls.graph_type.__name__}); a replica can only "
                f"follow a WAL written over the same graph family"
            )
        graph = graph_from_payload(payload["graph"], want_cls.graph_type)
        engine = SPCEngine(graph, config=EngineConfig(backend=want))
        engine.seed_epoch(payload.get("epoch", 0))
        return engine

    def _apply(self, records):
        self._publish(self._engine.apply_logged_batches(records))

    def _publish(self, seq):
        backend = self._engine.backend
        snapshot = SnapshotView(
            backend.snapshot_index(),
            backend.name,
            self._engine.epoch,
            seq,
            time.time(),
        )
        self._honest_snapshot = snapshot
        if self._snapshot_wrapper is not None:
            snapshot = self._snapshot_wrapper(snapshot)
        self._snapshot = snapshot
        self._notify_published()
