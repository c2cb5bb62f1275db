"""SPCService: snapshot-isolated concurrent serving over one SPCEngine.

The engine itself is single-threaded by design; this module is the
reader/writer split the ROADMAP calls for.  One *writer role*, a mutex,
owns the engine exclusively: whoever holds it applies a batch net-effect
(reusing the engine's coalescing and the backend's batch hooks, so e.g.
SD delete storms rebuild once per batch), appends the applied updates to
the write-ahead log, and — under a publish policy — copies the index into
a fresh immutable :class:`~repro.serve.snapshot.SnapshotView` and
publishes it with a single attribute store.  Any number of reader threads
answer queries against the current snapshot with no locks: the GIL makes
the snapshot-pointer read atomic, and a published snapshot is never
mutated.

Apply on idle: a submission that finds nothing pending (every earlier
queue item fully handled) and the role free takes the role itself and
applies and publishes on the submitting thread before returning.
Otherwise it is queued, and the writer thread, which takes the same role
around each queue item, drains the queue into batches.  Either way there
is one apply/publish path (``_handle``), and submissions are applied in
the order they were made.

Publish policy: the writer publishes whenever its queue drains — it
never leaves the role with applied-but-unpublished updates and nothing
pending, so an idle writer makes each write visible right after its
apply.  A busy writer, whose queue never empties, is bounded by
:class:`ServeConfig`: between batches it publishes once ``publish_every``
updates have been applied since the last snapshot, or once
``max_staleness`` seconds have passed since the first update after it
was dequeued, whichever comes first (one long batch overruns the latter;
see :class:`ServeConfig`).  A publish is a copy-on-write of the dirty label
sets only, so publishing on idle costs little and buys freshness.

Durability: with ``durability_dir`` set, the service keeps a checkpoint
file (``snapshot.json``) plus a WAL (``wal.jsonl``) in that directory;
:func:`restore` warm-restarts by loading the checkpoint and replaying the
WAL tail — no index rebuild, identical answers, for every backend family.
"""

import dataclasses
import os
import queue
import threading
import time
from dataclasses import dataclass

from repro.core.batch import coalesce_if_edge_batch
from repro.exceptions import CheckpointMismatchError, ServeError
from repro.serve.persist import (
    engine_from_payload,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.snapshot import SnapshotView
from repro.serve.wal import WriteAheadLog, is_loggable, read_wal

#: filenames inside a durability directory.
SNAPSHOT_FILENAME = "snapshot.json"
WAL_FILENAME = "wal.jsonl"
#: the label-delta journal (written only under ServeConfig.label_journal) —
#: the replication stream hub-partitioned shards tail (repro.shard).
JOURNAL_FILENAME = "labels.jsonl"


@dataclass(frozen=True)
class ServeConfig:
    """All tunables of an :class:`SPCService`.

    Parameters
    ----------
    publish_every:
        A busy writer (its queue never drains) publishes once this many
        updates have been applied since the last snapshot.
    max_staleness:
        A busy writer also publishes once this many seconds have passed
        since the first update applied after the last snapshot was
        dequeued.  The check runs only between batches, so one long
        drained batch (up to ``drain_max`` updates) still overruns the
        bound by its own apply time; no batch, though, ends dirty past it
        without publishing.  An idle writer waits on neither rule: it
        publishes as soon as its queue drains.
    drain_max:
        Upper bound on updates drained into one applied batch — caps both
        coalescing latency and the size of a WAL record.
    queue_capacity:
        Bound on queued *submissions* (a ``submit`` counts one slot, a
        whole ``submit_many`` batch also counts one — the batch is kept
        whole so its churn coalesces deterministically); ``0`` means
        unbounded.  A full queue makes ``submit`` block (backpressure),
        never drop, so the bound throttles submitters that issue many
        small submissions, not the size of individual batches.
    durability_dir:
        Directory for the checkpoint + WAL pair; ``None`` disables
        persistence entirely.
    wal_fsync:
        fsync the WAL after every appended batch.  Off by default: the
        load generator measures serving throughput, and per-batch fsync
        is a durability experiment, not a serving one.
    auto_checkpoint_every_k_batches:
        Automatic WAL compaction, count half: after this many applied
        batches since the last durable checkpoint, the writer role
        writes a fresh checkpoint and truncates the WAL it subsumed
        (``checkpoint(truncate_wal=True)`` semantics, inline on the
        writer).  ``0`` disables; requires a ``durability_dir``.  Bounds
        restore time for long-running services; replicas tailing the WAL
        survive the truncation by re-bootstrapping from the new
        checkpoint (see :class:`~repro.serve.wal.WalTailer`).
    wal_max_bytes:
        Automatic WAL compaction, size half: compact as above once the
        WAL exceeds this many bytes.  ``0`` disables; requires a
        ``durability_dir``.  Either trigger alone suffices.
    label_journal:
        Additionally journal per-batch *label deltas* to ``labels.jsonl``
        alongside the WAL: after each applied batch the writer records the
        post-batch label state of every vertex whose labels changed (via
        the index's dirty-vertex sink), or a full-dump reset record when
        the index object was replaced (a rebuild).  Hub-partitioned shards
        (:mod:`repro.shard`) tail this journal and materialize only their
        hub-range slice — the paper's maintenance algorithms need the full
        index for their pruning probes, so slices are replicated as
        materialized views instead of maintained locally (DESIGN.md §13).
        Requires a ``durability_dir``; compaction truncates the journal in
        lockstep with the WAL.
    """

    publish_every: int = 32
    max_staleness: float = 0.05
    drain_max: int = 256
    queue_capacity: int = 0
    durability_dir: str = None
    wal_fsync: bool = False
    auto_checkpoint_every_k_batches: int = 0
    wal_max_bytes: int = 0
    label_journal: bool = False

    def __post_init__(self):
        if self.publish_every < 1:
            raise ServeError(
                f"publish_every must be >= 1, got {self.publish_every!r}"
            )
        if self.max_staleness <= 0:
            raise ServeError(
                f"max_staleness must be > 0 seconds, got {self.max_staleness!r}"
            )
        if self.drain_max < 1:
            raise ServeError(f"drain_max must be >= 1, got {self.drain_max!r}")
        if self.queue_capacity < 0:
            raise ServeError(
                f"queue_capacity must be >= 0 (0 = unbounded), "
                f"got {self.queue_capacity!r}"
            )
        if self.auto_checkpoint_every_k_batches < 0:
            raise ServeError(
                f"auto_checkpoint_every_k_batches must be >= 0 (0 = off), "
                f"got {self.auto_checkpoint_every_k_batches!r}"
            )
        if self.wal_max_bytes < 0:
            raise ServeError(
                f"wal_max_bytes must be >= 0 (0 = off), "
                f"got {self.wal_max_bytes!r}"
            )
        # Note: the compaction knobs also require a durability_dir, but
        # that pairing is checked by SPCService, not here — wrappers like
        # SPCCluster inject the directory into a caller-supplied config
        # after construction.

    def replace(self, **changes):
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


class _Barrier:
    """Control token: set ``event`` once everything before it is applied
    and published (``error`` carries the reason when it wasn't)."""

    __slots__ = ("event", "error")

    def __init__(self):
        self.event = threading.Event()
        self.error = None


class _Checkpoint:
    """Control token: write a checkpoint at the writer's current seq."""

    __slots__ = ("path", "truncate_wal", "event", "error")

    def __init__(self, path, truncate_wal):
        self.path = path
        self.truncate_wal = truncate_wal
        self.event = threading.Event()
        self.error = None


_STOP = object()


class _ServeObs:
    """Pre-created instruments for one service (install via
    :meth:`SPCService.set_metrics`).

    Everything hot-path is resolved to an attribute here at install
    time, so an instrumented read costs attribute loads, perf_counter
    stamps and histogram observations — no registry lookups.  Durations
    are measured by the instrumented site and *passed in* (the
    registry's no-clock-reads rule).
    """

    __slots__ = ("tracer", "reads", "read_pairs", "read_latency",
                 "stage_pin", "stage_probe", "stage_tap",
                 "writer_batches", "writer_updates", "wal_bytes",
                 "stage_apply", "stage_wal", "stage_journal",
                 "stage_publish", "publishes")

    def __init__(self, registry, tracer):
        self.tracer = tracer
        self.reads = registry.counter("repro_serve_reads")
        self.read_pairs = registry.counter("repro_serve_read_pairs")
        self.read_latency = registry.histogram(
            "repro_serve_read_latency_seconds")
        stage = registry.histogram
        self.stage_pin = stage("repro_serve_stage_seconds",
                               stage="snapshot_pin")
        self.stage_probe = stage("repro_serve_stage_seconds", stage="probe")
        self.stage_tap = stage("repro_serve_stage_seconds", stage="tap")
        self.writer_batches = registry.counter("repro_serve_writer_batches")
        self.writer_updates = registry.counter("repro_serve_writer_updates")
        self.wal_bytes = registry.counter("repro_serve_wal_appended_bytes")
        self.stage_apply = stage("repro_serve_writer_stage_seconds",
                                 stage="apply")
        self.stage_wal = stage("repro_serve_writer_stage_seconds",
                               stage="wal_append")
        self.stage_journal = stage("repro_serve_writer_stage_seconds",
                                   stage="journal")
        self.stage_publish = stage("repro_serve_writer_stage_seconds",
                                   stage="publish")
        self.publishes = registry.counter("repro_serve_publishes")

    def read(self, pairs, pin_s, probe_s, tap_s, total_s, trace):
        """File one read's stage timings (and its trace, if sampled)."""
        self.reads.inc()
        self.read_pairs.inc(pairs)
        self.read_latency.observe(total_s)
        self.stage_pin.observe(pin_s)
        self.stage_probe.observe(probe_s)
        self.stage_tap.observe(tap_s)
        if trace is not None:
            trace.add("snapshot_pin", pin_s)
            trace.add("probe", probe_s, meta={"pairs": pairs})
            trace.add("tap", tap_s)
            trace.finish(total_s)

    def writer_batch(self, applied, apply_s, wal_s, journal_s, appended):
        """File one applied batch's writer-side stage timings + spans."""
        self.writer_batches.inc()
        self.writer_updates.inc(applied)
        self.stage_apply.observe(apply_s)
        self.stage_wal.observe(wal_s)
        self.stage_journal.observe(journal_s)
        if appended:
            self.wal_bytes.inc(appended)
        tracer = self.tracer
        if tracer is not None:
            trace = tracer.maybe_begin("writer_batch",
                                       meta={"applied": applied})
            if trace is not None:
                trace.add("apply", apply_s)
                trace.add("wal_append", wal_s)
                trace.add("journal", journal_s)
                trace.finish(apply_s + wal_s + journal_s)

    def publish(self, publish_s):
        """File one snapshot publication (by the writer role's holder)."""
        self.publishes.inc()
        self.stage_publish.observe(publish_s)
        tracer = self.tracer
        if tracer is not None:
            trace = tracer.maybe_begin("writer_publish")
            if trace is not None:
                trace.add("publish", publish_s)
                trace.finish(publish_s)


class SPCService:
    """A concurrent, durable serving layer over one :class:`SPCEngine`.

    Example
    -------
    >>> import repro
    >>> from repro.serve import SPCService
    >>> engine = repro.open(repro.Graph.from_edges([(0, 1), (1, 2)]))
    >>> with SPCService(engine) as service:
    ...     service.query(0, 2)
    ...     from repro.workloads import InsertEdge
    ...     service.submit(InsertEdge(0, 2))
    ...     _ = service.flush()
    ...     service.query(0, 2)
    (2, 1)
    (1, 1)

    The engine must not be touched by the caller while the service owns
    it: every mutation goes through :meth:`submit`, every read through
    :meth:`query` / :meth:`query_many` / :meth:`snapshot`.
    """

    def __init__(self, engine, config=None, overwrite=False,
                 _resume_seq=None, **overrides):
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        if config.durability_dir is None and (
            config.auto_checkpoint_every_k_batches or config.wal_max_bytes
        ):
            raise ServeError(
                "auto_checkpoint_every_k_batches / wal_max_bytes compact "
                "the WAL, which requires a durability_dir"
            )
        if config.label_journal and config.durability_dir is None:
            raise ServeError(
                "label_journal writes labels.jsonl next to the WAL, "
                "which requires a durability_dir"
            )
        self._engine = engine
        self._config = config
        self._queue = queue.Queue(maxsize=config.queue_capacity)
        self._answer_tap = None
        self._publish_listener = None
        self._disk_fault = None
        self._obs = None
        self._closed = False
        self._fatal = None
        self._inflight = None  # dequeued-but-unhandled control token
        #: the writer role: held by whichever thread is applying or
        #: publishing — the writer thread, or a submitter that found the
        #: service idle (see _apply_on_idle).
        self._role = threading.Lock()
        self._pulled = 0  # queue items the current handling took
        #: (update, exception) pairs for updates the writer rejected;
        #: the service keeps serving past individual bad updates.
        self.errors = []

        self._seq = 0 if _resume_seq is None else _resume_seq
        self._applied_updates = 0
        self._cancelled_updates = 0
        self._published = 0
        self._dirty = 0
        self._dirty_since = None
        # Auto-compaction bookkeeping: the seq of the last durable
        # checkpoint (fresh services write one at _seq below; a resumed
        # service's WAL tail was just replayed, so treating the resume
        # point as checkpointed only delays the first compaction by < k).
        self._last_checkpoint_seq = self._seq
        self._auto_compactions = 0
        self._auto_bytes_floor = 0  # raised after a failed compaction

        self._wal = None
        self._journal = None
        if config.durability_dir is not None:
            os.makedirs(config.durability_dir, exist_ok=True)
            snap_path = self._durable_snapshot_path()
            wal_path = os.path.join(config.durability_dir, WAL_FILENAME)
            if _resume_seq is None:
                if os.path.exists(snap_path) and not overwrite:
                    raise ServeError(
                        f"{snap_path} already holds a checkpoint; use "
                        f"repro.serve.restore({config.durability_dir!r}) to "
                        f"continue it, or pass overwrite=True to discard it"
                    )
                # Truncate the stale WAL *before* writing the seq-0
                # checkpoint: every crash window then leaves a consistent
                # pair (old checkpoint + old WAL, old checkpoint + empty
                # WAL, or new checkpoint + empty WAL) — never a fresh
                # checkpoint with a previous run's records to replay.
                self._wal = WriteAheadLog(
                    wal_path, fsync=config.wal_fsync, backend=engine.backend_name
                )
                self._wal.truncate()
                if config.label_journal:
                    self._journal = self._open_journal()
                    self._journal.truncate()
                save_checkpoint(snap_path, engine, applied_seq=0)
            else:
                self._wal = WriteAheadLog(
                    wal_path, fsync=config.wal_fsync, backend=engine.backend_name
                )
                if config.label_journal:
                    self._journal = self._open_journal()
            if self._journal is not None:
                # Sync the backend's journal drain: the first record then
                # holds only the first batch's vertices.
                self._engine.backend.label_changes()
                if self._seq:
                    # The WAL tail replayed during restore ran without a
                    # dirty sink (and a crash can lose the journal record
                    # of the last WAL batch), so the journal may be behind
                    # the engine.  A reset record at the resume seq
                    # re-anchors every shard on the restored state.
                    self._journal_reset()

        self._snapshot = self._make_snapshot()
        self._published += 1
        self._thread = threading.Thread(
            target=self._writer_loop, name="spc-service-writer", daemon=True
        )
        self._alive = True
        self._thread.start()

    # ------------------------------------------------------------------
    # Read path (any thread, lock-free)
    # ------------------------------------------------------------------

    def snapshot(self):
        """The current :class:`SnapshotView` (pin it for a consistent batch)."""
        return self._snapshot

    def set_answer_tap(self, tap):
        """Install (or clear, with ``None``) the answer-tap hook.

        ``tap(answered, seq, target, epoch)`` is called after every
        :meth:`query` / :meth:`query_many` (and the distance/count
        convenience wrappers, which route through :meth:`query`) with
        ``answered = [((s, t), answer), ...]``, the snapshot's sequence
        number, the serving target's name (``"service"`` here; replica
        names under the cluster router) and the snapshot epoch.  This is
        the :class:`~repro.audit.AuditSampler` attachment point; the hook
        runs on the reader's thread, so it must be cheap and must never
        raise — a raising tap is the caller's bug, surfaced as the read
        failing.
        """
        self._answer_tap = tap

    def set_publish_listener(self, listener):
        """Install (or clear, with ``None``) a snapshot-publish hook.

        ``listener()`` is called immediately after every snapshot
        publication, on whichever thread published: the writer thread,
        or a submitting thread that applied its update on idle.  It is
        the wakeup seam the resilient routers use to wake lease waiters
        on fresh data instead of polling.  It runs holding the writer
        role, so like the answer tap it must be cheap and must never
        raise (a raising listener kills the writer).
        """
        self._publish_listener = listener

    def set_metrics(self, registry, tracer=None):
        """Install (or clear, with ``None``) the telemetry seam.

        With a :class:`~repro.obs.MetricsRegistry` installed, every read
        records its stage timings (``snapshot_pin`` / ``probe`` / ``tap``)
        into shared histograms and every applied batch records its
        writer-side stages (``apply`` / ``wal_append`` / ``journal`` /
        ``publish``); with a :class:`~repro.obs.Tracer` too, sampled
        requests additionally retain a :class:`~repro.obs.QueryTrace`
        span tree.  The service's ``stats()`` dict is promoted into the
        registry as callback gauges at the same time, so the old accessor
        and the new exposition can never disagree.  Uninstrumented
        services pay one attribute check per read.
        """
        if registry is None:
            self._obs = None
            return
        self._obs = _ServeObs(registry, tracer)
        from repro.obs.bind import bind_service

        bind_service(registry, self)

    def set_disk_fault(self, fault):
        """Install (or clear, with ``None``) a disk-fault injection hook.

        ``fault(op, path)`` is consulted before every WAL/journal append
        (``op="append"``) and every checkpoint save (``op="checkpoint"``)
        and may raise ``OSError`` to simulate a failing disk — the chaos
        harness's ENOSPC seam.  Checkpoint faults surface through the
        normal checkpoint error paths (a failed ``checkpoint()`` call, an
        ``errors`` entry for auto-compaction) with the service still
        healthy; an append fault is fail-stop, raising *before* any bytes
        land so the log never holds a half-acknowledged record.
        """
        self._disk_fault = fault
        if self._wal is not None:
            self._wal.fault = fault
        if self._journal is not None:
            self._journal.fault = fault

    def query(self, s, t):
        """Answer (sd, spc) from the freshest published snapshot."""
        obs = self._obs
        if obs is None:
            snap = self._snapshot
            answer = snap.query(s, t)
            tap = self._answer_tap
            if tap is not None:
                tap([((s, t), answer)], snap.seq, "service", snap.epoch)
            return answer
        tracer = obs.tracer
        trace = tracer.maybe_begin("service_query") if tracer else None
        t0 = time.perf_counter()
        snap = self._snapshot
        t1 = time.perf_counter()
        answer = snap.query(s, t)
        t2 = time.perf_counter()
        tap = self._answer_tap
        if tap is not None:
            tap([((s, t), answer)], snap.seq, "service", snap.epoch)
        t3 = time.perf_counter()
        obs.read(1, t1 - t0, t2 - t1, t3 - t2, t3 - t0, trace)
        return answer

    def query_many(self, pairs):
        """Answer a batch of pairs against one single snapshot."""
        obs = self._obs
        if obs is None:
            snap = self._snapshot
            pairs = list(pairs)
            answers = snap.query_many(pairs)
            tap = self._answer_tap
            if tap is not None:
                tap(list(zip(pairs, answers)), snap.seq, "service",
                    snap.epoch)
            return answers
        tracer = obs.tracer
        trace = tracer.maybe_begin("service_query_many") if tracer else None
        t0 = time.perf_counter()
        snap = self._snapshot
        pairs = list(pairs)
        t1 = time.perf_counter()
        answers = snap.query_many(pairs)
        t2 = time.perf_counter()
        tap = self._answer_tap
        if tap is not None:
            tap(list(zip(pairs, answers)), snap.seq, "service", snap.epoch)
        t3 = time.perf_counter()
        obs.read(len(pairs), t1 - t0, t2 - t1, t3 - t2, t3 - t0, trace)
        return answers

    def distance(self, s, t):
        """sd(s, t) from the freshest published snapshot."""
        return self.query(s, t)[0]

    def count(self, s, t):
        """spc(s, t) from the freshest published snapshot."""
        return self.query(s, t)[1]

    # ------------------------------------------------------------------
    # Write path (any thread submits; the writer role applies)
    # ------------------------------------------------------------------

    def submit(self, update):
        """Submit one workload update (InsertEdge / DeleteEdge / ...).

        If the writer is idle (nothing pending, role free), the update is
        applied, logged and published on this thread, and ``query`` sees
        it when this returns.  Otherwise it is queued behind the pending
        work (blocking only on queue backpressure) and a later snapshot
        reflects it.  So a tight loop of single submits to an idle
        service applies, logs and publishes once per update;
        :meth:`submit_many` is the way to batch.

        Raises :class:`~repro.exceptions.ServeError` if the writer has
        died — including when death races the enqueue, in which case the
        update may not have been applied.  A writer death while applying
        this update on idle surfaces at the next ``submit`` / ``flush`` /
        ``checkpoint`` / ``close``, exactly as one on the writer thread.
        """
        self._check_writable()
        if self._apply_on_idle(update):
            return
        self._put_update(update)
        # The writer can stop between the check above and the put landing
        # (a fatal error, or a clean close() consuming its stop sentinel);
        # either way its drain may have missed this update, so a stopped
        # writer after the put must surface here, not as a silent drop.
        self._raise_if_stopped()

    def submit_many(self, updates):
        """Submit an iterable of updates as one unit, preserving order.

        The unit is applied within one net-effect batch — on this thread
        when the writer is idle, as :meth:`submit` — so churn *within* a
        submit_many call always coalesces, regardless of drain timing.
        """
        self._check_writable()
        updates = list(updates)
        if updates and not self._apply_on_idle(updates):
            self._put_update(updates)
            self._raise_if_stopped()  # same enqueue/stop race as submit()

    def flush(self, timeout=30.0):
        """Block until everything submitted so far is applied *and*
        published; returns the resulting snapshot."""
        self._check_writable()
        barrier = _Barrier()
        deadline = time.monotonic() + timeout
        self._put_control(barrier, timeout)
        if not barrier.event.wait(max(0.0, deadline - time.monotonic())):
            raise ServeError(f"flush timed out after {timeout} s")
        self._raise_if_dead()
        if barrier.error is not None:
            # The barrier was released by shutdown, not by the writer
            # reaching it — submissions ahead of it were never applied.
            raise ServeError(f"flush failed: {barrier.error}") from barrier.error
        return self._snapshot

    def checkpoint(self, path=None, truncate_wal=False, timeout=30.0):
        """Write a checkpoint consistent with a single writer position.

        Runs on the writer thread (serialized with updates, so the file
        never captures a half-applied batch).  ``path`` defaults to the
        durability directory's snapshot file; ``truncate_wal=True``
        additionally empties the WAL, which the checkpoint just subsumed —
        allowed only when the checkpoint *is* the durability directory's
        snapshot file, since truncating on behalf of an external copy
        would leave the directory's own checkpoint unable to explain the
        missing records.  Returns the path written.
        """
        self._check_writable()
        if path is None:
            if self._config.durability_dir is None:
                raise ServeError(
                    "checkpoint needs a path (no durability_dir configured)"
                )
            path = self._durable_snapshot_path()
        if truncate_wal:
            if self._wal is None:
                raise ServeError("truncate_wal requires a durability_dir")
            durable = self._durable_snapshot_path()
            if os.path.realpath(path) != os.path.realpath(durable):
                raise ServeError(
                    f"truncate_wal is only valid when checkpointing to the "
                    f"durability directory's own snapshot ({durable}); an "
                    f"external checkpoint at {path} would orphan the "
                    f"truncated records"
                )
        token = _Checkpoint(path, truncate_wal)
        deadline = time.monotonic() + timeout
        self._put_control(token, timeout)
        if not token.event.wait(max(0.0, deadline - time.monotonic())):
            raise ServeError(f"checkpoint timed out after {timeout} s")
        self._raise_if_dead()
        if token.error is not None:
            raise ServeError(f"checkpoint failed: {token.error}") from token.error
        return path

    def close(self, timeout=30.0):
        """Stop the writer (after draining the queue) and release the WAL.

        Idempotent.  Raises :class:`~repro.exceptions.ServeError` if the
        writer thread died of an unexpected error at any point.
        """
        if self._closed:
            self._raise_if_dead()
            return
        deadline = time.monotonic() + timeout
        self._put_control(_STOP, timeout)
        self._thread.join(max(0.0, deadline - time.monotonic()))
        if self._thread.is_alive():
            # The writer is still applying: leave the WAL open underneath
            # it — closing it here would make the next append fail *after*
            # the engine mutated, silently diverging state from the log —
            # and leave _closed unset so a retry can join again instead of
            # reporting a clean shutdown that never happened.
            raise ServeError(f"writer thread failed to stop within {timeout} s")
        self._closed = True
        if self._wal is not None:
            self._wal.close()
        if self._journal is not None:
            self._journal.close()
        self._raise_if_dead()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def engine(self):
        """The owned engine — do not touch it while the service is open."""
        return self._engine

    @property
    def config(self):
        """The service's :class:`ServeConfig` (frozen)."""
        return self._config

    @property
    def applied_seq(self):
        """Sequence number of the last applied (and WAL-logged) batch."""
        return self._seq

    def lag(self):
        """How many applied batches the published snapshot is behind."""
        return self._seq - self._snapshot.seq

    def staleness(self):
        """Seconds since the first update applied after the last publish
        was dequeued (0.0 when the snapshot is current); the clock
        ``max_staleness`` is checked against."""
        since = self._dirty_since
        return 0.0 if since is None else time.monotonic() - since

    def stats(self):
        """A dict snapshot of the service counters (approximate under
        concurrency — stats are monitoring, not invariants)."""
        snap = self._snapshot
        return {
            "backend": snap.backend_name,
            "queue_depth": self._queue.qsize(),
            "applied_updates": self._applied_updates,
            "cancelled_updates": self._cancelled_updates,
            "applied_batches": self._seq,
            "snapshots_published": self._published,
            "snapshot_epoch": snap.epoch,
            "snapshot_seq": snap.seq,
            "lag_batches": self._seq - snap.seq,
            "errors": len(self.errors),
            "wal_bytes": self._wal.size if self._wal is not None else 0,
            "wal_compactions": self._auto_compactions,
            "closed": self._closed,
        }

    def __repr__(self):
        return (
            f"SPCService(backend={self._snapshot.backend_name!r}, "
            f"seq={self._seq}, snapshot_seq={self._snapshot.seq}, "
            f"published={self._published}, closed={self._closed})"
        )

    # ------------------------------------------------------------------
    # Writer role: the writer thread, or a submitter on idle
    # ------------------------------------------------------------------

    def _apply_on_idle(self, item):
        """Apply and publish ``item`` (an update or a submit_many list) on
        this thread if the writer is idle; returns False to queue it.

        Idle means the role is free and nothing is pending — every queue
        item fully handled, including those a drain pulled, which the
        writer marks done only under the role — so applying here cannot
        overtake an earlier submission.  A failure kills the writer role
        just as one on the writer thread does; it surfaces at the next
        call, except an interrupt, which is re-raised here too.
        """
        if not self._role.acquire(blocking=False):
            return False
        try:
            if self._queue.unfinished_tasks or not self._alive:
                return False
            try:
                self._handle(item, drain=False)
                if self._dirty:
                    self._publish()
            except BaseException as exc:  # noqa: BLE001 — see docstring
                self._fatal = exc
                self._alive = False
                try:
                    # Wake the writer thread so it exits and releases
                    # whatever is queued; a full queue wakes it anyway.
                    self._queue.put_nowait(_STOP)
                except queue.Full:
                    pass
                if not isinstance(exc, Exception):
                    raise
            return True
        finally:
            self._role.release()

    def _writer_loop(self):
        running = True
        try:
            while running:
                item = self._queue.get()
                with self._role:
                    running = self._handle_queued(item)
        finally:
            self._alive = False
            self._release_inflight()
            self._release_waiters()

    def _handle_queued(self, item):
        """Handle one queue item under the role; False when the writer
        thread must stop (``_alive`` is then already cleared, so no
        submitter takes the role after it)."""
        if self._fatal is not None:  # the role died on a submitting thread
            self._discard(item)
            return False
        self._pulled = 1
        try:
            running = self._handle(item)
            # Never leave the role dirty with nothing pending, whatever
            # token ended the drain.
            if running and self._dirty and self._queue.empty():
                self._publish()
        except BaseException as exc:  # noqa: BLE001 — surfaced as ServeError
            self._fatal = exc
            running = False
        if not running:
            self._alive = False
            return False
        for _ in range(self._pulled):
            self._queue.task_done()
        return True

    def _handle(self, item, drain=True):
        """Process one item under the role; returns False when the writer
        must stop.  ``drain`` pulls more queued updates into its batch.

        Everything the drain pulled off the queue before a control token
        has been applied by the time the token is handled, so handling it
        inline (rather than re-queuing it behind newer submissions, where
        a fast submitter could starve it) preserves FIFO semantics.
        """
        if item is _STOP:
            if self._dirty:
                self._publish()
            return False
        if isinstance(item, _Barrier):
            self._inflight = item
            try:
                if self._dirty:
                    self._publish()
            except BaseException as exc:
                item.error = exc  # flush must not report stale success
                raise
            finally:
                item.event.set()
                self._inflight = None
            return True
        if isinstance(item, _Checkpoint):
            self._inflight = item
            self._do_checkpoint(item)  # sets its event in a finally
            self._inflight = None
            return True
        control = self._apply_drained(item, drain)
        self._maybe_publish()
        self._maybe_auto_checkpoint()
        if control is not None:
            return self._handle(control)
        return True

    def _apply_drained(self, first, drain):
        """Drain up to drain_max updates starting at ``first`` (only
        ``first`` unless ``drain``) and apply them as one net-effect
        batch; returns a control token that ended the drain early (to be
        handled next), or None."""
        # ``first`` was just dequeued (or handed over on idle): if this
        # batch dirties the snapshot, the staleness clock starts here, so
        # it counts the batch's own apply time.
        dequeued = time.monotonic()
        batch = list(first) if isinstance(first, list) else [first]
        control = None
        while drain and len(batch) < self._config.drain_max:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            self._pulled += 1
            if item is _STOP or isinstance(item, (_Barrier, _Checkpoint)):
                control = item
                if item is not _STOP:
                    # Track the dequeued token: if applying this batch
                    # kills the writer before _handle(control) runs, the
                    # waiter must still be woken (see _release_inflight).
                    self._inflight = item
                break
            if isinstance(item, list):  # a submit_many unit, kept whole
                batch.extend(item)
            else:
                batch.append(item)

        engine = self._engine
        try:
            effective, cancelled = coalesce_if_edge_batch(
                engine.graph, batch, enabled=engine.config.coalesce_batches
            )
        except Exception:  # noqa: BLE001 — any ill-formed update (a
            # WorkloadError from SetWeight on an unweighted graph, a
            # TypeError from an unorderable endpoint) can crash coalescing.
            # Replay the batch verbatim so the per-update isolation below
            # records the bad one in `errors` and the good ones still
            # apply — a malformed submission must never kill the writer.
            effective, cancelled = batch, 0
        applied = []
        backend = engine.backend
        obs = self._obs
        t_start = time.perf_counter() if obs is not None else 0.0
        backend.begin_update_batch()
        try:
            for update in effective:
                if self._wal is not None and not is_loggable(update):
                    # An update the WAL cannot record must not be applied:
                    # restore would silently diverge from the live engine.
                    self.errors.append((update, ServeError(
                        f"update {update!r} is not WAL-serializable"
                    )))
                    continue
                try:
                    engine.apply(update)
                except Exception as exc:  # noqa: BLE001 — one bad update
                    # must not kill the writer; anything the engine raises
                    # (ReproError or a TypeError from a malformed object)
                    # becomes an errors entry and the service keeps serving.
                    self.errors.append((update, exc))
                else:
                    applied.append(update)
        finally:
            backend.end_update_batch()
        t_applied = time.perf_counter() if obs is not None else 0.0

        self._cancelled_updates += cancelled
        if applied:
            self._seq += 1
            appended = 0
            t_wal = t_applied
            if self._wal is not None:
                before = self._wal.size if obs is not None else 0
                self._wal.append(self._seq, applied)
                if obs is not None:
                    appended = self._wal.size - before
                    t_wal = time.perf_counter()
            t_journal = t_wal
            if self._journal is not None:
                self._journal_append()
                if obs is not None:
                    t_journal = time.perf_counter()
            self._applied_updates += len(applied)
            self._dirty += len(applied)
            if self._dirty_since is None:
                self._dirty_since = dequeued
            if obs is not None:
                obs.writer_batch(len(applied), t_applied - t_start,
                                 t_wal - t_applied, t_journal - t_wal,
                                 appended)
        return control

    def _maybe_publish(self):
        if not self._dirty:
            return
        if (
            self._dirty >= self._config.publish_every
            or time.monotonic() - self._dirty_since >= self._config.max_staleness
        ):
            self._publish()

    def _publish(self):
        obs = self._obs
        t0 = time.perf_counter() if obs is not None else 0.0
        backend = self._engine.backend
        self._snapshot = self._make_snapshot(backend)
        self._published += 1
        self._dirty = 0
        self._dirty_since = None
        if obs is not None:
            obs.publish(time.perf_counter() - t0)
        listener = self._publish_listener
        if listener is not None:
            listener()

    def _make_snapshot(self, backend=None):
        backend = backend if backend is not None else self._engine.backend
        return SnapshotView(
            backend.snapshot_index(),
            backend.name,
            self._engine.epoch,
            self._seq,
            time.time(),
        )

    def _do_checkpoint(self, token):
        try:
            if self._disk_fault is not None:
                self._disk_fault("checkpoint", token.path)
            save_checkpoint(token.path, self._engine, applied_seq=self._seq)
            if token.truncate_wal and self._wal is not None:
                self._truncate_wal_with_marker()
            if self._config.durability_dir is not None and (
                os.path.realpath(token.path)
                == os.path.realpath(self._durable_snapshot_path())
            ):
                self._last_checkpoint_seq = self._seq
        except Exception as exc:  # noqa: BLE001 — handed back to the caller
            token.error = exc
        finally:
            token.event.set()

    def _maybe_auto_checkpoint(self):
        """Compact the WAL when the automatic policy says it is due.

        Runs inline under the writer role right after a batch applied, so
        the checkpoint captures a consistent engine exactly like a manual
        ``checkpoint(truncate_wal=True)``.  Failure is recorded in
        ``errors`` and serving continues with the WAL intact — losing the
        compaction is recoverable, killing the writer is not; the
        bookkeeping still advances so one bad disk does not retry the
        checkpoint after every subsequent batch.
        """
        cfg = self._config
        if self._wal is None or not (
            cfg.auto_checkpoint_every_k_batches or cfg.wal_max_bytes
        ):
            return
        batches_due = (
            cfg.auto_checkpoint_every_k_batches
            and self._seq - self._last_checkpoint_seq
            >= cfg.auto_checkpoint_every_k_batches
        )
        bytes_due = cfg.wal_max_bytes and self._wal.size > max(
            cfg.wal_max_bytes, self._auto_bytes_floor
        )
        if not (batches_due or bytes_due):
            return
        try:
            if self._disk_fault is not None:
                self._disk_fault("checkpoint", self._durable_snapshot_path())
            save_checkpoint(
                self._durable_snapshot_path(), self._engine,
                applied_seq=self._seq,
            )
            self._truncate_wal_with_marker()
            self._auto_compactions += 1
            self._auto_bytes_floor = 0
        except Exception as exc:  # noqa: BLE001 — see docstring
            self.errors.append((None, ServeError(
                f"auto checkpoint at seq {self._seq} failed: {exc!r}"
            )))
            self._auto_bytes_floor = self._wal.size * 2
        finally:
            self._last_checkpoint_seq = self._seq

    def _open_journal(self):
        # Label ops are already JSON-safe op-tagged lists, so the journal
        # reuses the WAL writer with an identity codec — same framing,
        # torn-tail trimming and compaction-marker semantics.
        return WriteAheadLog(
            os.path.join(self._config.durability_dir, JOURNAL_FILENAME),
            fsync=self._config.wal_fsync,
            backend=self._engine.backend_name,
            encode=lambda op: op,
        )

    def _journal_append(self):
        """Journal the label deltas of the batch just applied (same seq).

        Rebuilds (engine rebuild policy, SD rebuild-on-delete) replace the
        index object — and may reshuffle hub ranks — so a replacement
        (``label_changes`` returns None) forces a full-dump reset record.
        Otherwise one ``lb`` op per dirty vertex carries its post-batch
        label state (``None`` = vertex dropped); replacement semantics make
        records idempotent and order-independent within a batch.  A batch
        whose updates moved no labels still journals a ``nop`` op: seq
        contiguity is what tailing shards key on, and an *empty* ops list
        is reserved for the compaction marker.
        """
        backend = self._engine.backend
        changed = backend.label_changes()
        if changed is None:
            self._journal_reset()
            return
        ops = [["lb", v, backend.label_payload(v)] for v in changed]
        if not ops:
            ops = [["nop"]]
        self._journal.append(self._seq, ops)

    def _journal_reset(self):
        """Append a full-dump reset record at the current seq."""
        backend = self._engine.backend
        dump = [
            [v, lp]
            for v, lp in backend.iter_label_payloads(backend.index_to_dict())
        ]
        self._journal.append(self._seq, [["reset", dump]])

    def _truncate_wal_with_marker(self):
        """Truncate the WAL, then stamp its head with the truncation point.

        The empty-updates marker record (seq = the checkpoint's seq) keeps
        the log self-describing for replication: a tailer whose offset was
        already 0 cannot tell a truncated-to-empty log from a not-yet-
        written one, so a compaction while it lagged would go unnoticed
        until the next real append.  With the marker, the first record a
        lagging tailer reads names a sequence number it cannot reach
        contiguously — the gap that tells it to re-bootstrap from the
        fresh checkpoint.  Restore filters the marker out naturally
        (``seq <= applied_seq``), and replaying it is a no-op anyway.
        """
        self._wal.truncate()
        if self._seq:
            self._wal.append(self._seq, [])
        if self._journal is not None:
            # The journal compacts in lockstep: the fresh checkpoint is the
            # shards' re-bootstrap source, exactly as for WAL tailers.
            self._journal.truncate()
            if self._seq:
                self._journal.append(self._seq, [])

    def _durable_snapshot_path(self):
        return os.path.join(self._config.durability_dir, SNAPSHOT_FILENAME)

    def _put_update(self, item):
        """Enqueue an update, blocking on backpressure only while the
        writer is actually draining.

        A plain blocking put on a bounded queue would hang forever if the
        writer died while other submitters kept the queue full; polling
        lets the stop surface as a ServeError instead of a silent hang.
        """
        while True:
            try:
                self._queue.put(item, timeout=0.2)
                return
            except queue.Full:
                self._raise_if_stopped()

    def _put_control(self, item, timeout):
        """Enqueue a control token without blocking past ``timeout``.

        On a bounded queue a plain ``put`` could block forever (e.g. the
        writer died while submitters kept the queue full), so the caller's
        timeout must cover the enqueue as well as the wait.
        """
        try:
            self._queue.put(item, timeout=timeout)
        except queue.Full:
            self._raise_if_dead()
            raise ServeError(
                f"update queue still full after {timeout} s; "
                f"the writer is not draining"
            ) from None

    def _check_writable(self):
        self._raise_if_dead()
        if self._closed or not self._alive:
            raise ServeError("service is closed")

    def _raise_if_stopped(self):
        """Post-enqueue guard: the writer must still be draining."""
        self._raise_if_dead()
        if not self._alive:
            raise ServeError(
                "service stopped while the update was being submitted; "
                "it may not have been applied"
            )

    def _raise_if_dead(self):
        if self._fatal is not None:
            raise ServeError(
                f"writer thread died: {self._fatal!r}"
            ) from self._fatal

    def _release_inflight(self):
        """Wake the waiter whose token was dequeued but never handled.

        Covers the window between a control token leaving the queue (in
        the drain loop) and its handling — a writer death in between
        would otherwise leave flush()/checkpoint() blocked until their
        timeout, masking the real failure.
        """
        token = self._inflight
        self._inflight = None
        if token is None:
            return
        if token.error is None:
            token.error = self._fatal or ServeError("service stopped")
        token.event.set()

    def _release_waiters(self):
        """On writer exit, wake every queued barrier/checkpoint waiter.

        Updates still queued behind the stop sentinel (a submit that raced
        close, or anything pending when the writer died) are recorded in
        ``errors`` rather than vanishing silently.
        """
        while True:
            try:
                self._discard(self._queue.get_nowait())
            except queue.Empty:
                return

    def _discard(self, item):
        """Release a queue item the stopped writer will never handle."""
        if isinstance(item, (_Barrier, _Checkpoint)):
            item.error = self._fatal or ServeError("service stopped")
            item.event.set()
        elif item is not _STOP:
            dropped = item if isinstance(item, list) else [item]
            self.errors.extend(
                (u, ServeError("dropped: service stopped before apply"))
                for u in dropped
            )


def serve(graph_or_engine, config=None, engine_config=None, **overrides):
    """Open an :class:`SPCService` over a graph or an existing engine.

    Convenience entry point: ``repro.serve.serve(graph)`` builds the
    engine (auto-selected backend, ``engine_config`` forwarded) and wraps
    it; keyword overrides patch individual :class:`ServeConfig` fields.
    """
    from repro.engine import SPCEngine

    if isinstance(graph_or_engine, SPCEngine):
        engine = graph_or_engine
    else:
        engine = SPCEngine(graph_or_engine, config=engine_config)
    return SPCService(engine, config=config, **overrides)


def restore(path, config=None, **overrides):
    """Warm-restart a service from a durability directory (or checkpoint).

    ``path`` is normally the ``durability_dir`` of a previous service: the
    checkpoint is loaded (index rehydrated, no rebuild), the WAL tail
    (records past the checkpoint's ``applied_seq``) is replayed through
    the engine, and the returned service continues appending to the same
    WAL.  ``path`` may also point at a bare checkpoint file written by
    :meth:`SPCService.checkpoint`, in which case there is no WAL to replay
    and the restored service is only durable if ``config`` says so.
    """
    if os.path.isdir(path):
        directory = path
        snap_path = os.path.join(directory, SNAPSHOT_FILENAME)
        wal_path = os.path.join(directory, WAL_FILENAME)
    else:
        directory = None
        snap_path = path
        wal_path = None

    payload = load_checkpoint(snap_path)
    engine = engine_from_payload(payload)
    last_seq = payload.get("applied_seq", 0)
    if wal_path is not None:
        records = read_wal(
            wal_path, after_seq=last_seq, expect_backend=engine.backend_name
        )
        try:
            replayed = engine.apply_logged_batches(records)
        except ServeError:
            raise  # corruption / family mismatch, already well-described
        except Exception as exc:  # noqa: BLE001 — an unstamped foreign log
            # surfaces as whatever the engine rejects it with (an
            # EngineError about weights, a KeyError on a missing vertex);
            # name the real problem instead of leaking the replay guts.
            raise CheckpointMismatchError(
                f"WAL at {wal_path} does not replay onto the checkpoint at "
                f"{snap_path} (backend {engine.backend_name!r}): {exc!r}; "
                f"the checkpoint and the log do not describe the same "
                f"service"
            ) from exc
        if replayed is not None:
            last_seq = replayed

    if config is None:
        config = ServeConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    if directory is not None and config.durability_dir is None:
        config = config.replace(durability_dir=directory)
    # Resume (append to the existing WAL) only when the service keeps
    # living in the directory that was just replayed; restoring a bare
    # checkpoint file into a *new* durability dir must take the fresh
    # path instead, so that dir gets a base checkpoint its WAL applies to.
    # Compare real paths, not spellings — "state/" and "state" are the
    # same directory and must resume, not trip the fresh-path guard.
    same_dir = (
        directory is not None
        and config.durability_dir is not None
        and os.path.realpath(config.durability_dir) == os.path.realpath(directory)
    )
    resume = last_seq if same_dir or (
        directory is None and config.durability_dir is None
    ) else None
    return SPCService(engine, config=config, _resume_seq=resume)
