"""StreamFollower: the one bootstrap / tail / re-bootstrap loop.

Every reader-side copy of the primary — a :class:`~repro.cluster.Replica`
(full engine over the WAL), a :class:`~repro.shard.Shard` (hub slice over
the label journal) and a :class:`~repro.audit.ShadowAuditor` (plain graph
over the WAL) — is the same state machine over a different payload:

* **bootstrap** — load the primary's checkpoint and rebuild local state
  from it; the follower's applied seq becomes the checkpoint's.
* **tail** — poll a :class:`~repro.serve.wal.WalTailer` for contiguous new
  records and apply them.
* **re-bootstrap** — when the tailer reports a gap (the primary compacted
  the log, truncation raced regrowth, or a record is corrupt), load the
  checkpoint again and build a fresh tailer after its seq.

Subclasses supply only their payload: :meth:`StreamFollower._load` turns
a checkpoint into local state and returns its base seq,
:meth:`StreamFollower._apply` folds polled records in, and
:meth:`StreamFollower._tick` (optional) does per-tick side work.  The base
owns the thread, the stall rule and the stop contract (DESIGN.md §11,
"One stream follower").
"""

import os
import threading
import time
import warnings

from repro.exceptions import ServeError
from repro.serve.persist import load_checkpoint
from repro.serve.service import SNAPSHOT_FILENAME, WAL_FILENAME
from repro.serve.wal import WalTailer, decode_update


class StreamFollower:
    """Base of every checkpoint-bootstrapped, log-tailing follower.

    Parameters
    ----------
    state_dir:
        The primary's ``durability_dir`` (checkpoint + logs).
    label:
        How errors name this follower (``"replica 'r0'"``).
    thread_name:
        Name of the follower thread (always ``spc-`` prefixed).
    poll_interval:
        Seconds the thread sleeps after a tick that made no progress.
    stall_budget:
        Consecutive no-progress re-bootstraps before the thread dies
        (``None`` uses :attr:`MAX_STALLED_BOOTSTRAPS`).
    stream:
        File name of the tailed log inside ``state_dir``.
    decode:
        Per-op decoder handed to the tailer.
    """

    #: consecutive no-progress re-bootstraps before the follower gives up —
    #: a gap that a fresh checkpoint cannot advance past (corruption in
    #: the middle of the log) would otherwise hot-loop forever while the
    #: follower still reported healthy.
    MAX_STALLED_BOOTSTRAPS = 3

    #: what the follower's failures surface as (``close``, ``catch_up``).
    error_type = ServeError

    def __init__(self, state_dir, label, thread_name, poll_interval,
                 stall_budget, stream=WAL_FILENAME, decode=decode_update):
        self._label = label
        self._checkpoint_path = os.path.join(state_dir, SNAPSHOT_FILENAME)
        self._stream_path = os.path.join(state_dir, stream)
        self._decode = decode
        self._poll_interval = poll_interval
        self._stall_budget = (
            self.MAX_STALLED_BOOTSTRAPS if stall_budget is None else stall_budget
        )
        self._publish_listener = None
        self._tailer = None
        self._corruptions_base = 0
        self._applied_seq = 0
        self._records_applied = 0
        self._bootstraps = 0
        self._fatal = None
        self._alive = True
        self._stop = threading.Event()
        # The constructor's bootstrap fails loudly on a bad checkpoint.
        self._bootstrap(load_checkpoint(self._checkpoint_path))
        self._thread = threading.Thread(
            target=self._follow, name=thread_name, daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _load(self, payload):
        """Rebuild local state from a checkpoint payload; return its seq."""
        raise NotImplementedError

    def _apply(self, records):
        """Fold a non-empty list of ``(seq, ops)`` records into local state."""
        raise NotImplementedError

    def _tick(self, progressed):
        """Per-tick side work after the stream was polled; returns whether
        the tick made progress (the thread sleeps when it did not)."""
        return progressed

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def applied_seq(self):
        """Sequence number of the last record folded into local state."""
        return self._applied_seq

    @property
    def healthy(self):
        """True while the follower thread runs without a fatal error."""
        return self._alive and self._fatal is None

    @property
    def fatal(self):
        """The exception that killed the follower thread, or ``None``."""
        return self._fatal

    @property
    def bootstraps(self):
        """How many times this follower (re-)bootstrapped from a checkpoint."""
        return self._bootstraps

    @property
    def stream_corruptions(self):
        """Typed corruption events the tailed stream raised so far.

        A running total across re-bootstraps: each fresh tailer re-reads
        the log from the head, so a poisoned interior record keeps
        counting until something (the supervisor's repair) rewrites it.
        """
        tailer = self._tailer
        return self._corruptions_base + (
            tailer.corruptions if tailer is not None else 0
        )

    def set_publish_listener(self, listener):
        """Install (or clear, with ``None``) a publication hook.

        ``listener()`` runs on the follower thread after every published
        view — the router's condition-variable wakeup seam.  Must be
        cheap and must never raise (a raising listener kills the thread).
        """
        self._publish_listener = listener

    def _notify_published(self):
        listener = self._publish_listener
        if listener is not None:
            listener()

    def catch_up(self, target_seq, timeout=10.0):
        """Block until ``applied_seq >= target_seq``; True on success.

        Returns False on timeout; raises :attr:`error_type` if the
        follower died while waiting (it can never catch up).
        """
        deadline = time.monotonic() + timeout
        while self._applied_seq < target_seq:
            if not self.healthy:
                raise self.error_type(
                    f"{self._label} died at seq {self._applied_seq} "
                    f"while catching up to {target_seq}: {self._fatal!r}"
                )
            if time.monotonic() >= deadline:
                return False
            time.sleep(min(self._poll_interval, 0.005))
        return True

    def kill(self):
        """Hard-stop the follower thread mid-stream (fault injection).

        Published state stays readable, but the follower stops tailing
        and reports unhealthy.  Idempotent; does not raise on an
        already-dead follower.  A join that times out (the thread is
        wedged inside a poll or apply) is *detected*: the follower is
        marked fatal and a warning is issued — a silently leaked live
        thread would keep mutating state under whatever replaces it.
        """
        self._stop.set()
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            stuck = self.error_type(
                f"{self._label} applier thread failed to stop within "
                f"10.0 s; the thread has leaked and the member must not "
                f"be reused"
            )
            if self._fatal is None:
                self._fatal = stuck
            warnings.warn(str(stuck), RuntimeWarning, stacklevel=2)
        self._alive = False

    def close(self):
        """Stop the follower; raises if its thread had died."""
        self.kill()
        if self._fatal is not None:
            self._raise_fatal()

    def _raise_fatal(self):
        if isinstance(self._fatal, self.error_type):
            raise self._fatal
        raise self.error_type(
            f"{self._label} applier died: {self._fatal!r}"
        ) from self._fatal

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Follower thread
    # ------------------------------------------------------------------

    def _bootstrap(self, payload):
        seq = self._load(payload)
        if self._tailer is not None:
            self._corruptions_base += self._tailer.corruptions
        # The stream is stamped by the primary's writer, so the tailer
        # checks the *checkpoint's* family, not the follower's own.
        self._tailer = WalTailer(
            self._stream_path,
            after_seq=seq,
            expect_backend=payload.get("backend"),
            decode=self._decode,
        )
        self._bootstraps += 1
        self._applied_seq = seq

    def _follow(self):
        stalled = 0
        unreadable = None  # why the last re-bootstrap could not load
        # Progress is measured against the furthest seq ever reached, not
        # against "did this poll return records": after a corruption-forced
        # re-bootstrap the fresh tailer re-reads the log head and re-applies
        # the same prefix every round — ground re-covered is not progress,
        # and counting it as such would hot-loop a poisoned stream forever
        # while the follower still reported healthy.
        high_water = self._applied_seq
        try:
            while not self._stop.is_set():
                # A failed re-bootstrap is retried before the stale tailer
                # is polled again.
                records, gap = (
                    ([], True) if unreadable is not None
                    else self._tailer.poll()
                )
                if records:
                    self._apply(records)
                    self._records_applied += len(records)
                    self._applied_seq = records[-1][0]
                if gap:
                    # The missing records live only in the checkpoint now
                    # (compaction), or the log cannot supply them at all
                    # (corruption): the stall rule below tells them apart.
                    try:
                        payload = load_checkpoint(self._checkpoint_path)
                    except ServeError as exc:
                        # Missing, torn or corrupt right now (a chaos
                        # window, a rewrite in flight): one stalled
                        # re-bootstrap, retried after poll_interval.
                        unreadable = exc
                    else:
                        unreadable = None
                        self._bootstrap(payload)
                progressed = self._applied_seq > high_water
                if progressed:
                    high_water = self._applied_seq
                    stalled = 0
                elif gap:
                    stalled += 1
                    if stalled >= self._stall_budget:
                        raise self.error_type(
                            f"{self._label} cannot advance past a stream "
                            f"gap at seq {self._applied_seq}: {stalled} "
                            f"consecutive re-bootstraps made no progress "
                            f"(corrupt or incompatible stream at "
                            f"{self._tailer.path}"
                            + (f"; last checkpoint load: {unreadable}"
                               if unreadable is not None else "")
                            + ")"
                        ) from unreadable
                    self._stop.wait(self._poll_interval)
                    continue
                if not self._tick(progressed):
                    self._stop.wait(self._poll_interval)
        except BaseException as exc:  # noqa: BLE001 — surfaced via healthy/fatal
            self._fatal = exc
        finally:
            self._alive = False
