"""ShadowAuditor: the trusted-baseline thread behind differential audits.

The auditor owns a :class:`~repro.audit.replay.GraphReplayer` bootstrapped
from the audited service's checkpoint and kept current by the shared
:class:`~repro.serve.follower.StreamFollower` loop over its WAL — like a
:class:`~repro.cluster.Replica`, except it maintains no label index at
all: every audited answer is recomputed by direct traversal
(:func:`repro.engine.baseline_answer`), so the baseline cannot share a
maintenance bug with the index under test.

Each tick, after the stream is polled, the auditor drains the sampler's
reservoir (:meth:`~repro.audit.AuditSampler.take`), replays each sampled
``(query, answer, seq)`` triple at exactly its claimed sequence number
(the rewind window makes recent seqs reachable even after the stream
moved on), classifies any disagreement through the shared comparator and
files it in the :class:`~repro.audit.DivergenceReport`.  Samples ahead of
the stream wait in a heap until the WAL catches up; samples older than
the rewind window — or below a re-bootstrap's new base — are counted
``skipped_stale``: an audit coverage gap, never a divergence.
"""

import heapq
import time

from repro.audit.comparator import Divergence, DivergenceReport, classify_divergence
from repro.audit.replay import GraphReplayer
from repro.audit.sampler import AuditSampler
from repro.engine import baseline_answer, get_backend
from repro.exceptions import ServeError
from repro.serve.follower import StreamFollower
from repro.serve.persist import graph_from_payload


class ShadowAuditor(StreamFollower):
    """Differentially verify sampled answers against a traversal baseline.

    Parameters
    ----------
    sampler:
        The :class:`~repro.audit.AuditSampler` installed as the audited
        service/router's answer tap; the auditor drains it.
    state_dir:
        The audited primary's ``durability_dir`` (checkpoint + WAL).
    report:
        A :class:`~repro.audit.DivergenceReport`; defaults to a silent
        collecting one.  A ``"raise"`` sink makes the auditor fail fast:
        the first divergence kills the thread and :meth:`close` re-raises.
    poll_interval:
        Seconds the loop sleeps when fully idle.
    history:
        Rewind-window depth of the underlying replayer.
    controller:
        Optional :class:`~repro.audit.AuditRateController`; the audit
        loop feeds it the live lag (pending heap + reservoir) every
        tick, letting it hold the audit queue depth at its target by
        retuning the sampler's rate.
    stall_budget:
        Consecutive no-progress re-bootstraps before the auditor gives
        up (``None`` uses :attr:`MAX_STALLED_BOOTSTRAPS`); a re-bootstrap
        whose checkpoint cannot be read counts as one.  The chaos
        harness *raises* it so the auditor outlives a corrupted-stream
        window: it keeps re-bootstrapping until the supervisor's repair
        rewrites the log, then verifies the healed fleet's answers.
    """

    def __init__(self, sampler, state_dir, report=None, poll_interval=0.005,
                 history=256, controller=None, stall_budget=None):
        self.sampler = sampler
        self.controller = controller
        self.report = report if report is not None else DivergenceReport()
        self._history = history
        self._pending = []   # heap of (seq, tiebreak, sample)
        self._tiebreak = 0
        self._idle_ticks = 0
        self.audited = 0
        self.skipped_stale = 0
        super().__init__(
            state_dir, "shadow auditor", "spc-shadow-auditor",
            poll_interval, stall_budget,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def seq(self):
        """The WAL sequence number the shadow graph currently reflects."""
        return self._replayer.seq

    @property
    def batches_applied(self):
        """WAL records replayed into the shadow graph so far."""
        return self._records_applied

    def stats(self):
        """JSON-safe counters plus the divergence summary."""
        return {
            "backend": self._backend_name,
            "seq": self._replayer.seq,
            "audited": self.audited,
            "skipped_stale": self.skipped_stale,
            "pending": len(self._pending),
            "batches_applied": self._records_applied,
            "bootstraps": self._bootstraps,
            "healthy": self.healthy,
            "divergences": self.report.summary(),
        }

    def set_metrics(self, registry):
        """Promote the auditor's counters into a shared registry as
        callback gauges (``repro_audit_*`` — audited, pending = audit
        lag, bootstraps, per-kind divergence counts, health)."""
        if registry is None:
            return
        from repro.obs.bind import bind_auditor

        bind_auditor(registry, self)

    def drain(self, timeout=15.0):
        """Block until every sample taken so far has been audited.

        Quiescence = the sampler's reservoir is empty, no sample waits in
        the pending heap, and the loop has observed two consecutive fully
        idle ticks (so the WAL tail is consumed too).  Call after the
        audited workload stopped submitting.  Returns True on quiescence,
        False on timeout; raises if the audit thread died.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.healthy:
                self._raise_fatal()
            if (
                self._idle_ticks >= 2
                and not self._pending
                and self.sampler.pending() == 0
            ):
                return True
            time.sleep(self._poll_interval)
        return False

    def __repr__(self):
        return (
            f"ShadowAuditor(backend={self._backend_name!r}, "
            f"seq={self._replayer.seq}, audited={self.audited}, "
            f"divergences={self.report.total}, healthy={self.healthy})"
        )

    # ------------------------------------------------------------------
    # StreamFollower hooks
    # ------------------------------------------------------------------

    def _load(self, payload):
        """(Re)build the shadow graph from the primary's checkpoint payload."""
        backend_cls = get_backend(payload["backend"])
        self._backend_name = backend_cls.name
        self._counts = backend_cls.counts
        graph = graph_from_payload(payload["graph"], backend_cls.graph_type)
        base_seq = payload.get("applied_seq", 0)
        self._replayer = GraphReplayer(graph, base_seq, history=self._history)
        # Pending samples below the fresh base are no longer reachable.
        kept = [p for p in self._pending if p[0] >= base_seq]
        self.skipped_stale += len(self._pending) - len(kept)
        heapq.heapify(kept)
        self._pending = kept
        return base_seq

    def _apply(self, records):
        for seq, updates in records:
            self._replayer.apply_batch(seq, updates)

    def _tick(self, progressed):
        for sample in self.sampler.take():
            self._enqueue(sample)
            progressed = True
        progressed |= self._process_pending()
        if self.controller is not None:
            self.controller.observe(
                len(self._pending) + self.sampler.pending()
            )
        if progressed:
            self._idle_ticks = 0
        else:
            self._idle_ticks += 1
        return progressed

    def _enqueue(self, sample):
        self._tiebreak += 1
        heapq.heappush(self._pending, (sample.seq, self._tiebreak, sample))

    def _process_pending(self):
        """Audit every pending sample the stream has reached; True if any."""
        audited_any = False
        while self._pending and self._pending[0][0] <= self._replayer.seq:
            _, _, sample = heapq.heappop(self._pending)
            self._audit_one(sample)
            audited_any = True
        return audited_any

    def _audit_one(self, sample):
        try:
            expected = self._replayer.answer_at(
                sample.seq,
                lambda graph: baseline_answer(
                    graph, sample.s, sample.t, counts=self._counts
                ),
            )
        except LookupError:
            # Older than the rewind window: an audit coverage gap (tune
            # `history` or the sampling rate), never a divergence.
            self.skipped_stale += 1
            return
        self.audited += 1
        severity = classify_divergence(expected, sample.answer)
        if severity is not None:
            self.report.record(Divergence(
                query=(sample.s, sample.t),
                seq=sample.seq,
                expected=expected,
                got=sample.answer,
                backend=self._backend_name,
                epoch=sample.epoch,
                severity=severity,
                target=sample.target,
            ))


class AuditSession:
    """One shadow audit of a live fleet, from the tap to the verdict.

    The part every audited harness (audit, shard, chaos, replay) shares:
    an :class:`~repro.audit.AuditSampler` (``rate``, ``capacity``,
    ``seed``) tapped into ``fleet``'s answers and a
    :class:`ShadowAuditor` tailing the stream in ``state_dir``.  ``sink``
    goes to the :class:`~repro.audit.DivergenceReport` and
    ``stall_budget`` to the auditor.  Close it on every exit path (it is
    idempotent); :meth:`close` with a ``problems`` list records a dead
    auditor there instead of raising.
    """

    def __init__(self, fleet, state_dir, rate, capacity, seed, history,
                 sink=None, stall_budget=None):
        self.sampler = AuditSampler(rate=rate, capacity=capacity, seed=seed)
        fleet.set_answer_tap(self.sampler)
        self.auditor = ShadowAuditor(
            self.sampler, state_dir, report=DivergenceReport(sink=sink),
            history=history, stall_budget=stall_budget,
        )
        self.report = self.auditor.report
        self.sampler_stats = self.auditor_stats = None

    def set_metrics(self, registry):
        """Promote the sampler's and the auditor's counters."""
        self.sampler.set_metrics(registry)
        self.auditor.set_metrics(registry)

    def drain(self, problems, timeout):
        """Audit everything sampled, then take ``sampler_stats`` and
        ``auditor_stats``; a drain that times out is a problem."""
        if not self.auditor.drain(timeout=timeout):
            problems.append(
                f"auditor failed to drain within {timeout} s "
                f"(pending {self.auditor.stats()['pending']})"
            )
        self.sampler_stats = self.sampler.stats()
        self.auditor_stats = self.auditor.stats()

    def close(self, problems=None):
        """Stop the auditor; a dead one raises, or with ``problems`` is
        recorded there."""
        try:
            self.auditor.close()
        except ServeError as exc:
            if problems is None:
                raise
            problems.append(f"auditor died: {exc}")

    def judge(self, problems, clean=True):
        """The verdicts every audited run shares, after :meth:`drain`: it
        audited something, and, when ``clean``, nothing diverged."""
        if self.auditor_stats["audited"] == 0:
            problems.append(
                "auditor audited zero answers — the run proves nothing "
                "(raise duration, sample_rate or reservoir)"
            )
        if clean and self.report.total:
            problems.append(
                f"shadow audit diverged {self.report.total} time(s): "
                f"{self.report.divergences[0].describe()}"
            )
