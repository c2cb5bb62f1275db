"""ShardRouter: scatter-gather reads over hub-partitioned shards.

Every read needs *all* healthy shards (each owns part of the hub space),
at *one* journal sequence number (mixing seqs would merge partials that
never coexisted — an answer matching no prefix of the update log, which
the shadow auditor would rightly flag).  The router therefore acquires a
:class:`ShardCut` per read: the freshest seq for which every shard still
has a published view in its ring, waiting briefly for laggards.  Per-
shard partial answers are folded with the audit comparator's shared
combiner (:func:`repro.audit.merge_partial_answers`) — hub slices
partition the index's hub set, so the fold *is* the full two-pointer
merge, counts and all.

Failure semantics are deliberately asymmetric to replication: a cluster
of full replicas degrades gracefully (any survivor can answer), while a
shard fleet missing one slice cannot answer *anything* without risking a
wrong distance or count — so any unhealthy shard, or an unattainable
cut, raises :class:`~repro.exceptions.ShardError`.  Refusal over wrong
answers.

Resilience hooks (same vocabulary as the cluster router):

* **Condition-variable waits** — cut waiters block on a condition
  notified by every shard publish (``ShardedCluster`` wires each shard's
  ``set_publish_listener`` to :meth:`notify_event`) instead of spinning
  at 1 ms, with a 50 ms poll cap as a safety net.
* **Per-shard circuit breakers** — a shard that keeps causing refusals
  (down, or the laggard at a cut timeout) trips its breaker, after which
  acquires refuse *instantly* instead of burning the full
  ``wait_timeout`` per request; the cooldown admits one probing acquire,
  and a successful cut closes every breaker.  Refusal semantics are
  unchanged — the breaker only makes refusal cheap while the supervisor
  heals the fleet.
* **Opt-in degraded mode** — with ``degraded="stale"``, a read that
  would refuse (and has no ``min_seq`` floor) is served from the newest
  *common historical cut*: the freshest seq at which every shard — dead
  or alive — still holds a ring view, bounded by ``degraded_max_lag``
  against the freshest shard.  Ring views are immutable and seq-aligned,
  so the merged answer is exactly the fleet's answer at that (stale)
  cut — bounded-stale, never wrong; the tap sees the target as
  ``"shard-router+degraded"``.  The default stays ``"refuse"``.
"""

import threading
import time
from functools import reduce

from repro.audit.comparator import merge_partial_answers
from repro.exceptions import ShardError
from repro.resilience.breaker import CircuitBreaker
from repro.shard.planner import gather_chunks, split_batch

#: degraded-mode vocabulary: refuse (default) or serve bounded-stale.
DEGRADED_MODES = ("refuse", "stale")

#: cap on each blocking wait slice — the safety net under lost wakeups.
_WAIT_SLICE = 0.05


class ShardCut:
    """One consistent cross-shard read point: a seq + per-shard views.

    ``wait_s`` / ``pin_s`` carry the acquire's stage timings (time spent
    waiting for a consistent seq vs. pinning the per-shard views) when
    the router is instrumented; they stay 0.0 otherwise.
    """

    __slots__ = ("seq", "views", "shards", "degraded", "wait_s", "pin_s")

    def __init__(self, seq, shards, views, degraded=False):
        self.seq = seq
        self.shards = shards
        self.views = views
        self.degraded = degraded
        self.wait_s = 0.0
        self.pin_s = 0.0

    def partials(self, s, t):
        """Every shard's partial answer for (s, t) at this cut."""
        return [
            shard.partial(s, t, view)
            for shard, view in zip(self.shards, self.views)
        ]


class _ShardObs:
    """Pre-created instruments for one shard router (see ``set_metrics``).

    The six acceptance stages — ``queue_wait``, ``snapshot_pin``,
    ``scatter``, ``shard_probe``, ``merge``, ``tap`` — each get a
    histogram under ``repro_shard_stage_seconds{stage=...}``, plus an
    explicit ``unattributed`` stage holding whatever end-to-end time no
    stage claimed, so the per-stage sums reconcile exactly with
    ``repro_shard_read_latency_seconds``.
    """

    __slots__ = ("tracer", "reads", "fanout", "latency", "refusals",
                 "s_wait", "s_pin", "s_scatter", "s_probe", "s_merge",
                 "s_tap", "s_unattributed", "transitions")

    def __init__(self, registry, tracer):
        self.tracer = tracer
        self.reads = registry.counter("repro_shard_reads")
        self.fanout = registry.counter("repro_shard_fanout")
        # "repro_shard_refusals" is the promoted stats() gauge (which
        # also counts refusals converted to degraded serves); this
        # counter counts only reads actually refused with an error.
        self.refusals = registry.counter("repro_shard_read_refusals")
        self.latency = registry.histogram("repro_shard_read_latency_seconds")
        stage = registry.histogram
        self.s_wait = stage("repro_shard_stage_seconds", stage="queue_wait")
        self.s_pin = stage("repro_shard_stage_seconds", stage="snapshot_pin")
        self.s_scatter = stage("repro_shard_stage_seconds", stage="scatter")
        self.s_probe = stage("repro_shard_stage_seconds", stage="shard_probe")
        self.s_merge = stage("repro_shard_stage_seconds", stage="merge")
        self.s_tap = stage("repro_shard_stage_seconds", stage="tap")
        self.s_unattributed = stage("repro_shard_stage_seconds",
                                    stage="unattributed")
        self.transitions = {
            state: registry.counter(
                "repro_shard_breaker_transitions", to=state
            )
            for state in ("closed", "open", "half_open")
        }

    def on_breaker_transition(self, _old, new):
        counter = self.transitions.get(new)
        if counter is not None:
            counter.inc()


class ShardRouter:
    """Fan queries to every shard and merge the partial answers.

    Parameters
    ----------
    shards:
        The :class:`~repro.shard.Shard` fleet (one per partition slot).
    wait_timeout:
        How long a read may wait for a consistent cut before refusing.
    parallel_threshold:
        ``query_many`` batches at least this long are split into
        concurrent sub-batches (see :mod:`repro.shard.planner`).
    degraded:
        ``"refuse"`` (default) or ``"stale"`` — see the module docstring.
    degraded_max_lag:
        Bound (in journal seqs, against the freshest shard) on how stale
        a degraded cut may be.
    breaker_threshold / breaker_cooldown:
        Per-shard :class:`~repro.resilience.CircuitBreaker` tuning —
        consecutive refusal-causing failures before acquires start
        refusing instantly, and how long until a probe is admitted.
    """

    def __init__(self, shards, wait_timeout=5.0, parallel_threshold=64,
                 degraded="refuse", degraded_max_lag=64,
                 breaker_threshold=3, breaker_cooldown=0.25):
        shards = list(shards)
        if not shards:
            raise ShardError("a shard router needs at least one shard")
        backends = {s.backend_name for s in shards}
        if len(backends) > 1:
            raise ShardError(
                f"shards must share one backend family, got {sorted(backends)}"
            )
        if degraded not in DEGRADED_MODES:
            raise ShardError(
                f"unknown degraded mode {degraded!r}; "
                f"choose from {DEGRADED_MODES}"
            )
        if degraded_max_lag < 0:
            raise ShardError(
                f"degraded_max_lag must be >= 0, got {degraded_max_lag!r}"
            )
        self._shards = shards
        self.wait_timeout = wait_timeout
        self.parallel_threshold = parallel_threshold
        self.degraded = degraded
        self.degraded_max_lag = degraded_max_lag
        self._counts = shards[0].counts
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._breakers = {
            s.shard_id: CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
            )
            for s in shards
        }
        self._answer_tap = None
        self._obs = None
        self._routed = 0
        self._refusals = 0
        self._fast_refusals = 0
        self._degraded_serves = 0
        self._cut_waits = 0

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------

    @property
    def num_shards(self):
        return len(self._shards)

    @property
    def shards(self):
        """The shard fleet, in partition-slot order (do not mutate)."""
        return list(self._shards)

    def set_member(self, shard_id, shard):
        """Swap the shard in slot ``shard_id`` (a restarted shard).

        Resets the slot's circuit breaker and wakes cut waiters so the
        fresh member is examined immediately.
        """
        for i, existing in enumerate(self._shards):
            if existing.shard_id == shard_id:
                self._shards[i] = shard
                breaker = self._breakers.get(shard_id)
                if breaker is not None:
                    breaker.reset()
                self.notify_event()
                return
        raise ShardError(f"router knows no shard with id {shard_id!r}")

    def notify_event(self, *_args, **_kwargs):
        """Wake blocked cut waiters (publish / health-change seam).

        Wired to every shard's ``set_publish_listener`` and usable as a
        :class:`~repro.resilience.HealthMonitor` listener (extra
        arguments are accepted and ignored).
        """
        with self._wakeup:
            self._wakeup.notify_all()

    # ------------------------------------------------------------------
    # Consistent cuts
    # ------------------------------------------------------------------

    def acquire(self, min_seq=0):
        """Pin a consistent cross-shard cut at ``seq >= min_seq``.

        Picks the freshest seq every shard has published, waiting for
        laggards up to ``wait_timeout``.  Refuses immediately — without
        waiting — when any shard is unhealthy (a dead shard's slice
        cannot catch up, and serving without it would be wrong, not
        stale) or when a tripped breaker says the last refusals are
        still being healed.  Under ``degraded="stale"`` a floorless
        refusal is converted into a bounded-stale historical cut when
        one exists (see the module docstring).

        When instrumented, the returned cut carries its stage timings
        (``wait_s`` = time until a consistent seq existed, ``pin_s`` =
        the final view-pinning pass).
        """
        obs = self._obs
        t0 = time.perf_counter() if obs is not None else 0.0
        # The breaker gate runs once per acquire: an open breaker means
        # recent acquires kept refusing on this shard, so refuse fast
        # instead of burning wait_timeout; an admitted probe makes this
        # acquire the one that re-tests the fleet.
        blocked = [
            shard.name
            for shard in self._shards
            if not self._breakers[shard.shard_id].allow()
        ]
        if blocked:
            with self._lock:
                self._fast_refusals += 1
                self._refusals += 1
            return self._stamped(t0, self._refuse_or_degrade(
                min_seq, ShardError(
                    f"circuit open for shard(s) {blocked}: recent reads "
                    f"kept refusing there; failing fast while the fleet "
                    f"heals"
                )))
        deadline = time.monotonic() + self.wait_timeout
        while True:
            shards = self._shards
            down = [s.name for s in shards if not s.healthy]
            if down:
                for s in shards:
                    if not s.healthy:
                        self._breakers[s.shard_id].record_failure()
                with self._lock:
                    self._refusals += 1
                return self._stamped(t0, self._refuse_or_degrade(
                    min_seq, ShardError(
                        f"shard(s) {down} are down; refusing cross-shard "
                        f"reads (a missing hub slice cannot be merged "
                        f"around)"
                    )))
            hi = min(s.latest_seq for s in shards)
            lo = max(s.min_seq for s in shards)
            if hi >= max(lo, min_seq):
                t_pin = time.perf_counter() if obs is not None else 0.0
                views = [s.view_at(hi) for s in shards]
                if all(v is not None for v in views):
                    for breaker in self._breakers.values():
                        breaker.record_success()
                    cut = ShardCut(hi, list(shards), views)
                    if obs is not None:
                        cut.wait_s = t_pin - t0
                        cut.pin_s = time.perf_counter() - t_pin
                    return cut
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Blame the laggard(s): the shard(s) pinning `hi` down.
                for s in shards:
                    if s.latest_seq <= hi:
                        self._breakers[s.shard_id].record_failure()
                with self._lock:
                    self._refusals += 1
                return self._stamped(t0, self._refuse_or_degrade(
                    min_seq, ShardError(
                        f"no consistent cross-shard cut at seq >= "
                        f"{min_seq} within {self.wait_timeout} s (shards "
                        f"at {[s.applied_seq for s in shards]}); refusing"
                    )))
            with self._wakeup:
                self._cut_waits += 1
                self._wakeup.wait(min(_WAIT_SLICE, remaining))

    def _stamped(self, t0, cut):
        """Attribute a degraded cut's whole acquire time to queue_wait."""
        if self._obs is not None:
            cut.wait_s = time.perf_counter() - t0
        return cut

    def _refuse_or_degrade(self, min_seq, error):
        """Raise ``error`` — or, under opt-in degraded mode, serve the
        newest bounded-stale common cut instead (floorless reads only:
        read-your-writes never degrades)."""
        if self.degraded == "stale" and min_seq == 0:
            cut = self._degraded_cut()
            if cut is not None:
                with self._lock:
                    self._degraded_serves += 1
                return cut
        obs = self._obs
        if obs is not None:
            obs.refusals.inc()
        raise error

    def _degraded_cut(self):
        """The newest seq at which *every* shard still holds a ring view,
        health ignored, bounded by ``degraded_max_lag`` vs the freshest
        shard; ``None`` when the rings no longer intersect in bound."""
        shards = self._shards
        hi = min(s.latest_seq for s in shards)
        lo = max(s.min_seq for s in shards)
        freshest = max(s.latest_seq for s in shards)
        lo = max(lo, freshest - self.degraded_max_lag)
        for seq in range(hi, lo - 1, -1):
            views = [s.view_at(seq) for s in shards]
            if all(v is not None for v in views):
                return ShardCut(seq, list(shards), views, degraded=True)
        return None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def set_answer_tap(self, tap):
        """Install (or clear, with ``None``) the answer-tap hook.

        Same contract as ``SPCService.set_answer_tap`` / the cluster
        router: ``tap(answered, seq, target, epoch)`` fires after every
        *merged* read with the cut's journal seq — so an
        :class:`~repro.audit.AuditSampler` + shadow auditor replaying the
        primary's WAL to that seq differentially verifies the cross-shard
        merge itself.  Degraded cuts report ``"shard-router+degraded"``.
        """
        self._answer_tap = tap

    def set_metrics(self, registry, tracer=None):
        """Install (or clear, with ``None``) the telemetry seam.

        Promotes ``stats()`` into ``registry`` as callback gauges, arms
        the six-stage read breakdown (``queue_wait`` / ``snapshot_pin`` /
        ``scatter`` / ``shard_probe`` / ``merge`` / ``tap``, plus an
        explicit ``unattributed`` remainder so stage sums reconcile with
        end-to-end latency), counts breaker transitions and refusals,
        and — with a :class:`~repro.obs.Tracer` — retains span trees for
        sampled scatter-gather reads.
        """
        if registry is None:
            for breaker in self._breakers.values():
                breaker.set_listener(None)
            self._obs = None
            return
        from repro.obs.bind import bind_shard_router

        bind_shard_router(registry, self)
        obs = _ShardObs(registry, tracer)
        for breaker in self._breakers.values():
            breaker.set_listener(obs.on_breaker_transition)
        self._obs = obs

    def _tapped(self, cut, answered):
        tap = self._answer_tap
        if tap is not None:
            name = "shard-router+degraded" if cut.degraded else "shard-router"
            tap(answered, cut.seq, name, 0)

    def _merge(self, partials):
        answer = reduce(merge_partial_answers, partials)
        if not self._counts:
            # Distance-only families answer (inf, None), not (inf, 0).
            return (answer[0], None)
        return answer

    def query(self, s, t, min_seq=0):
        """Merged (dist, count) for one pair at one consistent cut."""
        obs = self._obs
        if obs is None:
            cut = self.acquire(min_seq)
            answer = self._merge(cut.partials(s, t))
            with self._lock:
                self._routed += 1
            self._tapped(cut, [((s, t), answer)])
            return answer
        tracer = obs.tracer
        trace = tracer.maybe_begin("shard_query") if tracer else None
        t0 = time.perf_counter()
        cut = self.acquire(min_seq)
        # Scatter = the fan-out loop's own overhead; each shard's probe
        # is timed individually so scatter never absorbs probe time.
        t_sc = time.perf_counter()
        partials = []
        probe_s = 0.0
        for shard, view in zip(cut.shards, cut.views):
            p0 = time.perf_counter()
            partials.append(shard.partial(s, t, view))
            p1 = time.perf_counter()
            probe_s += p1 - p0
            if trace is not None:
                trace.add("shard_probe", p1 - p0,
                          meta={"shard": shard.name})
        t_gathered = time.perf_counter()
        scatter_s = (t_gathered - t_sc) - probe_s
        answer = self._merge(partials)
        t_merged = time.perf_counter()
        with self._lock:
            self._routed += 1
        self._tapped(cut, [((s, t), answer)])
        t_end = time.perf_counter()
        total_s = t_end - t0
        merge_s = t_merged - t_gathered
        tap_s = t_end - t_merged
        unattributed_s = total_s - (
            cut.wait_s + cut.pin_s + scatter_s + probe_s + merge_s + tap_s
        )
        obs.reads.inc()
        obs.fanout.inc(len(cut.shards))
        obs.latency.observe(total_s)
        obs.s_wait.observe(cut.wait_s)
        obs.s_pin.observe(cut.pin_s)
        obs.s_scatter.observe(scatter_s)
        obs.s_probe.observe(probe_s)
        obs.s_merge.observe(merge_s)
        obs.s_tap.observe(tap_s)
        obs.s_unattributed.observe(unattributed_s)
        if trace is not None:
            trace.add("queue_wait", cut.wait_s, meta={"seq": cut.seq})
            trace.add("snapshot_pin", cut.pin_s)
            trace.add("scatter", scatter_s)
            trace.add("merge", merge_s)
            trace.add("tap", tap_s)
            trace.add("unattributed", unattributed_s)
            trace.finish(total_s)
        return answer

    def query_tagged(self, s, t, min_seq=0):
        """Merged answer plus its provenance: (answer, seq, target).

        ``target`` matches what the answer tap sees — ``"shard-router"``
        for a healthy cut, ``"shard-router+degraded"`` for a
        bounded-stale one — so callers can observe degraded serves
        without registering a tap (same contract as the cluster
        router's ``query_tagged``).
        """
        cut = self.acquire(min_seq)
        answer = self._merge(cut.partials(s, t))
        with self._lock:
            self._routed += 1
        self._tapped(cut, [((s, t), answer)])
        name = "shard-router+degraded" if cut.degraded else "shard-router"
        return answer, cut.seq, name

    def query_many(self, pairs, min_seq=0):
        """Answer a batch of pairs against one consistent cut.

        One cut serves the whole batch (every answer carries the same
        seq); large batches are split into concurrent sub-batches and
        reassembled in submission order (:mod:`repro.shard.planner`).
        """
        pairs = list(pairs)
        if not pairs:
            return []
        obs = self._obs
        t0 = time.perf_counter() if obs is not None else 0.0
        cut = self.acquire(min_seq)
        t_sc = time.perf_counter() if obs is not None else 0.0
        chunks = split_batch(
            pairs, ways=len(self._shards),
            min_chunk=max(1, self.parallel_threshold // 2),
        )
        parallel = len(pairs) >= self.parallel_threshold

        def worker(_offset, chunk):
            return [self._merge(cut.partials(s, t)) for s, t in chunk]

        answers = gather_chunks(chunks, worker, parallel=parallel)
        t_gathered = time.perf_counter() if obs is not None else 0.0
        with self._lock:
            self._routed += len(pairs)
        self._tapped(cut, list(zip(pairs, answers)))
        if obs is not None:
            # Batch path: probe and merge run inside the gather workers
            # (possibly concurrently), so their time is attributed to the
            # scatter stage as a whole rather than split per shard.
            t_end = time.perf_counter()
            total_s = t_end - t0
            scatter_s = t_gathered - t_sc
            tap_s = t_end - t_gathered
            unattributed_s = total_s - (
                cut.wait_s + cut.pin_s + scatter_s + tap_s
            )
            obs.reads.inc()
            obs.fanout.inc(len(cut.shards))
            obs.latency.observe(total_s)
            obs.s_wait.observe(cut.wait_s)
            obs.s_pin.observe(cut.pin_s)
            obs.s_scatter.observe(scatter_s)
            obs.s_tap.observe(tap_s)
            obs.s_unattributed.observe(unattributed_s)
            tracer = obs.tracer
            trace = (tracer.maybe_begin("shard_query_many",
                                        meta={"pairs": len(pairs)})
                     if tracer else None)
            if trace is not None:
                trace.add("queue_wait", cut.wait_s, meta={"seq": cut.seq})
                trace.add("snapshot_pin", cut.pin_s)
                trace.add("scatter", scatter_s)
                trace.add("tap", tap_s)
                trace.add("unattributed", unattributed_s)
                trace.finish(total_s)
        return answers

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        """Router counters plus per-shard stats (JSON-safe)."""
        with self._lock:
            counters = {
                "routed": self._routed,
                "refusals": self._refusals,
                "fast_refusals": self._fast_refusals,
                "degraded_serves": self._degraded_serves,
                "degraded_mode": self.degraded,
                "cut_waits": self._cut_waits,
            }
        counters["breakers"] = {
            str(shard_id): breaker.stats()
            for shard_id, breaker in self._breakers.items()
        }
        counters["shards"] = [s.stats() for s in self._shards]
        return counters

    def __repr__(self):
        return (
            f"ShardRouter(shards={[s.name for s in self._shards]}, "
            f"routed={self._routed}, refusals={self._refusals})"
        )
