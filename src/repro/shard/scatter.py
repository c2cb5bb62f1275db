"""ShardRouter: scatter-gather reads over hub-partitioned shards.

Every read needs *all* healthy shards (each owns part of the hub space),
at *one* journal sequence number (mixing seqs would merge partials that
never coexisted — an answer matching no prefix of the update log, which
the shadow auditor would rightly flag).  The router therefore leases a
:class:`ShardCut` per read: the freshest seq for which every shard still
has a published view in its ring, waiting briefly for laggards.  Per-
shard partial answers are folded with the audit comparator's shared
combiner (:func:`repro.audit.merge_partial_answers`) — hub slices
partition the index's hub set, so the fold *is* the full two-pointer
merge, counts and all.  The acquire loop, breakers, taps and
degraded-mode rule are the shared :class:`~repro.serve.router.Router`
base's.

Failure semantics are deliberately asymmetric to replication: a cluster
of full replicas degrades gracefully (any survivor can answer), while a
shard fleet missing one slice cannot answer *anything* without risking a
wrong distance or count — so any unhealthy shard, or an unattainable
cut, raises :class:`~repro.exceptions.ShardError`.  Refusal over wrong
answers.  The breaker gate runs once per acquire: a shard that keeps
causing refusals (down, or the laggard at a cut timeout) trips its
breaker, after which acquires refuse *instantly* until the cooldown
admits one probing acquire, and a successful cut closes every breaker.
The degraded fallback is the newest *common historical cut*: the
freshest seq at which every shard — dead or alive — still holds a ring
view, within ``degraded_max_lag`` of the freshest shard.
"""

import time
from functools import reduce

from repro.audit.comparator import merge_partial_answers
from repro.exceptions import ShardError
from repro.serve.planner import gather_chunks, split_batch
from repro.serve.router import Lease, Router, RouterObs


class ShardCut(Lease):
    """One consistent cross-shard read point: a seq + per-shard views.

    The cut carries its stage timings: ``pin_s`` (the view-pinning
    pass) and ``wait_s`` (the rest of the acquire, set when the router
    is instrumented), and ``probe_s`` / ``merge_s`` from point answers.
    """

    __slots__ = ("seq", "views", "shards", "counts", "degraded", "wait_s",
                 "pin_s", "probe_s", "merge_s")

    name = "shard-router"
    epoch = 0

    def __init__(self, seq, shards, views, counts, degraded=False):
        self.seq = seq
        self.shards = shards
        self.views = views
        self.counts = counts
        self.degraded = degraded
        self.wait_s = 0.0
        self.pin_s = 0.0
        self.probe_s = 0.0
        self.merge_s = 0.0

    def answer(self, s, t, trace=None):
        """Merged (dist, count) for (s, t), timing each shard's probe
        (a ``shard_probe`` span under ``trace``) and the merge."""
        partials = []
        for shard, view in zip(self.shards, self.views):
            p0 = time.perf_counter()
            partials.append(shard.partial(s, t, view))
            spent = time.perf_counter() - p0
            self.probe_s += spent
            if trace is not None:
                trace.add("shard_probe", spent, meta={"shard": shard.name})
        m0 = time.perf_counter()
        answer = self._merge(partials)
        self.merge_s += time.perf_counter() - m0
        return answer

    def answer_many(self, pairs):
        return [
            self._merge([
                shard.partial(s, t, view)
                for shard, view in zip(self.shards, self.views)
            ])
            for s, t in pairs
        ]

    def _merge(self, partials):
        answer = reduce(merge_partial_answers, partials)
        if not self.counts:
            # Distance-only families answer (inf, None), not (inf, 0).
            return (answer[0], None)
        return answer


class _ShardObs(RouterObs):
    """Adds the read counters and the per-stage histograms.

    The six acceptance stages — ``queue_wait``, ``snapshot_pin``,
    ``scatter``, ``shard_probe``, ``merge``, ``tap`` — each get a
    histogram under ``repro_shard_stage_seconds{stage=...}``, plus an
    explicit ``unattributed`` stage holding whatever end-to-end time no
    stage claimed, so the per-stage sums reconcile exactly with
    ``repro_shard_read_latency_seconds``.
    """

    # "repro_shard_refusals" is the promoted stats() gauge (which also
    # counts refusals converted to degraded serves); this counter counts
    # only reads actually refused with an error.
    refusals_metric = "read_refusals"

    def __init__(self, registry, tracer, layer):
        super().__init__(registry, tracer, layer)
        self.reads = registry.counter("repro_shard_reads")
        self.fanout = registry.counter("repro_shard_fanout")
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


class ShardRouter(Router):
    """Fan queries to every shard and merge the partial answers.

    Parameters
    ----------
    shards:
        The :class:`~repro.shard.Shard` fleet (one per partition slot).
    wait_timeout:
        How long a read may wait for a consistent cut before refusing.
    parallel_threshold:
        ``query_many`` batches at least this long (>= 2) are split into
        concurrent sub-batches (see :mod:`repro.serve.planner`).
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

    layer = "shard"
    error_type = ShardError
    obs_type = _ShardObs
    _unknown_member = "router knows no shard with id {!r}"

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
        super().__init__(
            {s.shard_id: s for s in shards}, wait_timeout=wait_timeout,
            parallel_threshold=parallel_threshold, degraded=degraded,
            degraded_max_lag=degraded_max_lag,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
        )
        self._counts = shards[0].counts
        self._routed = 0
        self._fast_refusals = 0

    def _shards(self):
        with self._lock:
            return list(self._members.values())

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
        still being healed.
        """
        # The breaker gate runs once per acquire: an open breaker means
        # recent acquires kept refusing on this shard, so refuse fast
        # instead of burning wait_timeout; an admitted probe makes this
        # acquire the one that re-tests the fleet.
        t0 = time.perf_counter()
        blocked = [
            shard.name
            for key, shard in self._member_items()
            if not self._breakers[key].allow()
        ]
        if not blocked:
            return super().acquire(min_seq)
        with self._lock:
            self._fast_refusals += 1
        return self._refuse_or_degrade(min_seq, ShardError(
            f"circuit open for shard(s) {blocked}: recent reads kept "
            f"refusing there; failing fast while the fleet heals"
        ), t0)

    def _try_acquire(self, min_seq):
        shards = self._shards()
        down = [s for s in shards if not s.healthy]
        if down:
            for s in down:
                self._breakers[s.shard_id].record_failure()
            return ShardError(
                f"shard(s) {[s.name for s in down]} are down; refusing "
                f"cross-shard reads (a missing hub slice cannot be merged "
                f"around)"
            )
        hi = min(s.latest_seq for s in shards)
        lo = max(s.min_seq for s in shards)
        if hi < max(lo, min_seq):
            return None
        t_pin = time.perf_counter()
        views = [s.view_at(hi) for s in shards]
        if any(v is None for v in views):
            return None
        for breaker in self._breakers.values():
            breaker.record_success()
        cut = ShardCut(hi, shards, views, self._counts)
        cut.pin_s = time.perf_counter() - t_pin
        return cut

    def _deadline_error(self, min_seq):
        # Blame the laggard(s): the shard(s) pinning the cut down.
        shards = self._shards()
        hi = min(s.latest_seq for s in shards)
        for s in shards:
            if s.latest_seq <= hi:
                self._breakers[s.shard_id].record_failure()
        return ShardError(
            f"no consistent cross-shard cut at seq >= {min_seq} within "
            f"{self.wait_timeout} s (shards at "
            f"{[s.applied_seq for s in shards]}); refusing"
        )

    def _degraded(self):
        """The newest seq at which *every* shard still holds a ring view,
        health ignored, bounded by ``degraded_max_lag`` vs the freshest
        shard; ``None`` when the rings no longer intersect in bound."""
        shards = self._shards()
        hi = min(s.latest_seq for s in shards)
        lo = max(s.min_seq for s in shards)
        freshest = max(s.latest_seq for s in shards)
        lo = max(lo, freshest - self.degraded_max_lag)
        for seq in range(hi, lo - 1, -1):
            views = [s.view_at(seq) for s in shards]
            if all(v is not None for v in views):
                return ShardCut(seq, shards, views, self._counts,
                                degraded=True)
        return None

    def _on_grant(self, obs, cut, elapsed):
        # A degraded cut pinned nothing: its whole acquire is queue_wait.
        cut.wait_s = elapsed - cut.pin_s

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _tapped(self, cut, answered):
        with self._lock:
            self._routed += len(answered)
        super()._tapped(cut, answered)

    def _answer_many(self, cut, pairs):
        """One cut for the whole batch (every answer carries its seq);
        large batches run as concurrent contiguous sub-batches."""
        chunks = split_batch(
            pairs, ways=len(cut.shards),
            min_chunk=self.parallel_threshold // 2,
        )
        return gather_chunks(
            chunks, lambda _offset, chunk: cut.answer_many(chunk),
            parallel=len(pairs) >= self.parallel_threshold,
        )

    def _record(self, obs, trace, cut, point, pairs, t0, t1, t2, t3):
        # Scatter is the fan-out's own overhead: point reads time each
        # shard's probe and the merge on the cut, so scatter never
        # absorbs them; on the batch path they run inside the gather
        # workers and count as scatter as a whole.
        total_s = t3 - t0
        scatter_s = (t2 - t1) - cut.probe_s - cut.merge_s
        tap_s = t3 - t2
        unattributed_s = total_s - (
            cut.wait_s + cut.pin_s + scatter_s + cut.probe_s + cut.merge_s
            + tap_s
        )
        obs.reads.inc()
        obs.fanout.inc(len(cut.shards))
        obs.latency.observe(total_s)
        obs.s_wait.observe(cut.wait_s)
        obs.s_pin.observe(cut.pin_s)
        obs.s_scatter.observe(scatter_s)
        if point:
            obs.s_probe.observe(cut.probe_s)
            obs.s_merge.observe(cut.merge_s)
        obs.s_tap.observe(tap_s)
        obs.s_unattributed.observe(unattributed_s)
        if trace is not None:
            trace.add("queue_wait", cut.wait_s, meta={"seq": cut.seq})
            trace.add("snapshot_pin", cut.pin_s)
            trace.add("scatter", scatter_s)
            if point:
                trace.add("merge", cut.merge_s)
            trace.add("tap", tap_s)
            trace.add("unattributed", unattributed_s)
            trace.finish(total_s)

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
                "cut_waits": self._waits,
            }
        counters["breakers"] = {
            str(shard_id): breaker.stats()
            for shard_id, breaker in self._breakers.items()
        }
        counters["shards"] = [s.stats() for s in self._shards()]
        return counters

    def __repr__(self):
        return (
            f"ShardRouter(shards={[s.name for s in self._shards()]}, "
            f"routed={self._routed}, refusals={self._refusals})"
        )
