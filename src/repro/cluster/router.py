"""ClusterRouter: policy-driven, failure-aware read routing over replicas.

The router fronts one primary :class:`~repro.serve.SPCService` and K
:class:`~repro.cluster.replica.Replica` followers.  A read's lease pins
one target's current snapshot — eligibility is evaluated on the exact
snapshot the caller will read, never on a counter that could move
between check and use — and holds that target's in-flight slot until
released.  The acquire loop, breakers, taps and degraded-mode rule are
the shared :class:`~repro.serve.router.Router` base's.

Policies (``policy=`` name):

* ``round_robin`` — rotate across the healthy replicas.
* ``least_loaded`` — pick the healthy replica with the fewest in-flight
  leases (ties broken round-robin so idle fleets still spread).
* ``bounded_staleness`` — serve only from snapshots whose sequence number
  is within ``staleness_delta`` of the primary's applied seq at selection
  time: an answer tagged ``seq`` is never handed out with
  ``seq < primary_seq - delta``.  Selection among the fresh-enough
  replicas rotates round-robin.

Every policy also honours a per-read ``min_seq`` floor — the hook sticky
sessions use for read-your-writes (see
:class:`~repro.cluster.session.ClusterSession`).  When no replica
qualifies the router falls back to the primary's own snapshot if *it*
qualifies, and otherwise waits for the fleet to catch up.

Breakers are per target and checked at selection: a dead handle or a
missing snapshot is a failure, so a dead replica is skipped and the read
fails over to a sibling.  Staleness misses are *not* failures — a
lagging replica is healthy, just behind.  The degraded fallback is the
freshest snapshot any target ever published, dead or alive, within
``degraded_max_lag`` of the primary's applied seq: a snapshot is
consistent at its own seq, so degraded answers are bounded-stale, never
wrong.
"""

from repro.exceptions import ClusterError
from repro.serve.planner import gather_chunks, split_batch
from repro.serve.router import Lease, Router, RouterObs

#: policy registry — name -> nothing but validation; selection is shared.
POLICIES = ("round_robin", "least_loaded", "bounded_staleness")


class RoutedRead(Lease):
    """A leased (target, pinned snapshot) pair; use as a context manager.

    ``snapshot`` is immutable, so the lease may be held for a whole batch
    of queries; releasing only returns the in-flight slot used by the
    ``least_loaded`` policy.  ``degraded`` marks a bounded-stale lease
    served under the router's opt-in degraded mode.
    """

    __slots__ = ("name", "snapshot", "degraded", "_router", "_key",
                 "_released")

    def __init__(self, router, key, name, snapshot, degraded=False):
        self.name = name
        self.snapshot = snapshot
        self.degraded = degraded
        self._router = router
        self._key = key
        self._released = False

    @property
    def seq(self):
        return self.snapshot.seq

    @property
    def epoch(self):
        return self.snapshot.epoch

    def answer(self, s, t, trace=None):
        return self.snapshot.query(s, t)

    def answer_many(self, pairs):
        return self.snapshot.query_many(pairs)

    def release(self):
        """Return the in-flight slot (idempotent)."""
        if not self._released:
            self._released = True
            self._router._release(self._key)


class _ClusterObs(RouterObs):
    """Adds the lease counter and the lease-wait histogram."""

    def __init__(self, registry, tracer, layer):
        super().__init__(registry, tracer, layer)
        self.leases = registry.counter(f"repro_{layer}_leases")
        self.wait = registry.histogram(f"repro_{layer}_lease_wait_seconds")


class ClusterRouter(Router):
    """Route reads across one primary and its replicas under a policy."""

    layer = "cluster"
    error_type = ClusterError
    obs_type = _ClusterObs
    _unknown_member = "router knows no replica named {!r}"

    def __init__(self, primary, replicas, policy="round_robin",
                 staleness_delta=8, wait_timeout=5.0, parallel_threshold=64,
                 degraded="refuse", degraded_max_lag=64,
                 breaker_threshold=3, breaker_cooldown=0.25):
        if policy not in POLICIES:
            raise ClusterError(
                f"unknown routing policy {policy!r}; choose from {POLICIES}"
            )
        if staleness_delta < 0:
            raise ClusterError(
                f"staleness_delta must be >= 0, got {staleness_delta!r}"
            )
        super().__init__(
            {r.name: r for r in replicas}, wait_timeout=wait_timeout,
            parallel_threshold=parallel_threshold, degraded=degraded,
            degraded_max_lag=degraded_max_lag,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
        )
        self.policy = policy
        self.staleness_delta = staleness_delta
        self._primary = primary
        self._inflight = dict.fromkeys(self._members, 0)
        self._routed = dict.fromkeys(self._members, 0)
        self._primary_reads = 0
        self._rr = 0
        self._fallbacks = 0
        self._breaker_skips = 0

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def query_many(self, pairs, min_seq=0):
        """Answer a batch of pairs, spreading large batches over the fleet.

        Batches shorter than ``parallel_threshold`` — or when fewer than
        two healthy replicas are up — take one lease, one snapshot, one
        pass.  Larger batches are split into contiguous sub-batches
        (:func:`repro.serve.planner.split_batch`), each answered under
        its *own* lease on whatever target the policy picks, and
        reassembled in submission order.  Each sub-batch fires the
        answer tap with its own (seq, target), so every answer is still
        attributed to the exact snapshot that served it — sub-batches
        may land on different seqs, which is why
        :meth:`query_many_tagged` (one claimed seq for the whole batch)
        never splits.
        """
        pairs = list(pairs)
        if len(pairs) >= self.parallel_threshold:
            ways = sum(1 for _key, r in self._member_items() if r.healthy)
            chunks = split_batch(
                pairs, ways, min_chunk=self.parallel_threshold // 2
            )
            if len(chunks) >= 2:
                def worker(_offset, chunk):
                    return self._read(min_seq, chunk, False)[0]

                return gather_chunks(chunks, worker, parallel=True)
        return super().query_many(pairs, min_seq)

    def _record(self, obs, trace, lease, point, pairs, t0, t1, t2, t3):
        if trace is not None:
            trace.add("queue_wait", t1 - t0, meta={"target": lease.name})
            trace.add("probe", t2 - t1,
                      meta=None if point else {"pairs": pairs})
            trace.add("tap", t3 - t2)
            trace.finish(t3 - t0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        """Routing counters per target plus fallback/wait totals."""
        with self._lock:
            return {
                "policy": self.policy,
                "staleness_delta": self.staleness_delta,
                "degraded_mode": self.degraded,
                "routed": dict(self._routed),
                "primary_reads": self._primary_reads,
                "fallbacks": self._fallbacks,
                "waits": self._waits,
                "breaker_skips": self._breaker_skips,
                "degraded_serves": self._degraded_serves,
                "breakers": {
                    name: breaker.stats()
                    for name, breaker in self._breakers.items()
                },
            }

    def __repr__(self):
        return (
            f"ClusterRouter(policy={self.policy!r}, "
            f"replicas={list(self._members)}, "
            f"delta={self.staleness_delta}, degraded={self.degraded!r})"
        )

    # ------------------------------------------------------------------
    # Selection internals
    # ------------------------------------------------------------------

    def _primary_seq(self):
        return self._primary.applied_seq

    def _try_acquire(self, min_seq):
        """One selection attempt; returns a lease or None (nothing fresh)."""
        if self.policy == "bounded_staleness":
            floor = self._primary_seq() - self.staleness_delta
        else:
            floor = None
        candidates = []  # (name, pinned snapshot)
        skips = 0
        for name, replica in self._member_items():
            breaker = self._breakers[name]
            if not replica.healthy:
                # A dead handle is a lease failure the breaker counts —
                # once open, the router skips the member without even
                # reading it until a half-open probe is due.
                if breaker.allow():
                    breaker.record_failure()
                else:
                    skips += 1
                continue
            if not breaker.allow():
                skips += 1
                continue
            snap = replica.snapshot()
            if snap is None:
                breaker.record_failure()
                continue
            breaker.record_success()
            # Staleness misses are not target failures: the member is
            # healthy, merely behind — the supervisor's lag tracking owns
            # that signal, not the breaker.
            if snap.seq < min_seq:
                continue
            if floor is not None and snap.seq < floor:
                continue
            candidates.append((name, snap))
        if skips:
            with self._lock:
                self._breaker_skips += skips
        if candidates:
            return self._lease(*self._pick(candidates))
        # No replica qualifies: the primary's own snapshot is the fallback,
        # held to the same freshness bar (its snapshot can trail its
        # applied seq by up to publish_every, so it must be checked too).
        snap = self._primary.snapshot()
        if snap is not None and snap.seq >= min_seq and (
            floor is None or snap.seq >= floor
        ):
            with self._lock:
                self._fallbacks += 1
            return self._lease(None, snap)
        return None

    def _deadline_error(self, min_seq):
        return ClusterError(
            f"no routing target reached seq >= {min_seq} within "
            f"{self.wait_timeout} s (policy {self.policy!r}, "
            f"delta {self.staleness_delta}, primary at seq "
            f"{self._primary_seq()}); the fleet is lagging or down"
        )

    def _degraded(self):
        """Serve the freshest bounded-stale snapshot from *any* target.

        Health, breakers and the staleness policy are deliberately
        ignored — a dead replica's last published snapshot is still an
        immutable, internally consistent view at its own seq.  The only
        bar is ``degraded_max_lag`` against the primary's applied seq:
        past it, bounded staleness can no longer be claimed and the
        refusal stands.
        """
        floor = self._primary_seq() - self.degraded_max_lag
        best = None
        for name, target in [(None, self._primary)] + self._member_items():
            try:
                snap = target.snapshot()
            except Exception:  # noqa: BLE001 — a torn-down handle yields
                continue       # nothing; degraded mode scavenges, not insists
            if snap is None or snap.seq < floor:
                continue
            if best is None or snap.seq > best[1].seq:
                best = (name, snap)
        if best is None:
            return None
        return self._lease(*best, degraded=True)

    def _on_grant(self, obs, lease, elapsed):
        obs.leases.inc()
        obs.wait.observe(elapsed)

    def _pick(self, candidates):
        """Choose among eligible (name, snapshot) pairs under the policy."""
        with self._lock:
            if self.policy == "least_loaded":
                lightest = min(self._inflight[c[0]] for c in candidates)
                candidates = [
                    c for c in candidates if self._inflight[c[0]] == lightest
                ]
            self._rr += 1
            return candidates[self._rr % len(candidates)]

    def _lease(self, key, snapshot, degraded=False):
        """Lease ``snapshot`` from replica ``key`` (``None``: the primary)."""
        with self._lock:
            if key is None:
                self._primary_reads += 1
            else:
                self._inflight[key] += 1
                self._routed[key] += 1
        name = "primary" if key is None else key
        return RoutedRead(self, key, name, snapshot, degraded=degraded)

    def _release(self, key):
        if key is not None:
            with self._lock:
                self._inflight[key] -= 1
