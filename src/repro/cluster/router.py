"""ClusterRouter: policy-driven, failure-aware read routing over replicas.

The router fronts one primary :class:`~repro.serve.SPCService` and K
:class:`~repro.cluster.replica.Replica` followers.  Every read acquires a
*lease*: the router picks a target under the configured policy, pins that
target's current snapshot (eligibility is evaluated on the exact snapshot
the caller will read — never on a counter that could move between check
and use), bumps the target's in-flight counter, and hands back a
:class:`RoutedRead` whose release decrements the counter.

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
qualifies, and otherwise waits for the fleet to catch up before raising
:class:`~repro.exceptions.ClusterError` — returning a stale answer
instead would silently break the policy's promise.

Resilience (all per-target, selection-time):

* **Retry-with-failover under a deadline** — an acquire is a loop over
  selection attempts until ``wait_timeout``; a target that fails the
  health/snapshot probe is simply skipped this attempt, so the read
  fails over to whichever sibling qualifies instead of erroring on the
  first dead replica.
* **Circuit breakers** — each replica carries a
  :class:`~repro.resilience.CircuitBreaker`: consecutive lease failures
  (dead handle, no published snapshot) trip it open and the router stops
  probing that member until the cooldown admits a half-open probe.  A
  supervisor restart resets the breaker.  Staleness misses are *not*
  failures — a lagging replica is healthy, just behind.
* **Condition-variable waits** — instead of a 1 ms hot spin, waiters
  block on a condition notified by every publish (the cluster wires
  ``set_publish_listener`` to :meth:`notify_event`) and every health
  transition, with a 50 ms poll cap as a safety net.
* **Opt-in degraded mode** — with ``degraded="stale"``, a read that
  would time out (and carries no ``min_seq`` floor — read-your-writes
  never degrades) is served from the freshest snapshot any registered
  target ever published, dead or alive, provided it is within
  ``degraded_max_lag`` of the primary's applied seq.  The lease is
  tagged ``degraded=True`` and the answer tap sees the target as
  ``"<name>+degraded"``, so the staleness is visible end to end.  A
  snapshot is immutable and consistent *at its own seq* — degraded
  answers are bounded-stale, never wrong, which is why the shadow
  auditor verifies them unchanged.  The default stays ``"refuse"``.
"""

import threading
import time

from repro.exceptions import ClusterError
from repro.resilience.breaker import CircuitBreaker

#: policy registry — name -> nothing but validation; selection is shared.
POLICIES = ("round_robin", "least_loaded", "bounded_staleness")

#: degraded-mode vocabulary: refuse (default) or serve bounded-stale.
DEGRADED_MODES = ("refuse", "stale")

#: cap on each blocking wait slice — the safety net under lost wakeups.
_WAIT_SLICE = 0.05


class _Target:
    """Router-side bookkeeping for one queryable backend (replica/primary)."""

    __slots__ = ("name", "handle", "inflight", "routed", "breaker")

    def __init__(self, name, handle, breaker=None):
        self.name = name
        self.handle = handle
        self.inflight = 0
        self.routed = 0
        self.breaker = breaker

    def healthy(self):
        return getattr(self.handle, "healthy", True)


class RoutedRead:
    """A leased (target, pinned snapshot) pair; use as a context manager.

    ``snapshot`` is immutable, so the lease may be held for a whole batch
    of queries; releasing only returns the in-flight slot used by the
    ``least_loaded`` policy.  ``degraded`` marks a bounded-stale lease
    served under the router's opt-in degraded mode.
    """

    __slots__ = ("name", "snapshot", "degraded", "_router", "_target",
                 "_released")

    def __init__(self, router, target, snapshot, degraded=False):
        self.name = target.name
        self.snapshot = snapshot
        self.degraded = degraded
        self._router = router
        self._target = target
        self._released = False

    def release(self):
        """Return the in-flight slot (idempotent)."""
        if not self._released:
            self._released = True
            self._router._release(self._target)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False


class _RouterObs:
    """Pre-created instruments for one router (see ``set_metrics``)."""

    __slots__ = ("tracer", "leases", "wait", "refusals", "transitions")

    def __init__(self, registry, tracer, layer):
        self.tracer = tracer
        self.leases = registry.counter(f"repro_{layer}_leases")
        self.wait = registry.histogram(f"repro_{layer}_lease_wait_seconds")
        self.refusals = registry.counter(f"repro_{layer}_refusals")
        self.transitions = {
            state: registry.counter(
                f"repro_{layer}_breaker_transitions", to=state
            )
            for state in ("closed", "open", "half_open")
        }

    def on_breaker_transition(self, _old, new):
        counter = self.transitions.get(new)
        if counter is not None:
            counter.inc()


class ClusterRouter:
    """Route reads across one primary and its replicas under a policy."""

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
        if parallel_threshold < 2:
            raise ClusterError(
                f"parallel_threshold must be >= 2, got {parallel_threshold!r}"
            )
        if degraded not in DEGRADED_MODES:
            raise ClusterError(
                f"unknown degraded mode {degraded!r}; "
                f"choose from {DEGRADED_MODES}"
            )
        if degraded_max_lag < 0:
            raise ClusterError(
                f"degraded_max_lag must be >= 0, got {degraded_max_lag!r}"
            )
        self.policy = policy
        self.staleness_delta = staleness_delta
        self.wait_timeout = wait_timeout
        self.parallel_threshold = parallel_threshold
        self.degraded = degraded
        self.degraded_max_lag = degraded_max_lag
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._primary = _Target("primary", primary)
        self._replicas = [
            _Target(r.name, r, self._new_breaker()) for r in replicas
        ]
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._rr = 0
        self._fallbacks = 0
        self._waits = 0
        self._breaker_skips = 0
        self._degraded_serves = 0
        self._answer_tap = None
        self._obs = None

    def _new_breaker(self):
        return CircuitBreaker(
            failure_threshold=self._breaker_threshold,
            cooldown=self._breaker_cooldown,
        )

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------

    def set_metrics(self, registry, tracer=None):
        """Install (or clear, with ``None``) the telemetry seam.

        Promotes ``stats()`` into ``registry`` as callback gauges, arms
        lease counters and a lease-wait histogram on the acquire path,
        counts every circuit-breaker state transition (via
        :meth:`~repro.resilience.CircuitBreaker.set_listener`), and —
        with a :class:`~repro.obs.Tracer` — retains span trees for
        sampled routed reads.
        """
        if registry is None:
            with self._lock:
                targets = list(self._replicas)
            for target in targets:
                if target.breaker is not None:
                    target.breaker.set_listener(None)
            self._obs = None
            return
        from repro.obs.bind import bind_cluster_router

        bind_cluster_router(registry, self)
        obs = _RouterObs(registry, tracer, "cluster")
        with self._lock:
            targets = list(self._replicas)
        for target in targets:
            if target.breaker is not None:
                target.breaker.set_listener(obs.on_breaker_transition)
        self._obs = obs

    def add_replica(self, replica):
        """Register a new follower with the router."""
        breaker = self._new_breaker()
        obs = self._obs
        if obs is not None:
            breaker.set_listener(obs.on_breaker_transition)
        with self._lock:
            self._replicas.append(_Target(replica.name, replica, breaker))
        self.notify_event()

    def set_member(self, name, replica):
        """Swap the handle behind ``name`` (a restarted replica).

        The target's circuit breaker is reset — the new member deserves
        a clean slate — and lease waiters are woken to re-examine it.
        """
        with self._lock:
            for t in self._replicas:
                if t.name == name:
                    t.handle = replica
                    if t.breaker is not None:
                        t.breaker.reset()
                    break
            else:
                raise ClusterError(f"router knows no replica named {name!r}")
        self.notify_event()

    def replica_names(self):
        """The registered replica names, in registration order."""
        with self._lock:
            return [t.name for t in self._replicas]

    def notify_event(self, *_args, **_kwargs):
        """Wake blocked lease waiters (publish / health-change seam).

        Wired to every member's ``set_publish_listener`` and to the
        supervisor's :class:`~repro.resilience.HealthMonitor` listener —
        extra positional arguments (the monitor passes its event) are
        accepted and ignored so one callable fits both seams.
        """
        with self._wakeup:
            self._wakeup.notify_all()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def acquire(self, min_seq=0):
        """Lease a target under the policy; returns a :class:`RoutedRead`.

        Guarantees: the leased snapshot is from a healthy target,
        ``snapshot.seq >= min_seq``, and — under ``bounded_staleness`` —
        ``snapshot.seq >= primary_applied_seq - staleness_delta`` as of
        selection.  When nothing qualifies within ``wait_timeout``
        seconds: raises :class:`ClusterError` (the default), or — under
        ``degraded="stale"`` and only for floorless reads — serves the
        freshest bounded-stale snapshot any target published, tagged
        ``degraded=True``.
        """
        obs = self._obs
        t0 = time.perf_counter() if obs is not None else 0.0
        deadline = time.monotonic() + self.wait_timeout
        while True:
            lease = self._try_acquire(min_seq)
            if lease is not None:
                if obs is not None:
                    obs.leases.inc()
                    obs.wait.observe(time.perf_counter() - t0)
                return lease
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            with self._wakeup:
                self._waits += 1
                self._wakeup.wait(min(_WAIT_SLICE, remaining))
        if self.degraded == "stale" and min_seq == 0:
            lease = self._degraded_acquire()
            if lease is not None:
                if obs is not None:
                    obs.leases.inc()
                    obs.wait.observe(time.perf_counter() - t0)
                return lease
        if obs is not None:
            obs.refusals.inc()
        raise ClusterError(
            f"no routing target reached seq >= {min_seq} within "
            f"{self.wait_timeout} s (policy {self.policy!r}, "
            f"delta {self.staleness_delta}, primary at seq "
            f"{self._primary_seq()}); the fleet is lagging or down"
        )

    def set_answer_tap(self, tap):
        """Install (or clear, with ``None``) the answer-tap hook.

        Same contract as :meth:`repro.serve.SPCService.set_answer_tap`:
        ``tap(answered, seq, target, epoch)`` fires after every routed
        read — point, tagged and batch paths alike — with the leased
        snapshot's sequence number and the serving target's name, so an
        :class:`~repro.audit.AuditSampler` observes answers from every
        replica the policy touches.  Degraded leases report their target
        as ``"<name>+degraded"``.
        """
        self._answer_tap = tap

    def _tapped(self, lease, answered):
        tap = self._answer_tap
        if tap is not None:
            snap = lease.snapshot
            name = f"{lease.name}+degraded" if lease.degraded else lease.name
            tap(answered, snap.seq, name, snap.epoch)

    def query(self, s, t, min_seq=0):
        """Answer one pair through the policy; returns (sd, spc)."""
        obs = self._obs
        tracer = obs.tracer if obs is not None else None
        trace = tracer.maybe_begin("cluster_query") if tracer else None
        if trace is None:
            with self.acquire(min_seq) as lease:
                answer = lease.snapshot.query(s, t)
                self._tapped(lease, [((s, t), answer)])
                return answer
        t0 = time.perf_counter()
        with self.acquire(min_seq) as lease:
            t1 = time.perf_counter()
            answer = lease.snapshot.query(s, t)
            t2 = time.perf_counter()
            self._tapped(lease, [((s, t), answer)])
            t3 = time.perf_counter()
            trace.add("queue_wait", t1 - t0, meta={"target": lease.name})
            trace.add("probe", t2 - t1)
            trace.add("tap", t3 - t2)
            trace.finish(t3 - t0)
            return answer

    def query_tagged(self, s, t, min_seq=0):
        """Answer one pair; returns ``(answer, seq, target_name)``.

        The seq is the claimed consistency point of the answer — the
        harness checks every tagged answer against a progressive WAL
        replay at exactly that sequence number.
        """
        with self.acquire(min_seq) as lease:
            answer = lease.snapshot.query(s, t)
            self._tapped(lease, [((s, t), answer)])
            name = f"{lease.name}+degraded" if lease.degraded else lease.name
            return answer, lease.snapshot.seq, name

    def query_many(self, pairs, min_seq=0):
        """Answer a batch of pairs, spreading large batches over the fleet.

        Batches shorter than ``parallel_threshold`` — or when fewer than
        two healthy replicas are up — take the classic path: one lease,
        one snapshot, one pass.  Larger batches are split into contiguous
        sub-batches (:func:`repro.shard.planner.split_batch`), each
        answered under its *own* lease on whatever target the policy
        picks, and reassembled in submission order.  Each sub-batch fires
        the answer tap with its own (seq, target), so every answer is
        still attributed to the exact snapshot that served it — sub-
        batches may land on different seqs, which is why
        :meth:`query_many_tagged` (one claimed seq for the whole batch)
        never splits.
        """
        pairs = list(pairs)
        if len(pairs) >= self.parallel_threshold:
            # Deferred import: repro.shard's package init reaches back
            # into repro.cluster through the audit harness, so a top-
            # level import here would be circular.
            from repro.shard.planner import gather_chunks, split_batch

            with self._lock:
                ways = sum(1 for t in self._replicas if t.healthy())
            if ways >= 2:
                chunks = split_batch(
                    pairs, ways, min_chunk=self.parallel_threshold // 2
                )
                if len(chunks) >= 2:
                    def worker(_offset, chunk):
                        with self.acquire(min_seq) as lease:
                            answers = lease.snapshot.query_many(chunk)
                            self._tapped(lease, list(zip(chunk, answers)))
                            return answers

                    return gather_chunks(chunks, worker, parallel=True)
        obs = self._obs
        tracer = obs.tracer if obs is not None else None
        trace = tracer.maybe_begin("cluster_query_many") if tracer else None
        if trace is None:
            with self.acquire(min_seq) as lease:
                answers = lease.snapshot.query_many(pairs)
                self._tapped(lease, list(zip(pairs, answers)))
                return answers
        t0 = time.perf_counter()
        with self.acquire(min_seq) as lease:
            t1 = time.perf_counter()
            answers = lease.snapshot.query_many(pairs)
            t2 = time.perf_counter()
            self._tapped(lease, list(zip(pairs, answers)))
            t3 = time.perf_counter()
            trace.add("queue_wait", t1 - t0, meta={"target": lease.name})
            trace.add("probe", t2 - t1, meta={"pairs": len(pairs)})
            trace.add("tap", t3 - t2)
            trace.finish(t3 - t0)
            return answers

    def query_many_tagged(self, pairs, min_seq=0):
        """Batch variant of :meth:`query_tagged`: (answers, seq, name).

        Always a single lease: the returned seq is a claim about *every*
        answer in the batch, so the batch is never split across
        snapshots (use :meth:`query_many` for replica-spread batches).
        """
        pairs = list(pairs)
        with self.acquire(min_seq) as lease:
            answers = lease.snapshot.query_many(pairs)
            self._tapped(lease, list(zip(pairs, answers)))
            name = f"{lease.name}+degraded" if lease.degraded else lease.name
            return answers, lease.snapshot.seq, name

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
                "routed": {t.name: t.routed for t in self._replicas},
                "primary_reads": self._primary.routed,
                "fallbacks": self._fallbacks,
                "waits": self._waits,
                "breaker_skips": self._breaker_skips,
                "degraded_serves": self._degraded_serves,
                "breakers": {
                    t.name: t.breaker.stats()
                    for t in self._replicas if t.breaker is not None
                },
            }

    def __repr__(self):
        return (
            f"ClusterRouter(policy={self.policy!r}, "
            f"replicas={[t.name for t in self._replicas]}, "
            f"delta={self.staleness_delta}, degraded={self.degraded!r})"
        )

    # ------------------------------------------------------------------
    # Selection internals
    # ------------------------------------------------------------------

    def _primary_seq(self):
        return self._primary.handle.applied_seq

    def _try_acquire(self, min_seq):
        """One selection attempt; returns a lease or None (nothing fresh)."""
        if self.policy == "bounded_staleness":
            floor = self._primary_seq() - self.staleness_delta
        else:
            floor = None
        candidates = []  # (target, pinned snapshot)
        skips = 0
        with self._lock:
            replicas = list(self._replicas)
        for target in replicas:
            breaker = target.breaker
            if not target.healthy():
                # A dead handle is a lease failure the breaker counts —
                # once open, the router skips the member without even
                # reading it until a half-open probe is due.
                if breaker is not None and breaker.allow():
                    breaker.record_failure()
                else:
                    skips += 1
                continue
            if breaker is not None and not breaker.allow():
                skips += 1
                continue
            snap = target.handle.snapshot()
            if snap is None:
                if breaker is not None:
                    breaker.record_failure()
                continue
            if breaker is not None:
                breaker.record_success()
            # Staleness misses are not target failures: the member is
            # healthy, merely behind — the supervisor's lag tracking owns
            # that signal, not the breaker.
            if snap.seq < min_seq:
                continue
            if floor is not None and snap.seq < floor:
                continue
            candidates.append((target, snap))
        if skips:
            with self._lock:
                self._breaker_skips += skips
        if candidates:
            return self._lease(*self._pick(candidates))
        # No replica qualifies: the primary's own snapshot is the fallback,
        # held to the same freshness bar (its snapshot can trail its
        # applied seq by up to publish_every, so it must be checked too).
        snap = self._primary.handle.snapshot()
        if snap is not None and snap.seq >= min_seq and (
            floor is None or snap.seq >= floor
        ):
            with self._lock:
                self._fallbacks += 1
            return self._lease(self._primary, snap)
        return None

    def _degraded_acquire(self):
        """Serve the freshest bounded-stale snapshot from *any* target.

        Health, breakers and the staleness policy are deliberately
        ignored — a dead replica's last published snapshot is still an
        immutable, internally consistent view at its own seq.  The only
        bar is ``degraded_max_lag`` against the primary's applied seq:
        past it, bounded staleness can no longer be claimed and the
        refusal stands.
        """
        floor = self._primary_seq() - self.degraded_max_lag
        with self._lock:
            targets = [self._primary] + list(self._replicas)
        best = None
        for target in targets:
            try:
                snap = target.handle.snapshot()
            except Exception:  # noqa: BLE001 — a torn-down handle yields
                continue       # nothing; degraded mode scavenges, not insists
            if snap is None or snap.seq < floor:
                continue
            if best is None or snap.seq > best[1].seq:
                best = (target, snap)
        if best is None:
            return None
        with self._lock:
            self._degraded_serves += 1
        return self._lease(*best, degraded=True)

    def _pick(self, candidates):
        """Choose among eligible (target, snapshot) pairs under the policy."""
        with self._lock:
            if self.policy == "least_loaded":
                lightest = min(c[0].inflight for c in candidates)
                candidates = [
                    c for c in candidates if c[0].inflight == lightest
                ]
            self._rr += 1
            return candidates[self._rr % len(candidates)]

    def _lease(self, target, snapshot, degraded=False):
        with self._lock:
            target.inflight += 1
            target.routed += 1
        return RoutedRead(self, target, snapshot, degraded=degraded)

    def _release(self, target):
        with self._lock:
            target.inflight -= 1
