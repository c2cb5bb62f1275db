"""Router: the read path the cluster and shard routers share.

A router serves the primary's one maintained label index to many
readers through K members.  Every read pins a *lease* — one replica
snapshot (:class:`~repro.cluster.ClusterRouter`) or one cross-shard cut
(:class:`~repro.shard.ShardRouter`) — answers from it, fires the answer
tap and releases it.  :class:`Router` owns everything but the pinning:

* the router tunables of :class:`~repro.serve.fleet.FleetConfig` and
  their validation;
* the acquire loop: one deadline, condition-variable waits woken by
  :meth:`~Router.notify_event` with a 50 ms poll cap as the safety net
  under lost wakeups, and one refuse-or-degrade rule at the deadline;
* one circuit breaker per member key, reset by :meth:`~Router.set_member`
  and wired to the metrics listeners;
* the answer tap, the tagged reads and the empty-batch rule.

A subclass supplies ``_try_acquire`` (one selection attempt),
``_degraded`` (its bounded-stale fallback), ``_deadline_error``, its
instruments and stage timings, ``stats()`` and ``__repr__``.  See
DESIGN.md §11, "One read path".
"""

import threading
import time

from repro.exceptions import ReproError
from repro.resilience.breaker import CircuitBreaker

#: degraded-mode vocabulary: refuse (default) or serve bounded-stale.
DEGRADED_MODES = ("refuse", "stale")

#: cap on each blocking wait slice — the safety net under lost wakeups.
_WAIT_SLICE = 0.05


class Lease:
    """One pinned read point; use as a context manager.

    A lease offers ``seq`` and ``epoch`` (the answer's consistency
    point), ``name`` and ``degraded``, the tagged :attr:`target`, and
    ``answer(s, t, trace=None)`` / ``answer_many(pairs)``.  Releasing is
    a no-op unless the subclass holds a slot.
    """

    __slots__ = ()

    @property
    def target(self):
        """The serving target as the tap and tagged reads report it."""
        return f"{self.name}+degraded" if self.degraded else self.name

    def release(self):
        """Return whatever the lease holds (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False


class RouterObs:
    """Pre-created instruments every router has (see ``set_metrics``):
    the refusal counter and one breaker-transition counter per state."""

    #: the refusal counter's name under ``repro_{layer}_``.
    refusals_metric = "refusals"

    def __init__(self, registry, tracer, layer):
        self.tracer = tracer
        self.refusals = registry.counter(
            f"repro_{layer}_{self.refusals_metric}"
        )
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


class Router:
    """Base of the fleet routers: members, breakers, waits, taps, reads."""

    #: ``"cluster"`` or ``"shard"``: the metric prefix ``repro_{layer}``
    #: and the trace names ``{layer}_query`` / ``{layer}_query_many``.
    layer = None
    #: the error type of the router's fleet.
    error_type = ReproError
    #: the instrument set ``set_metrics`` builds.
    obs_type = RouterObs
    #: message for a ``set_member`` key the router does not know.
    _unknown_member = "router knows no member {!r}"

    def __init__(self, members, *, wait_timeout, parallel_threshold,
                 degraded, degraded_max_lag, breaker_threshold,
                 breaker_cooldown):
        if parallel_threshold < 2:
            raise self.error_type(
                f"parallel_threshold must be >= 2, got {parallel_threshold!r}"
            )
        if degraded not in DEGRADED_MODES:
            raise self.error_type(
                f"unknown degraded mode {degraded!r}; "
                f"choose from {DEGRADED_MODES}"
            )
        if degraded_max_lag < 0:
            raise self.error_type(
                f"degraded_max_lag must be >= 0, got {degraded_max_lag!r}"
            )
        self.wait_timeout = wait_timeout
        self.parallel_threshold = parallel_threshold
        self.degraded = degraded
        self.degraded_max_lag = degraded_max_lag
        #: key -> member, in registration (slot) order.
        self._members = dict(members)
        self._breakers = {
            key: CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
            )
            for key in self._members
        }
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._waits = 0
        self._refusals = 0
        self._degraded_serves = 0
        self._answer_tap = None
        self._obs = None

    # ------------------------------------------------------------------
    # Members and seams
    # ------------------------------------------------------------------

    def set_member(self, key, member):
        """Swap the member behind ``key`` (a restarted replica or shard).

        The key's circuit breaker is reset — the new member deserves a
        clean slate — and lease waiters are woken to re-examine it.
        """
        with self._lock:
            if key not in self._members:
                raise self.error_type(self._unknown_member.format(key))
            self._members[key] = member
        self._breakers[key].reset()
        self.notify_event()

    def _member_items(self):
        """``[(key, member), ...]`` as of now, in registration order."""
        with self._lock:
            return list(self._members.items())

    def notify_event(self, *_args, **_kwargs):
        """Wake blocked lease waiters (publish / health-change seam).

        Wired to every member's ``set_publish_listener`` and to the
        supervisor's :class:`~repro.resilience.HealthMonitor` listener —
        extra positional arguments (the monitor passes its event) are
        accepted and ignored so one callable fits both seams.
        """
        with self._wakeup:
            self._wakeup.notify_all()

    def set_answer_tap(self, tap):
        """Install (or clear, with ``None``) the answer-tap hook.

        Same contract as :meth:`repro.serve.SPCService.set_answer_tap`:
        ``tap(answered, seq, target, epoch)`` fires after every routed
        read — point, tagged and batch paths alike — with the lease's
        seq and tagged target (``"<name>+degraded"`` for a degraded
        lease), so an :class:`~repro.audit.AuditSampler` and the shadow
        auditor replaying the WAL to that seq verify every answer.
        """
        self._answer_tap = tap

    def _tapped(self, lease, answered):
        tap = self._answer_tap
        if tap is not None:
            tap(answered, lease.seq, lease.target, lease.epoch)

    def set_metrics(self, registry, tracer=None):
        """Install (or clear, with ``None``) the telemetry seam.

        Promotes ``stats()`` into ``registry`` as ``repro_{layer}_*``
        callback gauges, builds the router's instruments, counts every
        circuit-breaker state transition (via
        :meth:`~repro.resilience.CircuitBreaker.set_listener`), and —
        with a :class:`~repro.obs.Tracer` — retains span trees for
        sampled reads.
        """
        if registry is None:
            for breaker in self._breakers.values():
                breaker.set_listener(None)
            self._obs = None
            return
        from repro.obs.bind import bind_stats

        bind_stats(registry, f"repro_{self.layer}", self.stats)
        obs = self.obs_type(registry, tracer, self.layer)
        for breaker in self._breakers.values():
            breaker.set_listener(obs.on_breaker_transition)
        self._obs = obs

    # ------------------------------------------------------------------
    # Acquire: one deadline loop, one refuse-or-degrade rule
    # ------------------------------------------------------------------

    def acquire(self, min_seq=0):
        """Lease a read point at ``seq >= min_seq``.

        Retries the subclass's selection until ``wait_timeout``, waking
        on every publish and health event.  A selection may also refuse
        at once (a shard fleet with a shard down).  A refusal raises the
        router's error type — or, under ``degraded="stale"`` and only
        for floorless reads, serves the subclass's bounded-stale
        fallback, tagged ``degraded=True``.
        """
        t0 = time.perf_counter()
        deadline = time.monotonic() + self.wait_timeout
        while True:
            lease = self._try_acquire(min_seq)
            if isinstance(lease, Exception):
                return self._refuse_or_degrade(min_seq, lease, t0)
            if lease is not None:
                return self._granted(lease, t0)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self._refuse_or_degrade(
                    min_seq, self._deadline_error(min_seq), t0
                )
            with self._wakeup:
                self._waits += 1
                self._wakeup.wait(min(_WAIT_SLICE, remaining))

    def _refuse_or_degrade(self, min_seq, error, t0):
        """Raise ``error`` — or, under opt-in degraded mode, serve the
        bounded-stale fallback (floorless reads only: read-your-writes
        never degrades)."""
        with self._lock:
            self._refusals += 1
        if self.degraded == "stale" and min_seq == 0:
            lease = self._degraded()
            if lease is not None:
                with self._lock:
                    self._degraded_serves += 1
                return self._granted(lease, t0)
        obs = self._obs
        if obs is not None:
            obs.refusals.inc()
        raise error

    def _granted(self, lease, t0):
        obs = self._obs
        if obs is not None:
            self._on_grant(obs, lease, time.perf_counter() - t0)
        return lease

    def _try_acquire(self, min_seq):
        """One selection attempt: a lease, ``None`` to wait and retry, or
        an ``error_type`` instance to refuse without waiting."""
        raise NotImplementedError

    def _degraded(self):
        """The bounded-stale fallback lease, or ``None``."""
        raise NotImplementedError

    def _deadline_error(self, min_seq):
        """The error a read refused at its deadline raises."""
        raise NotImplementedError

    def _on_grant(self, obs, lease, elapsed):
        """Account one granted lease (``elapsed`` = its acquire time)."""

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def query(self, s, t, min_seq=0):
        """Answer one pair at one pinned read point; returns (sd, spc)."""
        return self._read(min_seq, [(s, t)], True, self._obs)[0][0]

    def query_tagged(self, s, t, min_seq=0):
        """Answer one pair; returns ``(answer, seq, target)``.

        The seq is the claimed consistency point of the answer — the
        harnesses check every tagged answer against a progressive WAL
        replay at exactly that seq — and ``target`` is what the tap
        sees, so callers observe degraded serves without a tap.
        """
        answers, lease = self._read(min_seq, [(s, t)], True)
        return answers[0], lease.seq, lease.target

    def query_many(self, pairs, min_seq=0):
        """Answer a batch of pairs from one lease, in submission order.

        An empty batch returns ``[]`` without a lease or a tap call.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        return self._read(min_seq, pairs, False, self._obs)[0]

    def query_many_tagged(self, pairs, min_seq=0):
        """Batch variant of :meth:`query_tagged`: (answers, seq, target).

        Always a single lease: the returned seq is a claim about *every*
        answer in the batch.  An empty batch claims nothing, so it
        returns ``([], min_seq, None)`` — the caller's own floor — without
        a lease or a tap call, as :meth:`query_many` does.
        """
        pairs = list(pairs)
        if not pairs:
            return [], min_seq, None
        answers, lease = self._read(min_seq, pairs, False)
        return answers, lease.seq, lease.target

    def _read(self, min_seq, pairs, point, obs=None):
        """Acquire, answer, tap, release: the one body of every read.

        With ``obs`` (the instrumented ``query`` / ``query_many``), a
        sampled read gets a ``{layer}_query[_many]`` trace and the stage
        stamps go to the subclass's ``_record``.  Returns
        ``(answers, lease)``.
        """
        tracer = obs.tracer if obs is not None else None
        trace = None
        if tracer is not None:
            trace = tracer.maybe_begin(
                f"{self.layer}_query" if point else f"{self.layer}_query_many",
                meta=None if point else {"pairs": len(pairs)},
            )
        t0 = time.perf_counter()
        with self.acquire(min_seq) as lease:
            t1 = time.perf_counter()
            if point:
                answers = [lease.answer(*pairs[0], trace=trace)]
            else:
                answers = self._answer_many(lease, pairs)
            t2 = time.perf_counter()
            self._tapped(lease, list(zip(pairs, answers)))
            t3 = time.perf_counter()
        if obs is not None:
            self._record(obs, trace, lease, point, len(pairs),
                         t0, t1, t2, t3)
        return answers, lease

    def _answer_many(self, lease, pairs):
        """The batch probe on one lease (a subclass may split it)."""
        return lease.answer_many(pairs)

    def _record(self, obs, trace, lease, point, pairs, t0, t1, t2, t3):
        """File one instrumented read's stages: acquire ``t0..t1``,
        answer ``t1..t2``, tap ``t2..t3``."""
        raise NotImplementedError
