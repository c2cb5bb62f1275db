"""Fleet: one primary, K stream followers, one router.

:class:`~repro.cluster.SPCCluster` (WAL-replicated replicas) and
:class:`~repro.shard.ShardedCluster` (hub-sliced shards) share one
shape: a durable primary :class:`~repro.serve.SPCService` takes every
write, K members keyed by name or slot tail its stream, and a router
spreads reads over them.  :class:`Fleet` owns that shape — the write
path, the routed reads, the member map with its kill/restart fault
operations, ``sync``'s catch-up-or-raise loop and ``close``'s failure
collection — so the :class:`~repro.resilience.Supervisor`, the chaos
harness and the replay engine drive either fleet through one surface.
See DESIGN.md §11, "One fleet".
"""

import dataclasses
import threading
from dataclasses import dataclass

from repro.engine import SPCEngine
from repro.exceptions import ReproError
from repro.serve.service import ServeConfig, SPCService


@dataclass(frozen=True)
class FleetConfig:
    """The tunables every fleet shares (the subclasses add their own).

    Parameters
    ----------
    poll_interval:
        Seconds a member sleeps between empty stream polls.
    wait_timeout:
        How long a routed read may wait for a fresh-enough target (a
        consistent cut, on a sharded fleet) before refusing with the
        fleet's error type.
    parallel_threshold:
        ``query_many`` batches at least this long are split across the
        healthy members instead of running on a single snapshot.
    degraded:
        Router behavior at the read deadline: ``"refuse"`` (default —
        raise the fleet's error type) or ``"stale"`` (serve the freshest
        available answer, tagged degraded, when it is within
        ``degraded_max_lag`` of the freshest state).
    degraded_max_lag:
        Staleness bound (in batches) a degraded-mode answer must meet.
    breaker_threshold / breaker_cooldown:
        Per-member circuit breaker: consecutive failures that trip it
        open, and seconds before a half-open recovery probe.
    stall_budget:
        Re-bootstraps without progress a member tolerates before dying
        (``None`` = the member's own default).
    """

    poll_interval: float = 0.002
    wait_timeout: float = 5.0
    parallel_threshold: int = 64
    degraded: str = "refuse"
    degraded_max_lag: int = 64
    breaker_threshold: int = 3
    breaker_cooldown: float = 0.25
    stall_budget: int = None

    def replace(self, **changes):
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


class Fleet:
    """Base of the serving fleets: primary + keyed members + router.

    A subclass sets the class attributes below and supplies ``_boot()``
    (spawn the initial members into ``self._members`` and return the
    router), ``_spawn(key)`` (build one member), ``stats()`` and
    ``__repr__``.  Its router must offer ``set_member(key, member)``.
    """

    #: ``"cluster"`` or ``"shard"`` — the fleet shape, as reported by
    #: the :class:`~repro.resilience.Supervisor`.
    kind = None
    #: the error type of the fleet, its members and its router.
    error_type = ReproError
    #: the frozen config dataclass keyword overrides build.
    config_type = FleetConfig
    #: fields forced on the primary's :class:`ServeConfig`.
    _serve_overrides = {}
    #: message templates: one member, an unknown key, the fleet.
    _member_noun = "member {!r}"
    _unknown_noun = "no member named {!r}"
    _fleet_noun = "fleet"

    def __init__(self, engine, state_dir, config=None, serve_config=None,
                 overwrite=False, **overrides):
        if config is None:
            config = self.config_type(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self._config = config
        if serve_config is None:
            serve_config = ServeConfig()
        serve_config = serve_config.replace(
            durability_dir=state_dir, **self._serve_overrides
        )
        self._state_dir = state_dir
        self._closed = False
        # Serializes restart against close: a member spawned after the
        # teardown would leak its thread.
        self._lock = threading.Lock()
        self._members = {}
        self.primary = SPCService(
            engine, config=serve_config, overwrite=overwrite
        )
        try:
            self.router = self._boot()
            # Publish events wake blocked routed reads instead of letting
            # them sleep out their wait slice.
            for member in self._members.values():
                member.set_publish_listener(self.router.notify_event)
        except BaseException:
            # A member that failed to bootstrap must not leak the ones
            # that did, nor the primary's writer thread.
            self._teardown()
            raise

    @classmethod
    def _open(cls, graph_or_engine, state_dir, engine_config=None,
              **kwargs):
        """Build an engine over a graph (unless handed one), then the
        fleet — the body of the ``cluster()`` / ``shard_cluster()``
        entry points."""
        if not isinstance(graph_or_engine, SPCEngine):
            graph_or_engine = SPCEngine(graph_or_engine, config=engine_config)
        return cls(graph_or_engine, state_dir, **kwargs)

    def _router_options(self):
        """The router tunables every fleet reads from its config."""
        c = self._config
        return dict(
            wait_timeout=c.wait_timeout,
            parallel_threshold=c.parallel_threshold,
            degraded=c.degraded,
            degraded_max_lag=c.degraded_max_lag,
            breaker_threshold=c.breaker_threshold,
            breaker_cooldown=c.breaker_cooldown,
        )

    # ------------------------------------------------------------------
    # Write path (primary only)
    # ------------------------------------------------------------------

    def submit(self, update):
        """Enqueue one update on the primary."""
        self.primary.submit(update)

    def submit_many(self, updates):
        """Enqueue a batch (kept whole) on the primary."""
        self.primary.submit_many(updates)

    def flush(self, timeout=30.0):
        """Apply everything submitted on the primary so far."""
        return self.primary.flush(timeout=timeout)

    def checkpoint(self, truncate_wal=False, timeout=30.0):
        """Durable checkpoint on the primary (members re-bootstrap if
        the stream is truncated beneath their tail)."""
        return self.primary.checkpoint(
            truncate_wal=truncate_wal, timeout=timeout
        )

    # ------------------------------------------------------------------
    # Read path (routed)
    # ------------------------------------------------------------------

    def query(self, s, t):
        """Answer (sd, spc) through the router."""
        return self.router.query(s, t)

    def query_tagged(self, s, t):
        """Routed answer plus its consistency tag: (answer, seq, target)."""
        return self.router.query_tagged(s, t)

    def query_many(self, pairs):
        """Answer a batch of pairs through the router."""
        return self.router.query_many(pairs)

    def set_answer_tap(self, tap):
        """Tap routed answers (the shadow audit's seam)."""
        self.router.set_answer_tap(tap)

    def set_metrics(self, registry, tracer=None):
        """Install (or clear, with ``None``) telemetry across the fleet:
        the primary's serve instruments + writer spans, and the router's
        own accounting."""
        self.primary.set_metrics(registry, tracer=tracer)
        self.router.set_metrics(registry, tracer=tracer)

    # ------------------------------------------------------------------
    # Fleet operations
    # ------------------------------------------------------------------

    @property
    def members(self):
        """Mapping key -> member (live view, do not mutate)."""
        return self._members

    @property
    def config(self):
        """The fleet's frozen config."""
        return self._config

    @property
    def state_dir(self):
        """The primary's durability directory (= the replication stream)."""
        return self._state_dir

    def sync(self, timeout=30.0):
        """Flush the primary, then block until every healthy member has
        applied up to the primary's seq.  Returns that seq.

        Raises the fleet's error type when a member cannot catch up in
        time (or died trying) — a lagging fleet is an operational fact
        the caller must see, not average away.
        """
        self.primary.flush(timeout=timeout)
        target = self.primary.applied_seq
        for key, member in self._members.items():
            if member.healthy and not member.catch_up(target, timeout=timeout):
                raise self.error_type(
                    f"{self._member_noun.format(key)} is stuck at seq "
                    f"{member.applied_seq}, primary at {target}"
                )
        return target

    def kill(self, key):
        """Hard-stop one member mid-stream (fault injection).

        The dead member stays registered (and unhealthy, so the router
        skips or refuses around it) until :meth:`restart` replaces it.
        """
        self._member(key).kill()

    def restart(self, key):
        """Crash-recover a member: bootstrap a fresh one under the same
        key from the *current* checkpoint + stream tail and swap it into
        the router.  Returns the new member.
        """
        with self._lock:
            old = self._member(key)
            old.kill()
            member = self._spawn(key)
            member.set_publish_listener(self.router.notify_event)
            self._members[key] = member
            self.router.set_member(key, member)
        return member

    def close(self, timeout=30.0):
        """Stop every member and the primary.  Idempotent.

        Member failures surface as the fleet's error type after
        everything has been torn down — a dead member must not leave the
        primary's writer thread running.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        failures = self._teardown(timeout=timeout)
        if failures:
            raise self.error_type(
                f"{self._fleet_noun} shutdown found {len(failures)} failed "
                f"component(s): " + "; ".join(failures)
            )

    def _teardown(self, timeout=30.0):
        failures = []
        for member in self._members.values():
            try:
                member.close()
            except self.error_type as exc:
                failures.append(str(exc))
        try:
            self.primary.close(timeout=timeout)
        except Exception as exc:  # noqa: BLE001 — reported, not masked
            failures.append(f"primary: {exc!r}")
        return failures

    def _member(self, key):
        if self._closed:
            raise self.error_type(
                f"{self._fleet_noun} is closed; "
                f"{self._member_noun.format(key)} cannot be killed or "
                f"restarted"
            )
        try:
            return self._members[key]
        except KeyError:
            raise self.error_type(
                f"{self._unknown_noun.format(key)}; "
                f"have {sorted(self._members)}"
            ) from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
