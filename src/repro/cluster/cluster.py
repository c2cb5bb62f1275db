"""SPCCluster: one primary, K WAL-replicated replicas, one router.

The scale-out shape the ROADMAP calls for: a single writer
(:class:`~repro.serve.SPCService` with durability on) keeps the
authoritative engine and the WAL; each :class:`~repro.cluster.Replica`
bootstraps from the primary's checkpoint and tails that WAL as its
replication stream; a :class:`~repro.cluster.ClusterRouter` spreads reads
across the fleet under a pluggable policy.  Writes always go to the
primary — the cluster is single-writer by construction, which is what
keeps every replica a deterministic replay of one totally-ordered log.

Fault injection is a first-class operation, not a test hack:
:meth:`SPCCluster.kill_replica` hard-stops a follower mid-stream and
:meth:`SPCCluster.restart_replica` brings a fresh one up under the same
name from the *current* checkpoint + WAL tail — exactly the crash/recover
path an operator would take — while the router routes around the outage.
The orchestration is the shared :class:`~repro.serve.fleet.Fleet` base.
"""

from dataclasses import dataclass

from repro.exceptions import ClusterError
from repro.serve.fleet import Fleet, FleetConfig
from repro.cluster.replica import Replica
from repro.cluster.router import ClusterRouter
from repro.cluster.session import ClusterSession


@dataclass(frozen=True)
class ClusterConfig(FleetConfig):
    """All tunables of an :class:`SPCCluster`: these plus every
    :class:`~repro.serve.fleet.FleetConfig` field.

    Parameters
    ----------
    replicas:
        How many followers to run.
    policy:
        Routing policy name (see :mod:`repro.cluster.router`).
    staleness_delta:
        The Δ of ``bounded_staleness``: never serve an answer whose seq
        lags the primary's applied seq by more than this many batches.
    replica_backends:
        Optional per-replica backend family overrides (a tuple indexed by
        replica slot; ``None`` entries — and a ``None`` tuple — follow
        the primary's family).  Overrides must share the primary's graph
        type (core ⇄ sd).
    """

    replicas: int = 2
    policy: str = "round_robin"
    staleness_delta: int = 8
    replica_backends: tuple = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ClusterError(
                f"a cluster needs at least one replica, got {self.replicas!r}"
            )
        if self.replica_backends is not None and (
            len(self.replica_backends) != self.replicas
        ):
            raise ClusterError(
                f"replica_backends names {len(self.replica_backends)} "
                f"families for {self.replicas} replicas"
            )


class SPCCluster(Fleet):
    """A replicated serving fleet over one engine's WAL.

    Example
    -------
    >>> import repro, tempfile
    >>> from repro.cluster import SPCCluster
    >>> from repro.workloads import InsertEdge
    >>> engine = repro.open(repro.Graph.from_edges([(0, 1), (1, 2)]))
    >>> with tempfile.TemporaryDirectory() as d, SPCCluster(engine, d) as c:
    ...     session = c.session()
    ...     _ = session.submit(InsertEdge(0, 2)).ack()
    ...     session.query(0, 2)
    (1, 1)
    """

    kind = "cluster"
    error_type = ClusterError
    config_type = ClusterConfig
    _member_noun = "replica {!r}"
    _unknown_noun = "no replica named {!r}"
    _fleet_noun = "cluster"

    replicas = Fleet.members
    kill_replica = Fleet.kill
    restart_replica = Fleet.restart

    def _boot(self):
        config = self._config
        backends = config.replica_backends or (None,) * config.replicas
        self._backends = {
            f"replica-{slot}": backend for slot, backend in enumerate(backends)
        }
        for name in self._backends:
            self._members[name] = self._spawn(name)
        router = ClusterRouter(
            self.primary,
            list(self._members.values()),
            policy=config.policy,
            staleness_delta=config.staleness_delta,
            **self._router_options(),
        )
        self.primary.set_publish_listener(router.notify_event)
        return router

    def _spawn(self, name):
        return Replica(
            self._state_dir,
            name=name,
            backend=self._backends[name],
            poll_interval=self._config.poll_interval,
            stall_budget=self._config.stall_budget,
        )

    def session(self):
        """A sticky :class:`ClusterSession` (read-your-writes)."""
        return ClusterSession(self)

    def check_invariants(self):
        """Validate label invariants on the primary engine and every
        healthy replica engine."""
        self.primary.engine.check_invariants()
        for replica in self._members.values():
            if replica.healthy:
                replica.check_invariants()
        return True

    def stats(self):
        """One dict tying together primary, replica and router counters."""
        return {
            "primary": self.primary.stats(),
            "replicas": {
                name: r.stats() for name, r in self._members.items()
            },
            "router": self.router.stats(),
        }

    def __repr__(self):
        return (
            f"SPCCluster(replicas={sorted(self._members)}, "
            f"policy={self._config.policy!r}, "
            f"primary_seq={self.primary.applied_seq})"
        )


def cluster(graph_or_engine, state_dir, config=None, serve_config=None,
            engine_config=None, overwrite=False, **overrides):
    """Open an :class:`SPCCluster` over a graph or an existing engine.

    Convenience entry point mirroring :func:`repro.serve.serve`:
    ``repro.cluster.cluster(graph, dir)`` builds the engine (auto-selected
    backend, ``engine_config`` forwarded), wraps it in a durable primary
    in ``state_dir``, and boots the replica fleet; keyword overrides patch
    individual :class:`ClusterConfig` fields.
    """
    return SPCCluster._open(
        graph_or_engine, state_dir, engine_config=engine_config,
        config=config, serve_config=serve_config, overwrite=overwrite,
        **overrides
    )
