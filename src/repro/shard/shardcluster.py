"""ShardedCluster: one primary, K hub-partitioned shards, one router.

The sharded counterpart of :class:`~repro.cluster.SPCCluster`: a single
writer (:class:`~repro.serve.SPCService` with ``label_journal`` forced
on) runs the paper's full maintenance and journals per-batch label
deltas; each :class:`~repro.shard.Shard` materializes one hub slice of
that index from the checkpoint + journal; a
:class:`~repro.shard.ShardRouter` scatter-gathers reads over the fleet.

Fault injection mirrors the cluster layer — :meth:`kill_shard` /
:meth:`restart_shard`, both from the shared
:class:`~repro.serve.fleet.Fleet` base — but the degraded mode differs
by design: a cluster with a dead replica keeps serving from the
survivors, while a sharded fleet with a dead shard *refuses* reads until
the slice is back (a merged answer missing one hub range would be wrong,
not stale).
"""

import os
from dataclasses import dataclass

from repro.exceptions import ShardError
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.persist import load_checkpoint
from repro.serve.service import SNAPSHOT_FILENAME
from repro.shard.partitioner import make_partitioner
from repro.shard.scatter import ShardRouter
from repro.shard.shard import Shard


@dataclass(frozen=True)
class ShardConfig(FleetConfig):
    """All tunables of a :class:`ShardedCluster`: these plus every
    :class:`~repro.serve.fleet.FleetConfig` field.

    Parameters
    ----------
    shards:
        How many hub slices to run (ignored when an explicit partitioner
        instance is passed to the cluster — its slot count wins).
    partitioner:
        Strategy name: ``"balanced"`` (holder-weighted contiguous ranges
        — the default, since equal-width ranges collapse under the
        top-heavy hub distribution), ``"range"`` (equal-width) or
        ``"hash"``.
    ring_size:
        Per-shard depth of the published-view ring (bounds how far the
        router can look back for a consistent cut — a degraded-mode cut
        must still be covered by every shard's ring).
    seed:
        Seed for the hash partitioner's mixing.
    """

    shards: int = 4
    partitioner: str = "balanced"
    ring_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.shards < 1:
            raise ShardError(
                f"a sharded cluster needs at least one shard, "
                f"got {self.shards!r}"
            )
        if self.ring_size < 2:
            raise ShardError(
                f"ring_size must be >= 2 to leave any cut overlap, "
                f"got {self.ring_size!r}"
            )


class ShardedCluster(Fleet):
    """A hub-partitioned serving fleet over one engine's label journal.

    Example
    -------
    >>> import repro, tempfile
    >>> from repro.shard import ShardedCluster
    >>> from repro.workloads import InsertEdge
    >>> engine = repro.open(repro.Graph.from_edges([(0, 1), (1, 2)]))
    >>> with tempfile.TemporaryDirectory() as d:
    ...     with ShardedCluster(engine, d, shards=2) as sc:
    ...         sc.submit(InsertEdge(0, 2))
    ...         _ = sc.sync()
    ...         sc.query(0, 2)
    (1, 1)
    """

    kind = "shard"
    error_type = ShardError
    config_type = ShardConfig
    # The journal is not optional here — it *is* the replication feed.
    _serve_overrides = {"label_journal": True}
    _member_noun = "shard {}"
    _unknown_noun = "no shard with id {!r}"
    _fleet_noun = "sharded-cluster"

    shards = Fleet.members
    kill_shard = Fleet.kill
    restart_shard = Fleet.restart

    def __init__(self, engine, state_dir, config=None, serve_config=None,
                 partitioner=None, overwrite=False, **overrides):
        if isinstance(partitioner, str):
            # Strategy *name*: fold it into the config; an explicit
            # HubPartitioner instance bypasses the config entirely.
            overrides["partitioner"] = partitioner
            partitioner = None
        self.partitioner = partitioner
        super().__init__(
            engine, state_dir, config=config, serve_config=serve_config,
            overwrite=overwrite, **overrides
        )

    def _boot(self):
        config = self._config
        if self.partitioner is None:
            payload = load_checkpoint(
                os.path.join(self._state_dir, SNAPSHOT_FILENAME)
            )
            self.partitioner = make_partitioner(
                config.partitioner, config.shards,
                payload=payload, seed=config.seed,
            )
        for shard_id in range(self.partitioner.num_shards):
            self._members[shard_id] = self._spawn(shard_id)
        return ShardRouter(
            [self._members[i] for i in sorted(self._members)],
            **self._router_options(),
        )

    def _spawn(self, shard_id):
        return Shard(
            self._state_dir, shard_id, self.partitioner,
            poll_interval=self._config.poll_interval,
            ring_size=self._config.ring_size,
            stall_budget=self._config.stall_budget,
        )

    def stats(self):
        """One dict tying together primary, shard and router counters."""
        return {
            "primary": self.primary.stats(),
            "partitioner": self.partitioner.describe(),
            "router": self.router.stats(),
        }

    def __repr__(self):
        return (
            f"ShardedCluster(shards={sorted(self._members)}, "
            f"partitioner={self.partitioner.describe()['kind']!r}, "
            f"primary_seq={self.primary.applied_seq})"
        )


def shard_cluster(graph_or_engine, state_dir, config=None, serve_config=None,
                  engine_config=None, partitioner=None, overwrite=False,
                  **overrides):
    """Open a :class:`ShardedCluster` over a graph or an existing engine.

    Convenience entry point mirroring :func:`repro.cluster.cluster`.
    """
    return ShardedCluster._open(
        graph_or_engine, state_dir, engine_config=engine_config,
        config=config, serve_config=serve_config, partitioner=partitioner,
        overwrite=overwrite, **overrides
    )
