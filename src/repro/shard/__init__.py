"""repro.shard: hub-partitioned index shards with a scatter-gather router.

The serving layers so far scale *reads* by full replication: every
:class:`~repro.cluster.Replica` holds the whole 2-hop label index.  This
package scales the *index itself*: the hub space (the label entries' rank
dimension) is partitioned across K shards, each materializing only the
label entries whose hub falls in its slice — roughly ``1/K`` of the
memory — while a :class:`ShardRouter` answers queries by fanning a
partial two-pointer probe to every shard and folding the per-shard
``(dist, count)`` partials with the shared associative combiner
(:func:`repro.audit.merge_partial_answers`).

Correctness rests on two facts:

* the primary runs the paper's full IncSPC/DecSPC maintenance (pruning
  needs the *whole* index, so shards never repair labels themselves);
  shards follow a per-batch **label-delta journal** the primary writes
  next to its WAL (``ServeConfig.label_journal``), and
* the hub slices *partition* the maintained index's hub set, so merging
  per-slice partials is exactly the full index's two-pointer merge: equal
  minimal distances add their counts, and nothing is ever double-counted.

A lost shard makes its hub slice unreachable, so the router **refuses**
(:class:`~repro.exceptions.ShardError`) rather than serving a silently
wrong merged answer; :class:`ShardedCluster` wires primary + shards +
router together with kill/restart fault operations.
"""

from repro.shard.journal import OP_LABEL, OP_NOP, OP_RESET, decode_label_op
from repro.shard.loadgen import run_shard_loadgen
from repro.shard.partitioner import (
    HashPartitioner,
    HubPartitioner,
    RangePartitioner,
    balanced_boundaries,
    hub_weights_from_payload,
    make_partitioner,
)
from repro.serve.planner import gather_chunks, split_batch
from repro.shard.scatter import ShardRouter
from repro.shard.shard import Shard, ShardStore, partial_answer
from repro.shard.shardcluster import ShardConfig, ShardedCluster, shard_cluster

__all__ = [
    "HashPartitioner",
    "HubPartitioner",
    "RangePartitioner",
    "Shard",
    "ShardConfig",
    "ShardRouter",
    "ShardStore",
    "ShardedCluster",
    "balanced_boundaries",
    "decode_label_op",
    "gather_chunks",
    "hub_weights_from_payload",
    "make_partitioner",
    "partial_answer",
    "run_shard_loadgen",
    "shard_cluster",
    "split_batch",
    "OP_LABEL",
    "OP_NOP",
    "OP_RESET",
]
