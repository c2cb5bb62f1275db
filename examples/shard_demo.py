"""Hub-partitioned index shards behind a scatter-gather router.

The 2-hop SPC index distributes over hub space: restrict both endpoint
labels to a slice of hub ranks, compute the (dist, count) partial per
slice, and fold the partials with the same min-dist/sum-count combiner
the shadow auditor uses.  ``repro.shard`` turns that algebra into a
fleet: K shards each hold ~1/K of the label entries (bootstrapped from
a hub-slice-restricted checkpoint, kept fresh by tailing the primary's
label journal) and a router scatters every query to all K at one
consistent cut, merging the partials into the exact unsharded answer.

The demo walks the lifecycle: exact merged answers vs a single engine,
the per-shard memory split, live updates flowing through the label
journal, killing a shard (a missing hub slice must *refuse*, never
undercount), and restarting it.

Run with:  python examples/shard_demo.py
"""

import tempfile

import repro
from repro.exceptions import ShardError
from repro.graph import barabasi_albert
from repro.shard import ShardedCluster
from repro.workloads import random_insertions


def main():
    with tempfile.TemporaryDirectory(prefix="repro-shard-") as state_dir:
        run(state_dir)


def run(state_dir):
    """The demo proper; ``state_dir`` holds its WAL and checkpoints."""
    graph = barabasi_albert(300, attach=3, seed=11)
    engine = repro.open(graph)
    print(f"graph: {engine.graph}, backend: {engine.backend_name}")

    # A reference engine on a copy of the graph keeps an unsharded
    # answer key around for the whole demo.
    oracle = repro.open(graph.copy())

    with ShardedCluster(engine, state_dir, shards=4,
                        partitioner="balanced") as fleet:
        # --- exact merges: every routed answer folds 4 hub-slice
        # partials and must equal the single-engine answer.
        pairs = [(s, t) for s in range(0, 30, 3) for t in range(1, 300, 37)]
        answers = fleet.query_many(pairs)
        assert answers == [oracle.query(s, t) for s, t in pairs]
        print(f"{len(pairs)} scatter-gather answers match the unsharded "
              f"engine exactly")

        # --- the memory buy: each shard materializes only its slice.
        stats = fleet.stats()
        total = sum(s["entries"] for s in stats["router"]["shards"])
        for s in stats["router"]["shards"]:
            print(f"  {s['name']}: {s['entries']} label entries "
                  f"({s['entries'] / total:.1%} of the fleet)")

        # --- live updates: the primary journals per-batch label deltas;
        # shards tail the journal and keep only their slice.
        updates = random_insertions(engine.graph, 30, seed=11)
        fleet.submit_many(updates)
        seq = fleet.sync()
        u = updates[0]
        assert fleet.query(u.u, u.v) == oracle_apply(oracle, updates, u)
        print(f"fleet converged at seq {seq} after {len(updates)} journaled "
              f"updates; merged answers still exact")

        # --- fault model: a dead shard means a missing hub slice, and a
        # missing slice would silently undercount — so the router refuses.
        fleet.kill_shard(0)
        try:
            fleet.query(*pairs[0])
        except ShardError as exc:
            print(f"shard-0 down -> refusal (never a wrong answer): {exc}")

        fleet.restart_shard(0)
        fleet.sync()
        assert fleet.query_many(pairs[:10]) == [oracle.query(s, t)
                                                for s, t in pairs[:10]]
        print("shard-0 re-bootstrapped from checkpoint + journal tail; "
              "merged answers exact again")
        print(f"router: routed={fleet.stats()['router']['routed']} "
              f"refusals={fleet.stats()['router']['refusals']}")


def oracle_apply(oracle, updates, probe):
    """Apply the same updates to the oracle engine, return its answer."""
    for u in updates:
        oracle.apply(u)
    return oracle.query(probe.u, probe.v)


if __name__ == "__main__":
    main()
