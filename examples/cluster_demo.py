"""WAL-replicated multi-replica serving (the repro.cluster layer).

One durable primary service owns the engine and the write-ahead log; two
replicas bootstrap from its checkpoint and tail the WAL as a replication
stream; a router spreads reads across the fleet under a bounded-staleness
policy.  The demo walks the full lifecycle: replicated reads, sticky
read-your-writes sessions, killing a replica mid-stream, crash-recovering
it from checkpoint + WAL tail, and surviving a WAL compaction.

Run with:  python examples/cluster_demo.py
"""

import tempfile
import threading
import time

import repro
from repro.cluster import SPCCluster
from repro.graph import barabasi_albert
from repro.workloads import random_insertions


def main():
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as state_dir:
        run(state_dir)


def run(state_dir):
    """The demo proper; ``state_dir`` holds its WAL and checkpoints."""
    graph = barabasi_albert(400, attach=3, seed=7)
    engine = repro.open(graph)
    print(f"graph: {engine.graph}, backend: {engine.backend_name}")

    with SPCCluster(engine, state_dir, replicas=2,
                    policy="bounded_staleness", staleness_delta=8) as c:
        # --- replicated reads: N threads hammer the router while the
        # primary applies a live update stream that replicas tail.
        insertions = random_insertions(engine.graph, 40, seed=7)
        pairs = [(u.u, u.v) for u in insertions]
        reads = [0] * 3

        def reader(slot):
            deadline = time.time() + 0.5
            while time.time() < deadline:
                s, t = pairs[(reads[slot] * 7) % len(pairs)]
                c.query(s, t)  # routed under the staleness bound
                reads[slot] += 1

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(len(reads))]
        for t in threads:
            t.start()
        c.submit_many(insertions)
        for t in threads:
            t.join()
        seq = c.sync()  # whole fleet converged to the primary's seq
        print(f"served {sum(reads)} routed reads from {len(reads)} threads; "
              f"fleet converged at seq {seq}")
        print(f"router: {c.router.stats()}")

        # --- sticky sessions: read-your-writes via an acked watermark.
        session = c.session()
        update = random_insertions(engine.graph, 1, seed=99)[0]
        acked = session.submit(update).ack()
        answer = session.query(update.u, update.v)
        print(f"session acked seq {acked}; read-your-write "
              f"({update.u},{update.v}) -> {answer}")
        assert answer[0] == 1

        # --- fault injection: kill a replica mid-stream, keep serving,
        # then crash-recover it from the current checkpoint + WAL tail.
        c.kill_replica("replica-0")
        churn = random_insertions(engine.graph, 20, seed=13)
        c.submit_many(churn)
        c.flush()
        for _ in range(50):
            c.query(*pairs[0])  # the router routes around the outage
        start = time.perf_counter()
        replica = c.restart_replica("replica-0")
        replica.catch_up(c.primary.applied_seq, timeout=10.0)
        elapsed = (time.perf_counter() - start) * 1e3
        print(f"replica-0 killed, restarted and caught up to seq "
              f"{replica.applied_seq} in {elapsed:.1f} ms "
              f"({replica.bootstraps} bootstrap)")

        # --- compaction: checkpoint + truncate under the replicas' feet;
        # the head marker makes every tailer re-bootstrap safely.
        c.checkpoint(truncate_wal=True)
        c.submit_many([u.undo() for u in reversed(churn)])
        seq = c.sync()
        bootstraps = {name: r.bootstraps for name, r in c.replicas.items()}
        print(f"survived WAL compaction; fleet at seq {seq}, "
              f"bootstraps per replica: {bootstraps}")
        expected = c.primary.query_many(pairs)
        for name, r in c.replicas.items():
            assert r.query_many(pairs) == expected, name
        print("every replica answers identically to the primary")


if __name__ == "__main__":
    main()
