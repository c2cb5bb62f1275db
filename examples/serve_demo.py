"""Snapshot-isolated serving with durability (the repro.serve layer).

A service wraps the engine behind one writer role: reader threads answer
queries lock-free against pinned, immutable snapshots while the role
applies updates.  A submission that finds the writer idle is applied and
published on the submitting thread, so it is visible when ``submit``
returns; one that finds it busy is queued, and the writer thread drains
the queue and publishes as soon as it empties (``publish_every`` /
``max_staleness`` bound it only while the queue never empties).
Everything applied is write-ahead logged, so the service warm-restarts
from its checkpoint + WAL tail with identical answers and no index
rebuild.

Run with:  python examples/serve_demo.py
"""

import tempfile
import threading
import time

import repro
from repro.exceptions import ReadOnlyError
from repro.graph import barabasi_albert
from repro.serve import SPCService, restore
from repro.workloads import random_insertions


def main():
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as state_dir:
        run(state_dir)


def run(state_dir):
    """The demo proper; ``state_dir`` holds its WAL and checkpoints."""
    graph = barabasi_albert(400, attach=3, seed=7)
    engine = repro.open(graph)
    print(f"graph: {engine.graph}, backend: {engine.backend_name}")

    with SPCService(engine, durability_dir=state_dir,
                    publish_every=8, max_staleness=0.02) as service:
        # Readers pin one snapshot each and hammer it concurrently.
        insertions = random_insertions(engine.graph, 30, seed=7)
        pairs = [(u.u, u.v) for u in insertions]
        reads = [0] * 3

        def reader(slot):
            deadline = time.time() + 0.5
            while time.time() < deadline:
                snap = service.snapshot()
                snap.query_many(pairs)
                reads[slot] += len(pairs)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(len(reads))]
        for t in threads:
            t.start()
        # ...while the writer role applies the update stream underneath
        # them (one submit_many unit: one coalesced batch).
        service.submit_many(insertions)
        for t in threads:
            t.join()
        snap = service.flush()
        print(f"served {sum(reads)} reads from {len(reads)} threads while "
              f"applying {len(insertions)} updates")
        print(f"published snapshot: epoch {snap.epoch}, seq {snap.seq}")
        print(f"stats: {service.stats()}")

        # Snapshots are immutable: updates must go through the queue.
        try:
            snap.insert_edge(0, 1)
        except ReadOnlyError as exc:
            print(f"direct mutation rejected: {type(exc).__name__}")

        service.checkpoint()
        answer_before = service.query(*pairs[0])

    # Warm restart: checkpoint + WAL tail, no HP-SPC rebuild.
    start = time.perf_counter()
    restored = restore(state_dir)
    elapsed = time.perf_counter() - start
    try:
        answer_after = restored.query(*pairs[0])
        print(f"restored from {state_dir} in {elapsed * 1e3:.1f} ms; "
              f"query {pairs[0]}: {answer_before} == {answer_after}")
        assert answer_before == answer_after
    finally:
        restored.close()


if __name__ == "__main__":
    main()
