"""Concurrency stress: every served answer is consistent with some epoch.

The strong form of the no-torn-reads guarantee: N reader threads record
(snapshot.seq, pair, answer) while a writer applies a live update stream.
Afterwards the WAL is replayed *progressively* from the initial checkpoint
— after replaying batch k, a reference engine holds exactly the state
snapshot seq k was published from — and every recorded answer must match
the reference at its sequence number.  A reader that ever observed a
half-applied batch, a mutated snapshot, or a snapshot that matches no
published prefix of the log fails the comparison.

This doubles as the end-to-end WAL-replay equivalence check under real
concurrency (the per-backend equivalence tests live in test_service.py).
"""

import os
import random
import sys
import threading
import time

import pytest

from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ServeError
from repro.graph.generators import erdos_renyi
from repro.serve import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    SPCService,
    engine_from_payload,
    load_checkpoint,
    read_wal,
    run_loadgen,
)
from repro.workloads import random_insertions

READERS = 3
READS_PER_THREAD = 400


def _reader(service, pairs, stop, records, seed):
    rng = random.Random(seed)
    last_seq = -1
    while len(records) < READS_PER_THREAD and not stop.is_set():
        s, t = pairs[rng.randrange(len(pairs))]
        snap = service.snapshot()
        assert snap.seq >= last_seq, "snapshot publication went backwards"
        last_seq = snap.seq
        records.append((snap.seq, s, t, snap.query(s, t)))


@pytest.mark.parametrize("backend", ["core", "sd"])
def test_readers_only_observe_published_epochs(tmp_path, backend):
    graph = erdos_renyi(50, 120, seed=5)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    vertices = sorted(graph.vertices())
    rng = random.Random(9)
    pairs = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(128)
    ]
    insertions = random_insertions(graph, 30, seed=7)
    stream = list(insertions) + [u.undo() for u in reversed(insertions)]

    d = str(tmp_path)
    service = SPCService(
        engine, durability_dir=d, publish_every=4, max_staleness=0.005
    )
    stop = threading.Event()
    all_records = [[] for _ in range(READERS)]
    threads = [
        threading.Thread(
            target=_reader,
            args=(service, pairs, stop, all_records[i], 100 + i),
        )
        for i in range(READERS)
    ]
    # A short switch interval interleaves readers with the writer's
    # copy-on-write publish far more often than the default 5 ms.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        # Writer: feed the stream in small chunks while the readers hammer.
        for start in range(0, len(stream), 3):
            service.submit_many(stream[start:start + 3])
            time.sleep(0.001)
        service.flush()
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
        service.close()
    assert not any(t.is_alive() for t in threads)

    # Progressive replay: reference state at seq k = checkpoint + WAL[1..k].
    by_seq = {}
    for records in all_records:
        for seq, s, t, answer in records:
            by_seq.setdefault(seq, []).append((s, t, answer))
    assert sum(len(v) for v in by_seq.values()) >= READERS * READS_PER_THREAD

    reference = engine_from_payload(
        load_checkpoint(os.path.join(d, SNAPSHOT_FILENAME))
    )
    replayed = {0}
    for s, t, answer in by_seq.get(0, []):
        assert reference.index.query(s, t) == answer
    for seq, updates in read_wal(os.path.join(d, WAL_FILENAME)):
        reference.apply_stream(updates)
        replayed.add(seq)
        for s, t, answer in by_seq.get(seq, []):
            assert reference.index.query(s, t) == answer, (
                f"answer served at seq {seq} matches no published epoch"
            )
    # every snapshot a reader held corresponds to a replayable WAL prefix
    assert set(by_seq) <= replayed


class TestLoadgen:
    def test_quick_run_reports_and_passes_checks(self):
        report = run_loadgen(
            backend="core", readers=2, duration=0.3, n=80, m=200, churn=15
        )
        assert report["reads"] > 0
        assert report["read_qps"] > 0
        assert report["updates_applied"] > 0
        assert report["snapshots_published"] >= 1
        assert report["consistency_problems"] == []
        assert report["read_latency_ms"]["p99"] >= report["read_latency_ms"]["p50"]

    def test_all_backends_smoke(self):
        for backend in ("directed", "weighted", "sd"):
            report = run_loadgen(
                backend=backend, readers=2, duration=0.2, n=60, m=140,
                churn=10,
            )
            assert report["consistency_problems"] == []
            assert report["reads"] > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServeError, match="loadgen"):
            run_loadgen(backend="nope", duration=0.05)

    def test_reader_crash_fails_the_run(self, monkeypatch):
        from repro.serve.snapshot import SnapshotView

        def boom(self, s, t):
            raise KeyError("snapshot corruption stand-in")

        monkeypatch.setattr(SnapshotView, "query", boom)
        with pytest.raises(ServeError, match="crashed"):
            run_loadgen(backend="core", readers=2, duration=0.2, n=60,
                        m=140, churn=10)
