"""repro.serve — snapshot-isolated concurrent serving with durability.

The production layer over :class:`~repro.engine.SPCEngine`: readers pin
immutable epoch-tagged snapshots and answer lock-free, one writer role
applies updates (on the submitting thread when it is idle, else from a
queue its writer thread drains) and publishes fresh snapshots as soon as
nothing is pending (every-k / max-staleness while busy), and a
checkpoint + write-ahead-log pair makes the whole thing
warm-restartable for every backend family::

    import repro
    from repro.serve import SPCService, ServeConfig
    from repro.workloads import InsertEdge

    engine = repro.open(graph)
    with SPCService(engine, durability_dir="state/") as service:
        service.submit(InsertEdge(0, 9))
        service.query(0, 9)            # lock-free, from the snapshot
        service.flush()                # wait for apply + publish
        service.checkpoint()           # durable snapshot + WAL position

    service = repro.serve.restore("state/")   # warm restart, no rebuild

See DESIGN.md §10 for the architecture and paper anchors, and
:mod:`repro.serve.loadgen` / ``repro-bench serve`` for the load-test
harness.
"""

from repro.serve.loadgen import make_workload, run_loadgen
from repro.serve.persist import (
    engine_from_payload,
    engine_to_payload,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.service import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    ServeConfig,
    SPCService,
    restore,
    serve,
)
from repro.serve.snapshot import SnapshotView
from repro.serve.wal import WalTailer, WriteAheadLog, last_wal_seq, read_wal

__all__ = [
    "WalTailer",
    "SPCService",
    "ServeConfig",
    "SnapshotView",
    "serve",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
    "engine_to_payload",
    "engine_from_payload",
    "WriteAheadLog",
    "read_wal",
    "last_wal_seq",
    "run_loadgen",
    "make_workload",
    "SNAPSHOT_FILENAME",
    "WAL_FILENAME",
]
