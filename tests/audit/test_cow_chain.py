"""The copy-on-write publish chain under tampering and replication.

``snapshot_index`` grows each frozen view from the backend's own last
honest view.  A tampered hook returns a ``CorruptingIndex`` around that
view; once restored, the next view must again equal a deep copy of the live
index, so the chain never grows from a corrupting proxy.  A replica
publishes through the same hook and its honest snapshot must match its
engine after catch-up.
"""

import pytest

from repro.audit import CorruptingIndex, corrupt_snapshot_wrapper, tamper_backend
from repro.cluster import Replica
from repro.engine import EngineConfig, SPCEngine
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.serve import ServeConfig, SPCService
from repro.workloads import InsertVertex, random_insertions

GRAPHS = [
    ("core", lambda: erdos_renyi(30, 60, seed=5)),
    ("directed", lambda: random_directed(30, 60, seed=5)),
    ("weighted", lambda: random_weighted(30, 60, seed=5)),
    ("sd", lambda: erdos_renyi(30, 60, seed=5)),
]


def assert_same_answers(view, ref):
    vs = ref.order.as_list()
    assert view.order.as_raw_list() == ref.order.as_raw_list()
    for s in vs:
        probe, ref_probe = view.source_probe(s), ref.source_probe(s)
        for t in vs:
            assert view.query(s, t) == ref.query(s, t)
            assert probe(t) == ref_probe(t)


def insert_some(engine, k, seed):
    for update in random_insertions(engine.graph, k, seed=seed):
        engine.apply(update)


@pytest.mark.parametrize("backend,make", GRAPHS)
def test_restored_hook_chains_from_the_honest_view(backend, make):
    engine = SPCEngine(make(), config=EngineConfig(backend=backend))
    hook = engine.backend
    hook.snapshot_index()
    restore = tamper_backend(hook, "dist")
    insert_some(engine, 3, seed=1)
    tampered = hook.snapshot_index()
    assert isinstance(tampered, CorruptingIndex)
    restore()
    insert_some(engine, 3, seed=2)
    engine.apply(InsertVertex(900))
    honest = hook.snapshot_index()
    assert type(honest) is type(engine.index)
    assert_same_answers(honest, engine.index.copy())


def test_replica_honest_snapshot_matches_its_engine(tmp_path):
    engine = SPCEngine(erdos_renyi(40, 90, seed=3),
                       config=EngineConfig(backend="core"))
    service = SPCService(engine, config=ServeConfig(
        durability_dir=str(tmp_path), publish_every=2, max_staleness=0.005,
    ))
    try:
        with Replica(str(tmp_path), name="r0") as replica:
            replica.set_snapshot_wrapper(corrupt_snapshot_wrapper("count"))
            updates = random_insertions(service.engine.graph, 12, seed=7)
            for i in range(0, len(updates), 3):
                service.submit_many(updates[i:i + 3])
                service.flush()
            assert replica.catch_up(service.applied_seq, timeout=10.0)
            honest = replica._honest_snapshot
            assert honest.seq == service.applied_seq
            assert_same_answers(honest.index, replica._engine.index.copy())
            assert_same_answers(honest.index, service.engine.index.copy())
    finally:
        service.close()
