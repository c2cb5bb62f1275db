"""Property tests for the copy-on-write publish (DESIGN.md §10).

``SPCBackend.snapshot_index`` returns a frozen view that shares every label
object of the previous view except the vertices dirtied since.  On all four
backends, over hypothesis streams of batches (edge and vertex inserts and
deletes, engine rebuilds, the SD backend's deferred rebuild-on-delete),
with the label journal's drain off and on, every snapshot taken between
batches must still answer like the deep ``index.copy()`` taken beside it —
after the whole stream has run on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, SPCEngine
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from tests.property.strategies import (
    next_update,
    small_digraphs,
    small_graphs,
    small_weighted_graphs,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

GRAPHS = {
    "core": small_graphs,
    "directed": small_digraphs,
    "weighted": small_weighted_graphs,
    "sd": small_graphs,
}

OPS = st.tuples(st.sampled_from(["ins", "del", "addv", "delv"]),
                st.integers(0, 10_000))
BATCHES = st.lists(
    st.tuples(st.booleans(), st.lists(OPS, max_size=4)),  # (rebuild?, ops)
    min_size=1, max_size=5,
)


def label_state(index, name, v):
    if name == "directed":
        return index.in_labels(v), index.out_labels(v)
    return index.labels(v)


def label_objects(index, name):
    """Every mutable label object the index holds, by identity."""
    if name == "sd":
        sets = [arrays[0] for arrays in index._labels.values()]
    else:
        sets = [ls for labels, _ in index.sides() for ls in labels.values()]
    return {id(x) for x in sets}


def payloads(backend, vertices):
    return {v: backend.label_payload(v) for v in vertices}


def run_stream(name, graph, batches, journal):
    engine = SPCEngine(graph, config=EngineConfig(backend=name,
                                                  sd_defer_rebuilds=True))
    backend = engine.backend
    directed, weighted = backend.directed, backend.weighted
    if journal:
        assert backend.label_changes() is None  # arms the journal drain
    taken = []
    for rebuild, ops in batches:
        taken.append((backend.snapshot_index(), engine.index.copy()))
        before = payloads(backend, engine.graph.vertices())
        if rebuild:
            engine.rebuild()
        backend.begin_update_batch()
        try:
            for kind, i in ops:
                update = next_update(engine, kind, i, directed, weighted)
                if update is not None:
                    engine.apply(update)
        finally:
            backend.end_update_batch()
        if journal:
            changed = backend.label_changes()
            if changed is not None:
                # The publish path folds the same sink: the journal must
                # still see every vertex whose labels moved.
                after = payloads(backend, engine.graph.vertices())
                moved = {v for v in set(before) | set(after)
                         if before.get(v) != after.get(v)}
                assert moved <= set(changed)
    taken.append((backend.snapshot_index(), engine.index.copy()))
    return engine, taken


def assert_snapshots_hold(engine, name, taken):
    live = label_objects(engine.index, name)
    for view, ref in taken:
        assert not live & label_objects(view, name)
        assert view.order.as_raw_list() == ref.order.as_raw_list()
        vs = ref.order.as_list()
        for v in vs:
            assert label_state(view, name, v) == label_state(ref, name, v)
        for s in vs:
            probe, ref_probe = view.source_probe(s), ref.source_probe(s)
            for t in vs:
                assert view.query(s, t) == ref.query(s, t)
                assert probe(t) == ref_probe(t)


@pytest.mark.parametrize("journal", [False, True], ids=["nojournal", "journal"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_snapshot_matches_its_deep_copy(name, journal):
    @settings(max_examples=25, **COMMON)
    @given(graph=GRAPHS[name](max_vertices=8), batches=BATCHES)
    def check(graph, batches):
        engine, taken = run_stream(name, graph, batches, journal)
        assert_snapshots_hold(engine, name, taken)

    check()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_publish_after_a_clean_batch_shares_every_label_object(name):
    make = {"core": erdos_renyi, "sd": erdos_renyi,
            "directed": random_directed, "weighted": random_weighted}[name]
    engine = SPCEngine(make(20, 40, seed=2), config=EngineConfig(backend=name))
    first = engine.backend.snapshot_index()
    second = engine.backend.snapshot_index()
    assert label_objects(first, name) == label_objects(second, name)
    assert not label_objects(engine.index, name) & label_objects(first, name)
