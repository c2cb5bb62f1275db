"""Property tests for the rank-bounded shared-scan probe (DESIGN.md §9).

``source_probe(s)`` scans each target's labels only up to the largest hub
rank in the source's labels.  On all four backends, over hypothesis
streams of edge and vertex inserts and deletes, the bounded probe must
answer exactly like the two-pointer merge ``index.query`` for every pair,
on the live index and on the copy-on-write views the serving layer
publishes.  Pinned cases cover the boundaries of the bound: the top-ranked
vertex (a self-label-only source, bound 0), a vertex appended after the
build (the largest rank) and a source whose labels were emptied (bound
-1).  The mutation guard checks that the pinned cases catch a bound that
stops one entry short.
"""

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, SPCEngine
from repro.graph import DiGraph, Graph, WeightedGraph
from repro.workloads import InsertEdge, InsertVertex
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

OPS = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "addv", "delv"]),
               st.integers(0, 10_000)),
    max_size=8,
)

MUTATIONS = {
    "bisect_left": bisect_left,
    "bound_minus_one": lambda hubs, bound: bisect_right(hubs, bound - 1),
}


def mismatches(index):
    """Every (s, t) where the bounded probe and the merge query differ."""
    vs = index.order.as_list()
    bad = []
    for s in vs:
        probe = index.source_probe(s)
        bad.extend((s, t) for t in vs if probe(t) != index.query(s, t))
    return bad


def assert_probe_is_merge(engine):
    assert mismatches(engine.index) == []
    assert mismatches(engine.backend.snapshot_index()) == []


def open_engine(name, graph):
    return SPCEngine(graph, config=EngineConfig(backend=name))


def path_graph(name, n=5):
    g = {"directed": DiGraph, "weighted": WeightedGraph}.get(name, Graph)()
    for v in range(n):
        g.add_vertex(v)
    for v in range(n - 1):
        if name == "weighted":
            g.add_edge(v, v + 1, v % 3 + 1)
        else:
            g.add_edge(v, v + 1)
        if name == "directed":
            g.add_edge(v + 1, v)
    return g


def source_hubs(index, name, s):
    if name == "directed":
        return list(index.out_label_set(s).hubs)
    if name == "sd":
        return list(index.label_arrays(s)[0])
    return list(index.label_set(s).hubs)


def empty_labels(index, name, v):
    """Empty every label array ``v`` owns in the live index."""
    if name == "directed":
        index.out_label_set(v).clear()
        index.in_label_set(v).clear()
    elif name == "sd":
        for array in index.label_arrays(v):
            del array[:]
    else:
        index.label_set(v).clear()


def self_label_only_source(name):
    engine = open_engine(name, path_graph(name))
    top = engine.index.order.vertex(0)
    assert source_hubs(engine.index, name, top) == [0]
    return engine.index, engine.backend.snapshot_index()


def appended_vertex(name):
    engine = open_engine(name, path_graph(name))
    engine.apply(InsertVertex(99))
    engine.apply(InsertEdge(99, 2, 2 if name == "weighted" else None))
    index = engine.index
    assert index.order.rank(99) == len(index.order) - 1
    return index, engine.backend.snapshot_index()


def emptied_source(name):
    index = open_engine(name, path_graph(name)).index
    victim = index.order.vertex(1)
    empty_labels(index, name, victim)
    assert source_hubs(index, name, victim) == []
    return index, index.frozen(None, ())


#: Each builds (live index, frozen view) at one boundary of the bound.
PINNED = [self_label_only_source, appended_vertex, emptied_source]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_bounded_probe_equals_merge_under_updates(name):
    @settings(max_examples=30, **COMMON)
    @given(graph=GRAPHS[name](max_vertices=8), ops=OPS)
    def check(graph, ops):
        engine = open_engine(name, graph)
        assert_probe_is_merge(engine)
        for kind, i in ops:
            update = next_update(engine, kind, i)
            if update is not None:
                engine.apply(update)
                assert_probe_is_merge(engine)

    check()


@pytest.mark.parametrize("case", PINNED, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_pinned_boundaries(name, case):
    for index in case(name):
        assert mismatches(index) == []


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_a_bound_one_entry_short_is_caught(name, mutation, monkeypatch):
    built = [case(name) for case in PINNED]
    for module in ("repro.core.labels", "repro.sd.pll"):
        monkeypatch.setattr(f"{module}.bisect_right", MUTATIONS[mutation])
    for indexes in built:
        for index in indexes:
            assert mismatches(index) != []
