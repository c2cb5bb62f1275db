"""Serialization round-trips for every index variant, including after churn."""

import json

import repro
from repro.core import DirectedSPCIndex, SPCIndex, build_spc_index, dec_spc, inc_spc
from repro.engine.adapters import WeightedBackend
from repro.graph import WeightedGraph, erdos_renyi, random_directed, random_weighted
from repro.verify import check_invariants


def _roundtrip(payload):
    return json.loads(json.dumps(payload))


class TestUndirectedSerialization:
    def test_roundtrip_after_vertex_churn(self):
        g = erdos_renyi(20, 40, seed=1)
        index = build_spc_index(g)
        # Churn: delete a vertex (tombstones a rank), add another.
        victim = next(iter(sorted(g.vertices())))
        for u in list(g.neighbors(victim)):
            dec_spc(g, index, victim, u)
        g.remove_vertex(victim)
        index.drop_vertex_labels(victim)
        g.add_vertex(99)
        index.add_vertex(99)
        inc_spc(g, index, 99, next(iter(sorted(g.vertices()))))

        restored = SPCIndex.from_dict(_roundtrip(index.to_dict()))
        for s in g.vertices():
            for t in g.vertices():
                assert restored.query(s, t) == index.query(s, t)


class TestDirectedSerialization:
    def test_roundtrip(self):
        g = random_directed(15, 40, seed=2)
        index = build_spc_index(g)
        restored = DirectedSPCIndex.from_dict(_roundtrip(index.to_dict()))
        for s in g.vertices():
            for t in g.vertices():
                assert restored.query(s, t) == index.query(s, t)

    def test_copy_independent(self):
        g = random_directed(10, 25, seed=3)
        index = build_spc_index(g)
        clone = index.copy()
        clone.in_label_set(next(iter(g.vertices()))).clear()
        # The original is untouched.
        assert index.num_entries > clone.num_entries


class TestWeightedSerialization:
    def test_roundtrip(self):
        g = random_weighted(14, 30, max_weight=4, seed=4)
        index = build_spc_index(g)
        restored = SPCIndex.from_dict(_roundtrip(index.to_dict()))
        for s in g.vertices():
            for t in g.vertices():
                assert restored.query(s, t) == index.query(s, t)

    def test_restores_a_handwritten_weighted_payload(self):
        # The weighted checkpoint payload keeps the shape it had while the
        # weighted backend had an index class of its own: rank order with
        # tombstones as null, and per-vertex [hub rank, distance, count]
        # triples whose distances may be int or float.
        g = WeightedGraph.from_edges(
            [(0, 1, 2), (1, 2, 2.5), (0, 2, 4.5), (2, 3, 1), (3, 4, 3)])
        payload = {
            "order": [2, 0, 1, 3, 4],
            "labels": {
                "2": [[0, 0, 1]],
                "0": [[0, 4.5, 2], [1, 0, 1]],
                "1": [[0, 2.5, 1], [1, 2, 1], [2, 0, 1]],
                "3": [[0, 1, 1], [3, 0, 1]],
                "4": [[0, 4, 1], [3, 3, 1], [4, 0, 1]],
            },
        }
        restored = WeightedBackend.index_from_dict(_roundtrip(payload))
        assert type(restored) is SPCIndex
        assert check_invariants(restored)
        assert restored.query(0, 2) == (4.5, 2)
        assert restored.query(0, 4) == (8.5, 2)

        live = repro.open(g.copy())
        served = repro.open(g.copy(), index=restored)
        for s in g.vertices():
            for t in g.vertices():
                assert served.query(s, t) == live.query(s, t)
        for engine in (live, served):
            engine.insert_edge(1, 3, 1)
        assert served.check()
        assert served.query(0, 4) == live.query(0, 4) == (6, 1)

    def test_copy_independent(self):
        g = random_weighted(10, 20, max_weight=3, seed=5)
        index = build_spc_index(g)
        clone = index.copy()
        v = next(iter(g.vertices()))
        clone.label_set(v).set(index.rank(v), 0, 99)
        assert index.label_set(v).get(index.rank(v)) != (0, 99)
