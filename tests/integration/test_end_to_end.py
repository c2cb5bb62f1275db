"""End-to-end integration tests across the whole stack.

These run a realistic life cycle — dataset, index, query workload, hybrid
update stream, verification — through the public API only.
"""

import random

import repro
from repro import (
    bfs_counting_pair,
    bibfs_counting,
    build_spc_index,
    indexes_equivalent,
    verify_espc,
)
from repro.datasets import load_dataset
from repro.graph import barabasi_albert
from repro.workloads import hybrid_stream, random_pairs


class TestDatasetLifecycle:
    def test_eua_analogue_full_cycle(self):
        g = load_dataset("EUA")
        dyn = repro.open(g, cache_size=0)

        pairs = random_pairs(dyn.graph, 60, seed=1)
        for s, t in pairs:
            assert dyn.query(s, t) == bfs_counting_pair(dyn.graph, s, t)

        stream = hybrid_stream(dyn.graph, insertions=12, deletions=4, seed=2)
        dyn.apply_stream(stream)

        for s, t in random_pairs(dyn.graph, 60, seed=3):
            assert dyn.query(s, t) == bfs_counting_pair(dyn.graph, s, t)

    def test_dynamic_matches_reconstruction_oracle(self):
        # The reconstruction oracle is the naive method of §3: a fresh
        # engine built from scratch on the updated graph.
        g = barabasi_albert(120, attach=2, seed=4)
        dyn = repro.open(g.copy(), cache_size=0)

        stream = hybrid_stream(g, insertions=8, deletions=3, seed=5)
        for update in stream:
            update.apply(dyn)
            oracle = repro.open(dyn.graph.copy(), cache_size=0)
            for s, t in random_pairs(g, 25, seed=6):
                assert dyn.query(s, t) == oracle.query(s, t)

    def test_three_engines_agree_after_churn(self):
        g = barabasi_albert(150, attach=3, seed=7)
        dyn = repro.open(g, cache_size=0)
        rng = random.Random(8)
        vertices = sorted(g.vertices())

        # Vertex insertions with edges, deletions, and edge churn.
        dyn.insert_vertex(1000, edges=rng.sample(vertices, 3))
        dyn.insert_vertex(1001, edges=[1000, vertices[0]])
        dyn.delete_vertex(vertices[10])
        for _ in range(5):
            u, v = rng.sample(sorted(dyn.graph.vertices()), 2)
            if not dyn.graph.has_edge(u, v):
                dyn.insert_edge(u, v)
        for u, v in list(dyn.graph.edges())[:5]:
            dyn.delete_edge(u, v)

        for s, t in random_pairs(dyn.graph, 40, seed=9):
            expected = bfs_counting_pair(dyn.graph, s, t)
            assert dyn.query(s, t) == expected
            assert bibfs_counting(dyn.graph, s, t) == expected

    def test_serialization_survives_updates(self):
        from repro import SPCIndex

        g = barabasi_albert(80, attach=2, seed=10)
        dyn = repro.open(g, cache_size=0)
        dyn.insert_edge(0, 79) if not g.has_edge(0, 79) else None
        payload = dyn.index.to_dict()
        restored = SPCIndex.from_dict(payload)
        assert indexes_equivalent(dyn.index, restored, dyn.graph)

    def test_big_counts_do_not_overflow(self):
        # Stacked complete bipartite layers: counts grow multiplicatively
        # (4^6 ~ 4096 paths), well past toy sizes; Python ints keep exact.
        from repro.graph import Graph

        layers = 7
        width = 4
        g = Graph()
        ids = [[layer * width + i for i in range(width)] for layer in range(layers)]
        for layer in ids:
            for v in layer:
                g.add_vertex(v)
        g.add_vertex(1000)
        g.add_vertex(1001)
        for v in ids[0]:
            g.add_edge(1000, v)
        for v in ids[-1]:
            g.add_edge(1001, v)
        for a, b in zip(ids, ids[1:]):
            for u in a:
                for v in b:
                    g.add_edge(u, v)
        index = build_spc_index(g)
        d, c = index.query(1000, 1001)
        assert d == layers + 1
        assert c == width ** (layers + 1) // width  # 4^7 paths
        assert verify_espc(g, index, sample_pairs=[(1000, 1001)])
