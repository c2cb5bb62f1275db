"""Regression: stale labels must not resurface after distance-raising updates.

IncSPC (and weight decreases) deliberately leave distance-overestimated
labels behind (Lemma 3.1) — queries minimize over hubs, so overestimates
stay dormant.  But a later deletion / weight increase can raise a true
distance back *up to* the stale value, at which point the stale count
surfaces in query answers unless the decremental repair removes the entry.

The paper gates DecUPDATE's removal phase on the hub being a common hub of
the deleted edge (H_ab); that gate assumes a tight index and misses stale
entries.  This repository runs the removal phase unconditionally (see
repro/core/decremental.py).  These tests pin both the original failing
sequence (found by randomized testing) and distilled scenarios.
"""

import random

from repro.core import build_spc_index, dec_spc, inc_spc
from repro.graph import random_weighted
from repro.verify import verify_espc

from tests.weighted.updates import decrease_weight, increase_weight


class TestWeightedRegression:
    def test_original_failing_sequence(self):
        """The exact weight-churn sequence that exposed the H_ab gate hole."""
        g = random_weighted(12, 24, max_weight=5, seed=3)
        index = build_spc_index(g)
        ops = [
            (6, 10, 2), (7, 9, 4), (7, 9, 5), (2, 10, 6), (3, 9, 6),
            (0, 1, 1), (1, 10, 3), (7, 10, 2), (2, 7, 6), (0, 4, 2),
        ]
        for u, v, new_w in ops:
            old = g.weight(u, v)
            if new_w < old:
                decrease_weight(g, index, u, v, new_w)
            elif new_w > old:
                increase_weight(g, index, u, v, new_w)
            assert verify_espc(g, index), f"after ({u},{v})->{new_w}"


class TestUnweightedStaleLabels:
    def test_insert_shortcut_then_remove_it(self):
        """Removing a shortcut restores distances; stale entries must not
        pollute the counts at the restored distance."""
        from repro.graph import path_graph

        g = path_graph(8)
        index = build_spc_index(g)
        baseline = {
            (s, t): index.query(s, t) for s in range(8) for t in range(8)
        }
        inc_spc(g, index, 0, 7)   # shortcut makes many labels stale
        inc_spc(g, index, 2, 6)   # more staleness
        dec_spc(g, index, 2, 6)   # distances pop back up
        dec_spc(g, index, 0, 7)
        for pair, expected in baseline.items():
            assert index.query(*pair) == expected
        assert verify_espc(g, index)

    def test_randomized_resurface_hunt(self):
        """Dense little graphs + aggressive insert/delete churn: the exact
        setting where stale entries meet rising distances."""
        for seed in range(25):
            rng = random.Random(seed)
            from repro.graph import erdos_renyi

            n = rng.randint(6, 12)
            g = erdos_renyi(n, rng.randint(n, 2 * n), seed=seed)
            index = build_spc_index(g)
            for step in range(16):
                if step % 2 == 0:
                    candidates = [
                        (u, v)
                        for u in range(n)
                        for v in range(u + 1, n)
                        if not g.has_edge(u, v)
                    ]
                    if not candidates:
                        continue
                    u, v = rng.choice(candidates)
                    inc_spc(g, index, u, v)
                else:
                    edges = sorted(g.edges())
                    if not edges:
                        continue
                    u, v = rng.choice(edges)
                    dec_spc(g, index, u, v)
                assert verify_espc(g, index), f"seed={seed} step={step}"
