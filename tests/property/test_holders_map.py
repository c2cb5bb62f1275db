"""Property tests for the reverse hub map (DESIGN.md §9).

After arbitrary mixed insert/delete/set-weight streams, each index's
maintained hub -> holders map must exactly equal a from-scratch
recomputation from the label sets — on all three counting backends — and
must survive ``to_dict``/``from_dict``/``copy`` roundtrips.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DirectedSPCIndex, build_spc_index, dec_spc, inc_spc
from repro.core.index import SPCIndex
from repro.verify import check_invariants
from tests.property.strategies import (
    small_digraphs,
    small_graphs,
    small_weighted_graphs,
)
from tests.weighted.updates import decrease_weight, inc_spc_weighted, increase_weight

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def recompute_holders(label_sets):
    """From-scratch {hub_rank: set(vertex)} over {vertex: LabelSet}."""
    holders = {}
    for v, ls in label_sets.items():
        for h in ls.hubs:
            holders.setdefault(h, set()).add(v)
    return holders


def assert_holders_exact(index):
    lin = {v: index.in_label_set(v) for v in index.vertices()}
    lout = {v: index.out_label_set(v) for v in index.vertices()}
    assert index.in_holders_map() == recompute_holders(lin)
    assert index.out_holders_map() == recompute_holders(lout)


class TestCoreHoldersMap:
    @settings(max_examples=30, **COMMON)
    @given(g=small_graphs(), ops=st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 10_000)),
        max_size=8,
    ))
    def test_mixed_stream_matches_recomputation(self, g, ops):
        index = build_spc_index(g)
        assert_holders_exact(index)
        n = g.num_vertices
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for kind, idx in ops:
            if kind == "ins":
                candidates = [p for p in all_pairs if not g.has_edge(*p)]
                if not candidates:
                    continue
                inc_spc(g, index, *candidates[idx % len(candidates)])
            else:
                edges = sorted(g.edges())
                if not edges:
                    continue
                dec_spc(g, index, *edges[idx % len(edges)])
            assert_holders_exact(index)
        assert check_invariants(index)

    @settings(max_examples=20, **COMMON)
    @given(g=small_graphs(), ops=st.lists(st.integers(0, 10_000), max_size=4))
    def test_roundtrips_preserve_holders(self, g, ops):
        index = build_spc_index(g)
        for idx in ops:
            edges = sorted(g.edges())
            if not edges:
                break
            dec_spc(g, index, *edges[idx % len(edges)])
        restored = SPCIndex.from_dict(index.to_dict())
        assert restored.holders_map() == index.holders_map()
        clone = index.copy()
        assert clone.holders_map() == index.holders_map()
        assert clone.holders_map() is not index.holders_map()
        assert_holders_exact(restored)
        assert_holders_exact(clone)


class TestDirectedHoldersMap:
    @settings(max_examples=25, **COMMON)
    @given(g=small_digraphs(), ops=st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 10_000)),
        max_size=8,
    ))
    def test_mixed_stream_matches_recomputation(self, g, ops):
        index = build_spc_index(g)
        assert_holders_exact(index)
        n = g.num_vertices
        all_pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for kind, idx in ops:
            if kind == "ins":
                candidates = [p for p in all_pairs if not g.has_edge(*p)]
                if not candidates:
                    continue
                inc_spc(g, index, *candidates[idx % len(candidates)])
            else:
                arcs = sorted(g.edges())
                if not arcs:
                    continue
                dec_spc(g, index, *arcs[idx % len(arcs)])
            assert_holders_exact(index)
        assert check_invariants(index)

    @settings(max_examples=15, **COMMON)
    @given(g=small_digraphs())
    def test_roundtrips_preserve_holders(self, g):
        index = build_spc_index(g)
        restored = DirectedSPCIndex.from_dict(index.to_dict())
        assert restored.in_holders_map() == index.in_holders_map()
        assert restored.out_holders_map() == index.out_holders_map()
        clone = index.copy()
        assert clone.in_holders_map() == index.in_holders_map()
        assert clone.out_holders_map() == index.out_holders_map()
        assert_holders_exact(restored)
        assert_holders_exact(clone)


class TestWeightedHoldersMap:
    @settings(max_examples=25, **COMMON)
    @given(
        g=small_weighted_graphs(),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["ins", "del", "setw"]),
                st.integers(0, 10_000),
                st.integers(1, 5),
            ),
            max_size=8,
        ),
    )
    def test_mixed_stream_matches_recomputation(self, g, ops):
        index = build_spc_index(g)
        assert_holders_exact(index)
        n = g.num_vertices
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for kind, idx, w in ops:
            if kind == "ins":
                candidates = [p for p in all_pairs if not g.has_edge(*p)]
                if not candidates:
                    continue
                inc_spc_weighted(g, index, *candidates[idx % len(candidates)], w)
            elif kind == "del":
                edges = sorted(g.edges())
                if not edges:
                    continue
                u, v, _ = edges[idx % len(edges)]
                dec_spc(g, index, u, v)
            else:
                edges = sorted(g.edges())
                if not edges:
                    continue
                u, v, old = edges[idx % len(edges)]
                if w < old:
                    decrease_weight(g, index, u, v, w)
                elif w > old:
                    increase_weight(g, index, u, v, w)
            assert_holders_exact(index)
        assert check_invariants(index)

    @settings(max_examples=15, **COMMON)
    @given(g=small_weighted_graphs())
    def test_roundtrips_preserve_holders(self, g):
        index = build_spc_index(g)
        restored = SPCIndex.from_dict(index.to_dict())
        assert restored.holders_map() == index.holders_map()
        clone = index.copy()
        assert clone.holders_map() == index.holders_map()
        assert_holders_exact(restored)
        assert_holders_exact(clone)
