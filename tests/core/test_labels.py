"""Unit tests for LabelSet and the packed 64-bit encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_spc_index
from repro.core.labels import (
    COUNT_BITS,
    ENTRY_BYTES,
    LabelSet,
    frozen_labels,
    pack_entry,
    unpack_entry,
)
from repro.graph import path_graph


class TestLabelSet:
    def test_set_keeps_sorted(self):
        ls = LabelSet()
        ls.set(5, 2, 1)
        ls.set(1, 3, 2)
        ls.set(3, 1, 1)
        assert ls.hubs == [1, 3, 5]
        assert list(ls) == [(1, 3, 2), (3, 1, 1), (5, 2, 1)]

    def test_set_returns_operation(self):
        ls = LabelSet()
        assert ls.set(2, 1, 1) == "inserted"
        assert ls.set(2, 1, 5) == "replaced"
        assert ls.get(2) == (1, 5)

    def test_get_missing(self):
        ls = LabelSet()
        ls.set(1, 1, 1)
        assert ls.get(0) is None
        assert ls.get(2) is None

    def test_contains(self):
        ls = LabelSet()
        ls.set(4, 1, 1)
        assert 4 in ls
        assert 3 not in ls

    def test_remove(self):
        ls = LabelSet()
        ls.set(1, 1, 1)
        ls.set(2, 2, 2)
        assert ls.remove(1)
        assert not ls.remove(1)
        assert ls.hubs == [2]
        assert len(ls) == 1

    def test_clear(self):
        ls = LabelSet()
        ls.set(1, 1, 1)
        ls.clear()
        assert len(ls) == 0

    def test_as_dict_and_copy(self):
        ls = LabelSet()
        ls.set(0, 0, 1)
        ls.set(7, 3, 4)
        assert ls.as_dict() == {0: (0, 1), 7: (3, 4)}
        clone = ls.copy()
        clone.set(0, 9, 9)
        assert ls.get(0) == (0, 1)

    def test_repr_readable(self):
        ls = LabelSet()
        ls.set(0, 0, 1)
        assert repr(ls) == "LabelSet[(0,0,1)]"


label_ops = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, 8), st.integers(0, 6),
              st.integers(1, 4)),
    st.tuples(st.just("remove"), st.integers(0, 8)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("probe")),
), max_size=30)


class TestRootMapCache:
    """``root_get`` caches the hub -> distance map until the set changes."""

    @settings(max_examples=200, deadline=None)
    @given(ops=label_ops)
    def test_matches_a_fresh_map_after_every_op(self, ops):
        ls = LabelSet()
        for op in ops:
            if op[0] == "set":
                ls.set(*op[1:])
            elif op[0] == "remove":
                ls.remove(op[1])
            elif op[0] == "clear":
                ls.clear()
            fresh = dict(zip(ls.hubs, ls.dists)).get
            get = ls.root_get()
            for hub in range(-1, 10):  # hubs present and absent
                assert get(hub) == fresh(hub)

    def test_kept_until_a_change(self):
        ls = LabelSet()
        ls.set(0, 0, 1)
        get = ls.root_get()
        assert ls.root_get() is get
        ls.remove(3)  # absent: nothing changes
        assert ls.root_get() is get
        ls.set(0, 0, 2)  # a count change drops it too
        assert ls.root_get() is not get

    def test_copy_never_shares_it(self):
        ls = LabelSet()
        ls.set(0, 0, 1)
        ls.set(2, 1, 1)
        get = ls.root_get()
        clone = ls.copy()
        assert clone.root_get().__self__ is not get.__self__
        ls.set(1, 4, 1)
        assert clone.root_get()(1) is None
        clone.set(2, 3, 1)
        assert ls.root_get()(2) == 1 and clone.root_get()(2) == 3

    def test_frozen_view_never_shares_it(self):
        index = build_spc_index(path_graph(5))
        live = {v: index.label_set(v) for v in range(5)}
        maps = {v: ls.root_get().__self__ for v, ls in live.items()}
        first = frozen_labels(None, live, set(), LabelSet.copy)
        later = frozen_labels(first, live, {1, 2}, LabelSet.copy)
        for view in (first, later):
            for v, ls in view.items():
                assert ls.root_get().__self__ is not maps[v]
        live[3].set(7, 9, 1)
        assert first[3].root_get()(7) is later[3].root_get()(7) is None
        assert live[3].root_get()(7) == 9


class TestPackedEncoding:
    def test_roundtrip(self):
        packed = pack_entry(12345, 678, 99999)
        assert unpack_entry(packed) == (12345, 678, 99999)

    def test_fits_64_bits(self):
        packed = pack_entry((1 << 25) - 1, (1 << 10) - 1, (1 << 29) - 1)
        assert packed < (1 << 64)

    def test_count_saturates(self):
        packed = pack_entry(0, 0, 1 << 40)
        assert unpack_entry(packed)[2] == (1 << COUNT_BITS) - 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_entry(1 << 25, 0, 1)
        with pytest.raises(ValueError):
            pack_entry(0, 1 << 10, 1)
        with pytest.raises(ValueError):
            pack_entry(0, 0, -1)

    def test_labelset_packed(self):
        ls = LabelSet()
        ls.set(3, 2, 5)
        assert [unpack_entry(p) for p in ls.packed()] == [(3, 2, 5)]

    def test_entry_bytes_constant(self):
        assert ENTRY_BYTES == 8
