"""Golden tests: every worked example in the paper, asserted exactly.

These tests pin the implementation to the paper's own traces:

* Table 2   — the full SPC-Index of the Figure 2 example graph;
* Example 2.1 / 2.2 — query evaluation and canonical vs non-canonical labels;
* Figure 3  — the incremental trace for inserting (v3, v9);
* Example 3.9 / Figure 4 — the decremental toy motivation;
* Example 3.13 / Figure 6 — SR/R sets and the decremental trace for
  deleting (v1, v2).
"""

import pytest

from repro.core import build_spc_index, dec_spc, inc_spc
from repro.core.decremental import srr_search
from repro.verify import check_invariants, verify_espc
from tests.conftest import PAPER_INDEX

INF = float("inf")


class TestTable2Construction:
    def test_index_matches_table2_exactly(self, paper_graph, paper_order):
        index = build_spc_index(paper_graph, order=paper_order)
        for v, expected in PAPER_INDEX.items():
            assert index.labels(v) == expected, f"L(v{v}) mismatch"

    def test_total_label_count(self, paper_index):
        expected_entries = sum(len(entries) for entries in PAPER_INDEX.values())
        assert paper_index.num_entries == expected_entries

    def test_invariants_hold(self, paper_index):
        assert check_invariants(paper_index)

    def test_espc_cover_constraint(self, paper_graph, paper_index):
        assert verify_espc(paper_graph, paper_index)


class TestQueryExamples:
    def test_example_2_1_spc_query_v4_v6(self, paper_index):
        # H = {v1, v4}, sd = 3, spc = 1*1 + 1*1 = 2.
        assert paper_index.query(4, 6) == (3, 2)

    def test_example_2_2_canonical_label(self, paper_index):
        # (v0, 2, 2) in L(v5) is canonical: spc(v0, v5) = 2 = sigma.
        assert paper_index.label_set(5).get(0) == (2, 2)
        assert paper_index.query(0, 5) == (2, 2)

    def test_example_2_2_non_canonical_label(self, paper_index):
        # (v2, 2, 1) in L(v8) is non-canonical: spc(v2, v8) = 2 > 1.
        assert paper_index.label_set(8).get(2) == (2, 1)
        assert paper_index.query(2, 8) == (2, 2)

    def test_self_query(self, paper_index):
        assert paper_index.query(7, 7) == (0, 1)

    def test_disconnected_pair(self, paper_graph, paper_order):
        graph = paper_graph
        graph.add_vertex(12)
        order_list = paper_order.as_list() + [12]
        index = build_spc_index(graph, order=order_list)
        assert index.query(0, 12) == (INF, 0)

    def test_pre_query_excludes_own_rank(self, paper_index):
        # PreQUERY(v4, v6) may only use hubs above v4: H = {v1}, d = 3.
        d, c = paper_index.pre_query(4, 6)
        assert (d, c) == (3, 1)

    def test_pre_query_unreachable_via_higher_hubs(self, paper_index):
        # PreQUERY(v0, anything) has no hubs above v0 at all.
        assert paper_index.pre_query(0, 9) == (INF, 0)


class TestFigure3Incremental:
    """Insert (v3, v9) into the example graph (Example 3.5 / 3.6)."""

    def test_aff_set(self, paper_graph, paper_index):
        stats = inc_spc(paper_graph, paper_index, 3, 9)
        # AFF = hubs of L(v3) u L(v9) = {v0, v1, v2, v3, v4, v6, v9}.
        assert stats.affected_hubs == 7

    def test_label_updates_match_trace(self, paper_graph, paper_index):
        inc_spc(paper_graph, paper_index, 3, 9)
        l9 = paper_index.label_set(9)
        # Hub v0: (v0,4,4) renewed to (v0,2,1).
        assert l9.get(0) == (2, 1)
        # Hub v1: (v1,3,2) renewed to (v1,3,3).
        assert l9.get(1) == (3, 3)
        # Hub v2: (v2,3,1) renewed to (v2,2,1).
        assert l9.get(2) == (2, 1)
        # Hub v3 (omitted in the paper's table): (v3,3,1) -> (v3,1,1).
        assert l9.get(3) == (1, 1)
        # Hub v0 at v4 and v10: counting renewed.
        assert paper_index.label_set(4).get(0) == (3, 4)
        assert paper_index.label_set(10).get(0) == (3, 2)
        # Hub v2 at v10: new label inserted.
        assert paper_index.label_set(10).get(2) == (3, 1)

    def test_update_operation_counts(self, paper_graph, paper_index):
        stats = inc_spc(paper_graph, paper_index, 3, 9)
        # Derived from the full trace (paper table + the omitted hubs):
        # RenewD: v9@v0, v9@v2, v9@v3, v10@v3.
        assert stats.renew_dist == 4
        # RenewC: v4@v0, v10@v0, v9@v1, v4@v3.
        assert stats.renew_count == 4
        # Insert: (v2,3,1) into L(v10), (v3,3,1) into L(v6).
        assert stats.inserted == 2
        assert stats.removed == 0

    def test_espc_after_insert(self, paper_graph, paper_index):
        inc_spc(paper_graph, paper_index, 3, 9)
        assert verify_espc(paper_graph, paper_index)
        assert check_invariants(paper_index)

    def test_new_counts_are_correct(self, paper_graph, paper_index):
        inc_spc(paper_graph, paper_index, 3, 9)
        # sd(v3, v4) stays 2 but gains a second path (v3-v9-v4).
        assert paper_index.query(3, 4) == (2, 2)
        # v8 was explicitly NOT in AFF; its queries must still be exact.
        assert paper_index.query(8, 9) == (2, 1)


class TestExample39Toy:
    """Figure 4: deleting (a, b) must fix L(u) via a non-hub SR vertex."""

    def test_initial_labels(self, toy_graph, toy_order):
        index = build_spc_index(toy_graph, order=toy_order)
        assert index.labels("u") == [
            ("h", 3, 1), ("a", 2, 1), ("b", 1, 1), ("u", 0, 1),
        ]
        assert index.labels("b") == [("h", 2, 1), ("a", 1, 1), ("b", 0, 1)]

    def test_deletion_updates_and_inserts(self, toy_graph, toy_order):
        index = build_spc_index(toy_graph, order=toy_order)
        dec_spc(toy_graph, index, "a", "b")
        # (h, 3, 1) -> (h, 6, 1): the shortest h-u path now runs h-w-w1..w4-u.
        assert index.label_set("u").get(index.order.rank("h")) == (6, 1)
        # (w, 5, 1) appears even though w was never a hub of a or b.
        assert index.label_set("u").get(index.order.rank("w")) == (5, 1)
        assert verify_espc(toy_graph, index)

    def test_w_is_in_sr_by_condition_b(self, toy_graph, toy_order):
        index = build_spc_index(toy_graph, order=toy_order)
        la = index.label_set("a")
        lb = index.label_set("b")
        lab = set(la.hubs) & set(lb.hubs)
        sr_a, r_a, _ = srr_search(toy_graph.neighbors, "a", "b", lab,
                               index.order.rank_map())
        assert "w" in sr_a
        assert "h" in sr_a  # h is a common hub of a and b (Condition A)


class TestFigure6Decremental:
    """Delete (v1, v2) from the example graph (Examples 3.13 / 3.15)."""

    def test_sr_and_r_sets(self, paper_graph, paper_index):
        la = paper_index.label_set(1)
        lb = paper_index.label_set(2)
        lab = set(la.hubs) & set(lb.hubs)
        step, rank = paper_graph.neighbors, paper_index.order.rank_map()
        sr_v1, r_v1, _ = srr_search(step, 1, 2, lab, rank)
        sr_v2, r_v2, _ = srr_search(step, 2, 1, lab, rank)
        assert sr_v1 == {1, 6, 10}
        assert r_v1 == set()
        assert sr_v2 == {2}
        assert r_v2 == {3, 7}

    def test_stats_cardinalities(self, paper_graph, paper_index):
        stats = dec_spc(paper_graph, paper_index, 1, 2)
        assert (stats.sr_a, stats.r_a) == (3, 0)
        assert (stats.sr_b, stats.r_b) == (1, 2)
        assert stats.affected_hubs == 4  # SR = {v1, v2, v6, v10}

    def test_label_updates_match_trace(self, paper_graph, paper_index):
        dec_spc(paper_graph, paper_index, 1, 2)
        # (v1,1,1) in L(v2) renewed to (v1,2,1): new path v1-v5-v2.
        assert paper_index.label_set(2).get(1) == (2, 1)
        # (v1,2,1) deleted from L(v3) in the label-removal phase.
        assert paper_index.label_set(3).get(1) is None
        # (v1,3,2) in L(v7) renewed to (v1,3,1).
        assert paper_index.label_set(7).get(1) == (3, 1)
        # (v2,4,1) inserted into L(v10): new path v2-v5-v4-v9-v10.
        assert paper_index.label_set(10).get(2) == (4, 1)

    def test_operation_counts(self, paper_graph, paper_index):
        stats = dec_spc(paper_graph, paper_index, 1, 2)
        assert stats.renew_dist == 1   # v2@v1
        assert stats.renew_count == 1  # v7@v1
        assert stats.inserted == 1     # v10@v2
        assert stats.removed == 1      # v3@v1
        assert not stats.isolated_fast_path

    def test_espc_after_delete(self, paper_graph, paper_index):
        dec_spc(paper_graph, paper_index, 1, 2)
        assert verify_espc(paper_graph, paper_index)
        assert check_invariants(paper_index)
        assert paper_index.query(1, 2) == (2, 2)  # v1-v0-v2 and v1-v5-v2


class TestIsolatedVertexOptimization:
    """§3.2.3: deleting the only edge of a low-ranked degree-1 vertex."""

    def test_fast_path_applies_to_v11(self, paper_graph, paper_index):
        # v11 has degree 1 (edge to v0) and ranks below v0.
        stats = dec_spc(paper_graph, paper_index, 0, 11)
        assert stats.isolated_fast_path
        assert paper_index.labels(11) == [(11, 0, 1)]
        assert paper_index.query(0, 11) == (INF, 0)
        assert verify_espc(paper_graph, paper_index)

    def test_fast_path_counts_removed_labels(self, paper_graph, paper_index):
        stats = dec_spc(paper_graph, paper_index, 0, 11)
        assert stats.removed == 1  # (v0, 1, 1) dropped from L(v11)

    def test_fast_path_argument_order_irrelevant(self, paper_graph, paper_index):
        stats = dec_spc(paper_graph, paper_index, 11, 0)
        assert stats.isolated_fast_path
        assert verify_espc(paper_graph, paper_index)

    def test_fast_path_can_be_disabled(self, paper_graph, paper_index):
        stats = dec_spc(paper_graph, paper_index, 0, 11,
                        use_isolated_fast_path=False)
        assert not stats.isolated_fast_path
        assert verify_espc(paper_graph, paper_index)
        assert paper_index.labels(11) == [(11, 0, 1)]

    def test_fast_path_skipped_when_pendant_ranks_higher(self):
        # A degree-1 vertex that ranks ABOVE its neighbor must take the
        # general path: other vertices may hold it as a hub.
        from repro.graph import Graph
        from repro.order import VertexOrder

        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        # Order places the pendant 0 highest.
        index = build_spc_index(g, order=VertexOrder([0, 1, 2, 3]))
        stats = dec_spc(g, index, 0, 1)
        assert not stats.isolated_fast_path
        assert verify_espc(g, index)
