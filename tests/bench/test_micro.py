"""The repro.bench.micro suite: registration, shape, and sanity of results."""

from repro.bench.config import BenchConfig, get_profile
from repro.bench.micro import run
from repro.bench.runner import EXPERIMENTS


def tiny_config():
    """A config small enough for the unit suite (seconds, not minutes)."""
    return BenchConfig(
        micro_isolated_sizes=(60, 120),
        micro_repeats=2,
        micro_query_graph=(80, 200),
        micro_query_sources=3,
        micro_query_targets=20,
        micro_update_graph=(50, 120),
        micro_update_insertions=5,
        micro_update_deletions=2,
    )


class TestRegistration:
    def test_registered_with_runner(self):
        assert EXPERIMENTS["micro"] is run

    def test_profiles_carry_micro_knobs(self):
        quick = get_profile("quick")
        full = get_profile("full")
        assert quick.micro_isolated_sizes[-1] < full.micro_isolated_sizes[-1]


class TestResultShape:
    def test_three_tables_and_extras(self):
        result = run(tiny_config())
        assert result.name == "micro"
        assert len(result.tables) == 3
        assert set(result.extra) == {
            "isolated_deletion", "batch_queries", "update_latency",
        }

    def test_isolated_series_matches_sizes(self):
        result = run(tiny_config())
        series = result.extra["isolated_deletion"]
        assert [row["n"] for row in series] == [60, 120]
        assert all(row["fast_path_us"] > 0 for row in series)
        assert all(row["legacy_sweep_us"] > 0 for row in series)

    def test_batch_query_agreement_is_enforced(self):
        # run() asserts batched == per-pair answers internally; reaching
        # here means the shared-scan path agreed with the merge path.
        result = run(tiny_config())
        assert result.extra["batch_queries"]["pairs"] == 3 * 20

    def test_update_latency_counts(self):
        result = run(tiny_config())
        lat = result.extra["update_latency"]
        assert lat["insert"]["count"] == 5
        assert lat["delete"]["count"] == 2

    def test_result_is_json_serializable(self, tmp_path):
        result = run(tiny_config())
        path = tmp_path / "micro.json"
        result.save(str(path))
        assert path.stat().st_size > 0

    def test_update_latency_reports_phases(self):
        result = run(tiny_config())
        lat = result.extra["update_latency"]
        assert set(lat["delete"]["phases_mean_s"]) == {
            "srr_s", "bfs_s", "removal_s"}
        assert lat["delete"]["phases_mean_s"]["bfs_s"] > 0
        assert lat["insert"]["phases_mean_s"]["srr_s"] == 0
        assert result.tables[2].columns[-3:] == [
            "srr_us", "bfs_us", "removal_us"]

    def test_delete_row_reports_kept_pairs(self):
        result = run(tiny_config())
        lat = result.extra["update_latency"]
        assert lat["delete"]["kept_mean"] >= 0
        assert lat["insert"]["kept_mean"] is None
        table = result.tables[2]
        kept = table.columns.index("kept")
        rows = {row[0]: row for row in table.rows}
        assert rows["delete"][kept] == round(lat["delete"]["kept_mean"], 1)
        assert rows["insert"][kept] == "—"

    def test_weighted_rows_share_the_columns(self):
        result = run(tiny_config())
        lat = result.extra["update_latency"]
        assert set(lat) == {"insert", "delete", "weighted_insert",
                            "weighted_delete"}
        # Five weighted insertions, plus the weight decreases among the
        # stream's weight changes.
        assert lat["weighted_insert"]["count"] >= 5
        assert lat["weighted_delete"]["count"] >= 2
        assert lat["weighted_delete"]["kept_mean"] >= 0
        rows = {row[0]: row for row in result.tables[2].rows}
        assert set(rows) == {"insert", "delete", "weighted insert",
                             "weighted delete"}
        assert all(len(row) == len(result.tables[2].columns)
                   for row in rows.values())
