"""Perf-trajectory history: record_run, load_history, drift_report."""

import json

import pytest

from repro.audit import drift_report, load_history, record_run
from repro.bench.tables import ExperimentResult

METRIC = "update_latency.insert.mean_s"


def make_result(name="micro", extra=None):
    result = ExperimentResult(name=name, description="d")
    result.extra.update(extra or {})
    return result


def record_micro(path, mean_s, **kwargs):
    extra = {"update_latency": {"insert": {"mean": mean_s}}}
    return record_run(path, make_result(extra=extra), **kwargs)


class TestRecordRun:
    def test_appends_one_jsonl_entry_with_tracked_metrics(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        entry = record_micro(path, 10.0, profile="quick", seed=7)
        assert entry["experiment"] == "micro"
        assert entry["profile"] == "quick"
        assert entry["seed"] == 7
        assert METRIC in entry["metrics"]
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == entry

    def test_untracked_experiment_writes_nothing(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        assert record_run(path, make_result(name="nosuch")) is None
        assert not path.exists()

    def test_append_only(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record_micro(path, 10.0)
        record_micro(path, 11.0)
        assert len(path.read_text().splitlines()) == 2

    def test_recorded_at_is_deterministic_when_pinned(self, tmp_path):
        entry = record_micro(tmp_path / "h.jsonl", 10.0, recorded_at=0)
        assert entry["recorded_at"] == "1970-01-01T00:00:00Z"


class TestLoadHistory:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == ([], 0)

    def test_round_trips_recorded_entries(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record_micro(path, 10.0)
        record_micro(path, 12.0)
        entries, skipped = load_history(path)
        assert skipped == 0
        assert [e["experiment"] for e in entries] == ["micro", "micro"]

    def test_malformed_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record_micro(path, 10.0)
        with open(path, "a") as f:
            f.write("{not json\n")        # corrupt merge artifact
            f.write('"a bare string"\n')  # json, wrong shape
            f.write('{"no": "experiment key"}\n')
            f.write("\n")                 # blank lines are not an error
        record_micro(path, 11.0)
        entries, skipped = load_history(path)
        assert len(entries) == 2
        assert skipped == 3


class TestDriftReport:
    def test_empty_history_is_a_notice_not_a_pass(self):
        regressions, lines, skipped = drift_report([])
        assert regressions == []
        assert any("history is empty" in line for line in lines)
        assert skipped == [{
            "experiment": None,
            "metric": None,
            "reason": "history is empty — nothing to compare",
        }]

    def test_single_run_has_no_baseline_window(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record_micro(path, 10.0)
        entries, _ = load_history(path)
        regressions, lines, skipped = drift_report(entries)
        assert regressions == []
        assert any("no baseline window yet" in line for line in lines)
        assert [s["experiment"] for s in skipped] == ["micro"]
        assert "no baseline window" in skipped[0]["reason"]

    def test_steady_metrics_pass(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        for us in (10.0, 10.5, 9.8, 10.1):
            record_micro(path, us)
        entries, _ = load_history(path)
        regressions, lines, skipped = drift_report(entries, tolerance=0.5)
        assert regressions == []
        assert skipped == []
        assert any("ok" in line or "improved" in line for line in lines)

    def test_lower_is_better_regression_flagged(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        for us in (10.0, 10.0, 30.0):  # latest tripled: +200% > 50%
            record_micro(path, us)
        entries, _ = load_history(path)
        regressions, _, _ = drift_report(entries, tolerance=0.5)
        assert [r["metric"] for r in regressions] == [METRIC]
        r = regressions[0]
        assert r["baseline"] == pytest.approx(10.0)
        assert r["current"] == pytest.approx(30.0)
        assert r["change"] == pytest.approx(2.0)

    def test_direction_aware_improvement_is_not_a_regression(self, tmp_path):
        # For a lower-is-better metric, dropping is an improvement.
        path = tmp_path / "hist.jsonl"
        for us in (30.0, 30.0, 10.0):
            record_micro(path, us)
        entries, _ = load_history(path)
        regressions, lines, skipped = drift_report(entries, tolerance=0.5)
        assert regressions == []
        assert skipped == []
        assert any("improved" in line for line in lines)

    def test_rolling_window_forgets_ancient_runs(self, tmp_path):
        # Ancient fast runs outside the window must not condemn a stable
        # present: baseline is the mean of the `window` runs before last.
        path = tmp_path / "hist.jsonl"
        for us in (1.0, 1.0, 20.0, 20.0, 20.0, 20.0):
            record_micro(path, us)
        entries, _ = load_history(path)
        regressions, _, _ = drift_report(entries, window=3, tolerance=0.5)
        assert regressions == []
        # A wide-enough window still sees them.
        regressions, _, _ = drift_report(entries, window=5, tolerance=0.5)
        assert regressions != []

    def test_experiment_filter(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        for us in (10.0, 30.0):
            record_micro(path, us)
        entries, _ = load_history(path)
        regressions, lines, _ = drift_report(
            entries, tolerance=0.5, experiments=["other"]
        )
        assert regressions == []
        assert not any("micro." in line for line in lines)

    def test_zero_baseline_skipped_with_notice(self):
        entries = [
            {"experiment": "x",
             "metrics": {"m": {"value": 0.0, "direction": "lower"}}},
            {"experiment": "x",
             "metrics": {"m": {"value": 5.0, "direction": "lower"}}},
        ]
        regressions, lines, skipped = drift_report(entries)
        assert regressions == []
        assert any("baseline mean is 0" in line for line in lines)
        assert skipped == [{
            "experiment": "x",
            "metric": "m",
            "reason": "baseline mean is 0",
        }]

    def test_new_metric_has_no_history_notice(self):
        entries = [
            {"experiment": "x",
             "metrics": {"old": {"value": 1.0, "direction": "lower"}}},
            {"experiment": "x",
             "metrics": {"new": {"value": 1.0, "direction": "lower"}}},
        ]
        regressions, lines, skipped = drift_report(entries)
        assert regressions == []
        assert any("new metric" in line for line in lines)
        assert skipped == [{
            "experiment": "x",
            "metric": "new",
            "reason": "new metric — no baseline history",
        }]

    def test_healthy_multi_run_history_reports_no_skips(self, tmp_path):
        # The inverse guarantee: once a real baseline window exists and
        # every metric has history, the skipped channel must stay empty —
        # a green drift report then really did compare something.
        path = tmp_path / "hist.jsonl"
        for us in (10.0, 10.2, 9.9):
            record_micro(path, us)
        entries, _ = load_history(path)
        regressions, _, skipped = drift_report(entries, tolerance=0.5)
        assert regressions == []
        assert skipped == []

    def test_profiles_are_judged_only_against_their_own_kind(self, tmp_path):
        # Quick runs are ~10x faster than full ones; mixing them would
        # flag the full run as a regression and hide a quick one.
        path = tmp_path / "hist.jsonl"
        record_micro(path, 10.0, profile="full")
        record_micro(path, 1.0, profile="quick")
        record_micro(path, 10.5, profile="full")
        record_micro(path, 3.0, profile="quick")  # a real quick regression
        record_micro(path, 2.0)  # no profile: a group of its own
        entries, _ = load_history(path)
        regressions, lines, skipped = drift_report(entries, tolerance=0.5)
        assert [(r["experiment"], r["baseline"], r["current"])
                for r in regressions] == [("micro", 1.0, 3.0)]
        assert any(line.startswith(f"[drift] micro[full].{METRIC}: 10 -> 10.5")
                   for line in lines)
        assert skipped == [{
            "experiment": "micro",
            "metric": None,
            "reason": "only one recorded run — no baseline window",
        }]

    def test_missing_profile_key_is_its_own_group(self):
        def entry(value, **profile):
            return {"experiment": "x", **profile,
                    "metrics": {"m": {"value": value, "direction": "lower"}}}

        entries = [entry(1.0), entry(1.0, profile="quick"),
                   entry(9.0, profile="quick"), entry(1.1)]
        regressions, _, _ = drift_report(entries, tolerance=0.5)
        assert [(r["baseline"], r["current"]) for r in regressions] == [
            (1.0, 9.0)
        ]
