"""The replay engine end to end: every fleet topology, strict contract."""

import time

import pytest

from repro.exceptions import ServeError
from repro.replay import run_replay_scenario
from repro.replay.scenario import FaultSpec, get_scenario

# Small corpora + short wall windows keep each run in the ~1s range.
TRIM = {"events": 350}


class TestRunReplayScenario:
    def test_service_scenario(self):
        report = run_replay_scenario(
            "diurnal", seed=0, duration=0.6, corpus_kwargs=TRIM
        )
        det = report["deterministic"]
        assert report["events_submitted"] == det["events_to_replay"]
        assert report["queries_issued"] == det["queries_planned"]
        assert report["divergences"] == 0
        assert report["refusals"] == 0
        assert report["auditor"]["audited"] > 0

    def test_same_seed_is_deterministic(self):
        a = run_replay_scenario("diurnal", seed=3, duration=0.5,
                                corpus_kwargs=TRIM)
        b = run_replay_scenario("diurnal", seed=3, duration=0.5,
                                corpus_kwargs=TRIM)
        assert a["deterministic"] == b["deterministic"]
        c = run_replay_scenario("diurnal", seed=4, duration=0.5,
                                corpus_kwargs=TRIM)
        assert c["deterministic"]["fingerprint"] \
            != a["deterministic"]["fingerprint"]

    def test_cluster_scenario(self):
        report = run_replay_scenario(
            "heavy-tail-sources", seed=0, duration=0.8, corpus_kwargs=TRIM
        )
        assert report["scenario"]["fleet"] == "cluster"
        assert report["divergences"] == 0
        assert report["queries_answered"] == report["queries_issued"]

    def test_shard_scenario_with_faults(self):
        report = run_replay_scenario(
            "churn-window", seed=0, duration=1.4, corpus_kwargs=TRIM
        )
        assert report["scenario"]["fleet"] == "shard"
        assert report["divergences"] == 0
        # The kill window must have been observed as refusals, and the
        # fleet must have recovered after the restart.
        assert report["refusals"] > 0
        assert report["recovered"] is True
        actions = [e["action"] for e in report["fault_injection"]]
        assert actions == ["kill_shard", "restart_shard"]

    def test_accepts_scenario_object_with_overrides(self):
        scenario = get_scenario("diurnal").replace(
            name="diurnal-tweaked", query_rate=5.0, readers=1
        )
        report = run_replay_scenario(scenario, seed=0, duration=0.5,
                                     corpus_kwargs=TRIM)
        assert report["scenario"]["name"] == "diurnal-tweaked"

    def test_rejects_non_scenario(self):
        with pytest.raises(ServeError, match="scenario"):
            run_replay_scenario(42)

    def test_a_fault_step_past_the_deadline_is_a_missed_window(
            self, monkeypatch):
        # The kill step blocks past the run's deadline, so the restart's
        # turn comes only after the run: a missed injection window,
        # never a silently late fault.
        from repro.replay.loadgen import _Fleet

        original = _Fleet.apply_fault

        def blocking(self, fault):
            if fault.action == "kill_shard":
                time.sleep(0.8)
                return
            original(self, fault)

        monkeypatch.setattr(_Fleet, "apply_fault", blocking)
        report = run_replay_scenario(
            "churn-window", seed=0, duration=0.8, corpus_kwargs=TRIM,
            strict=False,
        )
        missed = [p for p in report["replay_problems"]
                  if "missed its injection window" in p]
        assert len(missed) == 1
        assert missed[0].startswith("restart_shard at 0.7·T")
        actions = [e["action"] for e in report["fault_injection"]]
        assert actions == ["kill_shard"]

    def test_unexplained_fault_action_fails(self):
        scenario = get_scenario("churn-window").replace(
            faults=(FaultSpec("defragment", at=0.5),)
        )
        with pytest.raises(Exception, match="defragment|problem"):
            run_replay_scenario(scenario, seed=0, duration=0.8,
                                corpus_kwargs=TRIM)


class _MalformedFleet:
    """Answers every pair with a finite distance and zero paths."""

    def query(self, s, t):
        return (1, 0)


class _NowPlan:
    def wall_offset(self, virtual_ts):
        return 0.0


def test_malformed_answer_is_reported_without_a_seq():
    # The replay reader has no WAL seq for an answer; the problem must
    # not pass its answered count off as one.
    from repro.replay.loadgen import _reader_loop

    record = {}
    _reader_loop(_MalformedFleet(), [(0.0, 2, 5)], _NowPlan(), 0.0, record)
    assert record["answered"] == 1
    assert len(record["problems"]) == 1
    problem = record["problems"][0]
    assert problem.startswith("malformed answer for (2,5): ")
    assert "seq" not in problem
