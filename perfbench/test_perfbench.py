"""Tests of the benchmark itself: its declared contract, its seeded inputs,
and that the traced pass's core.* counts repeat exactly for one seed.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import dataclasses
import json
import os
import re
import threading

import pytest

from perfbench.hostspeed import HostSpeed
from perfbench.inputs import WORKLOADS, make_inputs
from perfbench.tracing import Tracer
from perfbench.workloads import RUNNERS, _scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(path):
    with open(path) as f:
        return json.load(f)


def test_benchmark_json_declares_every_metric_once():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_rationale_covers_every_workload_and_layer_metric():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    why = _load(os.path.join(HERE, "rationale.json"))
    assert set(why["workloads"]) == set(WORKLOADS)
    assert set(why["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(why["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for entry in why["per_layer"].values():
        for target in entry["moves"]:
            metric, workload = target.split("@")
            assert metric in e2e and workload in WORKLOADS
        assert set(entry["flat_on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_the_seed_only(workload):
    first = make_inputs(workload, 7, 4)
    assert first.fingerprint() == make_inputs(workload, 7, 4).fingerprint()
    assert first.fingerprint() != make_inputs(workload, 8, 4).fingerprint()


def test_scaling_divides_times_and_multiplies_rates():
    metrics = {"read_p50_us": (300.0, "us", 9),
               "updates_per_s": (50.0, "1/s", 9),
               "peak_rss_mb": (60.0, "MB", 1)}
    timed = {}
    _scale(metrics, 1.5, timed)
    assert metrics == {"read_p50_us": (200.0, "us", 9),
                       "updates_per_s": (75.0, "1/s", 9),
                       "peak_rss_mb": (60.0, "MB", 1)}
    assert timed == {"read_p50_us": 300.0, "updates_per_s": 50.0}


def test_host_probe_is_positive_and_rate_limited():
    speed = HostSpeed(every=1.0)
    for now in (0.0, 0.5, 1.0, 1.5, 2.0):
        speed.maybe_sample(now)
    assert len(speed.samples) == 3 and speed.slowdown() > 0


def _small(workload):
    """The workload's own inputs, cut down so a traced pass takes seconds."""
    inputs = make_inputs(workload, 3, 3)
    if workload == "engine-hybrid":
        inputs = dataclasses.replace(inputs, updates=inputs.updates[:110],
                                     reads=inputs.reads[:500])
    return inputs


def _traced_metrics(workload, inputs, workdir):
    tracer = Tracer()
    result = RUNNERS[workload](inputs, 3, workdir, tracer, repeat_setup=False)
    assert result.failed == 0, result.problems
    return tracer.metrics(threading.current_thread().name, result.main_wall_s)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_core_counts_repeat_exactly(workload, tmp_path):
    inputs = _small(workload)
    runs = [_traced_metrics(workload, inputs, str(tmp_path))
            for _ in range(2)]
    counts = [{name: value for name, (value, unit) in metrics.items()
               if name.startswith("core.") and unit in ("count", "ratio")}
              for metrics in runs]
    assert counts[0] == counts[1]
    assert counts[0]["core.incremental.bfs_visits"] > 0
    deletes = counts[0]["core.decremental.updates"]
    assert (deletes == 0) == (workload == "serve-read")
    metrics = runs[0]
    assert metrics["trace.spans"][0] > 0
    assert 0 <= metrics["trace.unattributed_frac"][0] < 1
