"""The shared load driver's absolute fault schedule and read window.

Every threaded harness runs its fault steps through
:func:`repro.serve.loadgen._fault_loop`: each ``(fraction, step)`` fires
at ``started + fraction·duration`` no matter how long an earlier step
blocked, and a step that only comes around after the deadline is a
recorded problem, never a silent skip.  Every ``_run_load`` harness
times its report over the read window alone.
"""

import threading
import time

import pytest

from repro.cluster import SPCCluster, run_cluster_loadgen
from repro.serve import SPCService, run_loadgen
from repro.serve.loadgen import _fault_loop


def test_a_blocking_step_does_not_drift_later_steps():
    fired = {}
    started = time.time()

    def slow():
        fired["slow"] = time.time() - started
        time.sleep(0.35)  # overruns the next step's time (0.3 s)

    def late():
        fired["late"] = time.time() - started

    def on_time():
        fired["on_time"] = time.time() - started

    problems = []
    _fault_loop([(0.1, slow), (0.3, late), (0.8, on_time)], started, 1.0,
                threading.Event(), problems)
    assert problems == []
    # The overrun step fires as soon as the blocker returns ...
    assert 0.44 <= fired["late"] < 0.65
    # ... and the next one still fires at its own absolute time, where a
    # relative schedule would have pushed it to about 0.95 s.
    assert 0.79 <= fired["on_time"] < 0.92


def test_a_step_after_the_deadline_is_a_missed_window():
    fired = []
    started = time.time()

    def blocker():
        time.sleep(0.4)  # runs past the 0.3 s deadline

    def restart_member():
        fired.append("restart_member")

    problems = []
    _fault_loop([(0.1, blocker), (0.5, restart_member)], started, 0.3,
                threading.Event(), problems)
    assert fired == []
    assert len(problems) == 1
    assert "restart_member" in problems[0]
    assert "missed its injection window" in problems[0]


def test_a_crashing_step_ends_the_schedule():
    fired = []

    def boom():
        raise OSError("injected")

    def after():
        fired.append("after")

    problems = []
    _fault_loop([(0.0, boom), (0.1, after)], time.time(), 1.0,
                threading.Event(), problems)
    assert fired == []
    assert problems == ["fault controller crashed: OSError('injected')"]


@pytest.mark.parametrize("harness", ["serve", "cluster"])
def test_a_slow_post_run_settle_is_not_load(harness, monkeypatch):
    # serve flushes and cluster syncs after the readers stop; that wait
    # must not count towards duration_s or read_qps.
    fleet_type, settle = {
        "serve": (SPCService, "flush"),
        "cluster": (SPCCluster, "sync"),
    }[harness]
    original = getattr(fleet_type, settle)

    def slow(self, *args, **kwargs):
        time.sleep(0.5)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(fleet_type, settle, slow)
    small = dict(backend="core", readers=1, duration=0.3, n=50, m=120,
                 churn=8)
    if harness == "serve":
        report = run_loadgen(**small)
    else:
        report = run_cluster_loadgen(replicas=1, inject_fault=False, **small)
    assert report["duration_s"] < 0.3 + 0.3
    assert report["reads"] > 0
