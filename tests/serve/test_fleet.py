"""The fleet contract: SPCCluster and ShardedCluster behave as one Fleet.

Every test runs on both fleets over the same small ER graph: the member
map and its kill/restart fault operations (and the replica/shard alias
names), ``sync``, the answer tap, ``close``, the closed-fleet refusal,
and a Supervisor healing a killed member.
"""

import threading
import time

import pytest

from repro.cluster import SPCCluster
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ClusterError, ShardError
from repro.graph.generators import erdos_renyi
from repro.resilience import Supervisor
from repro.shard import ShardedCluster
from repro.workloads import random_insertions

# name -> (fleet type, member key, error type, alias names of
#          members / kill / restart)
FLEETS = {
    "cluster": (SPCCluster, "replica-0", ClusterError,
                ("replicas", "kill_replica", "restart_replica")),
    "shard": (ShardedCluster, 0, ShardError,
              ("shards", "kill_shard", "restart_shard")),
}


@pytest.fixture(params=sorted(FLEETS))
def spec(request):
    return FLEETS[request.param]


@pytest.fixture
def fleet(spec, tmp_path):
    fleet_type = spec[0]
    engine = SPCEngine(erdos_renyi(40, 90, seed=3),
                       config=EngineConfig(backend="core"))
    fleet = fleet_type(engine, str(tmp_path), stall_budget=2)
    yield fleet
    fleet.close()


def _await_true(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _grow(fleet, batches=6, seed=7):
    for update in random_insertions(fleet.primary.engine.graph, batches,
                                    seed=seed):
        fleet.submit(update)
    return fleet.sync()


def test_aliases_are_the_base_operations(spec):
    fleet_type, _key, _error, (members, kill, restart) = spec
    assert getattr(fleet_type, members) is fleet_type.members
    assert getattr(fleet_type, kill) is fleet_type.kill
    assert getattr(fleet_type, restart) is fleet_type.restart


def test_kill_and_restart_swap_a_member(spec, fleet):
    _fleet_type, key, error, (members, _kill, _restart) = spec
    assert getattr(fleet, members) is fleet.members
    old = fleet.members[key]
    fleet.kill(key)
    assert not old.healthy
    assert fleet.members[key] is old     # dead but still registered
    new = fleet.restart(key)
    assert fleet.members[key] is new and new is not old
    seq = _grow(fleet)
    assert new.healthy and new.applied_seq == seq
    with pytest.raises(error, match="no "):
        fleet.kill("no-such-member")


def test_sync_returns_the_primary_seq(fleet):
    seq = _grow(fleet)
    assert seq == fleet.primary.applied_seq > 0
    assert all(m.applied_seq == seq for m in fleet.members.values())


def test_answer_tap_fires(fleet):
    tapped = []
    fleet.set_answer_tap(lambda *args: tapped.append(args))
    _grow(fleet)
    for s, t in [(0, 1), (2, 3), (4, 5)]:
        fleet.query(s, t)
    assert tapped


def test_close_is_idempotent(fleet):
    fleet.close()
    fleet.close()


def test_kill_or_restart_after_close_raises(spec, fleet):
    _fleet_type, key, error, (_members, kill, restart) = spec
    fleet.close()
    with pytest.raises(error, match="closed"):
        getattr(fleet, restart)(key)
    with pytest.raises(error, match="closed"):
        getattr(fleet, kill)(key)


def test_restart_racing_close_leaks_no_member(spec, fleet):
    # The autouse leak guard fails this test if a member spawned by a
    # restart in flight outlives the close.
    key, error = spec[1], spec[2]
    stop = threading.Event()

    def restart_loop():
        while not stop.is_set():
            try:
                fleet.restart(key)
            except error:
                return

    worker = threading.Thread(target=restart_loop)
    worker.start()
    try:
        time.sleep(0.05)
        fleet.close()
    finally:
        stop.set()
        worker.join(timeout=10.0)
    assert not worker.is_alive()


def test_supervisor_heals_a_killed_member(spec, fleet):
    key = spec[1]
    seq = _grow(fleet)
    with Supervisor(fleet, poll_interval=0.01, backoff_initial=0.01,
                    backoff_max=0.1) as sup:
        assert sup.kind == fleet.kind
        name = fleet.members[key].name
        fleet.kill(key)
        assert _await_true(
            lambda: fleet.members[key].healthy
            and fleet.members[key].applied_seq >= seq
        )
        assert _await_true(lambda: sup.monitor.state(name) == "up")
        assert _await_true(lambda: len(sup.incidents) == 1)
        assert sup.incidents[0].member == name
