"""Supervisor: detection, auto-restart, crash-loop budget, corruption repair."""

import os

import pytest

from repro.cluster import SPCCluster
from repro.resilience import Supervisor, SupervisorConfig
from repro.resilience.chaos import flip_bit_in_record
from repro.exceptions import ReproError
from repro.shard import ShardedCluster
from repro.workloads import random_insertions

FAST = dict(
    poll_interval=0.01,
    backoff_initial=0.01,
    backoff_max=0.1,
    restart_budget=8,
    budget_window=10.0,
)


def _grow(fleet, batches=6, seed=7):
    insertions = random_insertions(fleet.primary.engine.graph, batches, seed=seed)
    for update in insertions:
        fleet.submit(update)
    return fleet.sync()


class TestAutoRestart:
    def test_killed_replica_is_restarted_and_catches_up(self, engine, tmp_path, await_true):
        with SPCCluster(engine, str(tmp_path), replicas=2,
                        stall_budget=2) as cluster:
            seq = _grow(cluster)
            with Supervisor(cluster, **FAST) as sup:
                victim = sorted(cluster.replicas)[0]
                cluster.kill_replica(victim)
                assert await_true(
                    lambda: cluster.replicas[victim].healthy
                    and cluster.replicas[victim].applied_seq >= seq
                )
                assert await_true(
                    lambda: sup.monitor.state(victim) == "up"
                )
                assert sup.stats()["restarts"] >= 1
                # The incident closed with a measured recovery time.
                assert await_true(lambda: len(sup.incidents) == 1)
                incident = sup.incidents[0]
                assert incident.member == victim
                assert not incident.failed
                assert incident.mttr_s is not None and incident.mttr_s > 0

    def test_killed_shard_is_restarted(self, engine, tmp_path, await_true):
        with ShardedCluster(engine, str(tmp_path), shards=3,
                            stall_budget=2) as fleet:
            _grow(fleet)
            with Supervisor(fleet, **FAST) as sup:
                fleet.kill_shard(0)
                victim = fleet.shards[0].name
                assert await_true(lambda: fleet.shards[0].healthy)
                assert await_true(lambda: sup.monitor.state(victim) == "up")
                assert sup.kind == "shard"

    def test_transition_log_tells_the_story(self, engine, tmp_path, await_true):
        with SPCCluster(engine, str(tmp_path), replicas=1) as cluster:
            _grow(cluster)
            with Supervisor(cluster, **FAST) as sup:
                victim = sorted(cluster.replicas)[0]
                cluster.kill_replica(victim)
                # Wait for detection first — the member starts "up", so
                # polling for "up" alone would pass before the kill is
                # even observed.
                assert await_true(
                    lambda: sup.monitor.state(victim) != "up"
                )
                assert await_true(
                    lambda: sup.monitor.state(victim) == "up"
                )
                states = [e.state for e in sup.monitor.events_for(victim)]
                # down -> restarting -> up, possibly with repeated
                # down/restarting rounds in between; never failed.
                assert states[0] == "down"
                assert states[-1] == "up"
                assert "restarting" in states
                assert "failed" not in states


class TestCrashLoopBudget:
    def test_persistent_crasher_is_marked_failed(self, engine, tmp_path, await_true):
        with SPCCluster(engine, str(tmp_path), replicas=2,
                        stall_budget=2) as cluster:
            _grow(cluster)
            victim = sorted(cluster.replicas)[0]
            survivor = sorted(cluster.replicas)[1]
            with Supervisor(cluster, **dict(FAST, restart_budget=3)) as sup:
                # Re-kill the victim every time the supervisor revives it.
                def failed():
                    if sup.monitor.state(victim) == "failed":
                        return True
                    replica = cluster.replicas.get(victim)
                    if replica is not None and replica.healthy:
                        cluster.kill_replica(victim)
                    return False

                assert await_true(failed, timeout=15.0)
                # The incident is recorded as unrecovered, with no MTTR
                # (a failed member must not average into recovery times).
                incidents = [i for i in sup.incidents if i.member == victim]
                assert incidents and incidents[-1].failed
                assert incidents[-1].mttr_s is None
                # The survivor is untouched and the fleet still serves.
                assert cluster.replicas[survivor].healthy
                assert cluster.query(0, 1) is not None

    def test_failed_is_terminal_for_the_supervisor(self, engine, tmp_path, await_true):
        with SPCCluster(engine, str(tmp_path), replicas=1,
                        stall_budget=2) as cluster:
            _grow(cluster)
            victim = sorted(cluster.replicas)[0]
            with Supervisor(cluster, **dict(FAST, restart_budget=2)) as sup:
                def failed():
                    if sup.monitor.state(victim) == "failed":
                        return True
                    replica = cluster.replicas.get(victim)
                    if replica is not None and replica.healthy:
                        cluster.kill_replica(victim)
                    return False

                assert await_true(failed, timeout=15.0)
                restarts = sup.stats()["restarts"]
                # No further restart attempts accrue for a failed member.
                assert not await_true(
                    lambda: sup.stats()["restarts"] > restarts, timeout=0.3
                )


class TestCorruptionRepair:
    def test_corrupt_stream_is_repaired_before_restart(self, engine, tmp_path, await_true):
        with SPCCluster(engine, str(tmp_path), replicas=2,
                        stall_budget=2) as cluster:
            _grow(cluster)
            wal = os.path.join(str(tmp_path), "wal.jsonl")
            flip_bit_in_record(wal, seed=17)
            with Supervisor(cluster, **FAST) as sup:
                victim = sorted(cluster.replicas)[0]
                cluster.kill_replica(victim)
                # The replacement dies on the poisoned stream, the
                # supervisor classifies the typed corruption and repairs
                # (fresh checkpoint + truncated WAL), and the next
                # restart sticks.
                assert await_true(
                    lambda: sup.monitor.state(victim) != "up"
                )
                assert await_true(
                    lambda: sup.stats()["repairs"] >= 1, timeout=15.0
                )
                assert await_true(
                    lambda: sup.monitor.state(victim) == "up", timeout=15.0
                )
                # The repair rewrote the stream: replay is clean again.
                from repro.serve.wal import read_wal
                list(read_wal(wal))


class TestConfigAndStats:
    def test_unsupervisable_fleet_rejected(self):
        with pytest.raises(ReproError, match="neither"):
            Supervisor(object())

    def test_fleet_lookalike_rejected(self, engine, tmp_path):
        # Having a fleet's method names does not make an object a fleet.
        class Lookalike:
            primary = None
            replicas = {}

            def restart_replica(self, name):
                raise AssertionError("never called")

        with pytest.raises(ReproError, match="cannot supervise Lookalike"):
            Supervisor(Lookalike())

    def test_config_validation(self):
        with pytest.raises(ReproError):
            SupervisorConfig(poll_interval=0)
        with pytest.raises(ReproError):
            SupervisorConfig(backoff_initial=2.0, backoff_max=1.0)
        with pytest.raises(ReproError):
            SupervisorConfig(restart_budget=0)
        with pytest.raises(ReproError):
            SupervisorConfig(jitter=-1)

    def test_stats_shape_and_close_idempotent(self, engine, tmp_path, await_true):
        with SPCCluster(engine, str(tmp_path), replicas=1) as cluster:
            sup = Supervisor(cluster, **FAST)
            assert await_true(lambda: sup.stats()["ticks"] > 0)
            stats = sup.stats()
            for key in ("ticks", "restarts", "repairs", "incidents",
                        "mttr_max_s"):
                assert key in stats
            sup.close()
            sup.close()   # idempotent
