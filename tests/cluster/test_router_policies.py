"""Router policy properties: staleness bounds, floors, rotation, load.

The property tests drive :class:`ClusterRouter` over fake fleet members
with arbitrary applied/published sequence numbers — hypothesis explores
lagging replicas, dead replicas, and primaries whose published snapshot
trails their applied seq — and pin the two routing guarantees:

* **bounded staleness** — an acquired snapshot never has
  ``seq < primary_applied_seq - delta`` (the Δ contract of the policy);
* **min_seq floors** — an acquired snapshot never has ``seq < min_seq``
  (the hook read-your-writes sessions stand on).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import POLICIES, ClusterRouter
from repro.exceptions import ClusterError
from repro.serve.snapshot import SnapshotView


class _FakeIndex:
    def query(self, s, t):
        return (1, 1)


def _snap(seq):
    return SnapshotView(_FakeIndex(), "fake", seq, seq, 0.0)


class FakeTarget:
    """Stands in for a Replica (or the primary service): a pinned
    snapshot at ``snap_seq``, an applied seq, and a health flag."""

    def __init__(self, name, applied_seq, snap_seq=None, healthy=True):
        self.name = name
        self.applied_seq = applied_seq
        self.healthy = healthy
        self._snap = _snap(applied_seq if snap_seq is None else snap_seq)

    def snapshot(self):
        return self._snap


def _router(primary, replicas, policy, delta=0, wait_timeout=0.02):
    return ClusterRouter(
        primary, replicas, policy=policy, staleness_delta=delta,
        wait_timeout=wait_timeout,
    )


fleet_states = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),   # replica snapshot seq
        st.booleans(),                            # healthy?
    ),
    min_size=1,
    max_size=5,
)


class TestBoundedStalenessProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        primary_seq=st.integers(min_value=0, max_value=60),
        publish_lag=st.integers(min_value=0, max_value=10),
        delta=st.integers(min_value=0, max_value=20),
        fleet=fleet_states,
    )
    def test_never_serves_beyond_delta(self, primary_seq, publish_lag,
                                       delta, fleet):
        primary = FakeTarget(
            "primary", primary_seq,
            snap_seq=max(0, primary_seq - publish_lag),
        )
        replicas = [
            FakeTarget(f"r{i}", seq, healthy=ok)
            for i, (seq, ok) in enumerate(fleet)
        ]
        router = _router(primary, replicas, "bounded_staleness", delta=delta)
        try:
            with router.acquire() as lease:
                assert lease.snapshot.seq >= primary_seq - delta
        except ClusterError:
            # Refusal is always allowed; serving stale never is.  Refusal
            # must also be *honest*: it may only happen when no healthy
            # target (primary included) was actually fresh enough.
            eligible = [
                r for r in replicas
                if r.healthy and r.snapshot().seq >= primary_seq - delta
            ]
            assert not eligible
            assert primary.snapshot().seq < primary_seq - delta

    @settings(max_examples=80, deadline=None)
    @given(
        primary_seq=st.integers(min_value=0, max_value=60),
        delta=st.integers(min_value=0, max_value=20),
        min_seq=st.integers(min_value=0, max_value=80),
        fleet=fleet_states,
    )
    def test_min_seq_floor_always_respected(self, primary_seq, delta,
                                            min_seq, fleet):
        # The read-your-writes floor: whatever the fleet looks like, an
        # acquired snapshot is never older than the caller's watermark.
        primary = FakeTarget("primary", primary_seq)
        replicas = [
            FakeTarget(f"r{i}", seq, healthy=ok)
            for i, (seq, ok) in enumerate(fleet)
        ]
        router = _router(primary, replicas, "bounded_staleness", delta=delta)
        try:
            with router.acquire(min_seq=min_seq) as lease:
                assert lease.snapshot.seq >= min_seq
                assert lease.snapshot.seq >= primary_seq - delta
        except ClusterError:
            pass  # refusal is fine; a stale answer is not

    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        min_seq=st.integers(min_value=0, max_value=80),
        fleet=fleet_states,
    )
    def test_every_policy_honours_min_seq(self, policy, min_seq, fleet):
        primary = FakeTarget("primary", 40)
        replicas = [
            FakeTarget(f"r{i}", seq, healthy=ok)
            for i, (seq, ok) in enumerate(fleet)
        ]
        router = _router(primary, replicas, policy, delta=100)
        try:
            with router.acquire(min_seq=min_seq) as lease:
                assert lease.snapshot.seq >= min_seq
        except ClusterError:
            pass


class TestSelection:
    def test_round_robin_rotates_over_healthy_replicas(self):
        primary = FakeTarget("primary", 5)
        replicas = [FakeTarget(f"r{i}", 5) for i in range(3)]
        router = _router(primary, replicas, "round_robin")
        seen = [router.acquire().name for _ in range(9)]
        assert set(seen) == {"r0", "r1", "r2"}
        assert seen[:3] * 3 == seen  # stable rotation

    def test_dead_replicas_are_skipped(self):
        primary = FakeTarget("primary", 5)
        replicas = [
            FakeTarget("r0", 5, healthy=False),
            FakeTarget("r1", 5),
        ]
        router = _router(primary, replicas, "round_robin")
        assert {router.acquire().name for _ in range(6)} == {"r1"}

    def test_fallback_to_primary_when_no_replica_qualifies(self):
        primary = FakeTarget("primary", 5)
        replicas = [FakeTarget("r0", 5, healthy=False)]
        router = _router(primary, replicas, "round_robin")
        assert router.acquire().name == "primary"
        assert router.stats()["fallbacks"] == 1

    def test_least_loaded_prefers_idle_replica(self):
        primary = FakeTarget("primary", 5)
        replicas = [FakeTarget("r0", 5), FakeTarget("r1", 5)]
        router = _router(primary, replicas, "least_loaded")
        held = router.acquire()  # pins one replica with an open lease
        other = {"r0": "r1", "r1": "r0"}[held.name]
        for _ in range(4):
            with router.acquire() as lease:
                assert lease.name == other
        held.release()

    def test_release_is_idempotent(self):
        primary = FakeTarget("primary", 5)
        router = _router(primary, [FakeTarget("r0", 5)], "least_loaded")
        lease = router.acquire()
        lease.release()
        lease.release()
        with router.acquire() as again:
            assert again.name == "r0"

    def test_exhausted_wait_raises_cluster_error(self):
        primary = FakeTarget("primary", 5, snap_seq=0)
        replicas = [FakeTarget("r0", 0)]
        router = _router(
            primary, replicas, "bounded_staleness", delta=1, wait_timeout=0.02
        )
        with pytest.raises(ClusterError, match="lagging"):
            router.acquire()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ClusterError, match="unknown routing policy"):
            _router(FakeTarget("primary", 0), [], "random")

    def test_negative_delta_rejected(self):
        with pytest.raises(ClusterError, match="staleness_delta"):
            ClusterRouter(FakeTarget("primary", 0), [], staleness_delta=-1)

    def test_set_replica_swaps_handle(self):
        primary = FakeTarget("primary", 5)
        dead = FakeTarget("r0", 5, healthy=False)
        router = _router(primary, [dead], "round_robin")
        assert router.acquire().name == "primary"
        router.set_member("r0", FakeTarget("r0", 5))
        assert router.acquire().name == "r0"
        with pytest.raises(ClusterError, match="knows no replica"):
            router.set_member("r9", FakeTarget("r9", 5))
