"""Unit tests for the update/stream statistics containers."""

from repro.core import StreamStats, UpdateStats


class TestUpdateStats:
    def test_total_label_ops(self):
        s = UpdateStats(renew_count=2, renew_dist=3, inserted=4, removed=1)
        assert s.total_label_ops == 10

    def test_net_entry_change(self):
        s = UpdateStats(inserted=4, removed=6)
        assert s.net_entry_change == -2

    def test_merge_accumulates(self):
        a = UpdateStats(renew_count=1, inserted=2, bfs_visits=10, elapsed=0.5,
                        sr_a=3, r_b=4)
        b = UpdateStats(renew_count=2, removed=1, bfs_visits=5, elapsed=0.25,
                        sr_a=1, r_b=2)
        a.merge(b)
        assert a.renew_count == 3
        assert a.inserted == 2 and a.removed == 1
        assert a.bfs_visits == 15
        assert a.elapsed == 0.75
        assert a.sr_a == 4 and a.r_b == 6

    def test_merge_sums_phase_timers(self):
        a = UpdateStats(srr_s=0.5, bfs_s=1.0, removal_s=0.25)
        a.merge(UpdateStats(srr_s=0.25, bfs_s=0.5, removal_s=0.5))
        assert (a.srr_s, a.bfs_s, a.removal_s) == (0.75, 1.5, 0.75)

    def test_phase_timers_filled_by_the_kernels(self):
        import repro

        engine = repro.open(repro.Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        ins = engine.insert_edge(1, 3)
        assert ins.bfs_s > 0 and ins.srr_s == 0 and ins.removal_s == 0
        dele = engine.delete_edge(0, 2)
        assert not dele.isolated_fast_path
        assert dele.srr_s > 0 and dele.bfs_s > 0 and dele.removal_s > 0

    def test_merge_returns_self_for_chaining(self):
        a = UpdateStats()
        assert a.merge(UpdateStats(inserted=1)) is a

    def test_defaults(self):
        s = UpdateStats()
        assert s.total_label_ops == 0
        assert not s.isolated_fast_path


class TestStreamStats:
    def test_record_classifies_kinds(self):
        stream = StreamStats()
        stream.record(UpdateStats(kind="insert", elapsed=0.1))
        stream.record(UpdateStats(kind="delete", elapsed=0.2))
        stream.record(UpdateStats(kind="insert_vertex"))
        stream.record(UpdateStats(kind="delete_vertex"))
        assert stream.updates == 4
        assert stream.insertions == 1
        assert stream.deletions == 1
        assert stream.vertex_ops == 2
        assert stream.accumulated_time == 0.3 or abs(stream.accumulated_time - 0.3) < 1e-12

    def test_net_entry_change(self):
        stream = StreamStats()
        stream.record(UpdateStats(kind="insert", inserted=5))
        stream.record(UpdateStats(kind="delete", removed=2))
        assert stream.net_entry_change == 3

    def test_per_update_history_kept(self):
        stream = StreamStats()
        for i in range(3):
            stream.record(UpdateStats(kind="insert", inserted=i))
        assert [s.inserted for s in stream.per_update] == [0, 1, 2]
