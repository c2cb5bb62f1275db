"""SPCService: the writer loop, publish policy, durability, and restore."""

import os
import threading

import pytest

import repro
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ServeError
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.serve import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    ServeConfig,
    SPCService,
    load_checkpoint,
    read_wal,
    restore,
    serve,
)
from repro.workloads import (
    DeleteEdge,
    InsertEdge,
    random_deletions,
    random_insertions,
)

BACKEND_GRAPHS = [
    ("core", lambda: erdos_renyi(40, 90, seed=3)),
    ("directed", lambda: random_directed(40, 90, seed=3)),
    ("weighted", lambda: random_weighted(40, 90, seed=3)),
    ("sd", lambda: erdos_renyi(40, 90, seed=3)),
]


def all_pairs_sample(graph, k=8):
    vs = sorted(graph.vertices())
    return [(s, t) for s in vs[:k] for t in vs[-k:]]


def make_engine(backend, make):
    return SPCEngine(make(), config=EngineConfig(backend=backend))


class TestServing:
    def test_query_before_any_update(self, paper_graph):
        with SPCService(repro.open(paper_graph)) as service:
            assert service.query(0, 4) == (3, 3)  # Table 2: (v0, 3, 3)
            assert service.snapshot().seq == 0

    def test_update_visible_after_flush(self, paper_graph):
        with SPCService(repro.open(paper_graph)) as service:
            service.submit(InsertEdge(0, 4))
            snap = service.flush()
            assert snap.seq == 1
            assert service.query(0, 4) == (1, 1)

    def test_serve_convenience_accepts_graph(self, paper_graph):
        with serve(paper_graph, publish_every=1) as service:
            assert service.query(0, 4) == (3, 3)
            assert service.engine.backend_name == "core"

    def test_query_many_single_snapshot(self, paper_graph):
        with SPCService(repro.open(paper_graph)) as service:
            pairs = [(0, 4), (0, 9), (3, 7)]
            assert service.query_many(pairs) == [
                service.query(s, t) for s, t in pairs
            ]

    def test_batched_submissions_coalesce(self, paper_graph):
        with SPCService(repro.open(paper_graph)) as service:
            service.submit_many([
                InsertEdge(0, 4), DeleteEdge(0, 4), InsertEdge(0, 9),
            ])
            service.flush()
            stats = service.stats()
            assert service.query(0, 9) == (1, 1)
            assert not service.engine.graph.has_edge(0, 4)
            assert stats["cancelled_updates"] == 2
            assert stats["applied_updates"] == 1

    def test_bad_update_recorded_not_fatal(self, paper_graph):
        # coalescing off: set semantics would otherwise absorb the bad
        # delete ("make (4, 8) absent" is already satisfied) instead of
        # exercising the error path.
        engine = repro.open(paper_graph, coalesce_batches=False)
        with SPCService(engine) as service:
            service.submit(DeleteEdge(4, 8))  # not an edge
            service.submit(InsertEdge(0, 4))
            service.flush()
            assert len(service.errors) == 1
            assert service.query(0, 4) == (1, 1)  # kept serving

    def test_malformed_update_does_not_kill_the_writer(self, paper_graph):
        with SPCService(repro.open(paper_graph)) as service:
            service.submit("junk")  # no .apply — TypeError inside the writer
            service.submit(InsertEdge(0, 4))
            service.flush()
            assert len(service.errors) == 1
            assert service.query(0, 4) == (1, 1)  # writer survived

    def test_unloggable_update_rejected_when_durable(self, paper_graph,
                                                     tmp_path):
        from repro.workloads.updates import InsertVertex

        class Custom:
            def apply(self, dynamic):
                return dynamic.insert_vertex(99)

        d = str(tmp_path)
        with SPCService(repro.open(paper_graph), durability_dir=d) as service:
            service.submit_many([Custom(), InsertVertex(50)])
            service.flush()
            # the WAL can't record Custom, so it must not be applied —
            # otherwise restore would silently diverge from the live engine.
            assert 99 not in service.engine.graph
            assert 50 in service.engine.graph
            assert any("WAL-serializable" in str(exc)
                       for _, exc in service.errors)

    def test_dead_writer_with_full_queue_times_out_not_hangs(self,
                                                             paper_graph,
                                                             monkeypatch):
        service = SPCService(repro.open(paper_graph), queue_capacity=1,
                             publish_every=1)
        # Kill the writer through an infrastructure failure (publish), then
        # fill the bounded queue: flush must surface the death within its
        # timeout instead of blocking forever inside queue.put.
        monkeypatch.setattr(
            service, "_publish",
            lambda: (_ for _ in ()).throw(RuntimeError("publish broke")),
        )
        service.submit(InsertEdge(0, 4))
        service._thread.join(5.0)
        assert not service._thread.is_alive()
        service._queue.put(InsertEdge(5, 8))  # refill the dead queue
        with pytest.raises(ServeError, match="writer thread died"):
            service.flush(timeout=0.5)

    def test_writer_death_surfaces_promptly_in_flush(self, paper_graph,
                                                     monkeypatch):
        import time as time_mod

        service = SPCService(repro.open(paper_graph), publish_every=1)
        monkeypatch.setattr(
            service, "_publish",
            lambda: (_ for _ in ()).throw(RuntimeError("publish broke")),
        )
        service.submit(InsertEdge(0, 4))
        start = time_mod.time()
        with pytest.raises(ServeError):
            service.flush(timeout=20.0)
        # the death must surface via the released token / dead-writer
        # check, not by burning the whole flush timeout
        assert time_mod.time() - start < 10.0

    def test_uncoalescible_update_survives_the_writer(self, paper_graph):
        from repro.workloads import SetWeight

        with SPCService(repro.open(paper_graph)) as service:
            # SetWeight on an unweighted graph makes coalescing itself
            # raise; the batch must fall back to verbatim replay so the
            # good update applies and the bad one lands in errors.
            service.submit_many([SetWeight(0, 1, 2.0), InsertEdge(0, 4)])
            service.flush()
            assert len(service.errors) == 1
            assert service.query(0, 4) == (1, 1)

    def test_submit_racing_writer_stop_raises(self, paper_graph):
        from repro.serve.service import _STOP

        service = SPCService(repro.open(paper_graph))
        # Simulate the close() race window: the writer consumes its stop
        # sentinel and exits, but _closed is not yet set.
        service._queue.put(_STOP)
        service._thread.join(5.0)
        assert not service._thread.is_alive()
        with pytest.raises(ServeError, match="closed|stopped"):
            service.submit(InsertEdge(0, 4))
        service.close()

    def test_mixed_vertex_edge_batch_applies_verbatim(self, paper_graph):
        from repro.workloads.updates import InsertVertex

        with SPCService(repro.open(paper_graph)) as service:
            service.submit_many([
                InsertEdge(0, 4), InsertVertex(50, edges=(0,)),
                DeleteEdge(0, 4),
            ])
            service.flush()
            assert 50 in service.engine.graph
            assert not service.engine.graph.has_edge(0, 4)
            assert service.errors == []

    def test_submit_after_close_raises(self, paper_graph):
        service = SPCService(repro.open(paper_graph))
        service.close()
        with pytest.raises(ServeError, match="closed"):
            service.submit(InsertEdge(0, 4))
        service.close()  # idempotent


class TestPublishPolicy:
    def test_publish_every_one_publishes_per_batch(self, paper_graph):
        with SPCService(repro.open(paper_graph), publish_every=1) as service:
            for i, upd in enumerate([InsertEdge(0, 4), InsertEdge(5, 8)]):
                service.submit(upd)
                snap = service.flush()
                assert snap.seq == i + 1

    def test_max_staleness_publishes_without_flush(self, paper_graph):
        import time

        config = ServeConfig(publish_every=10_000, max_staleness=0.02)
        with SPCService(repro.open(paper_graph), config) as service:
            service.submit(InsertEdge(0, 4))
            deadline = time.time() + 5.0
            while service.snapshot().seq == 0:
                assert time.time() < deadline, "staleness publish never fired"
                time.sleep(0.005)
            assert service.query(0, 4) == (1, 1)

    def test_idle_writer_publishes_without_waiting_out_the_timer(
            self, paper_graph):
        import time

        config = ServeConfig(publish_every=10_000, max_staleness=30.0)
        with SPCService(repro.open(paper_graph), config) as service:
            service.submit(InsertEdge(0, 4))
            deadline = time.monotonic() + 5.0
            while service.snapshot().seq != 1:
                assert time.monotonic() < deadline, "idle writer never published"
                time.sleep(0.005)
            assert service.query(0, 4) == (1, 1)

    def test_update_then_checkpoint_still_publishes(self, paper_graph,
                                                    tmp_path):
        import time

        config = ServeConfig(publish_every=10_000, max_staleness=30.0,
                             durability_dir=str(tmp_path))
        with SPCService(repro.open(paper_graph), config) as service:
            # Hold the writer inside the update's apply until the
            # checkpoint token is queued behind it: the queue is then
            # non-empty when the batch ends, and the checkpoint itself
            # never publishes, so only the idle rule can publish here.
            entered, release = threading.Event(), threading.Event()
            apply = service.engine.apply

            def held_apply(update):
                entered.set()
                release.wait(5.0)
                return apply(update)

            service.engine.apply = held_apply
            with service._role:  # a busy writer: the update is queued
                service.submit(InsertEdge(0, 4))
            assert entered.wait(5.0)
            checkpointer = threading.Thread(target=service.checkpoint)
            checkpointer.start()
            deadline = time.monotonic() + 5.0
            while service.stats()["queue_depth"] == 0:
                assert time.monotonic() < deadline, "checkpoint never queued"
                time.sleep(0.001)
            release.set()
            checkpointer.join(5.0)
            assert not checkpointer.is_alive()
            service.engine.apply = apply
            while service.snapshot().seq != 1:
                assert time.monotonic() < deadline, (
                    "writer went idle with an unpublished update"
                )
                time.sleep(0.005)
            assert service.query(0, 4) == (1, 1)

    def test_busy_writer_still_honours_max_staleness(self):
        import time

        graph = erdos_renyi(60, 80, seed=5)
        inserts = random_insertions(graph, 400, seed=5)
        # drain_max=4 keeps batches short, so the staleness check (made
        # after each batch) runs often enough to fire within the second.
        config = ServeConfig(publish_every=10_000, max_staleness=0.05,
                             drain_max=4)
        with SPCService(repro.open(graph), config) as service:
            apply = service.engine.apply

            def slow_apply(update):
                time.sleep(0.02)
                return apply(update)

            service.engine.apply = slow_apply
            # Submissions outpace the 20 ms applies, so once the first is
            # queued (the role is held, so it cannot apply on idle) the
            # queue never drains while the submitter runs: only
            # max_staleness can publish.  Distinct inserts keep coalescing
            # from emptying a batch.
            before = service.stats()["snapshots_published"]
            end = time.monotonic() + 1.0
            with service._role:
                service.submit(inserts[0])
            for update in inserts[1:]:
                if time.monotonic() >= end:
                    break
                service.submit(update)
                time.sleep(0.005)
            published = service.stats()["snapshots_published"] - before
            service.engine.apply = apply
            assert published >= 2

    def test_no_batch_ends_stale_unpublished_at_default_drain(self):
        import time

        graph = erdos_renyi(60, 80, seed=5)
        inserts = random_insertions(graph, 400, seed=5)
        # The default drain_max: with 20 ms applies and 5 ms submits each
        # drained batch is about four times the last (1, 4, 16, ...).  The
        # staleness clock starts when the first dirty update is dequeued,
        # so a batch that ends with an update older than max_staleness
        # unpublished publishes at once.  Stamped at the batch's end, the
        # clock let the 16-update third batch end dirty 0.3 s old.
        config = ServeConfig(publish_every=10_000, max_staleness=0.05)
        with SPCService(repro.open(graph), config) as service:
            apply = service.engine.apply
            publish = service._publish
            maybe_publish = service._maybe_publish
            oldest = []  # apply start of the oldest unpublished update
            dirty_seen, late = [], []

            def slow_apply(update):
                if not oldest:
                    oldest.append(time.monotonic())
                time.sleep(0.02)
                return apply(update)

            def tracked_publish():
                publish()
                oldest.clear()

            def checked_maybe_publish():
                # Read the clock first: the service's own check comes later.
                now = time.monotonic()
                dirty_seen.append(service._dirty)
                maybe_publish()
                # (``oldest`` stays empty once the plain apply is back.)
                if service._dirty and oldest and (
                        now - oldest[0] > config.max_staleness):
                    late.append((service._dirty, now - oldest[0]))

            service.engine.apply = slow_apply
            service._publish = tracked_publish
            service._maybe_publish = checked_maybe_publish
            end = time.monotonic() + 0.6
            with service._role:  # a busy writer: the first update queues
                service.submit(inserts[0])
            for update in inserts[1:]:
                if time.monotonic() >= end:
                    break
                service.submit(update)
                time.sleep(0.005)
            service.engine.apply = apply
            service.flush()
        assert max(dirty_seen) > 4  # batches beyond the drain_max=4 test's
        assert late == [], f"batches ended stale and unpublished: {late}"

    def test_epoch_and_seq_monotone(self, paper_graph):
        with SPCService(repro.open(paper_graph), publish_every=1) as service:
            seen = [service.snapshot()]
            for upd in [InsertEdge(0, 4), DeleteEdge(0, 4), InsertEdge(0, 9)]:
                service.submit(upd)
                service.flush()
                seen.append(service.snapshot())
            seqs = [s.seq for s in seen]
            epochs = [s.epoch for s in seen]
            assert seqs == sorted(seqs)
            assert epochs == sorted(epochs)


class _GatedRole:
    """The service's writer role, except that the writer thread waits for
    ``gate`` before taking it: the window in which it has dequeued an item
    but not yet applied it."""

    def __init__(self, service, gate):
        self._lock = service._role
        self._writer = service._thread
        self._gate = gate

    def acquire(self, blocking=True):
        if threading.current_thread() is self._writer:
            assert self._gate.wait(5.0), "gate never opened"
        return self._lock.acquire(blocking)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


class TestApplyOnIdle:
    def test_submit_queues_behind_a_dequeued_item(self, paper_graph):
        import time

        first, second, third = (InsertEdge(0, 4), InsertEdge(5, 8),
                                InsertEdge(0, 9))
        with SPCService(repro.open(paper_graph)) as service:
            applied = []
            entered, release, gate = (threading.Event(), threading.Event(),
                                      threading.Event())
            apply = service.engine.apply

            def held_apply(update):
                applied.append(update)
                if update == first:
                    entered.set()
                    release.wait(5.0)
                return apply(update)

            service.engine.apply = held_apply
            service._role = _GatedRole(service, gate)
            # `first` applies on idle on another thread, held in its apply,
            # so `second` is queued; the writer thread dequeues it and
            # waits at the gate.
            holder = threading.Thread(target=service.submit, args=(first,))
            holder.start()
            assert entered.wait(5.0)
            service.submit(second)
            deadline = time.monotonic() + 5.0
            while service.stats()["queue_depth"]:
                assert time.monotonic() < deadline, "second never dequeued"
                time.sleep(0.001)
            release.set()
            holder.join(5.0)
            assert not holder.is_alive()
            # The role is free but `second` is pending: `third` must queue
            # behind it, not apply ahead of it on this thread.
            service.submit(third)
            assert applied == [first]
            assert service.stats()["queue_depth"] == 1
            gate.set()
            service.flush()
            service.engine.apply = apply
            assert applied == [first, second, third]
            assert service.query(0, 9) == (1, 1)

    def test_submit_to_idle_service_is_visible_on_return(self, paper_graph):
        config = ServeConfig(publish_every=10_000, max_staleness=30.0)
        with SPCService(repro.open(paper_graph), config) as service:
            service.submit(InsertEdge(0, 4))
            assert service.snapshot().seq == service.applied_seq == 1
            assert service.query(0, 4) == (1, 1)
            # Queue three submissions behind a held role: the writer
            # thread drains them into one batch.
            with service._role:
                service.submit(InsertEdge(5, 8))
                service.submit_many([InsertEdge(0, 9), InsertEdge(1, 11)])
                service.submit(DeleteEdge(0, 4))
            service.flush()
            assert service.applied_seq == 2
            # Every item that drain pulled is marked done: the service is
            # idle again, so the next submit applies and publishes inline.
            service.submit(InsertEdge(0, 4))
            assert service.snapshot().seq == service.applied_seq == 3
            assert service.query(0, 4) == (1, 1)

    def test_concurrent_submitters_match_restore(self, tmp_path):
        import sys
        import time

        graph = erdos_renyi(60, 150, seed=11)
        updates = (random_insertions(graph, 60, seed=11)
                   + random_deletions(graph, 20, seed=11))
        pairs = all_pairs_sample(graph)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads more often
        try:
            with SPCService(SPCEngine(graph), durability_dir=str(tmp_path),
                            drain_max=4) as service:
                stop = threading.Event()
                reads = []

                def reader():
                    while not stop.is_set():
                        reads.append(service.query_many(pairs))

                def submitter(part):
                    # Paced, so the writer goes idle now and then: updates
                    # both apply on idle and queue for the writer thread.
                    for update in part:
                        service.submit(update)
                        time.sleep(0.005)

                threads = [threading.Thread(target=reader)] + [
                    threading.Thread(target=submitter, args=(updates[i::4],))
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads[1:]:
                    thread.join(30.0)
                    assert not thread.is_alive()
                stop.set()
                threads[0].join(30.0)
                assert not threads[0].is_alive()
                service.flush()
                assert not service.errors
                assert service.stats()["applied_updates"] == len(updates)
                assert service.engine.check()
                live = service.query_many(pairs)
        finally:
            sys.setswitchinterval(old_interval)
        assert reads
        restored = restore(str(tmp_path))
        try:
            assert restored.query_many(pairs) == live
        finally:
            restored.close()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ServeError):
            ServeConfig(publish_every=0)
        with pytest.raises(ServeError):
            ServeConfig(max_staleness=0)
        with pytest.raises(ServeError):
            ServeConfig(drain_max=0)
        with pytest.raises(ServeError):
            ServeConfig(queue_capacity=-1)

    def test_replace(self):
        config = ServeConfig().replace(publish_every=5)
        assert config.publish_every == 5


class TestDurability:
    def test_files_created(self, paper_graph, tmp_path):
        d = str(tmp_path / "state")
        with SPCService(repro.open(paper_graph), durability_dir=d) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
        assert os.path.exists(os.path.join(d, SNAPSHOT_FILENAME))
        records = list(read_wal(os.path.join(d, WAL_FILENAME)))
        assert records == [(1, [InsertEdge(0, 4)])]

    def test_existing_checkpoint_guard(self, paper_graph, tmp_path):
        d = str(tmp_path)
        SPCService(repro.open(paper_graph), durability_dir=d).close()
        with pytest.raises(ServeError, match="restore"):
            SPCService(repro.open(paper_graph), durability_dir=d)
        # explicit overwrite discards the old state
        SPCService(
            repro.open(paper_graph), durability_dir=d, overwrite=True
        ).close()

    def test_checkpoint_records_applied_seq(self, paper_graph, tmp_path):
        d = str(tmp_path)
        with SPCService(repro.open(paper_graph), durability_dir=d) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
            path = service.checkpoint()
            assert load_checkpoint(path)["applied_seq"] == 1

    def test_checkpoint_truncate_wal(self, paper_graph, tmp_path):
        d = str(tmp_path)
        with SPCService(repro.open(paper_graph), durability_dir=d) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
            service.checkpoint(truncate_wal=True)
            service.submit(InsertEdge(0, 9))
            service.flush()
        records = list(read_wal(os.path.join(d, WAL_FILENAME)))
        # the truncated log opens with a checkpoint marker (empty updates
        # at the truncation seq) so WAL tailers can detect the compaction
        assert records == [(1, []), (2, [InsertEdge(0, 9)])]
        restored = restore(d)
        try:
            assert restored.query(0, 4) == (1, 1)
            assert restored.query(0, 9) == (1, 1)
        finally:
            restored.close()

    def test_truncate_wal_refused_for_external_checkpoint(self, paper_graph,
                                                          tmp_path):
        d = str(tmp_path / "state")
        external = str(tmp_path / "backup.json")
        with SPCService(repro.open(paper_graph), durability_dir=d) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
            with pytest.raises(ServeError, match="orphan"):
                service.checkpoint(external, truncate_wal=True)
            # the directory's recoverability is intact
            service.checkpoint(external)  # plain external copy is fine
        restored = restore(d)
        try:
            assert restored.query(0, 4) == (1, 1)
        finally:
            restored.close()

    def test_restore_continues_epoch_numbering(self, paper_graph, tmp_path):
        d = str(tmp_path)
        with SPCService(repro.open(paper_graph), durability_dir=d) as service:
            service.submit_many([InsertEdge(0, 4), InsertEdge(0, 9)])
            service.flush()
            live_epoch = service.snapshot().epoch
        restored = restore(d)
        try:
            assert restored.snapshot().epoch >= live_epoch
        finally:
            restored.close()

    def test_checkpoint_without_durability_needs_path(self, paper_graph):
        with SPCService(repro.open(paper_graph)) as service:
            with pytest.raises(ServeError, match="path"):
                service.checkpoint()

    def test_restore_bare_checkpoint_file(self, paper_graph, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with SPCService(repro.open(paper_graph)) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
            service.checkpoint(path)
        restored = restore(path)
        try:
            assert restored.query(0, 4) == (1, 1)
            assert restored.config.durability_dir is None
        finally:
            restored.close()

    def test_restore_bare_file_into_new_durability_dir(self, paper_graph,
                                                       tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        new_dir = str(tmp_path / "fresh")
        with SPCService(repro.open(paper_graph)) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
            service.checkpoint(ckpt)
        restored = restore(ckpt, durability_dir=new_dir)
        try:
            restored.submit(InsertEdge(0, 9))
            restored.flush()
        finally:
            restored.close()
        # the new directory must be self-contained: a base checkpoint the
        # WAL applies to, not a WAL floating without its base state.
        again = restore(new_dir)
        try:
            assert again.query(0, 4) == (1, 1)
            assert again.query(0, 9) == (1, 1)
        finally:
            again.close()

    def test_restore_resumes_across_path_spellings(self, paper_graph,
                                                   tmp_path):
        d = str(tmp_path / "state")
        with SPCService(repro.open(paper_graph), durability_dir=d) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
        # "state/" and "state" are the same directory: restore must take
        # the resume path, not trip the existing-checkpoint guard.
        restored = restore(d + os.sep, durability_dir=d)
        try:
            assert restored.query(0, 4) == (1, 1)
            restored.submit(InsertEdge(0, 9))
            restored.flush()
        finally:
            restored.close()
        again = restore(d)
        try:
            assert again.query(0, 9) == (1, 1)
        finally:
            again.close()

    def test_restore_missing_checkpoint(self, tmp_path):
        with pytest.raises(ServeError, match="no checkpoint"):
            restore(str(tmp_path / "nothing.json"))


class TestRestoreEquivalence:
    """checkpoint + restore + WAL replay == the live engine, per backend."""

    @pytest.mark.parametrize("backend,make", BACKEND_GRAPHS)
    def test_wal_tail_replay_matches_live(self, backend, make, tmp_path):
        d = str(tmp_path)
        engine = make_engine(backend, make)
        service = SPCService(engine, durability_dir=d, publish_every=4)
        ins = random_insertions(engine.graph, 10, seed=11)
        service.submit_many(ins[:5])
        service.flush()
        service.checkpoint()  # mid-stream checkpoint: the rest is WAL tail
        service.submit_many(ins[5:])
        dels = random_deletions(engine.graph, 5, seed=12)
        service.submit_many(dels)
        service.flush()
        service.close()

        restored = restore(d)
        try:
            pairs = all_pairs_sample(engine.graph)
            assert restored.query_many(pairs) == [
                engine.index.query(s, t) for s, t in pairs
            ]
            assert restored.applied_seq == service.applied_seq
        finally:
            restored.close()

    @pytest.mark.parametrize("backend,make", BACKEND_GRAPHS)
    def test_restored_service_keeps_working(self, backend, make, tmp_path):
        d = str(tmp_path)
        engine = make_engine(backend, make)
        service = SPCService(engine, durability_dir=d)
        ins = random_insertions(engine.graph, 6, seed=21)
        service.submit_many(ins[:3])
        service.flush()
        service.close()

        restored = restore(d)
        restored.submit_many(ins[3:])
        restored.flush()
        restored.close()

        # a second restore replays the WAL the restored service extended
        again = restore(d)
        try:
            reference = make_engine(backend, make)
            reference.apply_stream(ins)
            pairs = all_pairs_sample(reference.graph)
            assert again.query_many(pairs) == [
                reference.index.query(s, t) for s, t in pairs
            ]
        finally:
            again.close()


class TestWriterRobustness:
    def test_uncoalescible_typeerror_survives_the_writer(self, paper_graph):
        # Coalescing itself raises TypeError on unorderable endpoints;
        # the batch must fall back to verbatim replay instead of killing
        # the writer thread.
        engine = repro.open(paper_graph)
        with SPCService(engine) as service:
            service.submit_many([InsertEdge([1], 2), InsertEdge(0, 4)])
            service.flush()
            assert len(service.errors) == 1
            assert service.query(0, 4) == (1, 1)
