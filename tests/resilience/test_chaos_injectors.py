"""The disk-fault injectors: deterministic damage, typed detection.

Every injector must (a) report exactly what it damaged and (b) produce
damage the storage layer refuses with a *typed* error — never damage
that decodes into wrong answers.
"""

import os

import pytest

from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ReproError, ServeError, WalCorruptionError
from repro.graph.generators import erdos_renyi
from repro.resilience import (
    DiskFullFault,
    corrupt_checkpoint,
    flip_bit_in_record,
    torn_write,
)
from repro.serve import SPCService, ServeConfig
from repro.serve.persist import load_checkpoint
from repro.serve.wal import read_wal
from repro.workloads import random_insertions


def _service(tmp_path, n=40, m=90, seed=3, **overrides):
    graph = erdos_renyi(n, m, seed=seed)
    engine = SPCEngine(graph, config=EngineConfig(backend="core"))
    return SPCService(
        engine, durability_dir=str(tmp_path), overwrite=True, **overrides
    )


def _grow_wal(service, batches=6, seed=7):
    insertions = random_insertions(service.engine.graph, batches, seed=seed)
    for update in insertions:
        service.submit(update)
    service.flush(timeout=30.0)
    return insertions


class TestFlipBitInRecord:
    def test_flip_reports_its_ledger_and_changes_one_byte(self, tmp_path):
        with _service(tmp_path) as service:
            _grow_wal(service)
            wal = os.path.join(str(tmp_path), "wal.jsonl")
            before = open(wal, "rb").read()
            info = flip_bit_in_record(wal, seed=11)
            after = open(wal, "rb").read()
        assert info["path"] == wal
        assert info["after"] == info["before"] ^ 0x01
        assert len(before) == len(after)
        diffs = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert diffs == [info["offset"]]

    def test_flipped_record_refuses_replay_with_typed_error(self, tmp_path):
        with _service(tmp_path) as service:
            _grow_wal(service)
        wal = os.path.join(str(tmp_path), "wal.jsonl")
        flip_bit_in_record(wal, seed=11)
        with pytest.raises(WalCorruptionError):
            list(read_wal(wal))

    def test_every_interior_record_is_protected(self, tmp_path):
        # Whatever record the flip lands in, replay must refuse: the
        # stamp plus the continuity rule leave no unprotected byte in
        # any record that follows the first.
        with _service(tmp_path) as service:
            _grow_wal(service)
        wal = os.path.join(str(tmp_path), "wal.jsonl")
        n_records = sum(1 for _ in open(wal))
        pristine = open(wal, "rb").read()
        for record in range(1, n_records):
            for seed in range(4):
                with open(wal, "wb") as f:
                    f.write(pristine)
                flip_bit_in_record(wal, record=record, seed=seed)
                with pytest.raises(WalCorruptionError):
                    list(read_wal(wal))

    def test_refuses_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="no complete record"):
            flip_bit_in_record(str(path))

    def test_refuses_an_out_of_range_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"seq": 1, "updates": []}\n')
        with pytest.raises(ReproError, match="only 1 complete"):
            flip_bit_in_record(str(path), record=5)


class TestTornWrite:
    def test_appends_fragment_without_newline(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"seq": 1, "updates": []}\n')
        size = path.stat().st_size
        info = torn_write(str(path))
        assert info["offset"] == size
        data = path.read_bytes()
        assert not data.endswith(b"\n")
        assert len(data) == size + info["bytes"]

    def test_rejects_a_complete_record_as_fragment(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="newline"):
            torn_write(str(path), fragment=b'{"seq": 1}\n')

    def test_bare_torn_tail_is_benign_to_replay(self, tmp_path):
        # Against a stopped writer the fragment is an unacknowledged
        # tail — replay must ignore it, not refuse the log.
        with _service(tmp_path) as service:
            _grow_wal(service)
        wal = os.path.join(str(tmp_path), "wal.jsonl")
        n_records = len(list(read_wal(wal)))
        torn_write(wal)
        assert len(list(read_wal(wal))) == n_records

    def test_weld_with_a_live_writer_is_typed_corruption(self, tmp_path):
        # The dangerous variant: a still-running writer's next O_APPEND
        # record glues onto the fragment, and the welded line must fail
        # as typed corruption — the torn-write phase of the chaos
        # schedule end to end, minus the supervisor.
        with _service(tmp_path) as service:
            _grow_wal(service, batches=4, seed=7)
            wal = os.path.join(str(tmp_path), "wal.jsonl")
            torn_write(wal)
            _grow_wal(service, batches=4, seed=8)
            with pytest.raises(WalCorruptionError):
                list(read_wal(wal))


class TestCorruptCheckpoint:
    def test_corrupted_checkpoint_refuses_restore(self, tmp_path):
        with _service(tmp_path) as service:
            _grow_wal(service)
            service.checkpoint()
        snap = os.path.join(str(tmp_path), "snapshot.json")
        assert load_checkpoint(snap)   # pristine restores
        info = corrupt_checkpoint(snap, seed=5)
        assert info["after"] == info["before"] ^ 0x01
        # Both detection paths are acceptable — a failed crc stamp or a
        # broken parse — but silent acceptance is not.
        with pytest.raises((WalCorruptionError, ServeError)):
            load_checkpoint(snap)

    def test_refuses_a_tiny_file(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text("{}")
        with pytest.raises(ReproError, match="too small"):
            corrupt_checkpoint(str(path))


class TestDiskFullFault:
    def test_checkpoint_fault_fails_typed_and_writer_survives(self, tmp_path):
        with _service(tmp_path) as service:
            _grow_wal(service)
            fault = DiskFullFault(ops=("checkpoint",))
            service.set_disk_fault(fault)
            fault.arm()
            with pytest.raises(ServeError, match="[Nn]o space"):
                service.checkpoint()
            assert fault.raised == 1
            # The writer survives a checkpoint-time ENOSPC: appends have
            # room, so updates keep applying and a later checkpoint (the
            # disk was cleaned up) succeeds.
            fault.disarm()
            _grow_wal(service, batches=2, seed=9)
            service.checkpoint()
            service.set_disk_fault(None)

    def test_append_fault_is_fail_stop(self, tmp_path):
        # An append fault raises before any bytes land: the log must
        # never hold a half-acknowledged record, so the writer dies
        # rather than limping with a silently dropped append.
        service = _service(tmp_path)
        try:
            _grow_wal(service)
            wal = os.path.join(str(tmp_path), "wal.jsonl")
            records_before = len(list(read_wal(wal)))
            fault = DiskFullFault(ops=("append",))
            service.set_disk_fault(fault)
            fault.arm()
            with pytest.raises(ServeError):
                _grow_wal(service, batches=2, seed=10)
            assert fault.raised >= 1
            assert len(list(read_wal(wal))) == records_before
        finally:
            # The writer died on the injected fault; close() reporting
            # that death is the expected epitaph, not a test failure.
            with pytest.raises(ServeError):
                service.close()

    def test_append_fault_on_idle_submit_is_fail_stop(self, tmp_path):
        # A submit that finds the writer idle applies on the submitting
        # thread; its append fault must kill the writer role exactly as
        # one on the writer thread does.
        service = _service(tmp_path)
        try:
            _grow_wal(service)
            wal = os.path.join(str(tmp_path), "wal.jsonl")
            records_before = len(list(read_wal(wal)))
            update, behind = random_insertions(service.engine.graph, 2,
                                               seed=10)
            disk_full = DiskFullFault(ops=("append",))

            def fault(op, path):
                if op == "append" and not disk_full.raised:
                    # Another submission lands while the role is held:
                    # it queues, and the dead writer must account for it.
                    service.submit(behind)
                disk_full(op, path)

            service.set_disk_fault(fault)
            disk_full.arm()
            service.submit(update)  # the death surfaces at the next call
            assert disk_full.raised == 1
            service._thread.join(5.0)
            assert not service._thread.is_alive()
            assert [u for u, _ in service.errors] == [behind]
            with pytest.raises(ServeError, match="writer thread died"):
                service.submit(update)
            with pytest.raises(ServeError, match="writer thread died"):
                service.flush(timeout=5.0)
            assert len(list(read_wal(wal))) == records_before
        finally:
            with pytest.raises(ServeError):
                service.close()

    def test_unarmed_fault_is_inert(self, tmp_path):
        fault = DiskFullFault()
        fault("append", "anywhere")   # disarmed: no raise
        fault.arm()
        with pytest.raises(OSError, match="injected disk-full"):
            fault("append", "anywhere")
        fault.disarm()
        fault("checkpoint", "anywhere")
        assert fault.raised == 1
