"""The write-ahead log: a replayable record of applied update batches.

Durability in :mod:`repro.serve` is checkpoint + log: a checkpoint file
captures the full engine state at some sequence number, and the WAL holds
every batch applied after it.  Restoring a service loads the latest
checkpoint and replays the WAL tail (``seq > checkpoint.applied_seq``),
which reproduces the live engine exactly — the log records the *effective*
updates the writer actually applied (post-coalescing), so replay applies
them verbatim, in order, with no re-coalescing.

Format: one JSON object per line, ``{"seq": n, "updates": [[op, ...]]}``,
with updates encoded as compact op-tagged lists (see :func:`encode_update`),
an optional ``"backend"`` field naming the backend family that applied
the batch (readers use it to refuse replaying a log against a checkpoint
of a different family — see :exc:`~repro.exceptions.CheckpointMismatchError`),
and a ``"crc"`` field stamping a CRC32 over the record's canonical content
(see :func:`record_crc`).  Readers verify the stamp on every line —
interior corruption (a bit flip, a torn write glued onto a later append)
raises the typed :exc:`~repro.exceptions.WalCorruptionError` instead of
being silently truncated away or, worse, decoded into divergent state.
Records written before stamping existed carry no ``crc`` and are still
accepted.  Appends are flushed per record; ``fsync`` is opt-in
(ServeConfig.wal_fsync) because the loadgen measures throughput and a
laptop fsync per batch is a different experiment.  A torn final line —
the crash case — is ignored on read.

Besides the batch reader (:func:`read_wal`, restore's replay path) the
module ships :class:`WalTailer` — the replication stream: an incremental
reader that remembers its file position, yields newly appended records in
sequence order, and detects compaction (the primary checkpointed and
truncated the log beneath it) so a replica knows to re-bootstrap from the
fresh checkpoint.
"""

import json
import os
import zlib

from repro.exceptions import (
    CheckpointMismatchError,
    ServeError,
    WalCorruptionError,
)
from repro.workloads.updates import (
    DeleteEdge,
    DeleteVertex,
    InsertEdge,
    InsertVertex,
    SetWeight,
)

_ENCODERS = {
    InsertEdge: lambda u: ["ie", u.u, u.v, u.weight],
    DeleteEdge: lambda u: ["de", u.u, u.v, u.weight],
    SetWeight: lambda u: ["sw", u.u, u.v, u.weight],
    InsertVertex: lambda u: ["iv", u.v, list(u.edges)],
    DeleteVertex: lambda u: ["dv", u.v],
}

_DECODERS = {
    "ie": lambda rec: InsertEdge(rec[1], rec[2], rec[3]),
    "de": lambda rec: DeleteEdge(rec[1], rec[2], rec[3]),
    "sw": lambda rec: SetWeight(rec[1], rec[2], rec[3]),
    "iv": lambda rec: InsertVertex(rec[1], tuple(
        tuple(e) if isinstance(e, list) else e for e in rec[2])),
    "dv": lambda rec: DeleteVertex(rec[1]),
}


def is_loggable(update):
    """True when :func:`encode_update` can serialize ``update``."""
    return type(update) in _ENCODERS


def encode_update(update):
    """Encode one workload update as a JSON-safe op-tagged list."""
    try:
        encoder = _ENCODERS[type(update)]
    except KeyError:
        raise ServeError(
            f"update {update!r} is not WAL-serializable"
        ) from None
    return encoder(update)


def decode_update(record):
    """Decode :func:`encode_update` output back into an update object."""
    try:
        decoder = _DECODERS[record[0]]
    except (KeyError, IndexError, TypeError):
        raise ServeError(f"corrupt WAL update record {record!r}") from None
    return decoder(record)


def check_record_backend(payload, expect_backend, where):
    """Refuse a WAL record stamped with a foreign backend family.

    Records written before backend stamping existed carry no ``backend``
    field and are accepted (the caller falls back to replay-time errors);
    a stamped record naming a different family raises
    :class:`~repro.exceptions.CheckpointMismatchError` *before* any update
    is applied — mixing families can diverge silently (an undirected log
    replayed onto a directed engine applies arcs, not edges), so this must
    fail up front, not deep inside the engine.
    """
    recorded = payload.get("backend")
    if expect_backend is None or recorded is None or recorded == expect_backend:
        return
    raise CheckpointMismatchError(
        f"WAL record at {where} was written by the {recorded!r} backend "
        f"but is being replayed against a {expect_backend!r} checkpoint; "
        f"the checkpoint and the log do not describe the same service"
    )


def record_crc(seq, updates, backend=None):
    """CRC32 over one record's canonical content.

    Hashes the compact, key-sorted JSON dump of ``[seq, updates, backend]``
    rather than the line bytes themselves, so the stamp is stable across
    the write-time objects (tuples, int keys) and their json round-trip —
    the writer and every reader compute the same value from the same
    logical record regardless of dict ordering or whitespace.
    """
    canon = json.dumps(
        [seq, updates, backend], sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(canon.encode("utf-8"))


def verify_record_crc(payload, where):
    """Check a parsed record against its CRC32 stamp.

    Records written before stamping existed carry no ``crc`` field and
    pass (their only integrity signal remains json-parseability); a
    stamped record whose content hashes differently raises
    :class:`~repro.exceptions.WalCorruptionError` — the bytes changed
    *after* the append was acknowledged (a bit flip, a torn write glued
    onto a later append), and decoding them would diverge silently.
    """
    stamp = payload.get("crc")
    if stamp is None:
        return
    actual = record_crc(
        payload.get("seq"), payload.get("updates"), payload.get("backend")
    )
    if actual != stamp:
        raise WalCorruptionError(
            f"record at {where} fails its checksum (stamped crc={stamp}, "
            f"content hashes to {actual}): durable bytes were corrupted "
            f"after acknowledgement"
        )


def _check_stamp_continuity(payload, saw_stamped, where):
    """Refuse an unstamped record that follows stamped ones.

    Legacy pre-stamping records are accepted, but an append-only log can
    only hold them as a *prefix*: the upgraded writer stamps every record
    it appends, so once one stamped record has been read, a later record
    with no ``crc`` field means the stamp was stripped from durable bytes
    — e.g. a bit flip landing on the ``"crc"`` key itself, which would
    otherwise demote the record to "legacy" and bypass its checksum.
    """
    if saw_stamped and "crc" not in payload:
        raise WalCorruptionError(
            f"record at {where} carries no crc stamp but follows stamped "
            f"records: the stamp was stripped from durable bytes after "
            f"acknowledgement"
        )


def read_wal(path, after_seq=0, expect_backend=None):
    """Yield (seq, [updates]) records with ``seq > after_seq``, in order.

    A missing file yields nothing (an empty log).  A torn final line is
    tolerated (the record was never acknowledged); corruption anywhere
    else — a checksum mismatch or an unparseable interior line — raises
    the typed :class:`~repro.exceptions.WalCorruptionError` (a
    :class:`~repro.exceptions.ServeError` subclass).  With
    ``expect_backend`` set, a record stamped by a different backend family
    raises :class:`~repro.exceptions.CheckpointMismatchError` (see
    :func:`check_record_backend`).

    "Torn" means *any* final line without its trailing newline — even one
    whose JSON happens to be complete.  ``append`` acknowledges a record
    only after flushing line + newline, so an unterminated line was never
    acknowledged; and :func:`_trim_torn_tail` physically deletes it on the
    next append, so replaying it here would resurrect a record the log is
    about to forget (the sequence would silently skip it afterwards).
    """
    if not os.path.exists(path):
        return
    last_seq = None
    saw_stamped = False
    with open(path) as f:
        for lineno, raw in enumerate(f):
            if not raw.endswith("\n"):
                break  # the torn tail: unterminated, never acknowledged
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                seq = payload["seq"]
                if not isinstance(seq, int):
                    raise ServeError(f"non-integer seq {seq!r}")
                _check_stamp_continuity(
                    payload, saw_stamped, f"{path}:{lineno + 1}"
                )
                saw_stamped = saw_stamped or "crc" in payload
                # Checksum before the backend-family check: a record whose
                # "backend" field was damaged in place fails its crc and
                # must surface as corruption, not as a foreign-family log.
                verify_record_crc(payload, f"{path}:{lineno + 1}")
                check_record_backend(
                    payload, expect_backend, f"{path}:{lineno + 1}"
                )
                updates = [decode_update(rec) for rec in payload["updates"]]
            except (CheckpointMismatchError, WalCorruptionError):
                raise
            except (ValueError, KeyError, TypeError, ServeError) as exc:
                # A newline-terminated line was fully flushed and
                # acknowledged — a parse failure here is real corruption
                # of durable state, never a crash artifact.
                raise WalCorruptionError(
                    f"corrupt WAL record at {path}:{lineno + 1}: {line[:80]!r}"
                ) from exc
            if last_seq is not None and seq <= last_seq:
                raise ServeError(
                    f"non-monotone WAL sequence at {path}:{lineno + 1}: "
                    f"{seq} after {last_seq}"
                )
            last_seq = seq
            if seq > after_seq:
                yield seq, updates


def last_wal_seq(path, default=0):
    """The highest sequence number recorded in the WAL at ``path``."""
    seq = default
    for seq, _ in read_wal(path):
        pass
    return seq


def _trim_torn_tail(path):
    """Truncate a partial final line left by a crash mid-append.

    Readers already ignore a torn tail, but an *appender* must physically
    remove it — otherwise the next record is glued onto the fragment,
    corrupting a record that was never acknowledged into one that poisons
    the whole log.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if size == 0:
        return
    with open(path, "rb+") as f:
        f.seek(-1, os.SEEK_END)
        if f.read(1) == b"\n":
            return
        f.seek(0)
        data = f.read()
        keep = data.rfind(b"\n") + 1  # 0 when no complete line survives
        f.truncate(keep)


class WriteAheadLog:
    """Append-only writer over the WAL file.

    Owned by the service's writer role, a mutex — appends are serialized
    by construction, so the class needs no locking of its own.  Opening the
    log trims any torn final line (see :func:`_trim_torn_tail`).  With
    ``backend`` set, every record is stamped with the backend family that
    applied it, so readers can refuse a checkpoint/WAL family mismatch.
    ``size`` tracks the log's current byte length (the input to the
    ``wal_max_bytes`` auto-compaction policy).

    ``encode`` converts one list element to its JSON-safe op-tagged form;
    the default serializes workload updates.  The label-delta journal
    (:mod:`repro.shard`) reuses this class with its own codec — same
    record framing, torn-tail handling and compaction markers.

    ``fault``, when set, is a callable ``fault(op, path)`` invoked before
    every append — the disk-fault seam the chaos harness uses to raise
    ``OSError(ENOSPC)`` at the exact write boundary.  The log is
    fail-stop: a fault surfaces to the writer loop before any bytes land,
    so the record is never half-acknowledged.
    """

    def __init__(self, path, fsync=False, backend=None, encode=encode_update):
        self.path = path
        self.fsync = fsync
        self.backend = backend
        self.fault = None
        self._encode = encode
        _trim_torn_tail(path)
        self._file = open(path, "a")
        self.size = os.path.getsize(path)

    def append(self, seq, updates):
        """Durably record one applied batch under sequence number ``seq``."""
        if self.fault is not None:
            self.fault("append", self.path)
        encoded = [self._encode(u) for u in updates]
        record = {"seq": seq, "updates": encoded}
        if self.backend is not None:
            record["backend"] = self.backend
        record["crc"] = record_crc(seq, encoded, self.backend)
        line = json.dumps(record) + "\n"
        self._file.write(line)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.size += len(line)

    def truncate(self):
        """Drop every record (after a checkpoint subsumed them).

        The replacement handle opens *before* the old one closes: if the
        open fails (EMFILE, EACCES, a vanished directory) the log keeps
        its records and a usable handle — a failed compaction must
        degrade to "no compaction", never to a writer whose next append
        dies on a closed file.

        The replacement opens in append mode (``O_APPEND``) and is then
        explicitly truncated, *not* opened with ``"w"``: a plain write
        handle tracks its own file position, so any bytes another handle
        appended at EOF (a crashed process's torn fragment, an injected
        fault) would be silently overwritten by the next record instead
        of surfacing to readers as the corruption they are.
        """
        replacement = open(self.path, "a")
        try:
            replacement.truncate(0)
        except BaseException:
            replacement.close()
            raise
        self._file.close()
        self._file = replacement
        self.size = 0

    def close(self):
        """Flush and close the underlying file."""
        if not self._file.closed:
            self._file.close()

    def __repr__(self):
        return f"WriteAheadLog(path={self.path!r}, fsync={self.fsync})"


class WalTailer:
    """Incremental WAL reader — the replication stream a replica tails.

    Remembers a byte offset and the last sequence number it handed out;
    each :meth:`poll` reopens the file (robust against the writer's
    truncate-by-reopen), reads any newly appended *complete* lines, and
    returns ``(records, gap)``:

    * ``records`` — the new ``(seq, [updates])`` batches, strictly
      contiguous with everything polled so far (``seq == last + 1``; WAL
      sequence numbers are contiguous by construction, one record per
      applied batch);
    * ``gap`` — ``True`` when the log can no longer supply the next
      record: a compaction marker (an *empty-updates* record, left at the
      head of a truncated log) names a seq past our position, a sequence
      number jumped, or a mid-file read landed inside a record (truncate
      racing regrowth).  The tailer's own state is unusable after a gap —
      the caller must re-bootstrap from the primary's checkpoint and
      build a fresh tailer with ``after_seq = checkpoint.applied_seq``.

    A file that shrank beneath the offset (the primary checkpointed with
    ``truncate_wal``) is rescanned from the head rather than reported as
    a gap outright: the marker decides.  A caught-up tailer skips the
    marker (``seq <= last``) and keeps streaming — compaction costs it
    nothing — while a lagging tailer sees a marker past its position and
    re-bootstraps.  The marker must never be applied as a record: the
    writer only logs non-empty batches, so an empty-updates record always
    means "everything up to this seq now lives only in the checkpoint",
    even when its seq is exactly ``last + 1``.

    A torn final line (the writer is mid-append) is simply not consumed
    yet: the offset stays at the start of the incomplete line and the
    record is returned by a later poll once its newline lands.  Records
    with ``seq <= after_seq`` are skipped (the bootstrap checkpoint
    already contains them).  Like :func:`read_wal`, a stamped record from
    a foreign backend family raises
    :class:`~repro.exceptions.CheckpointMismatchError`.

    Every parsed line is checked against its CRC32 stamp — including
    already-applied records on a from-the-head rescan, so a corrupted
    interior record can never be skipped past by re-bootstrapping alone;
    the stream stays poisoned until something rewrites it (the
    supervisor's repair: a fresh checkpoint + truncation).  A checksum
    mismatch or an unparseable complete line is *corruption*, counted in
    ``corruptions`` with the typed error kept in ``last_corruption``, and
    reported as a gap.  The one exception: a parse failure on the very
    first line of a mid-file read, where our remembered offset itself may
    simply no longer point at a record boundary (truncation raced
    regrowth past our position) — that is a plain resync gap, not
    corruption.

    ``decode`` converts each op-tagged list element back into an object;
    the default decodes workload updates.  Shards tail the label-delta
    journal with their own codec (:func:`repro.shard.decode_label_op`).
    """

    def __init__(self, path, after_seq=0, expect_backend=None,
                 decode=decode_update):
        self.path = path
        self.last_seq = after_seq
        self.expect_backend = expect_backend
        self._decode = decode
        self._offset = 0
        self._saw_stamped = False
        self.corruptions = 0
        self.last_corruption = None

    def poll(self):
        """Return ``(new_records, gap)`` — see the class docstring."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            # Not written yet is an empty stream; vanished after we read
            # from it means the log we were following is gone.
            return [], self._offset > 0
        if size < self._offset:
            # Compacted beneath us: rescan from the head.  The compaction
            # marker decides below whether we only skip already-applied
            # records (caught up: no gap) or must re-bootstrap (lagging).
            self._offset = 0
        if size == self._offset:
            return [], False
        with open(self.path, "rb") as f:
            f.seek(self._offset)
            data = f.read(size - self._offset)
        end = data.rfind(b"\n")
        if end < 0:
            return [], False  # only a torn tail so far; poll again later
        complete = data[:end + 1]
        records = []
        consumed = 0
        first_line = True
        for raw in complete.splitlines(keepends=True):
            where = f"{self.path} (tail offset {self._offset + consumed})"
            try:
                payload = json.loads(raw)
                seq = payload["seq"]
                _check_stamp_continuity(payload, self._saw_stamped, where)
                self._saw_stamped = self._saw_stamped or "crc" in payload
                # Checksum before the backend-family check — see read_wal.
                verify_record_crc(payload, where)
                check_record_backend(payload, self.expect_backend, where)
                encoded = payload["updates"]
                updates = (
                    [self._decode(rec) for rec in encoded]
                    if seq > self.last_seq else []
                )
            except CheckpointMismatchError:
                raise
            except WalCorruptionError as exc:
                self.corruptions += 1
                self.last_corruption = exc
                return records, True
            except (ValueError, KeyError, TypeError, ServeError) as exc:
                if first_line and self._offset > 0:
                    # Our remembered offset may simply no longer point at
                    # a record boundary (truncation raced regrowth past
                    # our position) — a plain resync via re-bootstrap,
                    # not evidence of corrupted durable bytes.
                    return records, True
                # A complete newline-terminated line at a true boundary
                # failed to parse: durable bytes were damaged in place.
                corruption = WalCorruptionError(
                    f"corrupt record at {where}: {raw[:80]!r}"
                )
                corruption.__cause__ = exc
                self.corruptions += 1
                self.last_corruption = corruption
                return records, True
            first_line = False
            if seq > self.last_seq and not encoded:
                # A compaction marker past our position: the real records
                # up to ``seq`` exist only in the checkpoint now.  Never
                # apply it — even at seq == last + 1 it stands in for a
                # batch whose updates were truncated away.
                return records, True
            consumed += len(raw)
            if seq <= self.last_seq:
                continue  # already covered by the bootstrap checkpoint
            if seq != self.last_seq + 1:
                return records, True  # records were compacted away
            records.append((seq, updates))
            self.last_seq = seq
        self._offset += consumed
        return records, False

    @property
    def position(self):
        """Byte offset of the next unread record (monitoring only)."""
        return self._offset

    def __repr__(self):
        return (
            f"WalTailer(path={self.path!r}, last_seq={self.last_seq}, "
            f"offset={self._offset})"
        )
