"""Append-only edge-delta log with CRC framing and torn-tail recovery.

A :class:`WriteAheadLog` records add/remove edge batches for one graph
volume.  The durability contract mirrors the classic redo-log design:

* every record is framed with a fixed header carrying its own CRC32, so
  a reader can tell "valid record", "torn tail" (partial final write —
  expected after a crash) and "corruption" (bad bytes *before* the last
  committed point — a real integrity failure) apart;
* a transaction is one or more ``delta`` records followed by a single
  ``commit`` marker; the file is fsynced once per transaction, after
  the commit marker is in the OS buffer;
* recovery replays records strictly up to the last complete commit
  marker and truncates everything after it.  A crash mid-append
  therefore loses at most the uncommitted transaction — never a
  committed one, and never the snapshot.

Record framing (little-endian)::

    magic    4 B   "RWAL"
    kind     1 B   1 = edge delta, 2 = commit marker
    op       1 B   delta: 1 = add, 2 = remove; commit: 0
    reserved 2 B
    version  8 B   graph version this record produces
    length   4 B   payload byte count (0 for commit)
    crc      4 B   CRC32 over (kind, op, version, payload)

Delta payload::

    label_len  2 B    label bytes  (utf-8)
    count      4 B    edge pairs
    edges      count x 2 x u32  (row, col), little-endian

The ``version`` stamped on a commit marker is the graph version after
applying every delta in its transaction; replay returns it so the
volume can continue numbering from there.
"""

from __future__ import annotations

import os
import struct
import warnings
import zlib
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import InvalidArgumentError, StoreCorruptError

WAL_MAGIC = b"RWAL"

_FRAME = struct.Struct("<4sBBHQII")  # 24 bytes

KIND_DELTA = 1
KIND_COMMIT = 2

OP_ADD = 1
OP_REMOVE = 2
_OP_NAMES = {OP_ADD: "add", OP_REMOVE: "remove"}


@dataclass(frozen=True)
class EdgeDelta:
    """One applied edge batch: ``op`` over ``edges`` of graph ``label``."""

    op: str
    label: str
    edges: np.ndarray  # (count, 2) uint32
    version: int

    @property
    def count(self) -> int:
        return int(self.edges.shape[0])


def _crc(kind: int, op: int, version: int, payload: bytes) -> int:
    return zlib.crc32(bytes((kind, op)) + struct.pack("<Q", version) + payload)


def _delta_payload(label: str, edges: np.ndarray) -> bytes:
    raw = label.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise InvalidArgumentError("graph label too long for WAL record")
    body = np.ascontiguousarray(edges, dtype="<u4")
    if body.ndim != 2 or body.shape[1] != 2:
        raise InvalidArgumentError("edges must have shape (count, 2)")
    return (
        struct.pack("<HI", len(raw), body.shape[0]) + raw + body.tobytes()
    )


def _valid_frames_after(data: bytes, start: int) -> tuple[int, int]:
    """Count structurally valid (delta, commit) frames after ``start``.

    Classifies damage at ``start``.  One append is one delta + one
    commit in a single ``write`` + ``fsync``, and real disks do not
    order sectors within a write: a crash can persist the final
    transaction's commit frame while tearing its delta.  So a lone
    valid commit past the damage is still consistent with a torn tail.
    Anything more — a valid delta, or a second commit — can only have
    been written after the damaged bytes were fsynced as part of a
    committed transaction, which makes the damage corruption.
    """
    deltas = commits = 0
    idx = data.find(WAL_MAGIC, start + 1)
    while idx != -1:
        frame = data[idx : idx + _FRAME.size]
        if len(frame) == _FRAME.size:
            _, kind, op_code, _, version, length, crc = _FRAME.unpack(frame)
            payload = data[idx + _FRAME.size : idx + _FRAME.size + length]
            if (
                len(payload) == length
                and _crc(kind, op_code, version, payload) == crc
            ):
                if kind == KIND_COMMIT:
                    commits += 1
                elif kind == KIND_DELTA:
                    deltas += 1
        idx = data.find(WAL_MAGIC, idx + 1)
    return deltas, commits


def encode_transaction(op: str, label: str, edges, *, version: int) -> bytes:
    """Serialise one committed transaction: a delta frame + its commit.

    This byte sequence is exactly what :meth:`WriteAheadLog.append`
    writes — and, verbatim, the payload of a replication ``frames``
    message (:mod:`repro.cluster`): the CRC framing on the wire is the
    CRC framing on disk, so followers validate shipped transactions
    with the same checks recovery applies to the local log.
    """
    op_code = {"add": OP_ADD, "remove": OP_REMOVE}.get(op)
    if op_code is None:
        raise InvalidArgumentError(f"unknown WAL op {op!r}")
    payload = _delta_payload(label, np.asarray(edges))
    delta = _FRAME.pack(
        WAL_MAGIC, KIND_DELTA, op_code, 0, version, len(payload),
        _crc(KIND_DELTA, op_code, version, payload),
    ) + payload
    commit = _FRAME.pack(
        WAL_MAGIC, KIND_COMMIT, 0, 0, version, 0,
        _crc(KIND_COMMIT, 0, version, b""),
    )
    return delta + commit


def decode_transaction(
    data: bytes, *, where: str = "wire",
) -> tuple[list[EdgeDelta], int]:
    """Parse one complete transaction, CRC-checking every frame.

    The inverse of :func:`encode_transaction`.  Unlike
    :meth:`WriteAheadLog.replay` there is no torn-tail leniency: the
    caller claims ``data`` holds exactly one committed transaction, so
    *any* damage — bad magic, checksum mismatch, a missing commit
    marker, bytes past it — raises
    :class:`~repro.errors.StoreCorruptError`.  A replication follower
    maps that to "drop the connection and re-request from the last
    applied version".  Returns ``(deltas, commit_version)``.
    """
    deltas: list[EdgeDelta] = []
    pos = 0
    while pos < len(data):
        frame = data[pos : pos + _FRAME.size]
        if len(frame) < _FRAME.size:
            raise StoreCorruptError(f"{where}: truncated frame header")
        magic, kind, op_code, _, version, length, crc = _FRAME.unpack(frame)
        if magic != WAL_MAGIC:
            raise StoreCorruptError(f"{where}: bad record magic")
        payload = data[pos + _FRAME.size : pos + _FRAME.size + length]
        if len(payload) < length:
            raise StoreCorruptError(f"{where}: truncated record payload")
        if _crc(kind, op_code, version, payload) != crc:
            raise StoreCorruptError(f"{where}: record checksum mismatch")
        pos += _FRAME.size + length
        if kind == KIND_DELTA:
            op = _OP_NAMES.get(op_code)
            if op is None:
                raise StoreCorruptError(f"{where}: unknown delta op {op_code}")
            label, edges = _parse_delta_payload(payload, where)
            deltas.append(EdgeDelta(op, label, edges, version))
        elif kind == KIND_COMMIT:
            if pos != len(data):
                raise StoreCorruptError(f"{where}: bytes past the commit marker")
            return deltas, version
        else:
            raise StoreCorruptError(f"{where}: unknown record kind {kind}")
    raise StoreCorruptError(f"{where}: transaction without a commit marker")


def _parse_delta_payload(payload: bytes, where: str) -> tuple[str, np.ndarray]:
    if len(payload) < 6:
        raise StoreCorruptError(f"{where}: delta payload too short")
    label_len, count = struct.unpack_from("<HI", payload)
    need = 6 + label_len + count * 8
    if len(payload) != need:
        raise StoreCorruptError(
            f"{where}: delta payload {len(payload)} B, framed for {need} B"
        )
    label = payload[6 : 6 + label_len].decode("utf-8")
    edges = (
        np.frombuffer(payload, dtype="<u4", count=count * 2, offset=6 + label_len)
        .reshape(count, 2)
        .astype(np.uint32, copy=True)
    )
    return label, edges


class WriteAheadLog:
    """Append/replay access to one volume's ``wal.log``.

    Instances are not thread-safe; the owning :class:`GraphVolume`
    serialises access under its own lock.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = None
        #: Committed length, tracked while the append handle is open.
        #: Set with the handle gone, a failed append still owes its cut.
        self._end: int | None = None

    # -- append side -------------------------------------------------------

    def _handle(self):
        if self._file is None or self._file.closed:
            if self._end is not None:  # no append lands behind a tear
                self._truncate(self._end)
            self._file = open(self.path, "ab")
            self._end = self._file.tell()
        return self._file

    def _truncate(self, end: int) -> None:
        """Durably cut the log back to ``end`` bytes."""
        with suppress(OSError):  # an unflushed tail is being cut anyway
            self.close()
        self._end = end  # owed until the cut below succeeds
        with open(self.path, "r+b") as f:
            f.truncate(end)
            f.flush()
            os.fsync(f.fileno())
        self._end = None

    def append(self, op: str, label: str, edges, *, version: int) -> None:
        """Append one committed edge-delta transaction and fsync.

        Writes a delta record followed by its commit marker; both land
        in one ``write`` + ``fsync`` pair, so the commit marker is never
        durable without its delta.  If either fails, the transaction's
        bytes are cut back off before the ``OSError`` propagates (or, if
        that fails too, before the next append is accepted): a commit
        behind torn bytes would replay as mid-log corruption.
        """
        f = self._handle()
        data = encode_transaction(op, label, edges, version=version)
        try:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        except OSError:
            self._truncate(self._end)
            raise
        self._end += len(data)

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.close()
        self._file = None
        self._end = None

    # -- replay side -------------------------------------------------------

    def replay(self, *, repair: bool = True) -> tuple[list[EdgeDelta], int]:
        """Read back every committed delta; returns ``(deltas, version)``.

        ``version`` is the last committed graph version (0 when the log
        is empty).  A torn tail — a partial record, or complete delta
        records with no commit marker — is truncated away when
        ``repair=True`` (the default) or merely ignored otherwise.
        Malformed bytes *before* the last committed transaction raise
        :class:`~repro.errors.StoreCorruptError`: those were fsynced as
        part of a committed transaction, so damage there is corruption,
        not a crash artefact.  The two are told apart by looking past
        the damage — a valid *delta* record, or more than one commit
        marker, after a bad record can only mean mid-log corruption.  A
        lone valid commit past the damage is still a crash artefact
        (sectors within one ``write`` persist in any order, so the
        final transaction's commit can survive a tear of its delta) and
        is truncated away with a :class:`RuntimeWarning`.
        """
        if not self.path.exists():
            return [], 0
        data = self.path.read_bytes()

        committed: list[EdgeDelta] = []
        pending: list[EdgeDelta] = []
        last_version = 0
        committed_end = 0  # byte offset just past the last commit marker
        pos = 0
        torn = False
        while pos < len(data):
            frame = data[pos : pos + _FRAME.size]
            if len(frame) < _FRAME.size:
                torn = True
                break
            magic, kind, op_code, _, version, length, crc = _FRAME.unpack(frame)
            where = f"{self.path} @ {pos}"
            payload = data[pos + _FRAME.size : pos + _FRAME.size + length]
            bad = None
            if magic != WAL_MAGIC:
                bad = "bad record magic"
            elif len(payload) < length:
                bad = "truncated record payload"
            elif _crc(kind, op_code, version, payload) != crc:
                bad = "record checksum mismatch"
            if bad is not None:
                deltas_after, commits_after = _valid_frames_after(data, pos)
                if deltas_after or commits_after > 1:
                    raise StoreCorruptError(
                        f"{where}: {bad} before later committed records"
                    )
                if commits_after:
                    # The final transaction's commit sectors persisted
                    # but its delta tore; the commit is unusable without
                    # its delta, so the whole tail is truncated.
                    warnings.warn(
                        f"{where}: {bad} with an orphaned trailing commit "
                        f"marker; treating as a torn final transaction and "
                        f"recovering to the previous commit",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                torn = True
                break
            if kind == KIND_DELTA:
                op = _OP_NAMES.get(op_code)
                if op is None:
                    raise StoreCorruptError(f"{where}: unknown delta op {op_code}")
                label, edges = _parse_delta_payload(payload, where)
                pending.append(EdgeDelta(op, label, edges, version))
            elif kind == KIND_COMMIT:
                committed.extend(pending)
                pending.clear()
                last_version = version
                committed_end = pos + _FRAME.size + length
            else:
                raise StoreCorruptError(f"{where}: unknown record kind {kind}")
            pos += _FRAME.size + length

        if (torn or pending) and repair and committed_end < len(data):
            self._truncate(committed_end)
        return committed, last_version

    def reset(self) -> None:
        """Empty the log (after its deltas were folded into a snapshot)."""
        self.close()
        with open(self.path, "wb") as f:
            f.flush()
            os.fsync(f.fileno())

    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0


class WalCursor:
    """Incremental reader over a live ``wal.log``: the shipper's tail.

    Tracks a byte :attr:`offset` into the file and, on each
    :meth:`poll`, returns every *complete committed* transaction that
    appeared since — each as ``(version, raw_bytes)`` where
    ``raw_bytes`` is the transaction's frames verbatim (ready to ship;
    see :func:`encode_transaction`).  The cursor never advances past an
    incomplete or damaged tail: a partial final write simply waits for
    the next poll, exactly like recovery's torn-tail rule.

    A *reset* log (a snapshot folded it away) rewinds the cursor to
    byte 0 and bumps :attr:`resets`.  Shrinking is not the only tell:
    a reset log that regrew to at least the old offset would read as a
    plain append, so the cursor also keeps a checksum of the last
    commit frame it consumed and re-verifies those bytes on every poll
    — new content at an old offset cannot impersonate the old commit
    (versions differ, and the frame CRC covers the version).  Re-read
    transactions after a rewind carry versions at or below what the
    caller already shipped, and it is the caller's job to filter those
    and to detect version gaps (a reset that discarded not-yet-polled
    transactions).

    Single-threaded, like :class:`WriteAheadLog`: one shipper thread
    owns one cursor.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.offset = 0
        self.resets = 0
        self._tail_sig = 0  # crc32 of the last consumed commit frame

    def _rewind(self) -> None:
        self.offset = 0
        self._tail_sig = 0
        self.resets += 1

    def poll(self) -> list[tuple[int, bytes]]:
        """Committed transactions newly visible since the last poll."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size < self.offset:
            self._rewind()
        elif self.offset:
            with open(self.path, "rb") as f:
                f.seek(self.offset - _FRAME.size)
                tail = f.read(_FRAME.size)
            if zlib.crc32(tail) != self._tail_sig:
                self._rewind()
        if size == self.offset:
            return []
        with open(self.path, "rb") as f:
            f.seek(self.offset)
            data = f.read()

        out: list[tuple[int, bytes]] = []
        txn_start = 0  # within `data`: first byte of the open transaction
        pos = 0
        while pos < len(data):
            frame = data[pos : pos + _FRAME.size]
            if len(frame) < _FRAME.size:
                break
            magic, kind, op_code, _, version, length, crc = _FRAME.unpack(frame)
            payload = data[pos + _FRAME.size : pos + _FRAME.size + length]
            if (
                magic != WAL_MAGIC
                or len(payload) < length
                or _crc(kind, op_code, version, payload) != crc
            ):
                # Torn (or, mid-log, damaged) tail: stop here and let the
                # next poll — after the writer finishes, or recovery
                # truncates — try again from the same offset.
                break
            pos += _FRAME.size + length
            if kind == KIND_COMMIT:
                out.append((version, bytes(data[txn_start:pos])))
                txn_start = pos
                self._tail_sig = zlib.crc32(frame)
        self.offset += txn_start
        return out
