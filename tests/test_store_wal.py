"""WAL framing, replay, and byte-granular torn-tail recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidArgumentError, StoreCorruptError
from repro.store import WriteAheadLog


def wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal.log")


def test_empty_log_replays_to_nothing(tmp_path):
    log = wal(tmp_path)
    assert log.replay() == ([], 0)
    assert log.size() == 0


def test_append_replay_round_trip(tmp_path):
    log = wal(tmp_path)
    log.append("add", "a", [(0, 1), (2, 3)], version=1)
    log.append("remove", "b", [(4, 5)], version=2)
    log.close()

    deltas, version = wal(tmp_path).replay()
    assert version == 2
    assert [(d.op, d.label, d.version, d.count) for d in deltas] == [
        ("add", "a", 1, 2),
        ("remove", "b", 2, 1),
    ]
    assert deltas[0].edges.tolist() == [[0, 1], [2, 3]]
    assert deltas[0].edges.dtype == np.uint32


def test_unicode_labels_and_empty_batches(tmp_path):
    log = wal(tmp_path)
    log.append("add", "знач", np.empty((0, 2), dtype=np.uint32), version=1)
    log.close()
    deltas, version = wal(tmp_path).replay()
    assert version == 1
    assert deltas[0].label == "знач"
    assert deltas[0].count == 0


def test_unknown_op_rejected(tmp_path):
    with pytest.raises(InvalidArgumentError, match="unknown WAL op"):
        wal(tmp_path).append("upsert", "a", [(0, 1)], version=1)


def test_bad_edge_shape_rejected(tmp_path):
    with pytest.raises(InvalidArgumentError, match="shape"):
        wal(tmp_path).append("add", "a", [(0, 1, 2)], version=1)


def test_reset_empties_the_log(tmp_path):
    log = wal(tmp_path)
    log.append("add", "a", [(0, 1)], version=1)
    log.reset()
    assert log.size() == 0
    assert log.replay() == ([], 0)


def test_failed_append_leaves_no_bytes_even_when_the_cut_fails(
    tmp_path, monkeypatch
):
    """A failed fsync cuts the transaction back off; if the cut's own
    fsync fails too, the log refuses appends until the cut succeeds, so
    no commit ever lands behind torn bytes."""
    import os

    log = wal(tmp_path)
    log.append("add", "a", [(0, 1)], version=1)
    committed = log.size()

    def broken(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fsync", broken)
    for _ in range(2):  # the append, then the retry of the pending cut
        with pytest.raises(OSError):
            log.append("add", "a", [(2, 3)], version=2)
    monkeypatch.undo()
    log.append("add", "a", [(4, 5)], version=2)
    deltas, version = log.replay()
    assert [(d.version, d.edges.tolist()) for d in deltas] == [
        (1, [[0, 1]]),
        (2, [[4, 5]]),
    ]
    assert version == 2 and log.size() == 2 * committed


def test_torn_tail_truncated_at_every_byte_boundary(tmp_path):
    """Crash matrix: cut the log inside the *last* transaction at every
    byte offset.  Recovery must always land on the previous commit."""
    log = wal(tmp_path)
    log.append("add", "a", [(0, 1), (1, 2)], version=1)
    log.close()
    committed_size = log.size()
    log.append("add", "b", [(3, 4)], version=2)
    log.close()
    full = log.path.read_bytes()

    for cut in range(committed_size, len(full)):
        log.path.write_bytes(full[:cut])
        deltas, version = WriteAheadLog(log.path).replay()
        assert version == 1, f"cut at byte {cut}"
        assert [d.label for d in deltas] == ["a"], f"cut at byte {cut}"
        # repair=True truncated the tail back to the commit point.
        assert log.path.stat().st_size == committed_size, f"cut at byte {cut}"

    # The untouched log still replays both transactions.
    log.path.write_bytes(full)
    deltas, version = WriteAheadLog(log.path).replay()
    assert version == 2 and len(deltas) == 2


def test_torn_tail_without_repair_leaves_bytes(tmp_path):
    log = wal(tmp_path)
    log.append("add", "a", [(0, 1)], version=1)
    log.close()
    with open(log.path, "ab") as f:
        f.write(b"RWAL\x01\x01\x00\x00partial")
    size = log.path.stat().st_size
    deltas, version = WriteAheadLog(log.path).replay(repair=False)
    assert version == 1 and len(deltas) == 1
    assert log.path.stat().st_size == size


def test_garbage_tail_is_a_torn_tail(tmp_path):
    log = wal(tmp_path)
    log.append("add", "a", [(0, 1)], version=1)
    log.close()
    with open(log.path, "ab") as f:
        f.write(b"\xde\xad\xbe\xef" * 10)
    deltas, version = WriteAheadLog(log.path).replay()
    assert version == 1 and len(deltas) == 1


def test_torn_delta_with_surviving_commit_truncates(tmp_path):
    """Sector-reorder crash: one write() holds delta + commit, and disks
    may persist the commit's sectors while tearing the delta's.  That is
    a torn tail (truncate + warn), not corruption (refuse to start)."""
    from repro.store.wal import _FRAME

    log = wal(tmp_path)
    log.append("add", "a", [(0, 1)], version=1)
    log.close()
    committed_size = log.size()
    log.append("add", "b", [(2, 3)], version=2)
    log.close()
    data = bytearray(log.path.read_bytes())
    # Flip a payload byte of the final delta; its commit frame survives.
    data[committed_size + _FRAME.size + 2] ^= 0xFF
    log.path.write_bytes(bytes(data))

    with pytest.warns(RuntimeWarning, match="orphaned trailing commit"):
        deltas, version = WriteAheadLog(log.path).replay()
    assert version == 1
    assert [d.label for d in deltas] == ["a"]
    # The orphaned commit was truncated away with the damaged delta.
    assert log.path.stat().st_size == committed_size


def test_corruption_before_last_commit_raises(tmp_path):
    """A bit flip inside a committed transaction is integrity damage,
    not a crash artefact: replay must refuse rather than truncate."""
    log = wal(tmp_path)
    log.append("add", "a", [(0, 1)], version=1)
    log.append("add", "b", [(2, 3)], version=2)
    log.close()
    data = bytearray(log.path.read_bytes())
    data[30] ^= 0xFF  # inside the first transaction's payload
    log.path.write_bytes(bytes(data))
    with pytest.raises(StoreCorruptError):
        WriteAheadLog(log.path).replay()


def test_uncommitted_deltas_are_dropped(tmp_path):
    """Delta records with no commit marker do not replay (the fsync
    contract: a transaction is visible only past its marker)."""
    log = wal(tmp_path)
    log.append("add", "a", [(0, 1)], version=1)
    log.close()
    full = log.path.read_bytes()
    # Re-append transaction 2 but chop off its 24-byte commit frame.
    log.append("add", "b", [(2, 3)], version=2)
    log.close()
    log.path.write_bytes(log.path.read_bytes()[:-24])
    deltas, version = WriteAheadLog(log.path).replay()
    assert version == 1
    assert [d.label for d in deltas] == ["a"]
    assert log.path.read_bytes() == full
