"""Container round-trips, mmap semantics, and corruption detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidArgumentError, StoreCorruptError
from repro.formats import BitMatrix, BoolCoo, BoolCsr, ValCsr
from repro.store import (
    container_info,
    dump_matrix,
    load_matrix,
    verify_container,
)

ROWS = [0, 0, 2, 5, 5, 7]
COLS = [1, 3, 2, 0, 6, 7]
SHAPE = (8, 8)


def matrices():
    return {
        "csr": BoolCsr.from_coo(ROWS, COLS, SHAPE),
        "coo": BoolCoo.from_coo(ROWS, COLS, SHAPE),
        "bit": BitMatrix.from_coo(ROWS, COLS, SHAPE),
        "valcsr": ValCsr.from_coo(ROWS, COLS, SHAPE),
    }


@pytest.mark.parametrize("kind", ["csr", "coo", "bit", "valcsr"])
def test_round_trip_preserves_pattern(tmp_path, kind):
    m = matrices()[kind]
    path = tmp_path / f"m.{kind}.rpc"
    info = dump_matrix(m, path)
    assert info["kind"] == kind
    assert info["nnz"] == m.nnz

    back = load_matrix(path)
    back.validate()
    assert type(back) is type(m)
    assert back.shape == m.shape
    assert back.nnz == m.nnz
    assert np.array_equal(back.to_dense(), m.to_dense())


def test_empty_matrix_round_trips(tmp_path):
    m = BoolCsr.from_coo([], [], (5, 3))
    path = tmp_path / "empty.rpc"
    dump_matrix(m, path)
    back = load_matrix(path)
    assert back.shape == (5, 3)
    assert back.nnz == 0


def test_bit_payload_is_byte_identical(tmp_path):
    """The container stores the word array verbatim, padding included."""
    m = BitMatrix.from_coo(ROWS, COLS, (8, 70))  # 2 words/row, padded tail
    path = tmp_path / "m.bit.rpc"
    dump_matrix(m, path)
    back = load_matrix(path, mmap=False)
    assert back.words.tobytes() == m.words.tobytes()


def test_bit_mmap_load_is_read_only_view(tmp_path):
    m = BitMatrix.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.bit.rpc"
    dump_matrix(m, path)
    back = load_matrix(path, mmap=True)
    words = back.words
    assert isinstance(words, np.memmap) or not words.flags["OWNDATA"]
    assert not words.flags["WRITEABLE"]
    with pytest.raises((ValueError, RuntimeError)):
        words[0, 0] = 1
    assert np.array_equal(back.to_dense(), m.to_dense())


def test_csr_mmap_load_is_read_only_view(tmp_path):
    """CSR index arrays map zero-copy: the page cache backs the handle.

    ``BoolCsr.__init__`` funnels inputs through ``ascontiguousarray``,
    which wraps a matching-dtype contiguous memmap in a plain ndarray
    *view* — so the mapping shows up in the flags (no-copy, read-only,
    memmap base), not in ``isinstance``.
    """
    m = BoolCsr.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.csr.rpc"
    dump_matrix(m, path)
    back = load_matrix(path, mmap=True)
    for arr in (back.rowptr, back.cols):
        assert not arr.flags["WRITEABLE"]
        assert not arr.flags["OWNDATA"]
        assert isinstance(arr, np.memmap) or isinstance(arr.base, np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 1
    assert np.array_equal(back.to_dense(), m.to_dense())
    assert back.nnz == m.nnz


def test_csr_mmap_empty_matrix(tmp_path):
    m = BoolCsr.from_coo([], [], (5, 3))
    path = tmp_path / "empty.csr.rpc"
    dump_matrix(m, path)
    back = load_matrix(path, mmap=True)
    assert back.shape == (5, 3)
    assert back.nnz == 0
    assert back.cols.size == 0


def test_csr_mmap_verify_checks_payload(tmp_path):
    m = BoolCsr.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.csr.rpc"
    dump_matrix(m, path)
    back = load_matrix(path, mmap=True, verify=True)
    assert np.array_equal(back.to_dense(), m.to_dense())
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10  # damage the cols payload
    path.write_bytes(bytes(raw))
    load_matrix(path, mmap=True)  # lazy mapping does not touch payload
    with pytest.raises(StoreCorruptError):
        load_matrix(path, mmap=True, verify=True)


def test_csr_heap_load_is_writable(tmp_path):
    m = BoolCsr.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.csr.rpc"
    dump_matrix(m, path)
    back = load_matrix(path, mmap=False)
    assert back.rowptr.flags["WRITEABLE"]
    assert back.cols.flags["WRITEABLE"]


def test_csr_mmap_missing_array_is_corrupt(tmp_path, monkeypatch):
    """A csr container without its index arrays is rejected up front."""
    import repro.store.container as container_mod

    m = BoolCsr.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.csr.rpc"
    dump_matrix(m, path)
    real = container_mod._read_index

    def drop_cols(p):
        info, arrays = real(p)
        return info, [a for a in arrays if a["name"] != "cols"]

    monkeypatch.setattr(container_mod, "_read_index", drop_cols)
    with pytest.raises(StoreCorruptError):
        load_matrix(path, mmap=True)


def test_bit_heap_load_is_writable(tmp_path):
    m = BitMatrix.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.bit.rpc"
    dump_matrix(m, path)
    back = load_matrix(path, mmap=False)
    assert back.words.flags["WRITEABLE"]


def test_container_info_reads_header_only(tmp_path):
    m = BoolCsr.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.csr.rpc"
    dump_matrix(m, path)
    info = container_info(path)
    assert info["kind"] == "csr"
    assert info["shape"] == SHAPE
    assert info["nnz"] == m.nnz
    assert [a["name"] for a in info["arrays"]] == ["rowptr", "cols"]


def test_verify_container_passes_on_intact_file(tmp_path):
    for kind, m in matrices().items():
        path = tmp_path / f"{kind}.rpc"
        dump_matrix(m, path)
        assert verify_container(path)["kind"] == kind


def test_truncated_header_raises(tmp_path):
    path = tmp_path / "m.rpc"
    dump_matrix(BoolCsr.from_coo(ROWS, COLS, SHAPE), path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(StoreCorruptError, match="truncated header"):
        load_matrix(path)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "m.rpc"
    dump_matrix(BoolCsr.from_coo(ROWS, COLS, SHAPE), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(StoreCorruptError, match="bad magic"):
        load_matrix(path)


def test_removed_dcsr_format_is_named(tmp_path):
    """Tag 3 (DCSR) stays reserved: a container carrying it, with a valid
    header checksum, is rejected with an error that names the format."""
    import zlib

    import repro.store.container as container_mod

    path = tmp_path / "m.rpc"
    dump_matrix(BoolCoo.from_coo(ROWS, COLS, SHAPE), path)
    blob = bytearray(path.read_bytes())
    head = container_mod._HEADER
    magic, version, _, narrays, pad, nrows, ncols, nnz, _ = head.unpack_from(blob)
    table = bytes(blob[head.size : head.size + narrays * container_mod._ENTRY.size])
    zeroed = head.pack(magic, version, 3, narrays, pad, nrows, ncols, nnz, 0)
    crc = zlib.crc32(zeroed + table)
    blob[: head.size] = head.pack(magic, version, 3, narrays, pad, nrows, ncols, nnz, crc)
    path.write_bytes(bytes(blob))
    with pytest.raises(StoreCorruptError, match="'dcsr'.*removed"):
        load_matrix(path)


def test_header_bitflip_fails_checksum(tmp_path):
    path = tmp_path / "m.rpc"
    dump_matrix(BoolCsr.from_coo(ROWS, COLS, SHAPE), path)
    data = bytearray(path.read_bytes())
    data[16] ^= 0xFF  # nrows field
    path.write_bytes(bytes(data))
    with pytest.raises(StoreCorruptError, match="header checksum"):
        load_matrix(path)


def test_payload_bitflip_fails_checksum(tmp_path):
    path = tmp_path / "m.rpc"
    dump_matrix(BoolCsr.from_coo(ROWS, COLS, SHAPE), path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    # The heap path reads every byte, so CRCs always run; the lazy
    # csr mmap path defers to verify=True (covered above).
    with pytest.raises(StoreCorruptError, match="checksum mismatch"):
        load_matrix(path, mmap=False)


def test_payload_bitflip_caught_by_mmap_verify(tmp_path):
    m = BitMatrix.from_coo(ROWS, COLS, SHAPE)
    path = tmp_path / "m.bit.rpc"
    dump_matrix(m, path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    # The zero-copy path skips payload CRCs by default...
    load_matrix(path, mmap=True)
    # ...but verify=True (and verify_container) read every byte.
    with pytest.raises(StoreCorruptError, match="checksum mismatch"):
        load_matrix(path, mmap=True, verify=True)
    with pytest.raises(StoreCorruptError):
        verify_container(path)


def test_truncated_payload_raises(tmp_path):
    path = tmp_path / "m.rpc"
    dump_matrix(BoolCsr.from_coo(ROWS, COLS, SHAPE), path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(StoreCorruptError, match="truncated"):
        load_matrix(path)


def test_dump_rejects_unknown_objects(tmp_path):
    with pytest.raises(InvalidArgumentError, match="no container serializer"):
        dump_matrix(object(), tmp_path / "x.rpc")


def test_dump_is_atomic_no_tmp_left_behind(tmp_path):
    path = tmp_path / "m.rpc"
    dump_matrix(BoolCsr.from_coo(ROWS, COLS, SHAPE), path)
    assert [p.name for p in tmp_path.iterdir()] == ["m.rpc"]
