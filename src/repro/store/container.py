"""Stable on-disk container for the boolean matrix formats.

One container file holds one matrix: a fixed little-endian header
(format tag, shape, nnz), an array table (name, dtype, offset, length,
CRC32 per array), and the format's buffers written **verbatim** — the
same bytes :class:`~repro.formats.csr.BoolCsr` et al. hold in memory.
Because the payload is the in-memory layout, loading is either a single
contiguous read (sparse formats) or — for
:class:`~repro.formats.bitmatrix.BitMatrix` — a read-only
:func:`numpy.memmap` view: the word array is *mapped*, not copied, so a
multi-GiB bit snapshot opens in microseconds and pages in lazily.  This
is the pyGinkgo/Bit-GraphBLAS argument applied to disk: persist the
packed representation byte-for-byte and hand the buffer back without
repacking.

Layout (all integers little-endian)::

    header   48 B   magic "RPROSTR1", container version, format tag,
                    array count, nrows, ncols, nnz, header CRC32
    table    48 B   per array: name, dtype code, payload CRC32,
                    absolute offset (64-aligned), element count, bytes
    payload         raw array bytes at their offsets

The header CRC covers the header (with the CRC field zeroed) plus the
whole array table, so a truncated or bit-flipped index is detected on
every open.  Payload CRCs are checked on load for the sparse formats
(they are copied into the heap anyway); the mmap path skips them by
default to stay zero-copy — ``python -m repro store verify`` (and
:func:`verify_container`) checks every byte.

Writes are atomic: the container is assembled in a ``*.tmp`` sibling,
fsynced, and renamed over the destination.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.errors import InvalidArgumentError, StoreCorruptError
from repro.formats.bitmatrix import BitMatrix, _words_per_row
from repro.formats.coo import BoolCoo
from repro.formats.csr import BoolCsr
from repro.formats.valcsr import ValCsr

MAGIC = b"RPROSTR1"
CONTAINER_VERSION = 1

#: File suffix for matrix containers inside a volume.
CONTAINER_SUFFIX = ".rpc"

_HEADER = struct.Struct("<8sHHHHQQQI4x")  # 48 bytes
_ENTRY = struct.Struct("<16sHHIQQQ")      # 48 bytes
_ALIGN = 64

FORMAT_TAGS = {"coo": 1, "csr": 2, "bit": 4, "valcsr": 5}
_TAG_TO_KIND = {v: k for k, v in FORMAT_TAGS.items()}
#: Tags of formats the library no longer reads; never reused.
_REMOVED_TAGS = {3: "dcsr"}


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes a rename atomic but not durable: the new
    directory entry lives in the parent's metadata, which needs its own
    fsync.  Best-effort — some filesystems refuse fsync on directories,
    and a refusal must not fail the write that already landed.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)

#: dtype code <-> little-endian dtype string.
_DTYPE_CODES = {
    1: "<u4",
    2: "<i8",
    3: "<u8",
    4: "<f4",
    5: "<f8",
    6: "<i4",
    7: "|u1",
}
_CODE_BY_DTYPE = {np.dtype(s): c for c, s in _DTYPE_CODES.items()}


def _format_arrays(m) -> tuple[str, list[tuple[str, np.ndarray]]]:
    """(format kind, ordered named arrays) for a format object."""
    if isinstance(m, BitMatrix):
        return "bit", [("words", m.words.reshape(-1))]
    if isinstance(m, BoolCsr):
        return "csr", [("rowptr", m.rowptr), ("cols", m.cols)]
    if isinstance(m, BoolCoo):
        return "coo", [("rows", m.rows), ("cols", m.cols)]
    if isinstance(m, ValCsr):
        return "valcsr", [
            ("rowptr", m.rowptr),
            ("cols", m.cols),
            ("values", m.values),
        ]
    raise InvalidArgumentError(
        f"no container serializer for {type(m).__name__}"
    )


def _le(arr: np.ndarray) -> np.ndarray:
    """Contiguous little-endian view/copy of ``arr``."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def dump_matrix(m, path: str | Path) -> dict:
    """Write one format object to ``path`` atomically; returns its info.

    The buffers are written verbatim (little-endian), so for
    :class:`BitMatrix` the container payload is byte-identical to the
    in-memory word array — including the zero padding words past
    ``ncols`` — which is what makes the mmap load a true zero-copy.
    """
    kind, arrays = _format_arrays(m)
    path = Path(path)

    entries = []
    payload_offset = _HEADER.size + _ENTRY.size * len(arrays)
    blobs = []
    for name, arr in arrays:
        arr = _le(arr)
        code = _CODE_BY_DTYPE.get(arr.dtype)
        if code is None:
            raise InvalidArgumentError(
                f"array {name!r} has unsupported dtype {arr.dtype}"
            )
        payload_offset = -(-payload_offset // _ALIGN) * _ALIGN
        blob = arr.tobytes()
        entries.append(
            (name.encode("ascii"), code, zlib.crc32(blob), payload_offset,
             arr.size, len(blob))
        )
        blobs.append((payload_offset, blob))
        payload_offset += len(blob)

    table = b"".join(
        _ENTRY.pack(name.ljust(16, b"\0"), code, 0, crc, off, count, nbytes)
        for name, code, crc, off, count, nbytes in entries
    )
    tag = FORMAT_TAGS[kind]
    header_zeroed = _HEADER.pack(
        MAGIC, CONTAINER_VERSION, tag, len(arrays), 0,
        m.nrows, m.ncols, m.nnz, 0
    )
    header_crc = zlib.crc32(header_zeroed + table)
    header = _HEADER.pack(
        MAGIC, CONTAINER_VERSION, tag, len(arrays), 0,
        m.nrows, m.ncols, m.nnz, header_crc
    )

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(header)
        f.write(table)
        pos = _HEADER.size + len(table)
        for off, blob in blobs:
            if off > pos:
                f.write(b"\0" * (off - pos))
            f.write(blob)
            pos = off + len(blob)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return {
        "kind": kind,
        "shape": (m.nrows, m.ncols),
        "nnz": m.nnz,
        "bytes": pos,
        "arrays": [name for name, _ in arrays],
    }


def _read_index(path: Path) -> tuple[dict, list[dict]]:
    """Parse and CRC-check the header + array table of a container."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise StoreCorruptError(f"{path}: truncated header")
        magic, version, tag, narrays, _, nrows, ncols, nnz, crc = _HEADER.unpack(
            header
        )
        if magic != MAGIC:
            raise StoreCorruptError(f"{path}: bad magic {magic!r}")
        if version != CONTAINER_VERSION:
            raise StoreCorruptError(
                f"{path}: container version {version} (supported: "
                f"{CONTAINER_VERSION})"
            )
        table = f.read(_ENTRY.size * narrays)
    if len(table) != _ENTRY.size * narrays:
        raise StoreCorruptError(f"{path}: truncated array table")
    header_zeroed = _HEADER.pack(
        MAGIC, version, tag, narrays, 0, nrows, ncols, nnz, 0
    )
    if zlib.crc32(header_zeroed + table) != crc:
        raise StoreCorruptError(f"{path}: header checksum mismatch")
    if tag in _REMOVED_TAGS:
        raise StoreCorruptError(
            f"{path}: format {_REMOVED_TAGS[tag]!r} (tag {tag}) was removed "
            f"and can no longer be loaded"
        )
    kind = _TAG_TO_KIND.get(tag)
    if kind is None:
        raise StoreCorruptError(f"{path}: unknown format tag {tag}")

    arrays = []
    for i in range(narrays):
        name, code, _, acrc, off, count, nbytes = _ENTRY.unpack_from(
            table, i * _ENTRY.size
        )
        dtype_s = _DTYPE_CODES.get(code)
        if dtype_s is None:
            raise StoreCorruptError(f"{path}: unknown dtype code {code}")
        dtype = np.dtype(dtype_s)
        if nbytes != count * dtype.itemsize:
            raise StoreCorruptError(
                f"{path}: array {name!r} length/byte-count mismatch"
            )
        arrays.append(
            {
                "name": name.rstrip(b"\0").decode("ascii"),
                "dtype": dtype,
                "crc": acrc,
                "offset": off,
                "count": count,
                "nbytes": nbytes,
            }
        )
    info = {"kind": kind, "shape": (nrows, ncols), "nnz": nnz}
    return info, arrays


def _read_array(path: Path, entry: dict, *, verify: bool = True) -> np.ndarray:
    """Read one payload array into the heap, CRC-checking by default."""
    with open(path, "rb") as f:
        f.seek(entry["offset"])
        blob = f.read(entry["nbytes"])
    if len(blob) != entry["nbytes"]:
        raise StoreCorruptError(f"{path}: array {entry['name']!r} truncated")
    if verify and zlib.crc32(blob) != entry["crc"]:
        raise StoreCorruptError(
            f"{path}: array {entry['name']!r} checksum mismatch"
        )
    return np.frombuffer(blob, dtype=entry["dtype"]).copy()


def _check_mappable(path: Path, entry: dict) -> None:
    """Reject a mapping whose payload runs past EOF.

    ``np.memmap`` raises a bare ``ValueError`` on a short file; a
    truncated container is corruption and must surface as such.
    """
    if path.stat().st_size < entry["offset"] + entry["nbytes"]:
        raise StoreCorruptError(f"{path}: array {entry['name']!r} truncated")


def _map_array(path: Path, entry: dict) -> np.ndarray:
    """Read-only zero-copy view of one sparse index array.

    The CSR loader's analogue of :func:`_map_words`: the container
    payload is the in-memory layout verbatim, so ``rowptr``/``cols``
    can be handed back as read-only ``np.memmap`` views and N replica
    processes loading the same snapshot share the pages through the
    page cache instead of each holding a heap copy.  Empty arrays fall
    back to the heap — mmap of zero length is ill-defined.
    """
    if entry["count"] == 0:
        return np.zeros(0, dtype=entry["dtype"])
    _check_mappable(path, entry)
    return np.memmap(
        path,
        dtype=entry["dtype"],
        mode="r",
        offset=entry["offset"],
        shape=(entry["count"],),
    )


def _map_words(path: Path, entry: dict, shape: tuple[int, int]) -> np.ndarray:
    """Read-only zero-copy view of a container's word array.

    The returned array is an ``np.memmap`` (or an empty heap array for
    degenerate shapes — mmap of zero length is ill-defined).  It is
    deliberately read-only: snapshots are immutable; mutating a loaded
    snapshot must go through an edge delta instead.
    """
    if entry["count"] == 0:
        return np.zeros(shape, dtype=np.uint64)
    _check_mappable(path, entry)
    return np.memmap(
        path, dtype=np.uint64, mode="r", offset=entry["offset"], shape=shape
    )


def load_matrix(path: str | Path, *, mmap: bool = True, verify: bool = False):
    """Load a container back into its format object.

    ``bit`` containers return a :class:`BitMatrix` whose word array is
    a **read-only memmap view** when ``mmap=True`` (the default): no
    heap copy, lazily paged, suitable for arena-registration via
    :meth:`repro.gpu.memory.MemoryArena.adopt_external`.  ``csr``
    containers likewise map ``rowptr``/``cols`` read-only when
    ``mmap=True`` — the container payload is the in-memory layout, so
    :class:`BoolCsr` adopts the views uncopied and replica processes
    share the pages.  The remaining sparse formats are reconstructed
    from heap copies of their index arrays (payload CRCs always
    checked — the copy pass reads every byte anyway).  ``verify=True``
    forces a full payload checksum even on the mmap paths (reads the
    file once; the views stay zero-copy).
    """
    path = Path(path)
    info, entries = _read_index(path)
    kind = info["kind"]
    shape = info["shape"]
    by_name = {e["name"]: e for e in entries}

    def arr(name: str, check: bool = True) -> np.ndarray:
        entry = by_name.get(name)
        if entry is None:
            raise StoreCorruptError(f"{path}: missing array {name!r}")
        return _read_array(path, entry, verify=check)

    if kind == "bit":
        entry = by_name.get("words")
        if entry is None:
            raise StoreCorruptError(f"{path}: missing array 'words'")
        nrows, ncols = shape
        wpr = _words_per_row(ncols)
        if entry["count"] != nrows * wpr:
            raise StoreCorruptError(
                f"{path}: word count {entry['count']} != {nrows}x{wpr}"
            )
        if mmap:
            if verify:
                _read_array(path, entry)  # checksum pass only
            words = _map_words(path, entry, (nrows, wpr))
        else:
            words = arr("words").reshape(nrows, wpr)
        return BitMatrix(shape, words)
    if kind == "csr":
        if mmap:
            for name in ("rowptr", "cols"):
                if name not in by_name:
                    raise StoreCorruptError(f"{path}: missing array {name!r}")
                if verify:
                    _read_array(path, by_name[name])  # checksum pass only
            return BoolCsr(
                shape,
                _map_array(path, by_name["rowptr"]),
                _map_array(path, by_name["cols"]),
            )
        return BoolCsr(shape, arr("rowptr"), arr("cols"))
    if kind == "coo":
        return BoolCoo(shape, arr("rows"), arr("cols"))
    if kind == "valcsr":
        return ValCsr(shape, arr("rowptr"), arr("cols"), arr("values"))
    raise StoreCorruptError(f"{path}: unknown kind {kind!r}")  # pragma: no cover


def container_info(path: str | Path) -> dict:
    """Header/table summary without touching the payload."""
    path = Path(path)
    info, entries = _read_index(path)
    return {
        **info,
        "path": str(path),
        "file_bytes": path.stat().st_size,
        "arrays": [
            {"name": e["name"], "dtype": str(e["dtype"]), "count": e["count"]}
            for e in entries
        ],
    }


def verify_container(path: str | Path) -> dict:
    """Full integrity check: header, table, and every payload CRC.

    Returns :func:`container_info`'s summary on success; raises
    :class:`~repro.errors.StoreCorruptError` on the first mismatch.
    The loaded matrix is also structurally validated (``validate()``),
    so a container whose bytes are intact but whose invariants are
    broken (unsorted CSR, set padding bits) fails too.
    """
    path = Path(path)
    info, entries = _read_index(path)
    for entry in entries:
        _read_array(path, entry, verify=True)
    m = load_matrix(path, mmap=False)
    m.validate()
    if m.nnz != info["nnz"]:
        raise StoreCorruptError(
            f"{path}: header nnz {info['nnz']} != payload nnz {m.nnz}"
        )
    return container_info(path)
