"""Conversions among storage formats.

All conversions route through canonical coordinate arrays, so any format
pair converts in two vectorized passes.  Dedicated fast paths exist for
the structurally-trivial cases (CSR↔COO share the ``cols`` array).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidArgumentError
from repro.formats.base import SparseFormat
from repro.formats.bitmatrix import BitMatrix
from repro.formats.coo import BoolCoo
from repro.formats.csr import BoolCsr
from repro.formats.tiled import TiledBitMatrix
from repro.formats.valcsr import ValCsr
from repro.utils.arrays import rows_from_rowptr, rowptr_from_sorted_rows


def csr_to_coo(m: BoolCsr) -> BoolCoo:
    """CSR → COO: expand the row pointer (shared cols array is copied)."""
    return BoolCoo(m.shape, rows_from_rowptr(m.rowptr), m.cols.copy())


def coo_to_csr(m: BoolCoo) -> BoolCsr:
    """COO → CSR: histogram + scan over the (already sorted) rows."""
    return BoolCsr(m.shape, rowptr_from_sorted_rows(m.rows, m.nrows), m.cols.copy())


def csr_to_valcsr(m: BoolCsr, dtype=np.float32) -> ValCsr:
    """Boolean CSR → generic CSR with all-ones values."""
    return ValCsr(
        m.shape, m.rowptr.copy(), m.cols.copy(), np.ones(m.nnz, dtype=dtype)
    )


def valcsr_to_csr(m: ValCsr, *, drop_zeros: bool = True) -> BoolCsr:
    """Generic CSR → boolean pattern (optionally dropping explicit zeros)."""
    if not drop_zeros or m.nnz == 0:
        return BoolCsr(m.shape, m.rowptr.copy(), m.cols.copy())
    keep = m.values != 0
    if bool(keep.all()):
        return BoolCsr(m.shape, m.rowptr.copy(), m.cols.copy())
    rows = rows_from_rowptr(m.rowptr)[keep]
    return BoolCsr.from_coo(rows, m.cols[keep], m.shape)


def to_bitmatrix(m: SparseFormat) -> BitMatrix:
    """Any sparse format → dense bit-packed."""
    rows, cols = m.to_coo_arrays()
    return BitMatrix.from_coo(rows, cols, m.shape)


def bitmatrix_to_csr(m: BitMatrix) -> BoolCsr:
    rows, cols = m.to_coo_arrays()
    return BoolCsr.from_coo(rows, cols, m.shape)


def bitmatrix_to_coo(m: BitMatrix) -> BoolCoo:
    rows, cols = m.to_coo_arrays()
    return BoolCoo.from_coo(rows, cols, m.shape)


def bitmatrix_to_tiled(m: BitMatrix) -> TiledBitMatrix:
    """Flat bit → tiled view (zero-copy: the words are shared; only the
    presence bitmap is scanned)."""
    return TiledBitMatrix(m)


def tiled_to_bitmatrix(m: TiledBitMatrix) -> BitMatrix:
    """Tiled → flat bit: drop the presence bitmap (zero-copy words)."""
    return m.flat


def to_tiled(m: SparseFormat) -> TiledBitMatrix:
    """Any sparse format → tiled bit (through the flat bit packing)."""
    return TiledBitMatrix(to_bitmatrix(m))


_CONVERTERS = {
    ("csr", "coo"): csr_to_coo,
    ("coo", "csr"): coo_to_csr,
    ("csr", "valcsr"): csr_to_valcsr,
    ("valcsr", "csr"): valcsr_to_csr,
    ("bit", "csr"): bitmatrix_to_csr,
    ("bit", "coo"): bitmatrix_to_coo,
    ("bit", "tiled"): bitmatrix_to_tiled,
    ("tiled", "bit"): tiled_to_bitmatrix,
}


def convert(m: SparseFormat, kind: str) -> SparseFormat:
    """Convert ``m`` to the format named ``kind`` ("csr"/"coo"/"valcsr"/"bit").

    Identity conversions return the input unchanged (no copy).
    """
    if m.kind == kind:
        return m
    direct = _CONVERTERS.get((m.kind, kind))
    if direct is not None:
        return direct(m)
    if isinstance(m, TiledBitMatrix):
        # Tiled wraps a flat bit matrix — convert from the flat words.
        return convert(m.flat, kind)
    # Generic route through coordinates.
    rows, cols = m.to_coo_arrays()
    if kind == "csr":
        return BoolCsr.from_coo(rows, cols, m.shape)
    if kind == "coo":
        return BoolCoo.from_coo(rows, cols, m.shape)
    if kind == "valcsr":
        return ValCsr.from_coo(rows, cols, m.shape)
    if kind == "bit":
        return BitMatrix.from_coo(rows, cols, m.shape)
    if kind == "tiled":
        return TiledBitMatrix(BitMatrix.from_coo(rows, cols, m.shape))
    raise InvalidArgumentError(f"unknown format kind {kind!r}")
