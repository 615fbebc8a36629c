"""Sparse storage formats (substrate S2).

Four concrete formats, matching the storage choices discussed in the
paper's *Implementation Details* section:

* :class:`~repro.formats.csr.BoolCsr` — cuBool's format: compressed
  sparse row with **no values array** (boolean "true" entries exist only
  as ``(i, j)`` index pairs).  Memory for an ``m x n`` matrix is
  ``(m + 1 + nnz) * sizeof(index)``.
* :class:`~repro.formats.coo.BoolCoo` — clBool's format: coordinate
  pairs, ``2 * nnz * sizeof(index)`` bytes; wins for hyper-sparse
  matrices with many empty rows (the paper's stated reason for choosing
  it).
* :class:`~repro.formats.valcsr.ValCsr` — value-carrying CSR, the layout
  of generic (non-boolean-optimized) libraries such as cuSPARSE/CUSP;
  used by the baseline backend the paper compares against.
* :class:`~repro.formats.bitmatrix.BitMatrix` — dense bit-packed rows
  (64 columns per machine word); the classic dense-boolean alternative
  used for ablation and as a small-matrix fast path.
* :class:`~repro.formats.tiled.TiledBitMatrix` — grid-of-bit-tiles view
  over a flat bit matrix with a presence bitmap: the multiply visits
  only present tile pairs (the hybrid backend's block-structured bit
  route).

:mod:`repro.formats.convert` provides conversions among all of them.
"""

from repro.formats.base import SparseFormat
from repro.formats.csr import BoolCsr
from repro.formats.coo import BoolCoo
from repro.formats.valcsr import ValCsr
from repro.formats.bitmatrix import BitMatrix
from repro.formats.tiled import TiledBitMatrix
from repro.formats import convert

__all__ = [
    "BitMatrix",
    "BoolCoo",
    "BoolCsr",
    "SparseFormat",
    "TiledBitMatrix",
    "ValCsr",
    "convert",
]
