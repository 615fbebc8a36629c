"""Boolean CSR storage — cuBool's matrix format.

The paper (§Implementation Details, cuBool):

    "Sparse matrix primitive is stored in the compressed sparse row (CSR)
    format with only two arrays: ``rowsptr`` for row offset indices and
    ``cols`` for columns indices.  Boolean matrices has no actual values,
    thus *true* values are encoded only as (i, j) pairs.  It allows to
    store matrix M of size m x n in (m + NNZ(M)) x sizeof(IndexType)
    bytes of GPU memory."

Invariants: ``rowptr`` has length ``nrows + 1``, is non-decreasing,
``rowptr[0] == 0``, ``rowptr[-1] == nnz``; within each row the column
indices are strictly increasing (sorted, duplicate-free).
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexOutOfBoundsError, InvalidArgumentError
from repro.formats.base import SparseFormat, canonical_coo
from repro.utils.arrays import INDEX_DTYPE, rows_from_rowptr, rowptr_from_sorted_rows


class BoolCsr(SparseFormat):
    """Compressed-sparse-row boolean matrix (index arrays only)."""

    kind = "csr"

    def __init__(self, shape: tuple[int, int], rowptr: np.ndarray, cols: np.ndarray):
        super().__init__(shape)
        self.rowptr = np.ascontiguousarray(rowptr, dtype=INDEX_DTYPE)
        self.cols = np.ascontiguousarray(cols, dtype=INDEX_DTYPE)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "BoolCsr":
        """All-false matrix of the given shape."""
        nrows = int(shape[0])
        return cls(shape, np.zeros(nrows + 1, dtype=INDEX_DTYPE), np.empty(0, INDEX_DTYPE))

    @classmethod
    def identity(cls, n: int) -> "BoolCsr":
        """n x n identity pattern."""
        idx = np.arange(n, dtype=INDEX_DTYPE)
        rowptr = np.arange(n + 1, dtype=INDEX_DTYPE)
        return cls((n, n), rowptr, idx)

    @classmethod
    def from_coo(cls, rows, cols, shape: tuple[int, int]) -> "BoolCsr":
        """Build from coordinate pairs; duplicates collapse (boolean OR
        saturation), canonical input skips the sort."""
        rows, cols = canonical_coo(rows, cols, shape)
        return cls(shape, rowptr_from_sorted_rows(rows, int(shape[0])), cols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BoolCsr":
        """Build from a dense boolean (or truthy) array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise InvalidArgumentError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense.shape)

    # -- SparseFormat ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1]) if self.rowptr.size else 0

    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return rows_from_rowptr(self.rowptr), self.cols.copy()

    def memory_bytes(self) -> int:
        """Model memory: (m + 1 + nnz) * sizeof(index)."""
        return (self.nrows + 1 + self.nnz) * self.index_itemsize()

    def validate(self) -> None:
        if self.rowptr.shape != (self.nrows + 1,):
            raise InvalidArgumentError("rowptr has wrong length")
        if int(self.rowptr[0]) != 0:
            raise InvalidArgumentError("rowptr[0] must be 0")
        if np.any(np.diff(self.rowptr.astype(np.int64)) < 0):
            raise InvalidArgumentError("rowptr must be non-decreasing")
        if int(self.rowptr[-1]) != self.cols.size:
            raise InvalidArgumentError("rowptr[-1] must equal len(cols)")
        if self.cols.size:
            if int(self.cols.max()) >= self.ncols:
                raise IndexOutOfBoundsError("column", int(self.cols.max()), self.ncols)
            # Strictly increasing inside each row: diffs may only be
            # non-positive at row boundaries.
            diffs = np.diff(self.cols.astype(np.int64))
            row_of = rows_from_rowptr(self.rowptr).astype(np.int64)
            same_row = row_of[1:] == row_of[:-1]
            if np.any(same_row & (diffs <= 0)):
                raise InvalidArgumentError("columns not strictly increasing in a row")

    # -- row access ---------------------------------------------------------

    def row(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` (a view, do not mutate)."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        return self.cols[int(self.rowptr[i]) : int(self.rowptr[i + 1])]

    def row_lengths(self) -> np.ndarray:
        """Entry count of every row (int64)."""
        return np.diff(self.rowptr.astype(np.int64))

    def get(self, i: int, j: int) -> bool:
        """Membership test for a single coordinate (binary search)."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        if not 0 <= j < self.ncols:
            raise IndexOutOfBoundsError("column", j, self.ncols)
        row = self.row(i)
        pos = np.searchsorted(row, j)
        return bool(pos < row.size and row[pos] == j)

    def copy(self) -> "BoolCsr":
        return BoolCsr(self.shape, self.rowptr.copy(), self.cols.copy())
