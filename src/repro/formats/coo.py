"""Boolean COO storage — clBool's matrix format.

The paper (§Implementation Details, clBool):

    "Sparse matrix primitive is stored in coordinate format (COO) with
    two arrays: ``rows`` and ``cols`` for row and column indices of the
    stored non-zero values.  For the matrix M of size m x n memory
    consumption is 2 x NNZ(M) x sizeof(IndexType).  This format was
    selected instead of CSR, because COO gives better memory footprint
    for very sparse matrices with a lot of empty rows."

Canonical order is row-major (sorted by row, then column) with no
duplicate coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexOutOfBoundsError, InvalidArgumentError
from repro.formats.base import SparseFormat, canonical_coo
from repro.utils.arrays import INDEX_DTYPE, is_sorted_unique, keys_from_coo


class BoolCoo(SparseFormat):
    """Coordinate-format boolean matrix (two index arrays, no values)."""

    kind = "coo"

    def __init__(self, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray):
        super().__init__(shape)
        self.rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
        self.cols = np.ascontiguousarray(cols, dtype=INDEX_DTYPE)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "BoolCoo":
        return cls(shape, np.empty(0, INDEX_DTYPE), np.empty(0, INDEX_DTYPE))

    @classmethod
    def identity(cls, n: int) -> "BoolCoo":
        idx = np.arange(n, dtype=INDEX_DTYPE)
        return cls((n, n), idx, idx.copy())

    @classmethod
    def from_coo(cls, rows, cols, shape: tuple[int, int]) -> "BoolCoo":
        """Build from coordinate pairs; duplicates collapse under OR."""
        rows, cols = canonical_coo(rows, cols, shape)
        return cls(shape, rows, cols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BoolCoo":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise InvalidArgumentError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense.shape)

    # -- SparseFormat ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.rows.copy(), self.cols.copy()

    def memory_bytes(self) -> int:
        """Model memory: 2 * nnz * sizeof(index)."""
        return 2 * self.nnz * self.index_itemsize()

    def validate(self) -> None:
        if self.rows.shape != self.cols.shape:
            raise InvalidArgumentError("rows and cols must have equal length")
        if self.rows.size == 0:
            return
        if int(self.rows.max()) >= self.nrows:
            raise IndexOutOfBoundsError("row", int(self.rows.max()), self.nrows)
        if int(self.cols.max()) >= self.ncols:
            raise IndexOutOfBoundsError("column", int(self.cols.max()), self.ncols)
        if not is_sorted_unique(keys_from_coo(self.rows, self.cols)):
            raise InvalidArgumentError("coordinates not strictly row-major sorted")

    # -- access ----------------------------------------------------------

    def get(self, i: int, j: int) -> bool:
        """Membership test via binary search on the sorted pair list."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        if not 0 <= j < self.ncols:
            raise IndexOutOfBoundsError("column", j, self.ncols)
        lo = np.searchsorted(self.rows, i, side="left")
        hi = np.searchsorted(self.rows, i, side="right")
        seg = self.cols[lo:hi]
        pos = np.searchsorted(seg, j)
        return bool(pos < seg.size and seg[pos] == j)

    def nonempty_rows(self) -> np.ndarray:
        """Distinct row indices that contain at least one entry."""
        return np.unique(self.rows)

    def copy(self) -> "BoolCoo":
        return BoolCoo(self.shape, self.rows.copy(), self.cols.copy())
