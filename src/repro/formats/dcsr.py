"""Doubly-compressed sparse row (DCSR) — the hypersparse format.

CSR pays ``m + 1`` row-pointer slots even when almost every row is
empty; COO pays a row index per entry.  DCSR compresses *both*: only
non-empty rows appear, each once, so storage is

    ``(2 · nrows_nonempty + 1 + nnz) · sizeof(index)``

which beats CSR whenever fewer than about half the rows are occupied
and beats COO when rows hold more than ~2 entries on average.  This is
the format CombBLAS/GraphBLAS use for hypersparse blocks — the paper's
"different values distribution" storage discussion is exactly this
trade-off space, so the reproduction ships the third point in it.

Arrays: ``active_rows`` (sorted distinct non-empty row ids),
``rowptr`` (len ``len(active_rows) + 1`` offsets into ``cols``),
``cols`` (canonical per-row sorted columns).
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexOutOfBoundsError, InvalidArgumentError
from repro.formats.base import SparseFormat, canonical_coo
from repro.utils.arrays import INDEX_DTYPE


class BoolDcsr(SparseFormat):
    """Doubly-compressed sparse row boolean matrix."""

    kind = "dcsr"

    def __init__(
        self,
        shape: tuple[int, int],
        active_rows: np.ndarray,
        rowptr: np.ndarray,
        cols: np.ndarray,
    ):
        super().__init__(shape)
        self.active_rows = np.ascontiguousarray(active_rows, dtype=INDEX_DTYPE)
        self.rowptr = np.ascontiguousarray(rowptr, dtype=INDEX_DTYPE)
        self.cols = np.ascontiguousarray(cols, dtype=INDEX_DTYPE)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "BoolDcsr":
        return cls(
            shape,
            np.empty(0, INDEX_DTYPE),
            np.zeros(1, INDEX_DTYPE),
            np.empty(0, INDEX_DTYPE),
        )

    @classmethod
    def identity(cls, n: int) -> "BoolDcsr":
        idx = np.arange(n, dtype=INDEX_DTYPE)
        return cls((n, n), idx, np.arange(n + 1, dtype=INDEX_DTYPE), idx.copy())

    @classmethod
    def from_coo(cls, rows, cols, shape: tuple[int, int]) -> "BoolDcsr":
        rows, cols = canonical_coo(rows, cols, shape)
        if rows.size == 0:
            return cls.empty(shape)
        active, counts = np.unique(rows, return_counts=True)
        rowptr = np.zeros(active.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=rowptr[1:], dtype=np.int64)
        return cls(shape, active, rowptr, cols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BoolDcsr":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise InvalidArgumentError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense.shape)

    # -- SparseFormat ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1]) if self.rowptr.size else 0

    @property
    def nrows_nonempty(self) -> int:
        return int(self.active_rows.size)

    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lengths = np.diff(self.rowptr.astype(np.int64))
        rows = np.repeat(self.active_rows, lengths)
        return rows.astype(INDEX_DTYPE), self.cols.copy()

    def memory_bytes(self) -> int:
        """Model memory: (2·active + 1 + nnz) · sizeof(index)."""
        return (2 * self.nrows_nonempty + 1 + self.nnz) * self.index_itemsize()

    def validate(self) -> None:
        if self.rowptr.shape != (self.active_rows.size + 1,):
            raise InvalidArgumentError("rowptr length must be active_rows + 1")
        if self.rowptr.size and int(self.rowptr[0]) != 0:
            raise InvalidArgumentError("rowptr[0] must be 0")
        if np.any(np.diff(self.rowptr.astype(np.int64)) <= 0):
            # Strictly increasing: DCSR never stores an empty active row.
            raise InvalidArgumentError(
                "rowptr must be strictly increasing (no empty active rows)"
            )
        if int(self.rowptr[-1]) != self.cols.size:
            raise InvalidArgumentError("rowptr[-1] must equal len(cols)")
        if self.active_rows.size:
            if np.any(np.diff(self.active_rows.astype(np.int64)) <= 0):
                raise InvalidArgumentError("active_rows must be strictly increasing")
            if int(self.active_rows.max()) >= self.nrows:
                raise IndexOutOfBoundsError(
                    "row", int(self.active_rows.max()), self.nrows
                )
        if self.cols.size:
            if int(self.cols.max()) >= self.ncols:
                raise IndexOutOfBoundsError("column", int(self.cols.max()), self.ncols)
            diffs = np.diff(self.cols.astype(np.int64))
            boundaries = np.zeros(self.cols.size - 1, dtype=bool)
            ends = self.rowptr.astype(np.int64)[1:-1] - 1
            boundaries[ends] = True
            if np.any(~boundaries & (diffs <= 0)):
                raise InvalidArgumentError("columns not strictly increasing in a row")

    # -- access ----------------------------------------------------------

    def row(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` (empty array for inactive rows)."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        pos = int(np.searchsorted(self.active_rows, i))
        if pos >= self.active_rows.size or int(self.active_rows[pos]) != i:
            return np.empty(0, dtype=INDEX_DTYPE)
        return self.cols[int(self.rowptr[pos]) : int(self.rowptr[pos + 1])]

    def get(self, i: int, j: int) -> bool:
        if not 0 <= j < self.ncols:
            raise IndexOutOfBoundsError("column", j, self.ncols)
        row = self.row(i)
        pos = np.searchsorted(row, j)
        return bool(pos < row.size and row[pos] == j)

    def copy(self) -> "BoolDcsr":
        return BoolDcsr(
            self.shape, self.active_rows.copy(), self.rowptr.copy(), self.cols.copy()
        )
