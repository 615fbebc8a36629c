"""Value-carrying CSR — the storage layout of *generic* sparse libraries.

This is the format the paper's abstract compares against: a
non-boolean-optimized library (cuSPARSE, CUSP, ...) must keep an explicit
``values`` array alongside the index arrays and must move those values
through every kernel.  For a boolean workload the values are all ``1.0``,
so the extra array is pure overhead — that overhead is precisely what the
boolean-vs-generic benchmarks (experiment E0) measure.

Memory model: ``(m + 1 + nnz) * sizeof(index) + nnz * sizeof(value)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexOutOfBoundsError, InvalidArgumentError
from repro.formats.base import SparseFormat, checked_coo
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    fold_runs,
    is_sorted_unique,
    keys_from_coo,
    rows_from_rowptr,
    rowptr_from_sorted_rows,
)

#: Default value type, matching cuSPARSE's single-precision benchmarks.
VALUE_DTYPE = np.dtype(np.float32)


class ValCsr(SparseFormat):
    """CSR with an explicit values array (generic library layout)."""

    kind = "valcsr"

    def __init__(
        self,
        shape: tuple[int, int],
        rowptr: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ):
        super().__init__(shape)
        self.rowptr = np.ascontiguousarray(rowptr, dtype=INDEX_DTYPE)
        self.cols = np.ascontiguousarray(cols, dtype=INDEX_DTYPE)
        self.values = np.ascontiguousarray(values)
        if self.values.shape != self.cols.shape:
            raise InvalidArgumentError("values and cols must have equal length")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, shape: tuple[int, int], dtype=VALUE_DTYPE) -> "ValCsr":
        nrows = int(shape[0])
        return cls(
            shape,
            np.zeros(nrows + 1, dtype=INDEX_DTYPE),
            np.empty(0, INDEX_DTYPE),
            np.empty(0, dtype=dtype),
        )

    @classmethod
    def from_coo(
        cls,
        rows,
        cols,
        shape: tuple[int, int],
        values=None,
        *,
        dtype=VALUE_DTYPE,
        combine=None,
    ) -> "ValCsr":
        """Build from coordinates; duplicate coordinates combine their
        values with ``combine``, any binary callable over value arrays
        (default ``np.add`` — the plus-times behaviour; booleans never
        exercise it with saturating inputs but the baseline must pay
        for supporting it).  A duplicate run folds left to right in
        input order from its first value (:func:`fold_runs`) — min-plus
        passes ``np.minimum`` so duplicate edges keep the lightest
        weight.  Canonical input keeps its values untouched."""
        rows, cols = checked_coo(rows, cols, shape)
        if values is None:
            values = np.ones(rows.size, dtype=dtype)
        else:
            values = np.array(values, dtype=dtype)
            if values.shape != rows.shape:
                raise InvalidArgumentError("values must match coordinate count")
        keys = keys_from_coo(rows, cols)
        if not is_sorted_unique(keys):
            keys, values = fold_runs(keys, values, np.add if combine is None else combine)
            rows, cols = coo_from_keys(keys)
        rowptr = rowptr_from_sorted_rows(rows, int(shape[0]))
        return cls(shape, rowptr, cols, values)

    @classmethod
    def from_dense(cls, dense: np.ndarray, dtype=VALUE_DTYPE) -> "ValCsr":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise InvalidArgumentError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols].astype(dtype)
        return cls.from_coo(rows, cols, dense.shape, vals, dtype=dtype)

    # -- SparseFormat ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1]) if self.rowptr.size else 0

    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return rows_from_rowptr(self.rowptr), self.cols.copy()

    def memory_bytes(self) -> int:
        """Model memory: index arrays plus the values array."""
        return (self.nrows + 1 + self.nnz) * self.index_itemsize() + (
            self.nnz * self.values.dtype.itemsize
        )

    def validate(self) -> None:
        if self.rowptr.shape != (self.nrows + 1,):
            raise InvalidArgumentError("rowptr has wrong length")
        if int(self.rowptr[0]) != 0:
            raise InvalidArgumentError("rowptr[0] must be 0")
        if np.any(np.diff(self.rowptr.astype(np.int64)) < 0):
            raise InvalidArgumentError("rowptr must be non-decreasing")
        if int(self.rowptr[-1]) != self.cols.size:
            raise InvalidArgumentError("rowptr[-1] must equal len(cols)")
        if self.values.shape != self.cols.shape:
            raise InvalidArgumentError("values length mismatch")
        if self.cols.size and int(self.cols.max()) >= self.ncols:
            raise IndexOutOfBoundsError("column", int(self.cols.max()), self.ncols)

    # -- access ----------------------------------------------------------

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of row ``i`` (views)."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        lo, hi = int(self.rowptr[i]), int(self.rowptr[i + 1])
        return self.cols[lo:hi], self.values[lo:hi]

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.rowptr.astype(np.int64))

    def get(self, i: int, j: int) -> bool:
        """Pattern membership test (any stored entry counts as true)."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        if not 0 <= j < self.ncols:
            raise IndexOutOfBoundsError("column", j, self.ncols)
        cols, _ = self.row(i)
        pos = np.searchsorted(cols, j)
        return bool(pos < cols.size and cols[pos] == j)

    def pattern(self) -> "ValCsr":
        """Copy with all stored values set to one (boolean view)."""
        return ValCsr(
            self.shape,
            self.rowptr.copy(),
            self.cols.copy(),
            np.ones_like(self.values),
        )

    def copy(self) -> "ValCsr":
        return ValCsr(self.shape, self.rowptr.copy(), self.cols.copy(), self.values.copy())
