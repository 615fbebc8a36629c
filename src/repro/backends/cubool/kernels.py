"""Index-arithmetic kernels of the cuBool backend.

Kronecker product, transpose, sub-matrix extraction and row-reduce are
all data-movement kernels: they compute every output coordinate from
input coordinates with closed-form index arithmetic, launch-dispatched
over the output (or input) entries.
"""

from __future__ import annotations

import numpy as np

from repro.backends import common
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.stream import Stream
from repro.utils.arrays import (
    INDEX_DTYPE,
    rows_from_rowptr,
    rowptr_from_sorted_rows,
)


def kron_csr(
    device: Device,
    stream: Stream,
    a_shape: tuple[int, int],
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Kronecker product in CSR; output is emitted directly in canonical
    order (no sort), sized exactly ``nnz(A) * nnz(B)``."""
    m, n = int(a_shape[0]), int(a_shape[1])
    p, q = int(b_shape[0]), int(b_shape[1])
    out_shape = (m * p, n * q)
    a_rows = rows_from_rowptr(a_rowptr)
    b_rows = rows_from_rowptr(b_rowptr)

    def _kernel(config):
        return common.kron_coo(
            a_rows, a_cols, a_rowptr, b_rows, b_cols, b_shape, b_rowptr
        )

    _kernel.__name__ = "kron_index_arithmetic"
    total = a_cols.size * b_cols.size
    out_rows, out_cols = stream.launch(_kernel, grid_1d(max(1, total), 256))

    rowptr_buf = device.arena.alloc(out_shape[0] + 1, INDEX_DTYPE)
    cols_buf = device.arena.alloc(out_cols.size, INDEX_DTYPE)
    rowptr_buf.data[...] = rowptr_from_sorted_rows(
        out_rows.astype(np.int64), out_shape[0]
    )
    cols_buf.data[...] = out_cols.astype(INDEX_DTYPE)
    return rowptr_buf.data, cols_buf.data, [rowptr_buf, cols_buf]


def transpose_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    rowptr: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list]:
    """CSR transpose: one sort of the packed ``col << 32 | row`` keys
    (the executor's stand-in for the classic CSR→CSC scatter)."""
    n = int(shape[1])
    rows = rows_from_rowptr(rowptr)

    def _kernel(config):
        return common.transpose_coo(rows, cols)

    _kernel.__name__ = "transpose_scatter"
    t_rows, t_cols = stream.launch(_kernel, grid_1d(max(1, cols.size), 256))

    rowptr_buf = device.arena.alloc(n + 1, INDEX_DTYPE)
    cols_buf = device.arena.alloc(t_cols.size, INDEX_DTYPE)
    rowptr_buf.data[...] = rowptr_from_sorted_rows(t_rows, n)
    cols_buf.data[...] = t_cols
    return rowptr_buf.data, cols_buf.data, [rowptr_buf, cols_buf]


def submatrix_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    rowptr: np.ndarray,
    cols: np.ndarray,
    i: int,
    j: int,
    nrows: int,
    ncols: int,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Extract ``A[i : i+nrows, j : j+ncols]``.

    Row selection is a row-pointer slice (free); column filtering is a
    vectorized mask over the selected span only.
    """
    ptr = rowptr.astype(np.int64)
    lo = int(ptr[i])
    hi = int(ptr[i + nrows])

    def _kernel(config):
        span_cols = cols[lo:hi].astype(np.int64)
        span_rows = (
            rows_from_rowptr(rowptr)[lo:hi].astype(np.int64) - i
            if span_cols.size
            else np.empty(0, np.int64)
        )
        mask = (span_cols >= j) & (span_cols < j + ncols)
        return (
            span_rows[mask].astype(INDEX_DTYPE),
            (span_cols[mask] - j).astype(INDEX_DTYPE),
        )

    _kernel.__name__ = "submatrix_filter"
    s_rows, s_cols = stream.launch(_kernel, grid_1d(max(1, hi - lo), 256))

    rowptr_buf = device.arena.alloc(nrows + 1, INDEX_DTYPE)
    cols_buf = device.arena.alloc(s_cols.size, INDEX_DTYPE)
    rowptr_buf.data[...] = rowptr_from_sorted_rows(s_rows.astype(np.int64), nrows)
    cols_buf.data[...] = s_cols
    return rowptr_buf.data, cols_buf.data, [rowptr_buf, cols_buf]


def reduce_to_column_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    rowptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list]:
    """OR-reduce each row to a single column: row i is set iff the row
    is non-empty — a pure row-pointer difference."""
    m = int(shape[0])

    def _kernel(config):
        lens = np.diff(rowptr.astype(np.int64))
        return np.nonzero(lens > 0)[0].astype(INDEX_DTYPE)

    _kernel.__name__ = "reduce_row_nonempty"
    nz_rows = stream.launch(_kernel, grid_1d(max(1, m), 256))

    rowptr_buf = device.arena.alloc(m + 1, INDEX_DTYPE)
    cols_buf = device.arena.alloc(nz_rows.size, INDEX_DTYPE)
    rowptr_buf.data[...] = rowptr_from_sorted_rows(nz_rows.astype(np.int64), m)
    cols_buf.data[...] = 0
    return rowptr_buf.data, cols_buf.data, [rowptr_buf, cols_buf]
