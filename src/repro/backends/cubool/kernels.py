"""Index-arithmetic kernels of the cuBool backend.

Kronecker product, transpose, sub-matrix extraction and row-reduce are
all data-movement kernels: they compute every output coordinate from
input coordinates with closed-form index arithmetic, launch-dispatched
over the output (or input) entries, then emit the exact-sized CSR
output (:func:`repro.backends.common.emit_csr`).  Each returns the
output's device buffers ``[rowptr, cols]``.
"""

from __future__ import annotations

import numpy as np

from repro.backends import common
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.memory import DeviceBuffer
from repro.gpu.stream import Stream
from repro.utils.arrays import INDEX_DTYPE, rows_from_rowptr


def kron_csr(
    device: Device,
    stream: Stream,
    a_shape: tuple[int, int],
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
    accumulate: np.ndarray | None = None,
) -> list[DeviceBuffer]:
    """Kronecker product in CSR, ``accumulate ∨ (A ⊗ B)`` when the
    accumulator's sorted keys are given.  The product is emitted in
    canonical order (no sort), so without an accumulator the output is
    sized exactly ``nnz(A) * nnz(B)``; with one, its keys merge into
    the emission before the output is sized."""
    a_rows = rows_from_rowptr(a_rowptr)
    b_rows = rows_from_rowptr(b_rowptr)

    def _kernel(config):
        return common.kron_coo(
            a_rows, a_cols, a_rowptr, b_rows, b_cols, b_shape, b_rowptr, accumulate
        )

    _kernel.__name__ = "kron_index_arithmetic"
    total = a_cols.size * b_cols.size
    out_rows, out_cols = stream.launch(_kernel, grid_1d(max(1, total), 256))
    return common.emit_csr(device.arena, int(a_shape[0]) * int(b_shape[0]), out_rows, out_cols)


def transpose_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    rowptr: np.ndarray,
    cols: np.ndarray,
) -> list[DeviceBuffer]:
    """CSR transpose: one sort of the packed ``col << 32 | row`` keys
    (the executor's stand-in for the classic CSR→CSC scatter)."""
    rows = rows_from_rowptr(rowptr)

    def _kernel(config):
        return common.transpose_coo(rows, cols)

    _kernel.__name__ = "transpose_scatter"
    t_rows, t_cols = stream.launch(_kernel, grid_1d(max(1, cols.size), 256))
    return common.emit_csr(device.arena, int(shape[1]), t_rows, t_cols)


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
) -> list[DeviceBuffer]:
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
        return span_rows[mask], span_cols[mask] - j

    _kernel.__name__ = "submatrix_filter"
    s_rows, s_cols = stream.launch(_kernel, grid_1d(max(1, hi - lo), 256))
    return common.emit_csr(device.arena, nrows, s_rows, s_cols)


def reduce_to_column_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    rowptr: np.ndarray,
) -> list[DeviceBuffer]:
    """OR-reduce each row to a single column: row i is set iff the row
    is non-empty — a pure row-pointer difference."""
    m = int(shape[0])

    def _kernel(config):
        return np.nonzero(np.diff(rowptr.astype(np.int64)) > 0)[0]

    _kernel.__name__ = "reduce_row_nonempty"
    nz_rows = stream.launch(_kernel, grid_1d(max(1, m), 256))
    return common.emit_csr(
        device.arena, m, nz_rows, np.zeros(nz_rows.size, INDEX_DTYPE)
    )
