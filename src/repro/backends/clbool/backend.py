"""The clBool backend class: boolean COO matrices on a simulated OpenCL device."""

from __future__ import annotations

import numpy as np

from repro.backends import common
from repro.backends.base import Backend, BackendMatrix, register_backend
from repro.backends.clbool.merge_add import merge_add_coo
from repro.backends.clbool.spgemm_esc import spgemm_boolean_coo
from repro.formats.coo import BoolCoo
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.limits import OPENCL_LIKE
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    keys_from_coo,
    rowptr_from_sorted_rows,
)


class ClBoolBackend(Backend):
    """Boolean COO backend following clBool's algorithm choices."""

    name = "clbool"
    format_kind = "coo"
    boolean_only = True

    def __init__(self, device: Device | None = None):
        if device is None:
            device = Device(name="clbool-dev", limits=OPENCL_LIKE)
        super().__init__(device)
        self.stream = self.device.default_stream

    # -- creation ------------------------------------------------------------

    def _wrap_coo(self, shape, rows: np.ndarray, cols: np.ndarray) -> BackendMatrix:
        rows_buf = self.device.to_device(rows)
        cols_buf = self.device.to_device(cols)
        storage = BoolCoo(shape, rows_buf.data, cols_buf.data)
        return BackendMatrix(storage, self, [rows_buf, cols_buf])

    def _adopt_coo(self, shape, rows, cols, buffers) -> BackendMatrix:
        return BackendMatrix(BoolCoo(shape, rows, cols), self, buffers)

    def matrix_from_coo(self, rows, cols, shape):
        host = BoolCoo.from_coo(rows, cols, shape)
        return self._wrap_coo(shape, host.rows, host.cols)

    def matrix_empty(self, shape):
        host = BoolCoo.empty(shape)
        return self._wrap_coo(shape, host.rows, host.cols)

    def identity(self, n: int) -> BackendMatrix:
        host = BoolCoo.identity(n)
        return self._wrap_coo((n, n), host.rows, host.cols)

    # -- operations ------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_mxm_shapes(a, b)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        rows, cols, buffers = spgemm_boolean_coo(
            self.device,
            self.stream,
            sa.shape,
            sa.rows,
            sa.cols,
            sb.shape,
            sb.rows,
            sb.cols,
        )
        shape = (a.nrows, b.ncols)
        product = self._adopt_coo(shape, rows, cols, buffers)
        if mask is not None:
            product = self._apply_complement_mask(product, mask)
        if accumulate is None:
            return product
        self._check_same_shape("mxm-accumulate", accumulate, product)
        try:
            return self.ewise_add(product, accumulate)
        finally:
            product.free()

    def ewise_add(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_add", a, b)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        rows, cols, buffers = merge_add_coo(
            self.device, self.stream, sa.rows, sa.cols, sb.rows, sb.cols
        )
        return self._adopt_coo(a.shape, rows, cols, buffers)

    def ewise_mult(self, a, b, *, semiring=None):
        """Element-wise AND: single-pass like the add, but the result is
        bounded by min(nnz) so the up-front buffer is the smaller input."""
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_mult", a, b)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        bound = min(sa.nnz, sb.nnz)
        out_rows_buf = self.device.arena.alloc(bound, INDEX_DTYPE)
        out_cols_buf = self.device.arena.alloc(bound, INDEX_DTYPE)

        def _kernel(config):
            return common.merge_intersection(
                keys_from_coo(sa.rows, sa.cols), keys_from_coo(sb.rows, sb.cols)
            )

        _kernel.__name__ = "merge_path_intersect"
        keys = self.stream.launch(_kernel, grid_1d(max(1, bound or 1), 256))
        rows_buf = self.device.arena.alloc(keys.size, INDEX_DTYPE)
        cols_buf = self.device.arena.alloc(keys.size, INDEX_DTYPE)
        if keys.size:
            rows_buf.data[...], cols_buf.data[...] = coo_from_keys(keys)
        out_rows_buf.free()
        out_cols_buf.free()
        return self._adopt_coo(a.shape, rows_buf.data, cols_buf.data, [rows_buf, cols_buf])

    def kron(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        shape = (a.nrows * b.nrows, a.ncols * b.ncols)

        # Row pointers for both operands (scratch histogram + scan).
        a_ptr_buf = self.device.arena.alloc(a.nrows + 1, INDEX_DTYPE)
        b_ptr_buf = self.device.arena.alloc(b.nrows + 1, INDEX_DTYPE)
        try:
            a_ptr_buf.data[...] = rowptr_from_sorted_rows(sa.rows, a.nrows)
            b_ptr_buf.data[...] = rowptr_from_sorted_rows(sb.rows, b.nrows)

            def _kernel(config):
                return common.kron_coo(
                    sa.rows,
                    sa.cols,
                    a_ptr_buf.data,
                    sb.rows,
                    sb.cols,
                    sb.shape,
                    b_ptr_buf.data,
                )

            _kernel.__name__ = "kron_index_arithmetic"
            total = sa.nnz * sb.nnz
            out_rows, out_cols = self.stream.launch(
                _kernel, grid_1d(max(1, total), 256)
            )
            rows_buf = self.device.arena.alloc(out_rows.size, INDEX_DTYPE)
            cols_buf = self.device.arena.alloc(out_cols.size, INDEX_DTYPE)
            if out_rows.size:
                rows_buf.data[...] = out_rows
                cols_buf.data[...] = out_cols
        finally:
            a_ptr_buf.free()
            b_ptr_buf.free()
        return self._adopt_coo(shape, rows_buf.data, cols_buf.data, [rows_buf, cols_buf])

    def transpose(self, a):
        sa: BoolCoo = a.storage

        def _kernel(config):
            return common.transpose_coo(sa.rows, sa.cols)

        _kernel.__name__ = "transpose_sort"
        t_rows, t_cols = self.stream.launch(_kernel, grid_1d(max(1, sa.nnz), 256))
        rows_buf = self.device.arena.alloc(t_rows.size, INDEX_DTYPE)
        cols_buf = self.device.arena.alloc(t_cols.size, INDEX_DTYPE)
        if t_rows.size:
            rows_buf.data[...] = t_rows
            cols_buf.data[...] = t_cols
        return self._adopt_coo(
            (a.ncols, a.nrows), rows_buf.data, cols_buf.data, [rows_buf, cols_buf]
        )

    def extract_submatrix(self, a, i, j, nrows, ncols):
        self._check_submatrix(a, i, j, nrows, ncols)
        sa: BoolCoo = a.storage

        def _kernel(config):
            return common.submatrix_coo(sa.rows, sa.cols, i, j, nrows, ncols)

        _kernel.__name__ = "submatrix_filter"
        s_rows, s_cols = self.stream.launch(_kernel, grid_1d(max(1, sa.nnz), 256))
        rows_buf = self.device.arena.alloc(s_rows.size, INDEX_DTYPE)
        cols_buf = self.device.arena.alloc(s_cols.size, INDEX_DTYPE)
        if s_rows.size:
            rows_buf.data[...] = s_rows
            cols_buf.data[...] = s_cols
        return self._adopt_coo(
            (nrows, ncols), rows_buf.data, cols_buf.data, [rows_buf, cols_buf]
        )

    def reduce_to_column(self, a, *, semiring=None):
        self._resolve_semiring(semiring)
        sa: BoolCoo = a.storage

        def _kernel(config):
            return common.reduce_rows_coo(sa.rows)

        _kernel.__name__ = "reduce_unique_rows"
        nz_rows = self.stream.launch(_kernel, grid_1d(max(1, sa.nnz), 256))
        rows_buf = self.device.arena.alloc(nz_rows.size, INDEX_DTYPE)
        cols_buf = self.device.arena.alloc(nz_rows.size, INDEX_DTYPE)
        if nz_rows.size:
            rows_buf.data[...] = nz_rows
            cols_buf.data[...] = 0
        return self._adopt_coo(
            (a.nrows, 1), rows_buf.data, cols_buf.data, [rows_buf, cols_buf]
        )


register_backend("clbool", lambda device=None: ClBoolBackend(device=device))
