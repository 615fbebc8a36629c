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

    def _adopt(self, shape, buffers) -> BackendMatrix:
        """Wrap device buffers ``[rows, cols]`` without copying."""
        return BackendMatrix(BoolCoo(shape, *(b.data for b in buffers)), self, buffers)

    def _wrap_coo(self, host: BoolCoo) -> BackendMatrix:
        """Move a host COO matrix into device buffers and wrap it."""
        buffers = common.upload_all(self.device.to_device, [host.rows, host.cols])
        return self._adopt(host.shape, buffers)

    def matrix_from_coo(self, rows, cols, shape):
        return self._wrap_coo(BoolCoo.from_coo(rows, cols, shape))

    def matrix_empty(self, shape):
        return self._wrap_coo(BoolCoo.empty(shape))

    def identity(self, n: int) -> BackendMatrix:
        return self._wrap_coo(BoolCoo.identity(n))

    def _launch_emit(self, name: str, work: int, kernel) -> list:
        """One data-movement launch of ``kernel`` over ``work`` items; its
        canonical ``(rows, cols)`` become the exact-sized COO output."""
        kernel.__name__ = name
        rows, cols = self.stream.launch(kernel, grid_1d(max(1, work), 256))
        return common.emit_coo(self.device.arena, rows, cols)

    # -- operations ------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_mxm_shapes(a, b)
        self._check_product_operands((a.nrows, b.ncols), accumulate, mask)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        _, _, buffers = spgemm_boolean_coo(
            self.device,
            self.stream,
            sa.shape,
            sa.rows,
            sa.cols,
            sb.shape,
            sb.rows,
            sb.cols,
            mask=self._keys(mask),
            accumulate=self._keys(accumulate),
        )
        return self._adopt((a.nrows, b.ncols), buffers)

    def ewise_add(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_add", a, b)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        return self._adopt(
            a.shape,
            merge_add_coo(self.device, self.stream, sa.rows, sa.cols, sb.rows, sb.cols),
        )

    def ewise_mult(self, a, b, *, semiring=None):
        """Element-wise AND: single-pass like the add, but the result is
        bounded by min(nnz) so the up-front buffer is the smaller input."""
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_mult", a, b)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        bound = min(sa.nnz, sb.nnz)

        def _kernel(config):
            return coo_from_keys(
                common.merge_intersection(
                    keys_from_coo(sa.rows, sa.cols), keys_from_coo(sb.rows, sb.cols)
                )
            )

        with common.scratch(self.device.arena, (bound, INDEX_DTYPE), (bound, INDEX_DTYPE)):
            buffers = self._launch_emit("merge_path_intersect", bound or 1, _kernel)
        return self._adopt(a.shape, buffers)

    def kron(self, a, b, *, semiring=None, accumulate=None):
        self._resolve_semiring(semiring)
        self._check_kron_accumulate(a, b, accumulate)
        acc_keys = self._keys(accumulate)
        sa: BoolCoo = a.storage
        sb: BoolCoo = b.storage
        # Row pointers for both operands (scratch histogram + scan).
        with common.scratch(
            self.device.arena, (a.nrows + 1, INDEX_DTYPE), (b.nrows + 1, INDEX_DTYPE)
        ) as (a_ptr_buf, b_ptr_buf):
            a_ptr_buf.data[...] = rowptr_from_sorted_rows(sa.rows, a.nrows)
            b_ptr_buf.data[...] = rowptr_from_sorted_rows(sb.rows, b.nrows)

            def _kernel(config):
                return common.kron_coo(
                    sa.rows, sa.cols, a_ptr_buf.data, sb.rows, sb.cols, sb.shape, b_ptr_buf.data,
                    acc_keys,
                )

            buffers = self._launch_emit("kron_index_arithmetic", sa.nnz * sb.nnz, _kernel)
        return self._adopt((a.nrows * b.nrows, a.ncols * b.ncols), buffers)

    def transpose(self, a):
        sa: BoolCoo = a.storage
        buffers = self._launch_emit(
            "transpose_sort", sa.nnz, lambda config: common.transpose_coo(sa.rows, sa.cols)
        )
        return self._adopt((a.ncols, a.nrows), buffers)

    def extract_submatrix(self, a, i, j, nrows, ncols):
        self._check_submatrix(a, i, j, nrows, ncols)
        sa: BoolCoo = a.storage

        def _kernel(config):
            return common.submatrix_coo(sa.rows, sa.cols, i, j, nrows, ncols)

        return self._adopt((nrows, ncols), self._launch_emit("submatrix_filter", sa.nnz, _kernel))

    def reduce_to_column(self, a, *, semiring=None):
        self._resolve_semiring(semiring)
        sa: BoolCoo = a.storage

        def _kernel(config):
            nz_rows = common.reduce_rows_coo(sa.rows)
            return nz_rows, np.zeros(nz_rows.size, INDEX_DTYPE)

        return self._adopt((a.nrows, 1), self._launch_emit("reduce_unique_rows", sa.nnz, _kernel))


register_backend("clbool", lambda device=None: ClBoolBackend(device=device))
