"""The cuBool backend class: boolean CSR matrices on a simulated CUDA device."""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, BackendMatrix, register_backend
from repro.backends.cubool import kernels
from repro.backends.cubool.ewise_add import ewise_add_csr, ewise_mult_csr
from repro.backends.cubool.spgemm_hash import DEFAULT_BIN_BOUNDS, spgemm_boolean_csr
from repro.formats.csr import BoolCsr
from repro.gpu.limits import CUDA_LIKE
from repro.gpu.device import Device


class CuBoolBackend(Backend):
    """Boolean CSR backend following cuBool's algorithm choices.

    Matrix storage lives in the device arena: creating a matrix
    allocates its ``rowptr``/``cols`` buffers, freeing the handle
    releases them — so ``backend.device.arena`` reports live/peak
    footprints that model GPU global memory.

    Ablation switches (E9): ``bin_bounds`` overrides the row-size bin
    boundaries of the SpGEMM dispatcher; ``use_binning=False`` disables
    binning entirely (single global-table configuration).
    """

    name = "cubool"
    format_kind = "csr"
    boolean_only = True

    def __init__(
        self,
        device: Device | None = None,
        *,
        bin_bounds: tuple[int, ...] | None = None,
        use_binning: bool = True,
    ):
        if device is None:
            device = Device(name="cubool-dev", limits=CUDA_LIKE)
        super().__init__(device)
        self.bin_bounds = bin_bounds
        self.use_binning = use_binning
        self.stream = self.device.default_stream

    # -- creation ------------------------------------------------------------

    def _wrap_csr(self, shape, rowptr: np.ndarray, cols: np.ndarray) -> BackendMatrix:
        """Move host CSR arrays into device buffers and wrap in a handle."""
        rowptr_buf = self.device.to_device(rowptr)
        cols_buf = self.device.to_device(cols)
        storage = BoolCsr(shape, rowptr_buf.data, cols_buf.data)
        return BackendMatrix(storage, self, [rowptr_buf, cols_buf])

    def _adopt_csr(self, shape, rowptr, cols, buffers) -> BackendMatrix:
        """Wrap kernel-produced device arrays without copying."""
        return BackendMatrix(BoolCsr(shape, rowptr, cols), self, buffers)

    def matrix_from_coo(self, rows, cols, shape):
        host = BoolCsr.from_coo(rows, cols, shape)
        return self._wrap_csr(shape, host.rowptr, host.cols)

    def matrix_empty(self, shape):
        host = BoolCsr.empty(shape)
        return self._wrap_csr(shape, host.rowptr, host.cols)

    def identity(self, n: int) -> BackendMatrix:
        host = BoolCsr.identity(n)
        return self._wrap_csr((n, n), host.rowptr, host.cols)

    # -- operations ------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_mxm_shapes(a, b)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        rowptr, cols, buffers = spgemm_boolean_csr(
            self.device,
            self.stream,
            sa.shape,
            sa.rowptr,
            sa.cols,
            sb.shape,
            sb.rowptr,
            sb.cols,
            bin_bounds=self.bin_bounds or DEFAULT_BIN_BOUNDS,
            use_binning=self.use_binning,
        )
        shape = (a.nrows, b.ncols)
        product = self._adopt_csr(shape, rowptr, cols, buffers)
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
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        rowptr, cols, buffers = ewise_add_csr(
            self.device, self.stream, sa.shape, sa.rowptr, sa.cols, sb.rowptr, sb.cols
        )
        return self._adopt_csr(a.shape, rowptr, cols, buffers)

    def ewise_mult(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_mult", a, b)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        rowptr, cols, buffers = ewise_mult_csr(
            self.device, self.stream, sa.shape, sa.rowptr, sa.cols, sb.rowptr, sb.cols
        )
        return self._adopt_csr(a.shape, rowptr, cols, buffers)

    def kron(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        rowptr, cols, buffers = kernels.kron_csr(
            self.device,
            self.stream,
            sa.shape,
            sa.rowptr,
            sa.cols,
            sb.shape,
            sb.rowptr,
            sb.cols,
        )
        shape = (a.nrows * b.nrows, a.ncols * b.ncols)
        return self._adopt_csr(shape, rowptr, cols, buffers)

    def transpose(self, a):
        sa: BoolCsr = a.storage
        rowptr, cols, buffers = kernels.transpose_csr(
            self.device, self.stream, sa.shape, sa.rowptr, sa.cols
        )
        return self._adopt_csr((a.ncols, a.nrows), rowptr, cols, buffers)

    def extract_submatrix(self, a, i, j, nrows, ncols):
        self._check_submatrix(a, i, j, nrows, ncols)
        sa: BoolCsr = a.storage
        rowptr, cols, buffers = kernels.submatrix_csr(
            self.device, self.stream, sa.shape, sa.rowptr, sa.cols, i, j, nrows, ncols
        )
        return self._adopt_csr((nrows, ncols), rowptr, cols, buffers)

    def reduce_to_column(self, a, *, semiring=None):
        self._resolve_semiring(semiring)
        sa: BoolCsr = a.storage
        rowptr, cols, buffers = kernels.reduce_to_column_csr(
            self.device, self.stream, sa.shape, sa.rowptr
        )
        return self._adopt_csr((a.nrows, 1), rowptr, cols, buffers)


register_backend("cubool", lambda device=None: CuBoolBackend(device=device))
