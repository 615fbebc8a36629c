"""The cuBool backend class: boolean CSR matrices on a simulated CUDA device."""

from __future__ import annotations

from repro.backends.base import Backend, BackendMatrix, register_backend
from repro.backends.common import upload_all
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

    def _adopt(self, shape, buffers) -> BackendMatrix:
        """Wrap device buffers ``[rowptr, cols]`` without copying."""
        return BackendMatrix(BoolCsr(shape, *(b.data for b in buffers)), self, buffers)

    def _wrap_csr(self, host: BoolCsr) -> BackendMatrix:
        """Move a host CSR matrix into device buffers and wrap it."""
        buffers = upload_all(self.device.to_device, [host.rowptr, host.cols])
        return self._adopt(host.shape, buffers)

    def matrix_from_coo(self, rows, cols, shape):
        return self._wrap_csr(BoolCsr.from_coo(rows, cols, shape))

    def matrix_empty(self, shape):
        return self._wrap_csr(BoolCsr.empty(shape))

    def identity(self, n: int) -> BackendMatrix:
        return self._wrap_csr(BoolCsr.identity(n))

    # -- operations ------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_mxm_shapes(a, b)
        self._check_product_operands((a.nrows, b.ncols), accumulate, mask)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        _, _, buffers = spgemm_boolean_csr(
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
            mask=self._keys(mask),
            accumulate=self._keys(accumulate),
        )
        return self._adopt((a.nrows, b.ncols), buffers)

    def ewise_add(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_add", a, b)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        return self._adopt(
            a.shape,
            ewise_add_csr(
                self.device, self.stream, sa.shape, sa.rowptr, sa.cols, sb.rowptr, sb.cols
            ),
        )

    def ewise_mult(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_mult", a, b)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        return self._adopt(
            a.shape,
            ewise_mult_csr(
                self.device, self.stream, sa.shape, sa.rowptr, sa.cols, sb.rowptr, sb.cols
            ),
        )

    def kron(self, a, b, *, semiring=None, accumulate=None):
        self._resolve_semiring(semiring)
        self._check_kron_accumulate(a, b, accumulate)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        buffers = kernels.kron_csr(
            self.device,
            self.stream,
            sa.shape,
            sa.rowptr,
            sa.cols,
            sb.shape,
            sb.rowptr,
            sb.cols,
            accumulate=self._keys(accumulate),
        )
        return self._adopt((a.nrows * b.nrows, a.ncols * b.ncols), buffers)

    def transpose(self, a):
        sa: BoolCsr = a.storage
        buffers = kernels.transpose_csr(
            self.device, self.stream, sa.shape, sa.rowptr, sa.cols
        )
        return self._adopt((a.ncols, a.nrows), buffers)

    def extract_submatrix(self, a, i, j, nrows, ncols):
        self._check_submatrix(a, i, j, nrows, ncols)
        sa: BoolCsr = a.storage
        buffers = kernels.submatrix_csr(
            self.device, self.stream, sa.shape, sa.rowptr, sa.cols, i, j, nrows, ncols
        )
        return self._adopt((nrows, ncols), buffers)

    def reduce_to_column(self, a, *, semiring=None):
        self._resolve_semiring(semiring)
        sa: BoolCsr = a.storage
        buffers = kernels.reduce_to_column_csr(
            self.device, self.stream, sa.shape, sa.rowptr
        )
        return self._adopt((a.nrows, 1), buffers)


register_backend("cubool", lambda device=None: CuBoolBackend(device=device))
