"""Sequential CPU reference backend (S5) — the correctness oracle.

This backend favours clarity over performance: every operation is the
obvious sort-based formulation over canonical COO coordinates, with no
device accounting and no binning/merge machinery.  The test suite
checks every other backend against it, and it doubles as SPbLA's "CPU
compute fallback" (the paper notes cuBool ships a CPU backend too).
Its product is the one boolean core
(:func:`repro.backends.common.bool_spgemm_keys`, then
:func:`repro.backends.common.masked_union`) with no launch plan around
it, so for ``mxm`` and the Kronecker accumulate the dense NumPy oracles
of the tests are the independent check.
"""

from __future__ import annotations

import numpy as np

from repro.backends import common
from repro.backends.base import Backend, BackendMatrix, register_backend
from repro.formats.csr import BoolCsr
from repro.utils.arrays import INDEX_DTYPE, coo_from_keys, keys_from_coo


class CpuBackend(Backend):
    """Reference implementation over boolean CSR, host memory only."""

    name = "cpu"
    format_kind = "csr"
    boolean_only = True

    # -- creation ------------------------------------------------------------

    def matrix_from_coo(self, rows, cols, shape):
        return BackendMatrix(BoolCsr.from_coo(rows, cols, shape), self)

    def matrix_empty(self, shape):
        return BackendMatrix(BoolCsr.empty(shape), self)

    def identity(self, n: int) -> BackendMatrix:
        return BackendMatrix(BoolCsr.identity(n), self)

    # -- operations ------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_mxm_shapes(a, b)
        shape = (a.nrows, b.ncols)
        self._check_product_operands(shape, accumulate, mask)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        keys = common.masked_union(
            common.bool_spgemm_keys(*sa.to_coo_arrays(), sb.rowptr, sb.cols),
            self._keys(mask),
            self._keys(accumulate),
        )
        return BackendMatrix(BoolCsr.from_coo(*coo_from_keys(keys), shape), self)

    def ewise_add(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_add", a, b)
        ra, ca = a.storage.to_coo_arrays()
        rb, cb = b.storage.to_coo_arrays()
        rows = np.concatenate([ra, rb])
        cols = np.concatenate([ca, cb])
        return BackendMatrix(BoolCsr.from_coo(rows, cols, a.shape), self)

    def ewise_mult(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_mult", a, b)
        ra, ca = a.storage.to_coo_arrays()
        rb, cb = b.storage.to_coo_arrays()
        keys = common.merge_intersection(keys_from_coo(ra, ca), keys_from_coo(rb, cb))
        rows, cols = coo_from_keys(keys)
        return BackendMatrix(BoolCsr.from_coo(rows, cols, a.shape), self)

    def kron(self, a, b, *, semiring=None, accumulate=None):
        self._resolve_semiring(semiring)
        self._check_kron_accumulate(a, b, accumulate)
        sa: BoolCsr = a.storage
        sb: BoolCsr = b.storage
        a_rows, a_cols = sa.to_coo_arrays()
        b_rows, b_cols = sb.to_coo_arrays()
        out_rows, out_cols = common.kron_coo(
            a_rows, a_cols, sa.rowptr, b_rows, b_cols, sb.shape, sb.rowptr,
            self._keys(accumulate),
        )
        shape = (a.nrows * b.nrows, a.ncols * b.ncols)
        return BackendMatrix(BoolCsr.from_coo(out_rows, out_cols, shape), self)

    def transpose(self, a):
        rows, cols = a.storage.to_coo_arrays()
        t_rows, t_cols = common.transpose_coo(rows, cols)
        return BackendMatrix(
            BoolCsr.from_coo(t_rows, t_cols, (a.ncols, a.nrows)), self
        )

    def extract_submatrix(self, a, i, j, nrows, ncols):
        self._check_submatrix(a, i, j, nrows, ncols)
        rows, cols = a.storage.to_coo_arrays()
        s_rows, s_cols = common.submatrix_coo(rows, cols, i, j, nrows, ncols)
        return BackendMatrix(
            BoolCsr.from_coo(s_rows, s_cols, (nrows, ncols)), self
        )

    def reduce_to_column(self, a, *, semiring=None):
        self._resolve_semiring(semiring)
        rows, _ = a.storage.to_coo_arrays()
        nz_rows = common.reduce_rows_coo(rows)
        zeros = np.zeros(nz_rows.size, dtype=INDEX_DTYPE)
        return BackendMatrix(
            BoolCsr.from_coo(nz_rows, zeros, (a.nrows, 1)), self
        )


register_backend("cpu", lambda device=None: CpuBackend(device=device))
