"""Generic value-carrying backend (S6) — the paper's comparison baseline
and the library's native *value semiring* engine.

This backend stands in for "modern libraries" with *generic, not
Boolean-optimized* operations (cuSPARSE / CUSP): the storage layout is
CSR **with an explicit values array**, and every kernel computes and
moves values through the semiring even though a boolean workload only
needs patterns.  It runs the boolean backends' index plans and adds
value planes, so relative to cuBool the delta is the values alone:

* storage: ``nnz`` extra value slots per matrix (float32 by default;
  float64 doubles the gap — both are measured in E0);
* SpGEMM: the boolean expansion (:func:`~repro.backends.common.expand_gather`)
  also gathers both value planes and ⊗-combines them, and compaction
  ⊕-folds coincident products instead of dropping them;
* add: duplicate coordinates ⊕-combine their values instead of
  disappearing into saturation;
* Kronecker: the boolean emission
  (:func:`~repro.backends.common.kron_emission`) also gathers both
  value planes and ⊗-combines them pairwise.

Every ⊕ — SpGEMM compaction, ``ewise_add``, the fused accumulate merge,
duplicate coordinates at construction, and a non-ufunc row reduce —
goes through one fold, :func:`repro.utils.arrays.fold_runs`: a stable
sort by key, then each run of equal keys folds left to right from its
first value, for any callable ⊕.

This backend is also where every *value* algebra (min-plus, max-times,
plus-pair, ...) executes natively: ``semiring=`` threads the ⊕/⊗ pair
through those kernels.  ``semiring=None`` keeps this backend's historic
native algebra, plus-times — which is also what the boolean-vs-generic
benchmarks measure.  The implicit value of an absent entry is always
the semiring's ⊕-identity (``inf`` for min-plus, ``0`` for plus-times),
so sparsity is preserved exactly when ``annihilator == zero``.

The public API exposes this backend so the boolean-vs-generic benchmarks
run both sides through identical machinery; boolean results are
interpreted as patterns (any stored value counts as *true*).
"""

from __future__ import annotations

import numpy as np

from repro.backends import common
from repro.backends.base import Backend, BackendMatrix, register_backend
from repro.core.semiring import PLUS_TIMES, Semiring
from repro.errors import DimensionMismatchError
from repro.formats.valcsr import ValCsr
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.limits import CUDA_LIKE
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    fold_runs,
    keys_from_coo,
    rows_from_rowptr,
)


def _presence_and(a, b):
    """⊗ of the boolean algebra in the value plane: 1 where both present."""
    return np.logical_and(a != 0, b != 0).astype(a.dtype)


class GenericBackend(Backend):
    """Value-carrying CSR backend; any registered semiring, (+, ×) default."""

    name = "generic"
    format_kind = "valcsr"

    def __init__(self, device: Device | None = None, *, value_dtype=np.float32):
        if device is None:
            device = Device(name="generic-dev", limits=CUDA_LIKE)
        super().__init__(device)
        self.value_dtype = np.dtype(value_dtype)
        self.stream = self.device.default_stream

    def _resolve_ops(self, semiring) -> tuple[Semiring, object, object, float]:
        """(semiring, ⊕, ⊗, identity) in the float value plane.

        ``None`` resolves to plus-times (this backend's historic native
        algebra, and what the E0 baseline measures).  Boolean semirings
        map to their arithmetic image over {0, 1} values — max is OR,
        presence-AND is ∧ — so the pattern matches the boolean backends
        exactly while the machinery stays value-carrying.
        """
        s = self._resolve_semiring(PLUS_TIMES if semiring is None else semiring)
        if s.is_boolean:
            return s, np.maximum, _presence_and, 0.0
        return s, (s.add_ufunc if s.add_ufunc is not None else s.add), s.mul, s.zero

    # -- creation ------------------------------------------------------------

    def _adopt(self, shape, buffers) -> BackendMatrix:
        """Wrap device buffers ``[rowptr, cols, values]`` without copying."""
        return BackendMatrix(ValCsr(shape, *(b.data for b in buffers)), self, buffers)

    def _wrap(self, host: ValCsr) -> BackendMatrix:
        buffers = common.upload_all(
            self.device.to_device, [host.rowptr, host.cols, host.values]
        )
        return self._adopt(host.shape, buffers)

    def matrix_from_coo(self, rows, cols, shape):
        return self._wrap(ValCsr.from_coo(rows, cols, shape, dtype=self.value_dtype))

    def matrix_from_coo_values(
        self, rows, cols, shape, values, *, semiring=None
    ) -> BackendMatrix:
        """Create a value matrix; duplicate coordinates ⊕-combine."""
        _, add, _, _ = self._resolve_ops(semiring)
        return self._wrap(
            ValCsr.from_coo(rows, cols, shape, values, dtype=self.value_dtype, combine=add)
        )

    def matrix_from_dense_values(self, dense, *, semiring=None) -> BackendMatrix:
        """Create from a dense array, storing entries that differ from
        the semiring's ⊕-identity (min-plus: every finite weight)."""
        s, _, _, zero = self._resolve_ops(semiring)
        dense = np.asarray(dense, dtype=self.value_dtype)
        if np.isnan(zero):
            explicit = ~np.isnan(dense)
        else:
            explicit = dense != zero
        rows, cols = np.nonzero(explicit)
        return self._wrap(
            ValCsr.from_coo(rows, cols, dense.shape, dense[rows, cols], dtype=self.value_dtype)
        )

    def matrix_to_coo_values(
        self, m: BackendMatrix
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read back (rows, cols, values) in canonical order."""
        m._check_alive()
        s: ValCsr = m.storage
        return rows_from_rowptr(s.rowptr), s.cols.copy(), s.values.copy()

    def matrix_empty(self, shape):
        return self._wrap(ValCsr.empty(shape, dtype=self.value_dtype))

    def duplicate(self, m: BackendMatrix) -> BackendMatrix:
        """Deep copy — values travel with the pattern."""
        rows, cols, values = self.matrix_to_coo_values(m)
        return self._wrap(ValCsr.from_coo(rows, cols, m.shape, values, dtype=self.value_dtype))

    # -- device output assembly ----------------------------------------------

    def _emit(self, shape, rows, cols, values) -> BackendMatrix:
        """Exact device output from canonical coordinate arrays."""
        values = np.asarray(values, self.value_dtype)
        return self._adopt(
            shape, common.emit_csr(self.device.arena, int(shape[0]), rows, cols, values)
        )

    def _times(self, mul, va, vb) -> np.ndarray:
        """⊗ of two value planes gathered through an index plan."""
        with np.errstate(invalid="ignore", over="ignore"):
            return np.asarray(mul(va, vb), dtype=self.value_dtype)

    @staticmethod
    def _keys_values(m: BackendMatrix):
        s: ValCsr = m.storage
        return keys_from_coo(rows_from_rowptr(s.rowptr), s.cols), s.values

    # -- operations ------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        s, add, mul, _ = self._resolve_ops(semiring)
        self._check_mxm_shapes(a, b)
        shape = (a.nrows, b.ncols)
        if accumulate is not None and accumulate.shape != shape:
            raise DimensionMismatchError("mxm-accumulate", accumulate.shape, shape)
        if mask is not None and mask.shape != shape:
            raise DimensionMismatchError("mxm-mask", mask.shape, shape)
        sa: ValCsr = a.storage
        sb: ValCsr = b.storage
        a_rows = rows_from_rowptr(sa.rowptr)
        # Accumulate/mask streams read as-of call time: aliasing with
        # a/b (the fixpoints' C ← C ⊕ C·C) stays safe because nothing
        # below mutates any operand.
        if accumulate is not None:
            acc_keys, acc_vals = self._keys_values(accumulate)
        if mask is not None:
            mask_keys, _ = self._keys_values(mask)

        # The boolean expansion, plus ⊗ of both gathered value planes
        # (the generic-semiring cost).
        def _expand_kernel(config):
            owner, gather = common.expand_gather(sa.cols, sb.rowptr)
            vals = self._times(mul, sa.values[owner], sb.values[gather])
            return a_rows[owner], sb.cols[gather], vals

        _expand_kernel.__name__ = "generic_expand_multiply"
        e_rows, e_cols, e_vals = self.stream.launch(
            _expand_kernel, grid_1d(max(1, sa.nnz), 256)
        )

        # Expansion buffer in global memory: indices + float values.
        n_exp = e_rows.size
        with common.scratch(
            self.device.arena,
            (n_exp, INDEX_DTYPE),
            (n_exp, INDEX_DTYPE),
            (n_exp, self.value_dtype),
        ) as (exp_rows_buf, exp_cols_buf, exp_vals_buf):
            exp_rows_buf.data[...] = e_rows
            exp_cols_buf.data[...] = e_cols
            exp_vals_buf.data[...] = e_vals

            def _sort_reduce_kernel(config):
                return fold_runs(keys_from_coo(e_rows, e_cols), e_vals, add)

            _sort_reduce_kernel.__name__ = "generic_sort_reduce"
            keys_u, vals_u = self.stream.launch(
                _sort_reduce_kernel, grid_1d(max(1, n_exp), 256)
            )

        if mask is not None:
            # Structural complement mask on the sorted product stream.
            keep = ~common.in_sorted(keys_u, mask_keys)
            keys_u, vals_u = keys_u[keep], vals_u[keep]
        if accumulate is None:
            return self._emit(shape, *coo_from_keys(keys_u), vals_u)

        # Fused merge: the product stream, then the accumulate stream,
        # fold into one union straight into the output buffers (no
        # product handle, no ewise_add temporary); a coincident entry
        # is ``product ⊕ accumulate``.
        with np.errstate(invalid="ignore", over="ignore"):
            keys_u, vals_u = fold_runs(
                np.concatenate((keys_u, acc_keys)),
                np.concatenate((vals_u, acc_vals), dtype=self.value_dtype),
                add,
            )

        def _merge_kernel(config):
            return self._emit(shape, *coo_from_keys(keys_u), vals_u)

        _merge_kernel.__name__ = "generic_merge_accumulate_into"
        return self.stream.launch(_merge_kernel, grid_1d(max(1, keys_u.size), 256))

    def ewise_add(self, a, b, *, semiring=None):
        s, add, _, _ = self._resolve_ops(semiring)
        self._check_same_shape("ewise_add", a, b)
        key_a, vals_a = self._keys_values(a)
        key_b, vals_b = self._keys_values(b)

        def _merge_kernel(config):
            """Merge with ⊕-combination at coincident coordinates."""
            keys = np.concatenate((key_a, key_b))
            vals = np.concatenate((vals_a, vals_b), dtype=self.value_dtype)
            with np.errstate(invalid="ignore", over="ignore"):
                return fold_runs(keys, vals, add)

        _merge_kernel.__name__ = "generic_merge_add"
        keys_u, vals_u = self.stream.launch(
            _merge_kernel, grid_1d(max(1, key_a.size + key_b.size), 256)
        )
        return self._emit(a.shape, *coo_from_keys(keys_u), vals_u)

    def ewise_mult(self, a, b, *, semiring=None):
        """Element-wise ⊗: intersect patterns, combine values."""
        s, _, mul, _ = self._resolve_ops(semiring)
        self._check_same_shape("ewise_mult", a, b)
        key_a, vals_a = self._keys_values(a)
        key_b, vals_b = self._keys_values(b)

        def _kernel(config):
            keys = common.merge_intersection(key_a, key_b)
            # Gather both value planes at the shared coordinates.
            pa = np.searchsorted(key_a, keys)
            pb = np.searchsorted(key_b, keys)
            return keys, self._times(mul, vals_a[pa], vals_b[pb])

        _kernel.__name__ = "generic_intersect_multiply"
        keys, vals = self.stream.launch(
            _kernel, grid_1d(max(1, min(key_a.size, key_b.size) or 1), 256)
        )
        return self._emit(a.shape, *coo_from_keys(keys), vals)

    def kron(self, a, b, *, semiring=None):
        s, _, mul, _ = self._resolve_ops(semiring)
        sa: ValCsr = a.storage
        sb: ValCsr = b.storage
        shape = (a.nrows * b.nrows, a.ncols * b.ncols)

        def _kernel(config):
            # The boolean Kronecker emission, plus ⊗ of both value planes
            # gathered at its pairs.
            rows, cols, a_idx, b_idx = common.kron_emission(
                sa.cols, sa.rowptr, sb.cols, sb.shape, sb.rowptr
            )
            return rows, cols, self._times(mul, sa.values[a_idx], sb.values[b_idx])

        _kernel.__name__ = "generic_kron"
        rows, cols, values = self.stream.launch(
            _kernel, grid_1d(max(1, sa.nnz * sb.nnz), 256)
        )
        return self._emit(shape, rows, cols, values)

    def kron_accumulate(self, a, b, accumulate, *, semiring=None):
        # Value-carrying CSR composes (the Backend default); ``None``
        # means plus-times here, so resolve through _resolve_ops first.
        s, _, _, _ = self._resolve_ops(semiring)
        return super().kron_accumulate(a, b, accumulate, semiring=s)

    def transpose(self, a):
        sa: ValCsr = a.storage
        rows = rows_from_rowptr(sa.rowptr)

        def _kernel(config):
            # Packed col << 32 | row keys are distinct: the permutation
            # is unique without a stable sort.
            keys = keys_from_coo(sa.cols, rows)
            order = np.argsort(keys)
            return (*coo_from_keys(keys[order]), sa.values[order])

        _kernel.__name__ = "generic_transpose"
        t_rows, t_cols, t_vals = self.stream.launch(
            _kernel, grid_1d(max(1, sa.nnz), 256)
        )
        return self._emit((a.ncols, a.nrows), t_rows, t_cols, t_vals)

    def extract_submatrix(self, a, i, j, nrows, ncols):
        self._check_submatrix(a, i, j, nrows, ncols)
        sa: ValCsr = a.storage
        rows = rows_from_rowptr(sa.rowptr).astype(np.int64)
        cols = sa.cols.astype(np.int64)

        def _kernel(config):
            mask = (rows >= i) & (rows < i + nrows) & (cols >= j) & (cols < j + ncols)
            return rows[mask] - i, cols[mask] - j, sa.values[mask]

        _kernel.__name__ = "generic_submatrix"
        s_rows, s_cols, s_vals = self.stream.launch(
            _kernel, grid_1d(max(1, sa.nnz), 256)
        )
        return self._emit((nrows, ncols), s_rows, s_cols, s_vals)

    def reduce_to_column(self, a, *, semiring=None):
        """Row ⊕-reduce (default: sum), pattern = non-empty rows."""
        s, add, _, _ = self._resolve_ops(semiring)
        sa: ValCsr = a.storage

        def _kernel(config):
            if not isinstance(add, np.ufunc):
                return fold_runs(rows_from_rowptr(sa.rowptr), sa.values, add)
            # A ufunc ⊕ reduces each row as the dense reference's
            # ``add.reduce`` does (pairwise for ``np.add``).
            lens = np.diff(sa.rowptr.astype(np.int64))
            nz = np.nonzero(lens > 0)[0]
            if not nz.size:
                return nz, np.empty(0, dtype=self.value_dtype)
            starts = sa.rowptr.astype(np.int64)[nz]
            with np.errstate(invalid="ignore", over="ignore"):
                return nz, add.reduceat(sa.values, starts)

        _kernel.__name__ = "generic_reduce_sum"
        nz_rows, sums = self.stream.launch(_kernel, grid_1d(max(1, a.nrows), 256))
        zeros = np.zeros(nz_rows.size, dtype=np.int64)
        return self._emit((a.nrows, 1), nz_rows.astype(np.int64), zeros, sums)


register_backend("generic", lambda device=None: GenericBackend(device=device))
register_backend(
    "generic64",
    lambda device=None: GenericBackend(device=device, value_dtype=np.float64),
)
