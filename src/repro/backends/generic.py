"""Generic value-carrying backend (S6) — the paper's comparison baseline
and the library's native *value semiring* engine.

This backend stands in for "modern libraries" with *generic, not
Boolean-optimized* operations (cuSPARSE / CUSP): the storage layout is
CSR **with an explicit values array**, and every kernel computes and
moves values through the semiring even though a boolean workload only
needs patterns.  Concretely, relative to cuBool:

* storage: ``nnz`` extra value slots per matrix (float32 by default;
  float64 doubles the gap — both are measured in E0);
* SpGEMM: the candidate expansion carries ⊗-combined values, and
  compaction performs a segmented ⊕-reduce instead of a drop;
* add: duplicate coordinates ⊕-combine their values instead of
  disappearing into saturation;
* Kronecker: values are ⊗-combined pairwise.

Since the semiring refactor this backend is also where every *value*
algebra (min-plus, max-times, plus-pair, ...) executes natively:
``semiring=`` threads the ⊕/⊗ pair and the ⊕-identity through the
expansion, compaction, and merge kernels.  ``semiring=None`` keeps this
backend's historic native algebra, plus-times — which is also what the
boolean-vs-generic benchmarks measure.  The implicit value of an absent
entry is always the semiring's ⊕-identity (``inf`` for min-plus, ``0``
for plus-times), so sparsity is preserved exactly when
``annihilator == zero``.

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
    keys_from_coo,
    merge_union,
    rows_from_rowptr,
)


def _presence_and(a, b):
    """⊗ of the boolean algebra in the value plane: 1 where both present."""
    return np.logical_and(a != 0, b != 0).astype(a.dtype)


def merge_accumulate(union_keys, keys_p, vals_p, keys_acc, vals_acc, add, zero, dtype):
    """Fused accumulate merge: scatter both streams into one value plane.

    ``union_keys`` is the sorted unique union of ``keys_p`` (the masked
    product stream) and ``keys_acc`` (the accumulate pattern, read
    as-of call time).  Product values land first, accumulate values
    ⊕-combine on top; positions touched by only one stream meet the
    ⊕-identity seeded into the plane.  One pass, no product
    temporary — the valcsr analogue of the bit path's ``mxm_into``.
    """
    out_vals = np.full(union_keys.size, zero, dtype=dtype)
    if keys_p.size:
        out_vals[np.searchsorted(union_keys, keys_p)] = vals_p
    if keys_acc.size:
        pos = np.searchsorted(union_keys, keys_acc)
        out_vals[pos] = add(out_vals[pos], vals_acc)
    return out_vals


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
        mul = None if s.mul is np.multiply else s.mul
        return s, (s.add_ufunc if s.add_ufunc is not None else s.add), mul, s.zero

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
        combine = add if isinstance(add, np.ufunc) else None
        return self._wrap(
            ValCsr.from_coo(rows, cols, shape, values, dtype=self.value_dtype, combine=combine)
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

    # -- shared segment machinery ---------------------------------------------

    def _segment_reduce(self, keys, vals, add, zero):
        """Sort by key and ⊕-reduce coincident values (the cuSPARSE-style
        sort-compaction, generalized from segmented sum to any monoid)."""
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        vals_s = vals[order].astype(self.value_dtype)
        if keys_s.size == 0:
            return keys_s, vals_s
        new_seg = np.empty(keys_s.size, dtype=bool)
        new_seg[0] = True
        np.not_equal(keys_s[1:], keys_s[:-1], out=new_seg[1:])
        seg_idx = np.cumsum(new_seg) - 1
        nseg = int(seg_idx[-1]) + 1
        reduced = np.full(nseg, zero, dtype=self.value_dtype)
        if isinstance(add, np.ufunc):
            add.at(reduced, seg_idx, vals_s)
        else:
            starts = np.flatnonzero(new_seg)
            ends = np.append(starts[1:], keys_s.size)
            for si in range(nseg):
                acc = vals_s[starts[si]]
                for v in vals_s[starts[si] + 1 : ends[si]]:
                    acc = add(acc, v)
                reduced[si] = acc
        return keys_s[new_seg], reduced

    @staticmethod
    def _keys_values(m: BackendMatrix):
        s: ValCsr = m.storage
        return keys_from_coo(rows_from_rowptr(s.rowptr), s.cols), s.values

    # -- operations ------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        s, add, mul, zero = self._resolve_ops(semiring)
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
            acc_vals = acc_vals.astype(self.value_dtype, copy=True)
        if mask is not None:
            mask_keys, _ = self._keys_values(mask)

        # Expansion with ⊗-combined values (the generic-semiring cost).
        def _expand_kernel(config):
            owner, gather = common.expand_gather(sa.cols, sb.rowptr)
            av, bv = sa.values[owner], sb.values[gather]
            with np.errstate(invalid="ignore", over="ignore"):
                vals = av * bv if mul is None else mul(av, bv).astype(bv.dtype, copy=False)
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
                keys = keys_from_coo(e_rows, e_cols)
                return self._segment_reduce(keys, e_vals, add, zero)

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

        # Fused merge: one union pass straight into the output buffers
        # (no product handle, no ewise_add temporary).
        union_keys = merge_union(keys_u, acc_keys)

        def _merge_kernel(config):
            with np.errstate(invalid="ignore", over="ignore"):
                vals = merge_accumulate(
                    union_keys, keys_u, vals_u, acc_keys, acc_vals, add, zero,
                    self.value_dtype,
                )
            return self._emit(shape, *coo_from_keys(union_keys), vals)

        _merge_kernel.__name__ = "generic_merge_accumulate_into"
        return self.stream.launch(_merge_kernel, grid_1d(max(1, union_keys.size), 256))

    def ewise_add(self, a, b, *, semiring=None):
        s, add, _, zero = self._resolve_ops(semiring)
        self._check_same_shape("ewise_add", a, b)
        key_a, vals_a = self._keys_values(a)
        key_b, vals_b = self._keys_values(b)

        def _merge_kernel(config):
            """Merge with ⊕-combination at coincident coordinates."""
            keys = np.concatenate([key_a, key_b])
            vals = np.concatenate(
                [
                    vals_a.astype(self.value_dtype),
                    vals_b.astype(self.value_dtype),
                ]
            )
            with np.errstate(invalid="ignore", over="ignore"):
                return self._segment_reduce(keys, vals, add, zero)

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
            with np.errstate(invalid="ignore", over="ignore"):
                va, vb = vals_a[pa], vals_b[pb]
                vals = (va * vb if mul is None else mul(va, vb)).astype(
                    self.value_dtype
                )
            return keys, vals

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
        a_rows = rows_from_rowptr(sa.rowptr)
        b_rows = rows_from_rowptr(sb.rowptr)

        def _kernel(config):
            out_rows, out_cols = common.kron_coo(
                a_rows, sa.cols, sa.rowptr, b_rows, sb.cols, sb.shape, sb.rowptr
            )
            # Pairwise value products in emission order: the kron_coo
            # emission enumerates (a-entry, b-entry) pairs as
            # (i, k, a_local, b_local); reconstruct the same gather.
            # Recompute the gather indices to stay in lockstep.
            return out_rows, out_cols

        _kernel.__name__ = "generic_kron"
        out_rows, out_cols = self.stream.launch(
            _kernel, grid_1d(max(1, sa.nnz * sb.nnz), 256)
        )
        # Values: kron emission order is (i, k, j-local, l-local); the
        # value of each output entry is a_val ⊗ b_val for the generating
        # pair.  Recover via the same index arithmetic used by kron_coo.
        values = _kron_values(sa, sb, self.value_dtype, mul)
        return self._emit(
            shape, out_rows.astype(np.int64), out_cols.astype(np.int64), values
        )

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
            lens = np.diff(sa.rowptr.astype(np.int64))
            nz = np.nonzero(lens > 0)[0]
            if not nz.size:
                return nz, np.empty(0, dtype=self.value_dtype)
            starts = sa.rowptr.astype(np.int64)[nz]
            if isinstance(add, np.ufunc):
                with np.errstate(invalid="ignore", over="ignore"):
                    sums = add.reduceat(sa.values, starts)
            else:
                sums = np.empty(nz.size, dtype=self.value_dtype)
                ends = np.append(starts[1:], sa.values.size)
                for si in range(nz.size):
                    acc = sa.values[starts[si]]
                    for v in sa.values[starts[si] + 1 : ends[si]]:
                        acc = add(acc, v)
                    sums[si] = acc
            return nz, sums

        _kernel.__name__ = "generic_reduce_sum"
        nz_rows, sums = self.stream.launch(_kernel, grid_1d(max(1, a.nrows), 256))
        zeros = np.zeros(nz_rows.size, dtype=np.int64)
        return self._emit(
            (a.nrows, 1), nz_rows.astype(np.int64), zeros, np.asarray(sums, self.value_dtype)
        )


def _kron_values(sa: ValCsr, sb: ValCsr, dtype, mul=None) -> np.ndarray:
    """Value plane of the Kronecker product in canonical emission order."""
    from repro.utils.arrays import concat_ranges, segment_ids

    a_lens = np.diff(sa.rowptr.astype(np.int64))
    b_lens = np.diff(sb.rowptr.astype(np.int64))
    m, p = a_lens.size, b_lens.size
    if sa.nnz == 0 or sb.nnz == 0:
        return np.empty(0, dtype=dtype)
    k_row_lens = np.multiply.outer(a_lens, b_lens).ravel()
    total = int(k_row_lens.sum())
    if total == 0:
        return np.empty(0, dtype=dtype)
    t = concat_ranges(np.zeros(m * p, dtype=np.int64), k_row_lens)
    r = segment_ids(k_row_lens)
    i = r // p
    k = r % p
    lb = b_lens[k]
    a_local = t // lb
    b_local = t - a_local * lb
    a_idx = sa.rowptr.astype(np.int64)[i] + a_local
    b_idx = sb.rowptr.astype(np.int64)[k] + b_local
    va, vb = sa.values[a_idx], sb.values[b_idx]
    with np.errstate(invalid="ignore", over="ignore"):
        return (va * vb if mul is None else mul(va, vb)).astype(dtype)


register_backend("generic", lambda device=None: GenericBackend(device=device))
register_backend(
    "generic64",
    lambda device=None: GenericBackend(device=device, value_dtype=np.float64),
)
