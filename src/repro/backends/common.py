"""Vectorized primitives shared by the backends.

Each function here is the NumPy realization of a GPU building block that
several backends use (merge path partitioning, segmented expansion,
Kronecker index arithmetic).  Backends differ in *how they orchestrate*
these primitives — binned hash tables vs. global sort, two-pass exact
allocation vs. one-pass over-allocation — which is exactly the design
space the paper's implementation section discusses.

Coordinate keys: a (row, col) pair packs into the uint64 key
``row << 32 | col`` (:func:`repro.utils.arrays.keys_from_coo`, the one
codec every backend and format sorts, merges and dedupes through),
which preserves row-major order and makes merge/dedupe a 1-D problem
(the standard GPU trick for pair sorting).  On this executor a
run-merge — concatenate two sorted runs, one stable sort that timsort
turns into a linear merge, adjacent dedupe — stands in for GPU Merge
Path; the backends still model the paper's allocation disciplines
(cuBool's two-pass exact allocation vs clBool's one-pass
over-allocated merge buffer) in the device arena.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidArgumentError
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    concat_ranges,
    in_sorted,
    keys_from_coo,
    segment_ids,
)


# -- sorted-key set operations -----------------------------------------------


def merge_intersection(key_a: np.ndarray, key_b: np.ndarray) -> np.ndarray:
    """Sorted intersection of two sorted duplicate-free key arrays.

    The element-wise AND kernel: membership of the smaller array in the
    larger (same machinery as the mask, with the keep-condition
    flipped).
    """
    if key_a.size > key_b.size:
        key_a, key_b = key_b, key_a
    return key_a[in_sorted(key_a, key_b)]


# -- SpGEMM expansion ---------------------------------------------------------


def expand_products(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand all candidate products for ``C = A · B``.

    For every A entry ``(i, k)`` emits the pairs ``(i, j)`` for each
    ``j`` in B's row ``k``.  Returns ``(c_rows, c_cols)`` as int64 — the
    *multiset* of candidate coordinates (duplicates not collapsed).
    This is the "expansion" step of ESC and the probe stream of the hash
    kernel; both consume its output.
    """
    if a_rows.size == 0 or b_cols.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # Gather, then widen: only the touched entries of B are copied.
    k = a_cols.astype(np.int64)
    starts = b_rowptr[k].astype(np.int64)
    lengths = b_rowptr[k + 1].astype(np.int64) - starts
    gather_idx = concat_ranges(starts, lengths)
    if gather_idx.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    owner = segment_ids(lengths)  # index into a_rows per emitted product
    c_rows = a_rows[owner].astype(np.int64, copy=False)
    c_cols = b_cols[gather_idx].astype(np.int64, copy=False)
    return c_rows, c_cols


def expand_products_valued(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    a_vals: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
    b_vals: np.ndarray,
    mul=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valued expansion for the generic backend: also ⊗-combines values.

    ``mul`` is the semiring multiply applied to each gathered
    ``(A-value, B-value)`` pair; ``None`` is ordinary ``*``
    (plus-times).  Tropical algebras pass ``np.add``, PAIR passes its
    presence test — the expansion stream is algebra-agnostic.
    """
    if a_rows.size == 0 or b_cols.size == 0:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, b_vals.dtype),
        )
    k = a_cols.astype(np.int64)
    starts = b_rowptr.astype(np.int64)[k]
    lengths = b_rowptr.astype(np.int64)[k + 1] - starts
    gather_idx = concat_ranges(starts, lengths)
    if gather_idx.size == 0:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, b_vals.dtype),
        )
    owner = segment_ids(lengths)
    c_rows = a_rows.astype(np.int64)[owner]
    c_cols = b_cols.astype(np.int64)[gather_idx]
    av, bv = a_vals[owner], b_vals[gather_idx]
    c_vals = av * bv if mul is None else mul(av, bv).astype(b_vals.dtype, copy=False)
    return c_rows, c_cols, c_vals


def spgemm_upper_bound(
    a_rowptr: np.ndarray, a_cols: np.ndarray, b_rowptr: np.ndarray
) -> np.ndarray:
    """Per-output-row product count upper bound (Nsparse symbolic input).

    ``ub[i] = sum over k in A.row(i) of len(B.row(k))`` — the row sizes
    the binning dispatcher classifies.
    """
    nrows = a_rowptr.size - 1
    b_lens = np.diff(b_rowptr.astype(np.int64))
    per_entry = b_lens[a_cols.astype(np.int64)] if a_cols.size else np.empty(0, np.int64)
    ub = np.zeros(nrows, dtype=np.int64)
    if per_entry.size:
        cum = np.concatenate(([0], np.cumsum(per_entry)))
        ptr = a_rowptr.astype(np.int64)
        ub = cum[ptr[1:]] - cum[ptr[:-1]]
    return ub


# -- Kronecker product --------------------------------------------------------


def kron_coo(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    a_rowptr: np.ndarray,
    b_rows: np.ndarray,
    b_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rowptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker product coordinates in canonical row-major order.

    ``K[i*p + k, j*q + l] = A[i, j] & B[k, l]`` for B of shape p x q.
    Emission order: (i asc, k asc, j asc, l asc) — which *is* canonical
    row-major order of K when A and B are canonical, so no sort is
    needed (pure index arithmetic, the GPU kernel's strategy).

    ``a_rowptr``/``b_rowptr`` are CSR pointers for A and B (COO callers
    build them once; they're cheap).
    """
    p, q = int(b_shape[0]), int(b_shape[1])
    nnz_a, nnz_b = a_rows.size, b_rows.size
    if nnz_a == 0 or nnz_b == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)

    a_lens = np.diff(a_rowptr.astype(np.int64))  # len m
    b_lens = np.diff(b_rowptr.astype(np.int64))  # len p
    m = a_lens.size

    # K row r = i * p + k has a_lens[i] * b_lens[k] entries.
    k_row_lens = np.multiply.outer(a_lens, b_lens).ravel()  # len m*p
    total = int(k_row_lens.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)

    # Within K row r: local index t in [0, La*Lb); a_local = t // Lb,
    # b_local = t % Lb.
    t = concat_ranges(np.zeros(m * p, dtype=np.int64), k_row_lens)
    r = segment_ids(k_row_lens)
    i = r // p
    k = r % p
    lb = b_lens[k]
    a_local = t // lb
    b_local = t - a_local * lb
    a_idx = a_rowptr.astype(np.int64)[i] + a_local
    b_idx = b_rowptr.astype(np.int64)[k] + b_local

    out_rows = i * p + k
    out_cols = a_cols.astype(np.int64)[a_idx] * q + b_cols.astype(np.int64)[b_idx]
    return out_rows, out_cols


# -- submatrix / transpose / reduce -------------------------------------------


def submatrix_coo(
    rows: np.ndarray,
    cols: np.ndarray,
    i: int,
    j: int,
    nrows: int,
    ncols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Filter + shift coordinates into the window (canonical in → out)."""
    if rows.size == 0 or nrows == 0 or ncols == 0:
        return np.empty(0, INDEX_DTYPE), np.empty(0, INDEX_DTYPE)
    r = rows.astype(np.int64)
    c = cols.astype(np.int64)
    mask = (r >= i) & (r < i + nrows) & (c >= j) & (c < j + ncols)
    return (r[mask] - i).astype(INDEX_DTYPE), (c[mask] - j).astype(INDEX_DTYPE)


def transpose_coo(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Swap coordinates and re-canonicalize: one sort of the packed
    ``col << 32 | row`` keys, then decode (the keys are distinct, so the
    sort need not be stable)."""
    keys = keys_from_coo(cols, rows)
    keys.sort()
    return coo_from_keys(keys)


def reduce_rows_coo(rows: np.ndarray) -> np.ndarray:
    """Distinct rows with at least one entry (OR-reduce to a column)."""
    return np.unique(rows).astype(INDEX_DTYPE)


def validate_probe_stream(c_rows: np.ndarray, c_cols: np.ndarray) -> None:
    """Internal consistency check used by debug builds of the kernels."""
    if c_rows.shape != c_cols.shape:
        raise InvalidArgumentError("candidate rows/cols length mismatch")
