"""One sparse executor: the key-space core and exact outputs.

cuBool, clBool and the cpu reference compute every boolean product
through one call, :func:`bool_spgemm_keys`: expand the candidate
products, pack ``row << 32 | col``, sort-unique.  What still differs
between the backends is their *launch plan* — how the work is cut into
stream launches (cuBool: one launch per chunk of a row bin; clBool: the
four ESC launches; cpu: none) — and what each plan charges to the device
arena (cuBool: global-bin hash tables and the two-pass exact output;
clBool: the B-row bucket, the expansion planes and the one-pass merge
buffers).  Those are the design space the paper's implementation section
discusses; the arithmetic itself is written once here.

Every boolean product also ends in one key-space step,
:func:`masked_union`: the product keys found in a complement mask are
dropped and the rest merge with an accumulator's keys, so ``C ∨= (A ·
B) ∧ ¬M`` and ``C ∨= A ⊗ B`` emit their output once, with no product
matrix in between.  cuBool's SpGEMM runs it after the chunk keys are
sorted, clBool's in its compaction, the cpu reference after the core,
and every Kronecker emission through :func:`kron_coo`.

The generic (valued) backend runs the same index plans and gathers its
value planes through them: the product through the expansion
(:func:`expand_gather`), the Kronecker product through its emission
(:func:`kron_emission`, which :func:`kron_coo` also builds on).  Its
⊕-combination, the accumulate merge included, is the one valued
run-merge, :func:`repro.utils.arrays.fold_runs`.

Coordinate keys: a (row, col) pair packs into the uint64 key
``row << 32 | col`` (:func:`repro.utils.arrays.keys_from_coo`, the one
codec every backend and format sorts, merges and dedupes through),
which preserves row-major order and makes merge/dedupe a 1-D problem
(the standard GPU trick for pair sorting).  On this executor a
run-merge — concatenate two sorted runs, one stable sort that timsort
turns into a linear merge, adjacent dedupe — stands in for GPU Merge
Path.

Device memory: every exact-sized output goes through :func:`emit_csr`
or :func:`emit_coo`, which allocate all or nothing, and every scratch
buffer is held by :func:`scratch` from the moment it is allocated, so an
arena exhaustion anywhere inside an op raises ``DeviceMemoryError`` with
the arena's live bytes where they were before the op.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.memory import DeviceBuffer, MemoryArena
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    concat_ranges,
    dedupe_sorted_keys,
    in_sorted,
    keys_from_coo,
    merge_union,
    rowptr_from_sorted_rows,
    segment_ids,
)


# -- sorted-key set operations -----------------------------------------------


def masked_union(
    keys: np.ndarray,
    mask: np.ndarray | None = None,
    accumulate: np.ndarray | None = None,
) -> np.ndarray:
    """The tail of every boolean product, in key space:
    ``accumulate ∨ (keys ∧ ¬mask)``.

    All three are sorted distinct key arrays.  The product keys that
    occur in ``mask`` are dropped (the structural complement mask), and
    the rest are merged with ``accumulate``.  Every boolean ``mxm`` and
    Kronecker product ends here, then emits its output once.
    """
    if mask is not None:
        keys = keys[~in_sorted(keys, mask)]
    if accumulate is not None:
        keys = merge_union(keys, accumulate)
    return keys


def merge_intersection(key_a: np.ndarray, key_b: np.ndarray) -> np.ndarray:
    """Sorted intersection of two sorted duplicate-free key arrays.

    The element-wise AND kernel: membership of the smaller array in the
    larger (same machinery as the mask, with the keep-condition
    flipped).
    """
    if key_a.size > key_b.size:
        key_a, key_b = key_b, key_a
    return key_a[in_sorted(key_a, key_b)]


# -- SpGEMM: the one boolean product ------------------------------------------


def expand_gather(
    a_cols: np.ndarray, b_rowptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The expansion of ``C = A · B`` as gather indices.

    For every A entry ``e = (i, k)`` and every position ``g`` of B's row
    ``k`` there is one candidate product ``(i, b_cols[g])``; returns
    ``(owner, gather)`` with ``owner[t] = e`` (an index into A's entry
    arrays) and ``gather[t] = g`` (into B's).  The boolean core packs
    coordinates through them; the generic backend also reads both value
    planes through them.  Only the touched entries of B are visited.
    """
    k = a_cols.astype(np.int64)
    starts = b_rowptr[k].astype(np.int64)
    lengths = b_rowptr[k + 1].astype(np.int64) - starts
    return segment_ids(lengths), concat_ranges(starts, lengths)


def bool_spgemm_keys(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> np.ndarray:
    """The boolean SpGEMM: sorted distinct keys ``row << 32 | col`` of
    ``A · B``.

    ``(a_rows, a_cols)`` may be any subset of A's entries — a launch
    passes the entries of the rows it covers — and B is CSR.  Boolean
    saturation is the dedupe: equal keys are identical pairs, so no
    value is carried and the sort need not be stable.
    """
    owner, gather = expand_gather(a_cols, b_rowptr)
    keys = keys_from_coo(a_rows[owner], b_cols[gather])
    keys.sort()
    return dedupe_sorted_keys(keys)


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


def kron_emission(
    a_cols: np.ndarray,
    a_rowptr: np.ndarray,
    b_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rowptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Kronecker product ``K = A ⊗ B`` as coordinates plus gather
    indices: ``(rows, cols, a_idx, b_idx)``.

    ``K[i*p + k, j*q + l] = A[i, j] ⊗ B[k, l]`` for B of shape p x q, and
    output entry ``t`` pairs A entry ``a_idx[t]`` with B entry
    ``b_idx[t]`` (indices into the CSR entry arrays).  Emission order:
    (i asc, k asc, j asc, l asc) — which *is* canonical row-major order
    of K when A and B are canonical, so no sort is needed (pure index
    arithmetic, the GPU kernel's strategy).  The boolean backends keep
    the coordinates; the generic backend also reads both value planes
    through the gather.
    """
    p, q = int(b_shape[0]), int(b_shape[1])
    a_lens = np.diff(a_rowptr.astype(np.int64))  # len m
    b_lens = np.diff(b_rowptr.astype(np.int64))  # len p

    # K row r = i * p + k has a_lens[i] * b_lens[k] entries.
    k_row_lens = np.multiply.outer(a_lens, b_lens).ravel()  # len m*p
    if not k_row_lens.any():
        return tuple(np.empty((4, 0), np.int64))

    # Within K row r: local index t in [0, La*Lb); a_local = t // Lb,
    # b_local = t % Lb.
    t = concat_ranges(np.zeros(k_row_lens.size, dtype=np.int64), k_row_lens)
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
    return out_rows, out_cols, a_idx, b_idx


def kron_coo(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    a_rowptr: np.ndarray,
    b_rows: np.ndarray,
    b_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rowptr: np.ndarray,
    accumulate: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker product coordinates in canonical row-major order: the
    coordinates of :func:`kron_emission`, or with ``accumulate`` (the
    sorted keys of an accumulator) those of ``accumulate ∨ (A ⊗ B)``.

    ``a_rowptr``/``b_rowptr`` are CSR pointers for A and B (COO callers
    build them once; they're cheap); an operand with no entries
    short-cuts to the empty product.
    """
    if a_rows.size == 0 or b_rows.size == 0:
        rows, cols = np.empty(0, np.int64), np.empty(0, np.int64)
    else:
        rows, cols = kron_emission(a_cols, a_rowptr, b_cols, b_shape, b_rowptr)[:2]
    if accumulate is None:
        return rows, cols
    return coo_from_keys(masked_union(keys_from_coo(rows, cols), accumulate=accumulate))


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


# -- launch plans and device outputs --------------------------------------------


class scratch:
    """Scratch device buffers, one per ``(shape, dtype)``, for the body of
    a ``with`` block: allocated all or nothing and freed on exit however
    the block ends."""

    def __init__(self, arena: MemoryArena, *specs: tuple[object, np.dtype]):
        self.buffers = upload_all(lambda spec: arena.alloc(*spec), specs)

    def __enter__(self) -> list[DeviceBuffer]:
        return self.buffers

    def __exit__(self, *exc) -> None:
        for buf in self.buffers:
            buf.free()


def upload_all(make, items) -> list[DeviceBuffer]:
    """One new device buffer per item, ``make(item)``, all or nothing:
    if one fails, the buffers made so far are freed before it raises.
    Matrix creation passes ``device.to_device`` over host arrays."""
    buffers: list[DeviceBuffer] = []
    try:
        for item in items:
            buffers.append(make(item))
    except BaseException:
        for buf in buffers:
            buf.free()
        raise
    return buffers


def _emit(arena: MemoryArena, planes) -> list[DeviceBuffer]:
    """Device copies of ``(host array, device dtype)`` planes."""

    def copy(plane):
        array, dtype = plane
        buf = arena.alloc(array.size, dtype)
        buf.data[...] = array
        return buf

    return upload_all(copy, planes)


def emit_csr(
    arena: MemoryArena,
    nrows: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray | None = None,
) -> list[DeviceBuffer]:
    """The exact-sized CSR output of an op, from canonical coordinates:
    ``[rowptr, cols]`` (and ``values`` for valued formats) device buffers,
    allocated in that order, all or nothing."""
    planes = [(rowptr_from_sorted_rows(rows, nrows), INDEX_DTYPE), (cols, INDEX_DTYPE)]
    if values is not None:
        planes.append((values, values.dtype))
    return _emit(arena, planes)


def emit_coo(arena: MemoryArena, rows: np.ndarray, cols: np.ndarray) -> list[DeviceBuffer]:
    """The exact-sized COO output of an op, from canonical coordinates:
    ``[rows, cols]`` device buffers, all or nothing."""
    return _emit(arena, [(rows, INDEX_DTYPE), (cols, INDEX_DTYPE)])
