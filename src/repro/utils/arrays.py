"""Vectorized index-array primitives used by every backend.

These are the NumPy equivalents of the Thrust building blocks cuBool
leans on (``exclusive_scan``, ``gather``, ``unique``, segmented
expansion).  All of them are O(n) or O(n log n) array passes with no
Python-level loops, per the vectorization guidance for scientific
Python.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidArgumentError

#: Index type used throughout, matching SPbLA's ``cuBool_Index`` (uint32).
INDEX_DTYPE = np.dtype(np.uint32)


def as_index_array(values, name: str = "indices") -> np.ndarray:
    """Convert to a contiguous 1-D uint32 index array, validating range."""
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional")
    if arr.size == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise InvalidArgumentError(f"{name} must be integers, got {arr.dtype}")
    if arr.dtype.kind == "i" and arr.size and int(arr.min()) < 0:
        raise InvalidArgumentError(f"{name} contains negative values")
    if arr.size and int(arr.max()) > np.iinfo(INDEX_DTYPE).max:
        raise InvalidArgumentError(f"{name} exceeds uint32 range")
    return np.ascontiguousarray(arr, dtype=INDEX_DTYPE)


def rowptr_from_sorted_rows(sorted_rows: np.ndarray, nrows: int) -> np.ndarray:
    """Build a CSR row-pointer array from row indices sorted ascending.

    Equivalent to a histogram + exclusive scan (the canonical GPU
    COO→CSR conversion).
    """
    counts = np.bincount(sorted_rows, minlength=nrows) if sorted_rows.size else np.zeros(
        nrows, dtype=np.int64
    )
    rowptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=rowptr[1:], dtype=np.int64)
    return rowptr


def rows_from_rowptr(rowptr: np.ndarray) -> np.ndarray:
    """Expand a CSR row pointer back to per-entry row indices.

    The inverse of :func:`rowptr_from_sorted_rows`; the GPU analogue is a
    scatter of row ids at segment starts followed by a max-scan.
    """
    nnz = int(rowptr[-1])
    lengths = np.diff(rowptr).astype(np.int64)
    return np.repeat(
        np.arange(len(rowptr) - 1, dtype=INDEX_DTYPE), lengths
    ) if nnz else np.empty(0, dtype=INDEX_DTYPE)


def row_lengths_from_ptr(rowptr: np.ndarray) -> np.ndarray:
    """Per-row entry counts from a CSR row pointer."""
    return np.diff(rowptr).astype(np.int64)


# -- packed pair keys -----------------------------------------------------
#
# The one codec for (row, col) pairs: every sort, merge and dedupe over
# coordinates in the backends and formats packs each pair into the
# uint64 key ``row << 32 | col``.  Numeric order on keys is row-major
# order on pairs for every pair of uint32 coordinates — independent of
# the matrix width, so ``nrows * ncols`` may exceed 2**63 (a
# width-linearized ``row * ncols + col`` overflows there).

#: Dtype of a packed pair key.
KEY_DTYPE = np.dtype(np.uint64)


def keys_from_coo(rows, cols) -> np.ndarray:
    """Pack coordinate pairs into uint64 keys ``row << 32 | col``."""
    keys = np.asarray(rows).astype(KEY_DTYPE)
    keys <<= 32
    keys |= np.asarray(cols).astype(KEY_DTYPE, copy=False)
    return keys


def coo_from_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack keys into uint32 ``(rows, cols)``: a shift and a mask."""
    return (keys >> 32).astype(INDEX_DTYPE), (keys & 0xFFFFFFFF).astype(INDEX_DTYPE)


def is_sorted_unique(keys: np.ndarray) -> bool:
    """True when ``keys`` is strictly increasing (canonical: sorted and
    duplicate-free) — one O(n) comparison pass."""
    return keys.size < 2 or bool((keys[1:] > keys[:-1]).all())


def dedupe_sorted_keys(keys: np.ndarray) -> np.ndarray:
    """Drop adjacent duplicates from sorted keys.

    Boolean matrices saturate under OR, so duplicate coordinates simply
    collapse — this is the "compaction" step of ESC SpGEMM and of the
    one-pass merge.
    """
    if keys.size < 2:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def sort_unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys.

    Canonical input is returned untouched after the O(n) check; anything
    else takes NumPy's default (SIMD) sort and an adjacent dedupe.  Equal
    keys are identical pairs, so the sort need not be stable.
    """
    if is_sorted_unique(keys):
        return keys
    return dedupe_sorted_keys(np.sort(keys))


def merge_sorted_keys(key_a: np.ndarray, key_b: np.ndarray) -> np.ndarray:
    """Merge two sorted key runs, keeping duplicates.

    Concatenate, then a stable sort: timsort detects the two runs and
    merges them in one linear pass.
    """
    merged = np.concatenate((key_a, key_b))
    merged.sort(kind="stable")
    return merged


def merge_union(key_a: np.ndarray, key_b: np.ndarray) -> np.ndarray:
    """Sorted distinct union of two sorted key runs."""
    return dedupe_sorted_keys(merge_sorted_keys(key_a, key_b))


#: ⊕ ufuncs with a float seed ``e`` for which ``e ⊕ x`` is ``x`` bit for
#: bit, signed zeros and NaN included (``0.0 + -0.0`` is ``+0.0``, so
#: ``np.add`` needs ``-0.0``).
_FOLD_SEEDS = {np.add: -0.0, np.multiply: 1.0, np.minimum: np.inf, np.maximum: -np.inf}


def fold_runs(keys: np.ndarray, values: np.ndarray, add) -> tuple[np.ndarray, np.ndarray]:
    """The valued run-merge: sorted distinct ``keys`` and, per key, the
    ⊕-fold of its values.

    A stable sort by key, then each run of equal keys folds left to
    right in input order from its first value, ``(v0 ⊕ v1) ⊕ v2 ...``,
    for any binary ``add`` over value arrays.  Concatenated sorted
    streams therefore combine in stream order (timsort merges the runs
    in one linear pass).  A ⊕ in ``_FOLD_SEEDS`` on a float plane
    scatters with ``add.at`` from its bitwise identity — the same
    sequential fold; any other ⊕ combines the j-th value of every run
    still that long, one round per position.  Never ``reduceat``: its
    ``np.add`` sums pairwise.
    """
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    if keys.size == 0:
        return keys, values
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    seed = None
    if isinstance(add, np.ufunc) and values.dtype.kind == "f":
        seed = _FOLD_SEEDS.get(add)
    if seed is not None:
        run = np.cumsum(first) - 1
        folded = np.full(int(run[-1]) + 1, seed, dtype=values.dtype)
        add.at(folded, run, values)
        return keys[first], folded
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=keys.size)
    folded = values[starts]
    for j in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > j)
        folded[live] = add(folded[live], values[starts[live] + j])
    return keys[starts], folded


def in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``keys`` occur in the sorted ``sorted_keys``.

    A galloping membership test (one ``searchsorted``), the vectorized
    form of the merge-path diagonal search.  Drives the element-wise AND
    and the structural complement mask.
    """
    if keys.size == 0 or sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    # A key past every sorted key cannot equal sorted_keys[0] (it is
    # strictly greater), so clamping there is safe.
    pos[pos == sorted_keys.size] = 0
    return sorted_keys[pos] == keys


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + lengths[i])`` ranges, vectorized.

    This is the segmented-iota / "expand" primitive: given segment start
    offsets and lengths it emits every in-segment position without a
    Python loop.  Used by ESC expansion, Kronecker emission, and the
    merge-path partitioners.

    Examples
    --------
    >>> concat_ranges(np.array([10, 20]), np.array([3, 2])).tolist()
    [10, 11, 12, 20, 21]
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise InvalidArgumentError("starts and lengths must have equal length")
    if lengths.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(lengths < 0):
        raise InvalidArgumentError("negative range length")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Drop empty segments, then build a difference array whose cumsum
    # reproduces every range: ones inside a segment, and a jump at each
    # segment boundary from the previous segment's last value to the next
    # segment's start.
    nonempty = lengths > 0
    seg_starts_val = starts[nonempty]
    seg_lengths = lengths[nonempty]
    first_pos = np.cumsum(seg_lengths) - seg_lengths  # output offset of each segment
    out = np.ones(total, dtype=np.int64)
    out[0] = seg_starts_val[0]
    out[first_pos[1:]] = seg_starts_val[1:] - (
        seg_starts_val[:-1] + seg_lengths[:-1] - 1
    )
    np.cumsum(out, out=out)
    return out


def segment_ids(lengths: np.ndarray) -> np.ndarray:
    """Segment index for each element of the concatenation of segments.

    >>> segment_ids(np.array([2, 0, 3])).tolist()
    [0, 0, 2, 2, 2]
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum with a trailing total (Thrust idiom).

    Returns an array one longer than the input: ``out[0] == 0`` and
    ``out[-1] == values.sum()``.
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out
