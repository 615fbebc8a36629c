"""Two-pass merge element-wise add (cuBool's ``M += N``).

The paper: "Matrix-matrix addition is based on GPU Merge Path algorithm
with dynamic work balancing and two pass processing.  These optimizations
give better workload dispatch among execution blocks and allow more
precise memory allocations in order to keep memory footprint small."

Coordinates travel as the codec's packed uint64 keys ``row << 32 | col``
(:func:`repro.utils.arrays.keys_from_coo`).  Two-pass structure:

* **pass 1 (count)** — the sorted union is formed in executor scratch
  (never in the device arena); only its size reaches the allocator, so
  the output CSR arrays are allocated to the exact size;
* **pass 2 (merge)** — the union is decoded into those exactly-sized
  buffers.

On this executor a run-merge stands in for Merge Path's diagonal
partitioning: concatenate the two sorted runs, one stable sort (timsort
detects the runs and merges them linearly), adjacent dedupe.  The
simulation still models what the paper contrasts — two-pass exact
allocation here versus :mod:`repro.backends.clbool.merge_add`'s one
pass over an over-allocated ``nnz(A) + nnz(B)`` merge buffer.
"""

from __future__ import annotations

import numpy as np

from repro.backends.common import merge_intersection
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.stream import Stream
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    keys_from_coo,
    merge_union,
    rows_from_rowptr,
    rowptr_from_sorted_rows,
)


def ewise_add_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Boolean union of two CSR matrices, exact-allocated.

    Returns ``(rowptr, cols, buffers)``; arrays alias device buffers.
    """
    m = int(shape[0])
    key_a = keys_from_coo(rows_from_rowptr(a_rowptr), a_cols)
    key_b = keys_from_coo(rows_from_rowptr(b_rowptr), b_cols)
    grid = grid_1d(max(1, key_a.size + key_b.size), 256)

    # Pass 1: the union in scratch; its size is the exact allocation.
    def _count_kernel(config):
        return merge_union(key_a, key_b)

    _count_kernel.__name__ = "merge_path_count"
    union = stream.launch(_count_kernel, grid)

    rowptr_buf = device.arena.alloc(m + 1, INDEX_DTYPE)
    cols_buf = device.arena.alloc(union.size, INDEX_DTYPE)

    # Pass 2: fill the exactly-sized output.
    def _merge_kernel(config):
        rows, cols = coo_from_keys(union)
        rowptr_buf.data[...] = rowptr_from_sorted_rows(rows, m)
        cols_buf.data[...] = cols

    _merge_kernel.__name__ = "merge_path_merge"
    stream.launch(_merge_kernel, grid)
    return rowptr_buf.data, cols_buf.data, [rowptr_buf, cols_buf]


def ewise_mult_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Boolean intersection of two CSR matrices (element-wise AND).

    Same two-pass discipline as the add: the intersection is a pure
    membership gallop, so pass one *is* the result-size computation and
    pass two just materializes it into the exactly-sized output.
    """
    m = int(shape[0])
    key_a = keys_from_coo(rows_from_rowptr(a_rowptr), a_cols)
    key_b = keys_from_coo(rows_from_rowptr(b_rowptr), b_cols)

    def _intersect_kernel(config):
        return merge_intersection(key_a, key_b)

    _intersect_kernel.__name__ = "merge_path_intersect"
    keys = stream.launch(
        _intersect_kernel, grid_1d(max(1, min(key_a.size, key_b.size) or 1), 256)
    )
    rowptr_buf = device.arena.alloc(m + 1, INDEX_DTYPE)
    cols_buf = device.arena.alloc(keys.size, INDEX_DTYPE)
    rows, cols = coo_from_keys(keys)
    rowptr_buf.data[...] = rowptr_from_sorted_rows(rows, m)
    if keys.size:
        cols_buf.data[...] = cols
    return rowptr_buf.data, cols_buf.data, [rowptr_buf, cols_buf]
