"""Expansion–sort–compaction SpGEMM over COO (clBool's multiply).

The ESC strategy (Bell/Dalton/Olson lineage, the standard OpenCL
formulation):

1. **Expansion** — materialize every candidate product ``(i, j)`` with
   ``A[i,k] ∧ B[k,j]`` into a global-memory buffer of size
   ``Σ_{(i,k)∈A} |B.row(k)|`` (allocated in the device arena: on a real
   device this buffer lives in global memory, unlike cuBool's
   shared-memory hash tables — the key memory-behaviour difference the
   benchmarks measure).
2. **Sort** — radix-sort the packed ``row << 32 | col`` keys (executor:
   NumPy's default SIMD sort).  Equal boolean keys are identical pairs,
   so the sort need not be stable — a boolean specialisation the
   value-carrying generic backend cannot take.
3. **Compaction** — boolean saturation collapses duplicates: a
   vectorized adjacent-unique pass; the exact-sized output is then
   allocated and filled.

A CSR-style row pointer for B is built as a scratch step (one histogram
+ scan) to drive the expansion gather; clBool does the same bucketing on
device.
"""

from __future__ import annotations

import numpy as np

from repro.backends.common import expand_products
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.stream import Stream
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    dedupe_sorted_keys,
    keys_from_coo,
    rowptr_from_sorted_rows,
)


def spgemm_boolean_coo(
    device: Device,
    stream: Stream,
    a_shape: tuple[int, int],
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rows: np.ndarray,
    b_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Boolean product ``C = A · B`` in COO via ESC.

    Returns ``(rows, cols, buffers)``; arrays alias device buffers whose
    ownership passes to the caller.
    """
    # Scratch: B row pointer (histogram + exclusive scan on device).
    b_rowptr_buf = device.arena.alloc(int(b_shape[0]) + 1, INDEX_DTYPE)

    def _bucket_kernel(config):
        b_rowptr_buf.data[...] = rowptr_from_sorted_rows(b_rows, int(b_shape[0]))

    _bucket_kernel.__name__ = "esc_bucket_b_rows"
    stream.launch(_bucket_kernel, grid_1d(max(1, b_rows.size), 256))

    # 1. Expansion into a global-memory buffer.
    def _expand_kernel(config):
        return expand_products(a_rows, a_cols, b_rowptr_buf.data, b_cols)

    _expand_kernel.__name__ = "esc_expand"
    e_rows, e_cols = stream.launch(_expand_kernel, grid_1d(max(1, a_rows.size), 256))
    total = e_rows.size

    exp_rows_buf = device.arena.alloc(total, INDEX_DTYPE)
    exp_cols_buf = device.arena.alloc(total, INDEX_DTYPE)
    if total:
        exp_rows_buf.data[...] = e_rows
        exp_cols_buf.data[...] = e_cols

    try:
        # 2. Sort by packed key.
        def _sort_kernel(config):
            keys = keys_from_coo(exp_rows_buf.data, exp_cols_buf.data)
            keys.sort()
            return keys

        _sort_kernel.__name__ = "esc_radix_sort"
        keys = stream.launch(_sort_kernel, grid_1d(max(1, total), 256))

        # 3. Compaction (adjacent unique).
        def _compact_kernel(config):
            return dedupe_sorted_keys(keys)

        _compact_kernel.__name__ = "esc_compact"
        unique = stream.launch(_compact_kernel, grid_1d(max(1, total), 256))

        rows_buf = device.arena.alloc(unique.size, INDEX_DTYPE)
        cols_buf = device.arena.alloc(unique.size, INDEX_DTYPE)
        if unique.size:
            rows_buf.data[...], cols_buf.data[...] = coo_from_keys(unique)
    finally:
        exp_rows_buf.free()
        exp_cols_buf.free()
        b_rowptr_buf.free()

    return rows_buf.data, cols_buf.data, [rows_buf, cols_buf]
