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

from repro.backends.common import emit_csr, merge_intersection
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.memory import DeviceBuffer
from repro.gpu.stream import Stream
from repro.utils.arrays import coo_from_keys, keys_from_coo, merge_union, rows_from_rowptr


def ewise_add_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> list[DeviceBuffer]:
    """Boolean union of two CSR matrices, exact-allocated.

    Returns the output's device buffers ``[rowptr, cols]``.
    """
    key_a = keys_from_coo(rows_from_rowptr(a_rowptr), a_cols)
    key_b = keys_from_coo(rows_from_rowptr(b_rowptr), b_cols)
    grid = grid_1d(max(1, key_a.size + key_b.size), 256)

    # Pass 1: the union in scratch; its size is the exact allocation.
    def _count_kernel(config):
        return merge_union(key_a, key_b)

    _count_kernel.__name__ = "merge_path_count"
    union = stream.launch(_count_kernel, grid)

    # Pass 2: fill the exactly-sized output.
    def _merge_kernel(config):
        return emit_csr(device.arena, int(shape[0]), *coo_from_keys(union))

    _merge_kernel.__name__ = "merge_path_merge"
    return stream.launch(_merge_kernel, grid)


def ewise_mult_csr(
    device: Device,
    stream: Stream,
    shape: tuple[int, int],
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> list[DeviceBuffer]:
    """Boolean intersection of two CSR matrices (element-wise AND).

    Same two-pass discipline as the add: the intersection is a pure
    membership gallop, so pass one *is* the result-size computation and
    pass two just materializes it into the exactly-sized output.
    """
    key_a = keys_from_coo(rows_from_rowptr(a_rowptr), a_cols)
    key_b = keys_from_coo(rows_from_rowptr(b_rowptr), b_cols)

    def _intersect_kernel(config):
        return merge_intersection(key_a, key_b)

    _intersect_kernel.__name__ = "merge_path_intersect"
    keys = stream.launch(
        _intersect_kernel, grid_1d(max(1, min(key_a.size, key_b.size) or 1), 256)
    )
    return emit_csr(device.arena, int(shape[0]), *coo_from_keys(keys))
