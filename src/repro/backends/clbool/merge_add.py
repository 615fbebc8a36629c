"""One-pass merge add over COO (clBool's ``M += N``).

The paper: "Since all COO matrix values are stored in the single array,
its merge can be completed at single time, compared to CSR matrix merge
computed on a per row basis.  This operation is implemented in a classic
one pass fashion: it allocates single merge buffer of size
NNZ(A) + NNZ(B) before actual merge of matrices A and B, what can
negatively affect memory consumption for large matrices with lots of
duplicated non-zero values at the same positions."

So, unlike cuBool's two-pass add, the full ``nnz(A) + nnz(B)`` merge
buffer is allocated in device memory up front, the merge runs once, and
only then does compaction discover how many duplicates could have been
avoided.  The memory benchmarks (E0/E8/E9) surface this over-allocation.

Coordinates travel as the codec's packed uint64 keys ``row << 32 | col``
(:func:`repro.utils.arrays.keys_from_coo`).  On this executor a
run-merge stands in for Merge Path: the two sorted runs are
concatenated and one stable sort (timsort detects the runs and merges
them linearly) fills the merge buffer; the compaction kernel then drops
adjacent duplicates.  The simulation still models one-pass
over-allocation here versus cuBool's two-pass exact allocation.
"""

from __future__ import annotations

import numpy as np

from repro.backends.common import emit_coo, scratch
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.memory import DeviceBuffer
from repro.gpu.stream import Stream
from repro.utils.arrays import (
    INDEX_DTYPE,
    coo_from_keys,
    dedupe_sorted_keys,
    keys_from_coo,
    merge_sorted_keys,
)


def merge_add_coo(
    device: Device,
    stream: Stream,
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    b_rows: np.ndarray,
    b_cols: np.ndarray,
) -> list[DeviceBuffer]:
    """Boolean union of two canonical COO matrices (one-pass merge);
    returns the output's device buffers ``[rows, cols]``."""
    total = a_rows.size + b_rows.size
    key_a = keys_from_coo(a_rows, a_cols)
    key_b = keys_from_coo(b_rows, b_cols)
    grid = grid_1d(max(1, total), 256)
    # The single up-front merge buffer (rows + cols planes).
    with scratch(
        device.arena, (total, INDEX_DTYPE), (total, INDEX_DTYPE)
    ) as (merge_rows_buf, merge_cols_buf):

        def _merge_kernel(config):
            merged = merge_sorted_keys(key_a, key_b)
            merge_rows_buf.data[...], merge_cols_buf.data[...] = coo_from_keys(merged)
            return merged

        _merge_kernel.__name__ = "merge_path_one_pass"
        merged = stream.launch(_merge_kernel, grid)

        def _compact_kernel(config):
            return dedupe_sorted_keys(merged)

        _compact_kernel.__name__ = "merge_compact"
        unique = stream.launch(_compact_kernel, grid)
        return emit_coo(device.arena, *coo_from_keys(unique))
