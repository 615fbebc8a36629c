"""Expansion–sort–compaction SpGEMM over COO (clBool's multiply).

The ESC strategy (Bell/Dalton/Olson lineage, the standard OpenCL
formulation):

1. **Expansion** — materialize every candidate product ``(i, j)`` with
   ``A[i,k] ∧ B[k,j]`` into a global-memory buffer of size
   ``Σ_{(i,k)∈A} |B.row(k)|`` (allocated in the device arena: on a real
   device this buffer lives in global memory, unlike cuBool's
   shared-memory hash tables — the key memory-behaviour difference the
   benchmarks measure).
2. **Sort** — radix-sort the packed ``row << 32 | col`` keys.
3. **Compaction** — boolean saturation collapses duplicates; a
   complement mask drops its keys and an accumulator merges its own
   (``C ∨= (A · B) ∧ ¬M``); the exact-sized output is then allocated
   and filled.

A CSR-style row pointer for B is built as a scratch step (one histogram
+ scan) to drive the expansion gather; clBool does the same bucketing on
device.

On this executor the three ESC steps are one call of the boolean core,
:func:`repro.backends.common.bool_spgemm_keys` (expand, pack, sort,
dedupe), made in the expansion launch.  The sort and compaction launches
stay in the launch plan as records with their grids, and the arena
charges the expansion planes while they would be live — clBool's memory
model is its plan, not its arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.backends.common import (
    bool_spgemm_keys,
    emit_coo,
    expansion_lengths,
    masked_union,
    scratch,
)
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.stream import Stream
from repro.utils.arrays import INDEX_DTYPE, coo_from_keys, rowptr_from_sorted_rows


def spgemm_boolean_coo(
    device: Device,
    stream: Stream,
    a_shape: tuple[int, int],
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rows: np.ndarray,
    b_cols: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    accumulate: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Boolean product ``C = accumulate ∨ ((A · B) ∧ ¬mask)`` in COO via
    ESC.

    Returns ``(rows, cols, buffers)``; arrays alias device buffers whose
    ownership passes to the caller.  ``mask`` and ``accumulate`` are the
    sorted keys of those operands' entries (``None``: absent).
    """
    m_b = int(b_shape[0])
    # Scratch: B row pointer (histogram + exclusive scan on device).
    with scratch(device.arena, (m_b + 1, INDEX_DTYPE)) as (b_rowptr_buf,):
        b_rowptr = b_rowptr_buf.data

        def _bucket_kernel(config):
            b_rowptr[...] = rowptr_from_sorted_rows(b_rows, m_b)

        _bucket_kernel.__name__ = "esc_bucket_b_rows"
        stream.launch(_bucket_kernel, grid_1d(max(1, b_rows.size), 256))

        def _expand_kernel(config):
            return bool_spgemm_keys(a_rows, a_cols, b_rowptr, b_cols)

        _expand_kernel.__name__ = "esc_expand"
        keys = stream.launch(_expand_kernel, grid_1d(max(1, a_rows.size), 256))

        # The expansion planes (rows + cols) hold every candidate product
        # until compaction has sized the output.
        total = int(expansion_lengths(a_cols, b_rowptr).sum())
        with scratch(device.arena, (total, INDEX_DTYPE), (total, INDEX_DTYPE)):
            # The core already sorted and compacted: these two launches
            # are the plan's records.
            for name in ("esc_radix_sort", "esc_compact"):

                def _record_kernel(config):
                    return None

                _record_kernel.__name__ = name
                stream.launch(_record_kernel, grid_1d(max(1, total), 256))
            keys = masked_union(keys, mask, accumulate)
            buffers = emit_coo(device.arena, *coo_from_keys(keys))
    return buffers[0].data, buffers[1].data, buffers
