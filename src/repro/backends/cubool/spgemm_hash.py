"""Nsparse-style hash SpGEMM, boolean adaptation (cuBool's multiply).

Pipeline (mirroring Nagasaka et al.'s Nsparse, as adapted for boolean
values by cuBool):

1. **Upper bound** — for every output row ``i``,
   ``ub[i] = Σ_{k ∈ A.row(i)} |B.row(k)|`` (one segmented sum).
2. **Binning** — rows are classified by ``ub`` into power-of-two bins
   (≤32, ≤64, …, ≤8192); rows with ``ub == 0`` are skipped; larger rows
   go to the *global bin*.  Each bin is dispatched as its own kernel
   launch with a block size matched to the bin bound — this is the
   "dynamic work balancing" knob the ablation study (E9) toggles.
3. **Hash phase** — per row, candidate columns (the expansion of B-rows
   selected by A's row) are inserted into an open-addressing hash table
   of size ``2 × bound`` (next power of two).  In the boolean semiring
   there is no value to accumulate, so insertion is *insert-only* —
   exactly the simplification the paper credits for cuBool's advantage
   over generic SpGEMM (no value array, no atomic adds).
   Shared-memory bins process rows in chunks sized to the device's
   aggregate shared memory; only the global bin allocates its tables
   from device global memory (accounted in the arena).
4. **Emit phase** — per-row table occupancy gives exact row sizes; the
   output ``cols`` array is allocated exactly and filled with each
   row's sorted unique columns.  A complement mask and an accumulator
   (``C ∨= (A · B) ∧ ¬M``) enter here: the two-pass emission reads
   their rows from the operands' resident buffers, drops the masked
   columns and merges the accumulator's before sizing the output, so
   the product is never a separate matrix.

The executor does not simulate the probe race.  A table's contents
after the hash phase are the row's distinct candidate columns, so each
launch computes its chunk of rows through the one boolean core,
:func:`repro.backends.common.bool_spgemm_keys`, which is what reading
the chunk's tables back in column order yields.  What stays cuBool's own
is the launch plan: the bins, the chunks, one launch per chunk with the
bin's block size, the arena charge for global-bin tables (sized on the
product's upper bound alone), and the two-pass exact output
(:func:`repro.backends.common.masked_union`, then
:func:`repro.backends.common.emit_csr`).
"""

from __future__ import annotations

import numpy as np

from repro.backends.common import (
    bool_spgemm_keys,
    emit_csr,
    masked_union,
    spgemm_upper_bound,
)
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.stream import Stream
from repro.utils.arrays import concat_ranges, coo_from_keys

#: Shared-memory bin bounds.  Rows with ub above the last bound use
#: global-memory tables.
DEFAULT_BIN_BOUNDS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (int(x) - 1).bit_length()


def _process_chunk(
    rows_chunk: np.ndarray,
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> np.ndarray:
    """Hash phase and table read-back for one chunk of rows (one launch):
    the sorted distinct keys of the chunk's output rows."""
    starts = a_rowptr[rows_chunk].astype(np.int64)
    lens = a_rowptr[rows_chunk + 1].astype(np.int64) - starts
    return bool_spgemm_keys(
        np.repeat(rows_chunk, lens), a_cols[concat_ranges(starts, lens)], b_rowptr, b_cols
    )


def spgemm_boolean_csr(
    device: Device,
    stream: Stream,
    a_shape: tuple[int, int],
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_shape: tuple[int, int],
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
    *,
    bin_bounds: tuple[int, ...] = DEFAULT_BIN_BOUNDS,
    use_binning: bool = True,
    mask: np.ndarray | None = None,
    accumulate: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Compute the boolean product ``C = accumulate ∨ ((A · B) ∧ ¬mask)``
    in CSR.

    Returns ``(rowptr, cols, buffers)`` where the arrays alias device
    buffers listed in ``buffers`` (ownership passes to the caller).
    ``mask`` and ``accumulate`` are the sorted keys of those operands'
    entries (``None``: no mask, nothing to accumulate).

    ``use_binning=False`` routes every non-empty row through a single
    global-memory table configuration — the ablation baseline showing
    what the bin dispatcher buys.
    """
    ub = spgemm_upper_bound(a_rowptr, a_cols, b_rowptr)
    # chunk capacity: aggregate shared memory across SMs, in uint32 slots.
    shared_slots = (
        device.limits.shared_mem_per_block // 4
    ) * device.limits.multiprocessor_count
    # Each launch's sorted keys; launches cover disjoint rows.
    chunk_keys: list[np.ndarray] = []

    def _run_bin(rows_bin: np.ndarray, bound: int, shared: bool) -> None:
        if rows_bin.size == 0:
            return
        # Table sizing: global-memory tables use Nsparse's 2x bound, which
        # is part of the memory model; shared-memory tables are sized 4x.
        # No table is ever written (the core computes the contents), so
        # ``ts`` fixes only the accounting and the rows per launch.
        ts = _next_pow2((2 if not shared else 4) * max(1, bound))
        if shared:
            # Rows resident at once: the aggregate shared-memory budget,
            # floored at one warp's worth of rows so the (executor-level)
            # per-chunk dispatch overhead stays amortized — on the real
            # device chunks are free because blocks are scheduled by the
            # hardware, so the floor does not distort the memory model
            # (shared tables are never global memory either way).
            chunk_rows = max(64, shared_slots // ts)
            table_buf = None
        else:
            chunk_rows = max(1, min(rows_bin.size, (1 << 24) // ts))
            # Accounting only: the arena charges the global-memory tables
            # the CUDA kernel holds while this bin runs.
            table_buf = device.arena.alloc((min(chunk_rows, rows_bin.size), ts), np.uint32)
        block = device.limits.clamp_block(min(bound if bound else 32, 1024))
        try:
            for lo in range(0, rows_bin.size, chunk_rows):
                rows_chunk = rows_bin[lo : lo + chunk_rows]

                def _kernel(config, rows_chunk=rows_chunk):
                    return _process_chunk(rows_chunk, a_rowptr, a_cols, b_rowptr, b_cols)

                _kernel.__name__ = (
                    f"spgemm_hash_{'shared' if shared else 'global'}_b{bound or 'max'}"
                )
                chunk_keys.append(
                    stream.launch(_kernel, grid_1d(rows_chunk.size * block, block))
                )
        finally:
            if table_buf is not None:
                table_buf.free()

    nonzero_rows = np.nonzero(ub > 0)[0]
    nz_ub = ub[nonzero_rows]
    prev = 0
    for bound in bin_bounds if use_binning else ():
        _run_bin(nonzero_rows[(nz_ub > prev) & (nz_ub <= bound)], bound, shared=True)
        prev = bound
    big = nonzero_rows[nz_ub > prev]
    if big.size:
        _run_bin(big, int(ub[big].max()), shared=False)

    # Exact output allocation: the chunks are sorted runs of disjoint
    # rows, so one stable (run-merging) sort orders them; then the mask
    # and the accumulator, and one emission.
    keys = np.concatenate(chunk_keys) if chunk_keys else np.empty(0, np.uint64)
    keys.sort(kind="stable")
    keys = masked_union(keys, mask, accumulate)
    buffers = emit_csr(device.arena, int(a_shape[0]), *coo_from_keys(keys))
    return buffers[0].data, buffers[1].data, buffers
