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
   row's sorted unique columns.

The vectorized executor performs the open-addressing probe loop over
*all* pending candidates at once per round: reads, claims of empty slots
(last-write-wins, re-read to detect losers — the NumPy analogue of the
CUDA kernel's atomicCAS), and probe advance for survivors.
"""

from __future__ import annotations

import numpy as np

from repro.backends.common import spgemm_upper_bound
from repro.gpu.device import Device
from repro.gpu.launch import grid_1d
from repro.gpu.stream import Stream
from repro.utils.arrays import (
    INDEX_DTYPE,
    concat_ranges,
    coo_from_keys,
    exclusive_scan,
    keys_from_coo,
    segment_ids,
)

#: Sentinel for an empty hash slot (no valid column index equals it).
EMPTY = np.uint32(0xFFFFFFFF)

#: Fibonacci-hashing multiplier (Knuth), as used by Nsparse's hash kernels.
HASH_MULTIPLIER = np.uint64(2654435761)

#: Shared-memory bin bounds.  Rows with ub above the last bound use
#: global-memory tables.
DEFAULT_BIN_BOUNDS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (int(x) - 1).bit_length()


def _hash_positions(cols: np.ndarray, mask: int) -> np.ndarray:
    """Initial probe position for each candidate column."""
    return ((cols.astype(np.uint64) * HASH_MULTIPLIER) & np.uint64(mask)).astype(
        np.int64
    )


def hash_insert_inplace(
    tables: np.ndarray, row_local: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Insert candidate columns into per-row open-addressing tables.

    ``tables`` is ``(R, ts)`` uint32 initialized to ``EMPTY`` (ts a power
    of two).  Vectorized linear probing: each round reads all pending
    slots, lets empty-slot writers race (NumPy fancy assignment is
    last-write-wins, standing in for atomicCAS), re-reads to find the
    losers, and advances their probe index.  Terminates because each
    contended slot settles one writer per round and tables are sized
    ≥ 2× the per-row candidate count.

    Returns the *winning* inserts as ``(rows, cols)`` — exactly one win
    per distinct (row, column) pair, which is precisely the output set
    (the real kernel reads it back from the table; returning the claim
    stream avoids re-scanning the table in the vectorized executor).
    """
    n = cols.size
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint32)
    ts = tables.shape[1]
    mask = ts - 1
    idx = _hash_positions(cols, mask)
    pending = np.arange(n, dtype=np.int64)
    won_rows: list[np.ndarray] = []
    won_cols: list[np.ndarray] = []
    while pending.size:
        r = row_local[pending]
        c = cols[pending]
        i = idx[pending]
        slot = tables[r, i]
        match = slot == c
        empty = slot == EMPTY
        if empty.any():
            er, ei, ec = r[empty], i[empty], c[empty]
            tables[er, ei] = ec
            won = tables[er, ei] == ec
            claimed = np.zeros(pending.size, dtype=bool)
            claimed[empty] = won
            if won.any():
                # Duplicate candidates may "win" the same slot in one
                # round (same value written twice) — keep one of each.
                wr, wc = er[won], ec[won]
                if wr.size > 1:
                    _, first = np.unique(keys_from_coo(wr, wc), return_index=True)
                    wr, wc = wr[first], wc[first]
                won_rows.append(wr)
                won_cols.append(wc)
        else:
            claimed = np.zeros(pending.size, dtype=bool)
        keep = ~(match | claimed)
        if not keep.any():
            break
        survivors = pending[keep]
        idx[survivors] = (idx[survivors] + 1) & mask
        pending = survivors
    if not won_rows:
        return np.empty(0, np.int64), np.empty(0, np.uint32)
    return (
        np.concatenate(won_rows),
        np.concatenate(won_cols),
    )


def _gather_candidates(
    rows_sel: np.ndarray,
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (local-row, column) stream for the selected A rows.

    This is the probe stream the CUDA kernel reads on the fly from B's
    rows; materializing it is an executor artifact (not accounted).
    """
    aptr = a_rowptr.astype(np.int64)
    starts = aptr[rows_sel]
    lens = aptr[rows_sel + 1] - starts
    a_idx = concat_ranges(starts, lens)
    if a_idx.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint32)
    owner_local = segment_ids(lens)  # local row per A entry
    k = a_cols[a_idx].astype(np.int64)
    bptr = b_rowptr.astype(np.int64)
    b_starts = bptr[k]
    b_lens = bptr[k + 1] - b_starts
    g = concat_ranges(b_starts, b_lens)
    if g.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint32)
    owner2 = segment_ids(b_lens)
    row_local = owner_local[owner2]
    cand_cols = b_cols[g]
    return row_local, np.ascontiguousarray(cand_cols, dtype=np.uint32)


def _process_chunk(
    tables: np.ndarray,
    rows_chunk: np.ndarray,
    a_rowptr: np.ndarray,
    a_cols: np.ndarray,
    b_rowptr: np.ndarray,
    b_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run hash + extract for one chunk of rows.

    Returns ``(counts, row_local_sorted, cols_sorted)`` where the last
    two list every output entry of the chunk grouped by local row with
    ascending columns.
    """
    nrows_chunk = rows_chunk.size
    tables[:nrows_chunk].fill(EMPTY)
    row_local, cand_cols = _gather_candidates(
        rows_chunk, a_rowptr, a_cols, b_rowptr, b_cols
    )
    view = tables[:nrows_chunk]
    out_rows, out_cols = hash_insert_inplace(view, row_local, cand_cols)
    counts = np.bincount(out_rows, minlength=nrows_chunk)
    # Row-group + column-sort via one composite-key sort (the numeric
    # phase of the CUDA kernel sorts each table segment in shared memory).
    key = keys_from_coo(out_rows, out_cols)
    key.sort()
    rl_sorted, cols_sorted = coo_from_keys(key)
    return counts, rl_sorted, cols_sorted


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
) -> tuple[np.ndarray, np.ndarray, list]:
    """Compute the boolean product ``C = A · B`` in CSR.

    Returns ``(rowptr, cols, buffers)`` where the arrays alias device
    buffers listed in ``buffers`` (ownership passes to the caller).

    ``use_binning=False`` routes every non-empty row through a single
    global-memory table configuration — the ablation baseline showing
    what the bin dispatcher buys.
    """
    m = int(a_shape[0])
    n = int(b_shape[1])

    ub = spgemm_upper_bound(a_rowptr, a_cols, b_rowptr)
    row_nnz = np.zeros(m, dtype=np.int64)

    # Classify rows into bins.
    if use_binning:
        bounds = list(bin_bounds)
    else:
        bounds = []
    max_bound = bounds[-1] if bounds else 0

    # chunk capacity: aggregate shared memory across SMs, in uint32 slots.
    shared_slots = (
        device.limits.shared_mem_per_block // 4
    ) * device.limits.multiprocessor_count

    # Collected chunk results, assembled after exact allocation.
    emitted: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # rows_chunk, rl, cols

    def _run_bin(rows_bin: np.ndarray, bound: int, shared: bool) -> None:
        if rows_bin.size == 0:
            return
        # Table sizing: global-memory tables use Nsparse's 2x bound (they
        # are accounted in the arena, so the factor is part of the memory
        # model); shared-memory tables use 4x to keep the vectorized
        # probe loop short (unaccounted either way — executor tuning).
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
            tables = np.empty((min(chunk_rows, rows_bin.size), ts), dtype=np.uint32)
        else:
            chunk_rows = max(1, min(rows_bin.size, (1 << 24) // ts))
            table_buf = device.arena.alloc((min(chunk_rows, rows_bin.size), ts), np.uint32)
            tables = table_buf.data
        block = device.limits.clamp_block(min(bound if bound else 32, 1024))
        try:
            for lo in range(0, rows_bin.size, chunk_rows):
                rows_chunk = rows_bin[lo : lo + chunk_rows]

                def _kernel(config, rows_chunk=rows_chunk, tables=tables):
                    return _process_chunk(
                        tables, rows_chunk, a_rowptr, a_cols, b_rowptr, b_cols
                    )

                _kernel.__name__ = (
                    f"spgemm_hash_{'shared' if shared else 'global'}_b{bound or 'max'}"
                )
                counts, rl, cols_sorted = stream.launch(
                    _kernel, grid_1d(rows_chunk.size * block, block)
                )
                row_nnz[rows_chunk] = counts
                emitted.append((rows_chunk, rl, cols_sorted))
        finally:
            if table_buf is not None:
                table_buf.free()

    nonzero_rows = np.nonzero(ub > 0)[0]
    if use_binning:
        prev = 0
        for bound in bounds:
            sel = nonzero_rows[(ub[nonzero_rows] > prev) & (ub[nonzero_rows] <= bound)]
            _run_bin(sel, bound, shared=True)
            prev = bound
        big = nonzero_rows[ub[nonzero_rows] > max_bound]
        if big.size:
            _run_bin(big, int(ub[big].max()), shared=False)
    else:
        if nonzero_rows.size:
            _run_bin(nonzero_rows, int(ub[nonzero_rows].max()), shared=False)

    # Exact output allocation (device memory).
    rowptr_buf = device.arena.alloc(m + 1, INDEX_DTYPE)
    out_rowptr = rowptr_buf.data
    scan = exclusive_scan(row_nnz)
    out_rowptr[...] = scan.astype(INDEX_DTYPE)
    total = int(scan[-1])
    cols_buf = device.arena.alloc(total, INDEX_DTYPE)
    out_cols = cols_buf.data

    # Scatter each chunk's sorted entries into the output.
    for rows_chunk, rl, cols_sorted in emitted:
        if cols_sorted.size == 0:
            continue
        counts = row_nnz[rows_chunk]
        local_starts = np.repeat(exclusive_scan(counts)[:-1], counts)
        rank = np.arange(cols_sorted.size, dtype=np.int64) - local_starts
        pos = scan[rows_chunk[rl]] + rank
        out_cols[pos] = cols_sorted

    return out_rowptr, out_cols, [rowptr_buf, cols_buf]
