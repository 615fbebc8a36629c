"""Tiled bit-packed boolean matrix with a zero-tile presence bitmap.

:class:`TiledBitMatrix` views a flat :class:`~repro.formats.bitmatrix.
BitMatrix` as a grid of fixed-size square bit tiles (``tile x tile``
bits, ``tile`` a multiple of 64) plus a tiny boolean *presence bitmap*
recording which tiles hold at least one set bit.  The words themselves
are shared with the flat matrix — wrapping is zero-copy — so the tiled
view costs ``ceil(m/T) * ceil(n/T)`` bytes of metadata on top of the
flat storage.

What falls out of the grid (Bit-GraphBLAS' hierarchical bit-tile
storage, see PAPERS.md) is **zero-tile skipping**:
``C[ti,tj] |= OR_tk A[ti,tk] · B[tk,tj]`` only visits pairs where both
tiles are present, so block-structured operands (the shape fixpoint
closures settle into) pay for their occupied tiles, not the full dense
grid.  The kernels are serial by construction: a 256×256-bit tile driven
by per-tile Python dispatch is too small a task for a thread fan-out to
beat the GIL (measured in EXPERIMENTS.md E14; Karppa–Kaski's
multi-worker decomposition pays only at accelerator-sized blocks).

The presence bitmap is *exact* on every publicly observable matrix:
kernels rescan their output (one word-level ``reduceat`` sweep) before
returning.  The hybrid backend (:mod:`repro.backends.hybrid`) decides
per multiply whether the tiled route beats the flat kernels, using the
exact tile-pair count as the cost input.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError, InvalidArgumentError
from repro.formats.base import SparseFormat
from repro.formats.bitmatrix import (
    _FR_GROUP_ROWS,
    _FR_TABLE_ENTRIES,
    _WORD,
    WORD_BITS,
    BitMatrix,
)

#: Default tile edge in bits.  256 keeps a full output tile row-strip
#: (tile x wpt words) inside L2 while leaving enough work per tile pair
#: to amortize Python dispatch.
DEFAULT_TILE = 256


def scratch_shapes(tile: int) -> tuple[tuple[int, int, int], tuple[int, int]]:
    """Scratch shapes of the blocked tiled multiply.

    One ``(tile, wpt, 64)`` select cube plus one ``(tile, wpt)``
    reduction row-strip, both uint64 — the tiled analogue of the flat
    kernel's ``_MXM_TEMP_WORDS``-bounded temporary.  The hybrid backend
    allocates these from the arena so the tiled route's footprint shows
    up in the memory experiments.
    """
    wpt = tile // WORD_BITS
    return (tile, wpt, WORD_BITS), (tile, wpt)


class TiledBitMatrix(SparseFormat):
    """Grid-of-bit-tiles view over a flat :class:`BitMatrix`."""

    kind = "tiled"

    def __init__(
        self,
        flat: BitMatrix,
        tile: int = DEFAULT_TILE,
        *,
        present: np.ndarray | None = None,
        scan: bool = True,
    ):
        super().__init__(flat.shape)
        if tile < WORD_BITS or tile % WORD_BITS:
            raise InvalidArgumentError(
                f"tile edge {tile} must be a positive multiple of {WORD_BITS}"
            )
        self.flat = flat
        self.tile = int(tile)
        grid = _grid_shape(flat, self.tile)
        if present is not None:
            present = np.asarray(present, dtype=np.bool_)
            if present.shape != grid:
                raise InvalidArgumentError(
                    f"presence bitmap shape {present.shape} != grid {grid}"
                )
            self.present = present
        elif scan:
            self.present = _block_any(flat.words, self.nrows, self.tile)
        else:
            # Deferred scan: the hybrid fused path seeds output words
            # first and calls refresh_presence() from the kernel.
            self.present = np.zeros(grid, dtype=np.bool_)

    # -- SparseFormat ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.flat.nnz

    def to_coo_arrays(self):
        return self.flat.to_coo_arrays()

    def memory_bytes(self) -> int:
        """Flat words plus the presence bitmap (model bytes)."""
        return self.flat.memory_bytes() + self.present.nbytes

    def validate(self) -> None:
        self.flat.validate()
        exact = _block_any(self.flat.words, self.nrows, self.tile)
        if not np.array_equal(self.present, exact):
            raise InvalidArgumentError(
                "presence bitmap out of sync with words "
                "(construct with scan=True or call refresh_presence())"
            )

    # -- grid geometry -----------------------------------------------------

    @property
    def tiles_rows(self) -> int:
        return self.present.shape[0]

    @property
    def tiles_cols(self) -> int:
        return self.present.shape[1]

    @property
    def words_per_tile(self) -> int:
        return self.tile // WORD_BITS

    @property
    def occupancy(self) -> float:
        """Fraction of grid tiles holding at least one bit."""
        return float(self.present.mean()) if self.present.size else 0.0

    def present_pairs(self, other: "TiledBitMatrix") -> int:
        """Exact (A-tile, B-tile) product count ``mxm_into`` will visit:
        ``sum_tk colcount_A(tk) * rowcount_B(tk)``."""
        if self.tiles_cols != other.tiles_rows:
            raise DimensionMismatchError(
                "present_pairs", self.shape, other.shape
            )
        a_cols = self.present.sum(axis=0, dtype=np.int64)
        b_rows = other.present.sum(axis=1, dtype=np.int64)
        return int(a_cols @ b_rows)

    def refresh_presence(self) -> None:
        """Rescan the words and make the presence bitmap exact."""
        self.present = _block_any(self.flat.words, self.nrows, self.tile)

    def copy(self) -> "TiledBitMatrix":
        return TiledBitMatrix(
            self.flat.copy(), self.tile, present=self.present.copy()
        )

    # -- kernels -----------------------------------------------------------

    def mxm(
        self, other: "TiledBitMatrix", *, four_russians: bool = False
    ) -> "TiledBitMatrix":
        """Boolean product; allocates a zeroed result and delegates to
        :meth:`mxm_into`."""
        if self.ncols != other.nrows:
            raise DimensionMismatchError("mxm", self.shape, other.shape)
        out = TiledBitMatrix(
            BitMatrix.empty((self.nrows, other.ncols)), self.tile, scan=False
        )
        return out.mxm_into(self, other, four_russians=four_russians)

    def mxm_into(
        self,
        a: "TiledBitMatrix",
        b: "TiledBitMatrix",
        *,
        four_russians: bool = False,
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
        mask: BitMatrix | None = None,
    ) -> "TiledBitMatrix":
        """OR the boolean product ``a @ b`` into ``self``'s words,
        visiting only present tile pairs.

        Fused-accumulate contract of the flat ``*_into`` kernels: the
        pattern already in ``self`` is preserved (each output word only
        ever ORs product terms in), ``self`` must not alias an operand.

        ``scratch`` supplies the ``(sel, red)`` uint64 pair of
        :func:`scratch_shapes` for the blocked path (the hybrid backend
        passes arena-accounted buffers); None allocates host scratch.
        The Four-Russians variant replaces the scratch with
        per-present-B-tile 256-entry OR tables.  ``mask`` is a *flat*
        :class:`BitMatrix` complement filter of the output shape
        (``self ∨= (a·b) ∧ ¬mask``, per-contribution like the flat
        kernels).  Returns ``self``.
        """
        if a.ncols != b.nrows:
            raise DimensionMismatchError("mxm_into", a.shape, b.shape)
        _check_tiles("mxm_into", self, a, b)
        self.flat._check_into("mxm_into", a.flat, b.flat, (a.nrows, b.ncols))
        mask_words = self.flat._check_mask("mxm_into", mask)
        m, k = a.shape
        if m == 0 or k == 0 or b.ncols == 0:
            self.refresh_presence()
            return self
        tables = _build_fr_tables(b) if four_russians else None
        if tables is None and scratch is None:
            sel_shape, red_shape = scratch_shapes(self.tile)
            scratch = (
                np.empty(sel_shape, dtype=_WORD),
                np.empty(red_shape, dtype=_WORD),
            )
        _mxm_tiles(self.flat.words, a, b, scratch, tables, mask_words)
        self.refresh_presence()
        return self

    def kron(self, other: "TiledBitMatrix") -> "TiledBitMatrix":
        """Kronecker product; zeroed result + :meth:`kron_into`."""
        shape = (self.nrows * other.nrows, self.ncols * other.ncols)
        out = TiledBitMatrix(BitMatrix.empty(shape), self.tile, scan=False)
        return out.kron_into(self, other)

    def kron_into(
        self, a: "TiledBitMatrix", b: "TiledBitMatrix"
    ) -> "TiledBitMatrix":
        """OR ``a ⊗ b`` into ``self``: the flat word-stride scatter (it
        already skips empty A columns, so tiles add nothing to skip)
        plus a presence rescan.  Same fused-accumulate and no-alias
        contract as the flat kernel.  Returns ``self``."""
        _check_tiles("kron_into", self, a, b)
        self.flat.kron_into(a.flat, b.flat)
        self.refresh_presence()
        return self


# -- grid helpers --------------------------------------------------------------


def _grid_shape(flat: BitMatrix, tile: int) -> tuple[int, int]:
    wpt = tile // WORD_BITS
    ntr = -(-flat.nrows // tile) if flat.nrows else 0
    ntc = -(-flat.words.shape[1] // wpt)
    return (ntr, ntc)


def _block_any(words: np.ndarray, nrows: int, tile: int) -> np.ndarray:
    """Exact presence bitmap: tile (ti, tc) True iff any word in the
    ``tile x wpt`` block is nonzero (bool ``add.reduceat`` is OR)."""
    wpt = tile // WORD_BITS
    wpr = words.shape[1]
    ntr = -(-nrows // tile) if nrows else 0
    ntc = -(-wpr // wpt)
    if ntr == 0:
        return np.zeros((0, ntc), dtype=np.bool_)
    nonzero = words != 0
    row_idx = np.arange(ntr) * tile
    col_idx = np.arange(ntc) * wpt
    coarse = np.add.reduceat(
        np.add.reduceat(nonzero, row_idx, axis=0), col_idx, axis=1
    )
    return coarse.astype(np.bool_)


def _check_tiles(
    op: str, out: TiledBitMatrix, a: TiledBitMatrix, b: TiledBitMatrix
) -> None:
    if not (out.tile == a.tile == b.tile):
        raise InvalidArgumentError(
            f"{op}: tile mismatch (out {out.tile}, a {a.tile}, b {b.tile})"
        )


# -- tiled multiply bodies -----------------------------------------------------


def _mxm_tiles(
    out_words: np.ndarray,
    a: TiledBitMatrix,
    b: TiledBitMatrix,
    scratch: tuple[np.ndarray, np.ndarray] | None,
    tables: dict | None,
    mask_words: np.ndarray | None = None,
) -> None:
    """Run the tiled multiply over every present tile pair.

    ``tables`` switches to the Four-Russians byte-gather path (tables
    built per present B tile); otherwise ``scratch`` is the
    ``(sel, red)`` pair of :func:`scratch_shapes`.  ``mask_words``
    AND-NOTs each tile contribution before the output OR.
    """
    tile = a.tile
    wpt = tile // WORD_BITS
    aw = a.flat.words
    bw = b.flat.words
    m, k = a.shape
    wpr_a = aw.shape[1]
    wpr_b = bw.shape[1]
    if tables is None:
        sel, red = scratch
    for ti in np.nonzero(a.present.any(axis=1))[0]:
        r0 = int(ti) * tile
        r1 = min(m, r0 + tile)
        rt = r1 - r0
        for tk in range(a.tiles_cols):
            if not a.present[ti, tk]:
                continue
            tjs = np.nonzero(b.present[tk])[0]
            if tjs.size == 0:
                continue
            k0 = tk * tile
            kt = min(k, k0 + tile) - k0
            wa0 = tk * wpt
            awk = min(wpt, wpr_a - wa0)
            if tables is not None:
                a_bytes = (
                    np.ascontiguousarray(aw[r0:r1, wa0 : wa0 + awk])
                    .view(np.uint8)
                    .reshape(rt, -1)
                )
                groups = (kt + _FR_GROUP_ROWS - 1) // _FR_GROUP_ROWS
                for tj in tjs:
                    w0 = tj * wpt
                    wn = min(wpr_b, w0 + wpt) - w0
                    out_blk = out_words[r0:r1, w0 : w0 + wn]
                    table = tables[(int(tk), int(tj))]
                    notm = (
                        None
                        if mask_words is None
                        else ~mask_words[r0:r1, w0 : w0 + wn]
                    )
                    for g in range(groups):
                        selb = a_bytes[:, g]
                        if not selb.any():
                            continue
                        if notm is None:
                            out_blk |= table[g][selb]
                        else:
                            out_blk |= table[g][selb] & notm
                continue
            # Blocked path: unpack each A word column of the tile once,
            # reuse the per-bit masks across every present B tile in
            # the row.
            abits_per_word: list[np.ndarray | None] = []
            for wa in range(awk):
                kk = min(WORD_BITS, kt - wa * WORD_BITS)
                if kk <= 0:
                    abits_per_word.append(None)
                    continue
                col = np.ascontiguousarray(aw[r0:r1, wa0 + wa])
                if not col.any():
                    abits_per_word.append(None)
                    continue
                abits_per_word.append(
                    np.unpackbits(
                        col.reshape(rt, 1).view(np.uint8),
                        axis=1,
                        bitorder="little",
                    )[:, :kk].astype(bool)
                )
            for tj in tjs:
                w0 = tj * wpt
                wn = min(wpr_b, w0 + wpt) - w0
                out_blk = out_words[r0:r1, w0 : w0 + wn]
                notm = (
                    None
                    if mask_words is None
                    else ~mask_words[r0:r1, w0 : w0 + wn]
                )
                for wa, abits in enumerate(abits_per_word):
                    if abits is None:
                        continue
                    kk = abits.shape[1]
                    kr0 = k0 + wa * WORD_BITS
                    bblk = np.ascontiguousarray(
                        bw[kr0 : kr0 + kk, w0 : w0 + wn].T
                    )
                    sub = sel[:rt, :wn, :kk]
                    sub.fill(0)
                    np.copyto(sub, bblk[None, :, :], where=abits[:, None, :])
                    np.bitwise_or.reduce(sub, axis=2, out=red[:rt, :wn])
                    if notm is None:
                        out_blk |= red[:rt, :wn]
                    else:
                        out_blk |= red[:rt, :wn] & notm


def _build_fr_tables(b: TiledBitMatrix) -> dict:
    """Per-present-B-tile Four-Russians OR tables.

    ``tables[(tk, tj)][g, mask]`` is the OR of tile (tk, tj)'s 8-row
    group ``g`` selected by ``mask``'s bits — the tiled analogue of the
    flat kernel's single global table, built only for present tiles
    (``groups x 256 x wpt`` words each, bounded workspace charged by
    the hybrid router before choosing this kernel).
    """
    tile = b.tile
    wpt = tile // WORD_BITS
    bw = b.flat.words
    k = b.nrows
    wpr_b = bw.shape[1]
    tables: dict[tuple[int, int], np.ndarray] = {}
    for tk, tj in zip(*np.nonzero(b.present)):
        k0 = int(tk) * tile
        kt = min(k, k0 + tile) - k0
        w0 = int(tj) * wpt
        wn = min(wpr_b, w0 + wpt) - w0
        groups = (kt + _FR_GROUP_ROWS - 1) // _FR_GROUP_ROWS
        grouped = np.zeros((groups * _FR_GROUP_ROWS, wn), dtype=_WORD)
        grouped[:kt] = bw[k0 : k0 + kt, w0 : w0 + wn]
        grouped = grouped.reshape(groups, _FR_GROUP_ROWS, wn)
        table = np.zeros((groups, _FR_TABLE_ENTRIES, wn), dtype=_WORD)
        for t in range(_FR_GROUP_ROWS):
            half = 1 << t
            table[:, half : 2 * half] = table[:, :half] | grouped[:, t : t + 1]
        tables[(int(tk), int(tj))] = table
    return tables
