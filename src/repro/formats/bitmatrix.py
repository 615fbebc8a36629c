"""Dense bit-packed boolean matrix.

Rows are packed 64 columns per ``uint64`` word, so an ``m x n`` matrix
occupies ``m * ceil(n / 64) * 8`` bytes.  Dense bit-matrices are the
classic alternative to sparse boolean storage (Four-Russians-style
algorithms); the reproduction uses them

* as a correctness cross-check (a third, independent representation),
* as the word-parallel execution format of the hybrid backend
  (:mod:`repro.backends.hybrid`): once density crosses a threshold,
  dense word-parallel multiply beats sparse SpGEMM (ablation E9).

The multiply is word-parallel and fully packed: row ``i`` of
``C = A @ B`` is the OR of the ``B`` word-rows selected by the set bits
of ``A``'s row ``i``, computed block-wise over A's packed words — 64
``B`` rows per A word column — without ever expanding A to a dense
``m x k`` boolean array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError, IndexOutOfBoundsError, InvalidArgumentError
from repro.formats.base import SparseFormat

WORD_BITS = 64
_WORD = np.uint64

#: Cap (in uint64 words) for the per-block select temporary of the
#: packed multiply; blocks of A rows are sized so the ``rows x 64 x
#: wpr_b`` intermediate stays under this (default 4 MiB of words).
_MXM_TEMP_WORDS = 1 << 19

#: Four-Russians geometry: B's rows are grouped 8 at a time (one byte of
#: an A row selects within a group), one 256-entry table of OR
#: combinations per group.  The tiled kernel and the hybrid cost model
#: import these — the byte-view gather only works for 8.
_FR_GROUP_ROWS = 8
_FR_TABLE_ENTRIES = 1 << _FR_GROUP_ROWS


class BitMatrix(SparseFormat):
    """Dense boolean matrix packed into 64-bit words, row-major."""

    kind = "bit"

    def __init__(self, shape: tuple[int, int], words: np.ndarray):
        super().__init__(shape)
        expected = (self.nrows, _words_per_row(self.ncols))
        words = np.ascontiguousarray(words, dtype=_WORD)
        if words.shape != expected:
            raise InvalidArgumentError(
                f"words shape {words.shape} != expected {expected}"
            )
        self.words = words

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "BitMatrix":
        nrows, ncols = int(shape[0]), int(shape[1])
        return cls(shape, np.zeros((nrows, _words_per_row(ncols)), dtype=_WORD))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        out = cls.empty((n, n))
        idx = np.arange(n)
        out.words[idx, idx // WORD_BITS] |= _WORD(1) << (idx % WORD_BITS).astype(_WORD)
        return out

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense, dtype=bool)
        if dense.ndim != 2:
            raise InvalidArgumentError("dense input must be 2-D")
        nrows, ncols = dense.shape
        wpr = _words_per_row(ncols)
        padded = np.zeros((nrows, wpr * WORD_BITS), dtype=bool)
        padded[:, :ncols] = dense
        # np.packbits packs MSB-first per byte; build words little-endian
        # by viewing bytes after packing with bitorder="little".
        packed = np.packbits(padded, axis=1, bitorder="little")
        words = packed.reshape(nrows, wpr, 8).view(np.uint8).copy()
        out_words = np.zeros((nrows, wpr), dtype=_WORD)
        for b in range(8):
            out_words |= words[:, :, b].astype(_WORD) << _WORD(8 * b)
        return cls(dense.shape, out_words)

    @classmethod
    def from_coo(cls, rows, cols, shape: tuple[int, int]) -> "BitMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        out = cls.empty(shape)
        if rows.size:
            # NumPy fancy indexing would silently wrap negative indices to
            # the wrong cells — reject them like every other constructor.
            if rows.min() < 0:
                raise IndexOutOfBoundsError("row", int(rows.min()), out.nrows)
            if cols.min() < 0:
                raise IndexOutOfBoundsError("column", int(cols.min()), out.ncols)
            if rows.max() >= out.nrows:
                raise IndexOutOfBoundsError("row", int(rows.max()), out.nrows)
            if cols.max() >= out.ncols:
                raise IndexOutOfBoundsError("column", int(cols.max()), out.ncols)
            word = cols // WORD_BITS
            bit = (cols % WORD_BITS).astype(_WORD)
            np.bitwise_or.at(out.words, (rows, word), _WORD(1) << bit)
        return out

    # -- SparseFormat ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(_popcount(self.words).sum())

    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = np.nonzero(self.to_dense())
        from repro.utils.arrays import INDEX_DTYPE

        return rows.astype(INDEX_DTYPE), cols.astype(INDEX_DTYPE)

    def to_dense(self) -> np.ndarray:
        if self.nrows == 0 or self.ncols == 0:
            return np.zeros(self.shape, dtype=bool)
        bytes_view = self.words.view(np.uint8).reshape(self.nrows, -1)
        bits = np.unpackbits(bytes_view, axis=1, bitorder="little")
        return bits[:, : self.ncols].astype(bool)

    def memory_bytes(self) -> int:
        """Model memory: m * ceil(n/64) * 8 bytes."""
        return self.words.size * self.words.itemsize

    def validate(self) -> None:
        # Padding bits beyond ncols must stay zero.
        tail_bits = _words_per_row(self.ncols) * WORD_BITS - self.ncols
        if tail_bits and self.nrows:
            if np.any(self.words[:, -1] & ~_tail_mask(tail_bits)):
                raise InvalidArgumentError("padding bits set beyond column bound")

    # -- operations (dense boolean algebra) --------------------------------

    def get(self, i: int, j: int) -> bool:
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        if not 0 <= j < self.ncols:
            raise IndexOutOfBoundsError("column", j, self.ncols)
        return bool((self.words[i, j // WORD_BITS] >> _WORD(j % WORD_BITS)) & _WORD(1))

    def set(self, i: int, j: int) -> None:
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError("row", i, self.nrows)
        if not 0 <= j < self.ncols:
            raise IndexOutOfBoundsError("column", j, self.ncols)
        self.words[i, j // WORD_BITS] |= _WORD(1) << _WORD(j % WORD_BITS)

    def ewise_or(self, other: "BitMatrix") -> "BitMatrix":
        self.same_shape(other, "ewise_or")
        return BitMatrix(self.shape, self.words | other.words)

    def or_into(self, other: "BitMatrix") -> "BitMatrix":
        """In-place OR: ``self |= other``.  Returns ``self``.

        The accumulate primitive of the fused kernels: callers that own
        a result buffer fold another pattern in without allocating.
        """
        self.same_shape(other, "or_into")
        self.words |= other.words
        return self

    def ewise_and(self, other: "BitMatrix") -> "BitMatrix":
        self.same_shape(other, "ewise_and")
        return BitMatrix(self.shape, self.words & other.words)

    def _check_into(self, op: str, a: "BitMatrix", b: "BitMatrix",
                    out_shape: tuple[int, int]) -> None:
        """Shared contract of the ``*_into`` kernels: ``self`` is the
        output, must match ``out_shape`` and must not alias an operand
        (the kernels stream over operand words while writing)."""
        if self.shape != out_shape:
            raise DimensionMismatchError(op, self.shape, out_shape)
        if np.may_share_memory(self.words, a.words) or np.may_share_memory(
            self.words, b.words
        ):
            raise InvalidArgumentError(
                f"{op}: output words must not alias an operand"
            )

    def _check_mask(self, op: str, mask: "BitMatrix | None") -> np.ndarray | None:
        """Contract of the ``mask=`` complement filter: same shape as
        the output, read-only during the kernel, so it may alias an
        operand but never the output words (the kernel ORs into the
        output while reading the mask)."""
        if mask is None:
            return None
        if mask.shape != self.shape:
            raise DimensionMismatchError(f"{op} mask", mask.shape, self.shape)
        if np.may_share_memory(self.words, mask.words):
            raise InvalidArgumentError(
                f"{op}: mask words must not alias the output"
            )
        return mask.words

    def mxm(self, other: "BitMatrix") -> "BitMatrix":
        """Boolean matrix product over packed words.

        Allocates a zeroed result and delegates to :meth:`mxm_into` (the
        fused in-place kernel, which also documents the algorithm).
        """
        if self.ncols != other.nrows:
            raise DimensionMismatchError("mxm", self.shape, other.shape)
        out = BitMatrix.empty((self.nrows, other.ncols))
        return out.mxm_into(self, other)

    def mxm_into(
        self, a: "BitMatrix", b: "BitMatrix", mask: "BitMatrix | None" = None
    ) -> "BitMatrix":
        """OR the boolean product ``a @ b`` into ``self``'s words.

        ``self.words[i] |= OR_{j : A[i,j]} B.words[j]``, evaluated
        block-wise directly on A's packed words: each word column ``wa``
        of A selects among the 64 corresponding word-rows of B.  The A
        word column is unpacked into per-bit masks (an ``m x 64``
        boolean — tiny compared to a dense ``m x k``) and the masked B
        block is OR-reduced with a single vectorized broadcast per row
        chunk.  Row chunks bound the ``rows x 64 x wpr_b`` select
        temporary to ``_MXM_TEMP_WORDS``.

        This is the fused form of ``C ∨= A·B``: the accumulate pattern
        already sitting in ``self`` is never copied or merged in a
        second pass, and no product temporary exists.  ``self`` must not
        alias ``a`` or ``b``.  Returns ``self``.

        ``mask`` filters with the *complement*: the kernel computes
        ``self ∨= (a·b) ∧ ¬mask``.  AND-NOT distributes over the OR
        accumulation (``(x ∧ ¬m) ∨ (y ∧ ¬m) = (x ∨ y) ∧ ¬m``), so each
        per-chunk contribution is masked independently — the full
        product never materializes even in masked form.  ``mask`` must
        match the output shape, is only read (it may alias ``a``/``b``),
        and must not alias the output words.
        """
        if a.ncols != b.nrows:
            raise DimensionMismatchError("mxm_into", a.shape, b.shape)
        self._check_into("mxm_into", a, b, (a.nrows, b.ncols))
        mask_words = self._check_mask("mxm_into", mask)
        m, k = a.shape
        if m == 0 or k == 0 or b.ncols == 0:
            return self
        out = self.words
        a_words = a.words
        b_words = b.words
        wpr_b = b_words.shape[1]
        chunk = max(1, _MXM_TEMP_WORDS // (WORD_BITS * wpr_b))
        zero = _WORD(0)
        for wa in range(a_words.shape[1]):
            k0 = wa * WORD_BITS
            kk = min(WORD_BITS, k - k0)
            if kk <= 0:
                break
            col = np.ascontiguousarray(a_words[:, wa])
            if not col.any():
                continue
            # (wpr_b, kk), transposed so the OR-reduction below runs over
            # the contiguous last axis.
            bblk = np.ascontiguousarray(b_words[k0 : k0 + kk].T)
            # Per-bit masks of this A word column: (m, kk) bool.
            abits = np.unpackbits(
                col.reshape(m, 1).view(np.uint8), axis=1, bitorder="little"
            )[:, :kk].astype(bool)
            for r0 in range(0, m, chunk):
                r1 = min(m, r0 + chunk)
                sel = np.where(abits[r0:r1, None, :], bblk[None, :, :], zero)
                contrib = np.bitwise_or.reduce(sel, axis=2)
                if mask_words is not None:
                    contrib &= ~mask_words[r0:r1]
                out[r0:r1] |= contrib
        return self

    def mxm_four_russians(self, other: "BitMatrix") -> "BitMatrix":
        """Boolean product via the Four-Russians table method (dense
        regime).  Allocates a zeroed result and delegates to
        :meth:`mxm_four_russians_into`."""
        if self.ncols != other.nrows:
            raise DimensionMismatchError("mxm_four_russians", self.shape, other.shape)
        out = BitMatrix.empty((self.nrows, other.ncols))
        return out.mxm_four_russians_into(self, other)

    def mxm_four_russians_into(
        self, a: "BitMatrix", b: "BitMatrix", mask: "BitMatrix | None" = None
    ) -> "BitMatrix":
        """OR ``a @ b`` into ``self`` with precomputed OR-combination
        tables (Four Russians / Karppa–Kaski style).

        B's rows are cut into ``G = ceil(k/8)`` groups of 8; for each
        group a 256-entry table holds every OR-combination of its packed
        word-rows (built by doubling: 255 OR's of ``wpr_b`` words per
        group).  Row ``i`` of the product is then the OR of ``G`` table
        gathers selected by A's row *bytes* — ``k/8`` word-row lookups
        instead of ``k`` in the blocked kernel, at the cost of the table
        build (amortized once over all ``m`` rows) and ``32x`` B's words
        of table workspace.  Wins once ``m`` is large enough to amortize
        the build; the hybrid backend routes here from
        ``repro.backends.hybrid.FOUR_RUSSIANS_MIN_ROWS`` output rows up.

        Same contract as :meth:`mxm_into`: fused accumulate, no product
        temporary, ``self`` must not alias an operand, and ``mask``
        (complement filter, ``self ∨= (a·b) ∧ ¬mask``) is applied per
        table-gather contribution.  Returns ``self``.
        """
        if a.ncols != b.nrows:
            raise DimensionMismatchError("mxm_four_russians_into", a.shape, b.shape)
        self._check_into("mxm_four_russians_into", a, b, (a.nrows, b.ncols))
        mask_words = self._check_mask("mxm_four_russians_into", mask)
        m, k = a.shape
        if m == 0 or k == 0 or b.ncols == 0:
            return self
        wpr_b = b.words.shape[1]
        groups = -(-k // _FR_GROUP_ROWS)
        # Group B's word-rows 8 at a time (zero-padded tail group).
        grouped = np.zeros((groups * _FR_GROUP_ROWS, wpr_b), dtype=_WORD)
        grouped[:k] = b.words
        grouped = grouped.reshape(groups, _FR_GROUP_ROWS, wpr_b)
        # table[g, mask] = OR of the group's rows selected by mask's bits,
        # built by doubling: entries [2^t, 2^(t+1)) = entries [0, 2^t) | row t.
        table = np.zeros((groups, _FR_TABLE_ENTRIES, wpr_b), dtype=_WORD)
        for t in range(_FR_GROUP_ROWS):
            half = 1 << t
            table[:, half : 2 * half] = table[:, :half] | grouped[:, t : t + 1]
        # A's row bytes select table entries; padding bits are zero, so
        # tail-group bytes never index past the zero-padded rows.
        a_bytes = np.ascontiguousarray(a.words).view(np.uint8).reshape(m, -1)
        out = self.words
        chunk = max(1, _MXM_TEMP_WORDS // wpr_b)
        for g in range(groups):
            sel = a_bytes[:, g]
            if not sel.any():
                continue
            t_g = table[g]
            for r0 in range(0, m, chunk):
                r1 = min(m, r0 + chunk)
                if mask_words is None:
                    out[r0:r1] |= t_g[sel[r0:r1]]
                else:
                    out[r0:r1] |= t_g[sel[r0:r1]] & ~mask_words[r0:r1]
        return self

    def kron(self, other: "BitMatrix") -> "BitMatrix":
        """Kronecker product ``self ⊗ other`` in packed form.

        Allocates a zeroed result and delegates to :meth:`kron_into`
        (the fused word-stride kernel, which documents the algorithm).
        """
        shape = (self.nrows * other.nrows, self.ncols * other.ncols)
        out = BitMatrix.empty(shape)
        return out.kron_into(self, other)

    def kron_into(self, a: "BitMatrix", b: "BitMatrix") -> "BitMatrix":
        """OR the Kronecker product ``a ⊗ b`` into ``self``'s words.

        ``K[i*p + r, j*q + c] = A[i, j] & B[r, c]``.  Fully packed: for
        each set column ``j`` of A, B's word-rows are shifted once to
        the product's bit offset ``j*q = w0*64 + s`` (two shifts and an
        OR per word — the carry out of B's last word is provably zero
        when the shifted block stays within ``ceil((s+q)/64)`` words,
        because B's padding bits are zero) and OR-scattered into the
        word stride ``[w0, w0+span)`` of every A-row block that has bit
        ``j`` set.  No dense expansion of either operand or the result
        exists at any point; the only scratch is one shifted ``p x span``
        B block, and row batches bound the scatter temporary to
        ``_MXM_TEMP_WORDS``.

        Same contract as :meth:`mxm_into`: fused accumulate (the
        pattern already in ``self`` is preserved), ``self`` must not
        alias an operand.  Returns ``self``.
        """
        m, n = a.shape
        p, q = b.shape
        self._check_into("kron_into", a, b, (m * p, n * q))
        if m == 0 or n == 0 or p == 0 or q == 0:
            return self
        if not a.words.any() or not b.words.any():
            return self
        wq = b.words.shape[1]
        wpr_out = self.words.shape[1]
        # View output rows as (A row block, B row, words) — a reshape,
        # never a copy.
        out3 = self.words.reshape(m, p, wpr_out)
        # One OR-reduced word row of A marks which columns j are set
        # anywhere, letting empty columns skip at word speed.
        col_any = np.bitwise_or.reduce(a.words, axis=0)
        one = _WORD(1)
        for j in range(n):
            wa, bit = divmod(j, WORD_BITS)
            if not (col_any[wa] >> _WORD(bit)) & one:
                continue
            rows = np.nonzero((a.words[:, wa] >> _WORD(bit)) & one)[0]
            w0, s = divmod(j * q, WORD_BITS)
            span = (s + q + WORD_BITS - 1) // WORD_BITS
            if s == 0:
                sb = b.words  # aligned: B's words drop in verbatim
            else:
                sb = np.zeros((p, span), dtype=_WORD)
                sb[:, :wq] = b.words << _WORD(s)
                # Carry of the high bits into the next word; when
                # span == wq the last word's carry is zero (B's padding
                # bits are zero), so the slice simply drops it.
                sb[:, 1:span] |= b.words[:, : span - 1] >> _WORD(WORD_BITS - s)
            target = out3[:, :, w0 : w0 + span]
            chunk = max(1, _MXM_TEMP_WORDS // (p * span))
            for r0 in range(0, rows.size, chunk):
                batch = rows[r0 : r0 + chunk]
                target[batch] |= sb
        return self

    def extract_submatrix(self, i: int, j: int, nrows: int, ncols: int) -> "BitMatrix":
        """Copy of ``self[i : i + nrows, j : j + ncols]``.

        Word-level: each output word is assembled from one or two source
        words with shifts (vectorized over rows); the tail word is masked
        so padding invariants hold.
        """
        if nrows < 0 or ncols < 0:
            raise InvalidArgumentError("submatrix dimensions must be non-negative")
        if i < 0 or j < 0 or i + nrows > self.nrows or j + ncols > self.ncols:
            raise InvalidArgumentError(
                f"submatrix [{i}:{i + nrows}, {j}:{j + ncols}] outside "
                f"{self.nrows}x{self.ncols}"
            )
        out = BitMatrix.empty((nrows, ncols))
        if nrows == 0 or ncols == 0:
            return out
        return out.extract_submatrix_into(self, i, j)

    def extract_submatrix_into(self, src: "BitMatrix", i: int, j: int) -> "BitMatrix":
        """Overwrite ``self`` with ``src[i : i + nrows, j : j + ncols]``.

        Out-parameter form of :meth:`extract_submatrix`: the output
        words are caller-owned (the hybrid backend passes an arena
        buffer), and ``src`` is only read — so a read-only memmap-backed
        snapshot view works unmodified.  Returns ``self``.
        """
        nrows, ncols = self.shape
        if i < 0 or j < 0 or i + nrows > src.nrows or j + ncols > src.ncols:
            raise InvalidArgumentError(
                f"submatrix [{i}:{i + nrows}, {j}:{j + ncols}] outside "
                f"{src.nrows}x{src.ncols}"
            )
        if np.may_share_memory(self.words, src.words):
            raise InvalidArgumentError(
                "extract_submatrix_into: output words must not alias the source"
            )
        self.words.fill(0)
        if nrows == 0 or ncols == 0:
            return self
        rows = src.words[i : i + nrows]
        w0, shift = divmod(j, WORD_BITS)
        wpr_src = rows.shape[1]
        for w in range(self.words.shape[1]):
            lo_idx = w0 + w
            if lo_idx >= wpr_src:
                break
            word = rows[:, lo_idx] >> _WORD(shift)
            if shift and lo_idx + 1 < wpr_src:
                word = word | (rows[:, lo_idx + 1] << _WORD(WORD_BITS - shift))
            self.words[:, w] = word
        tail_bits = self.words.shape[1] * WORD_BITS - ncols
        if tail_bits:
            self.words[:, -1] &= _tail_mask(tail_bits)
        return self

    def transpose(self) -> "BitMatrix":
        """Word-level transpose — no dense round-trip.

        Allocates the output and delegates to :meth:`transpose_into`
        (which documents the 64×64 delta-swap tile algorithm).
        """
        m, n = self.shape
        out = BitMatrix.empty((n, m))
        if m == 0 or n == 0:
            return out
        return out.transpose_into(self)

    def transpose_into(
        self, src: "BitMatrix", tiles_scratch: np.ndarray | None = None
    ) -> "BitMatrix":
        """Overwrite ``self`` with ``src``'s transpose (word-level).

        ``src`` is viewed as a grid of 64×64 bit tiles; tile ``(R, C)``
        of the input becomes tile ``(C, R)`` of the output, each tile
        transposed by the classic delta-swap ladder (6 masked exchange
        levels, Hacker's Delight 7-3) vectorized over every tile at
        once — ``O(words · 6)`` word ops, never a dense round-trip.

        Out-parameter form: the output words and the tile workspace are
        caller-owned, so the hybrid backend keeps the whole operation
        arena-accounted and ``src`` may be a read-only memmap snapshot
        view.  ``tiles_scratch`` must be a ``(src_words_per_row,
        words_per_row(src.nrows), 64)`` uint64 array (every element is
        overwritten); None allocates host scratch.  Returns ``self``.
        """
        m, n = src.shape
        if self.shape != (n, m):
            raise DimensionMismatchError("transpose_into", self.shape, (n, m))
        if np.may_share_memory(self.words, src.words):
            raise InvalidArgumentError(
                "transpose_into: output words must not alias the source"
            )
        if m == 0 or n == 0:
            self.words.fill(0)
            return self
        row_blocks = _words_per_row(m)   # 64-row tiles == output words/row
        wpr = src.words.shape[1]         # input words/row == output row tiles
        shape = (wpr, row_blocks, WORD_BITS)
        if tiles_scratch is None:
            tiles = np.empty(shape, dtype=_WORD)
        else:
            if tiles_scratch.shape != shape or tiles_scratch.dtype != _WORD:
                raise InvalidArgumentError(
                    f"tiles_scratch must be uint64 of shape {shape}, "
                    f"got {tiles_scratch.dtype} {tiles_scratch.shape}"
                )
            tiles = tiles_scratch
        # tiles[C, R, r] = word at input row R*64+r, word column C; the
        # strided assignments below cover every element (padding rows
        # beyond m are zeroed), so reused scratch never leaks state.
        full = m // WORD_BITS
        if full:
            tiles[:, :full, :] = (
                src.words[: full * WORD_BITS]
                .reshape(full, WORD_BITS, wpr)
                .transpose(2, 0, 1)
            )
        rem = m - full * WORD_BITS
        if rem:
            tiles[:, full, :rem] = src.words[full * WORD_BITS :].T
            tiles[:, full, rem:] = _WORD(0)
        _transpose64(tiles)
        # After the in-tile transpose, tiles[C, R, c] is output word
        # (C*64+c, R); write tile rows back, dropping padding rows >= n.
        out_full = n // WORD_BITS
        if out_full:
            self.words[: out_full * WORD_BITS].reshape(
                out_full, WORD_BITS, row_blocks
            )[...] = tiles.transpose(0, 2, 1)[:out_full]
        out_rem = n - out_full * WORD_BITS
        if out_rem:
            self.words[out_full * WORD_BITS :] = tiles[out_full, :, :out_rem].T
        return self

    def reduce_rows(self) -> np.ndarray:
        """Boolean OR along each row: True where the row has any entry."""
        return self.words.any(axis=1)

    def count_per_row(self) -> np.ndarray:
        return _popcount(self.words).sum(axis=1)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.shape, self.words.copy())


def _transpose64(tiles: np.ndarray) -> None:
    """Transpose 64×64 bit tiles in place.

    ``tiles[..., r]`` is the packed word of tile row ``r`` (bit ``c`` =
    column ``c``, little-endian to match :class:`BitMatrix`).  Each
    delta-swap level exchanges the high bit-half of the low row group
    with the low bit-half of the high row group, halving the exchange
    distance every level.
    """
    j = 32
    mask = _WORD(0x00000000FFFFFFFF)
    idx = np.arange(WORD_BITS)
    while j:
        lo = idx[(idx & j) == 0]
        x = tiles[..., lo]
        y = tiles[..., lo + j]
        t = (y ^ (x >> _WORD(j))) & mask
        tiles[..., lo + j] = y ^ t
        tiles[..., lo] = x ^ (t << _WORD(j))
        j >>= 1
        if j:
            mask = mask ^ (mask << _WORD(j))


def _words_per_row(ncols: int) -> int:
    return max(1, (ncols + WORD_BITS - 1) // WORD_BITS) if ncols else 1


def _tail_mask(tail_bits: int) -> np.uint64:
    """Mask keeping all but the top ``tail_bits`` bits of a word."""
    if tail_bits >= WORD_BITS:
        return _WORD(0)
    return (~_WORD(0)) >> _WORD(tail_bits)


def _popcount_table(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit count via a vectorized byte-table gather.

    Fallback for NumPy < 2.0; :func:`_popcount` prefers the native
    ``np.bitwise_count`` ufunc when present (``nnz`` runs every fixpoint
    iteration, so this is a hot path).
    """
    b = words.view(np.uint8)
    return _POPCOUNT_TABLE[b].reshape(*words.shape, 8).sum(axis=-1)


_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0

    def _popcount(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit count (native popcount ufunc)."""
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - exercised only on NumPy 1.x
    _popcount = _popcount_table
