"""Adaptive hybrid sparse / bit-packed backend.

The SPbLA paper's Boolean-specialized sparse kernels win while data is
sparse; once density crosses a threshold, word-parallel dense multiply
over packed 64-bit words wins (ablation E9, and the Bit-GraphBLAS /
Karppa–Kaski line of work).  Closure and CFPQ fixpoints start sparse and
densify, so neither regime is right for the whole run.

:class:`HybridBackend` wraps one of the sparse backends (cuBool CSR or
clBool COO) and dispatches **per operation**: a density/size cost model
(:class:`HybridPolicy`, :func:`estimate_costs`) compares the predicted
work of the sparse kernel against the word-parallel
:class:`~repro.formats.bitmatrix.BitMatrix` kernel — including the cost
of any format conversion — and routes to the cheaper one.  Conversions
are lazy and cached on the matrix handle (:class:`HybridMatrix` holds
*both* a sparse and a bit view), so a fixpoint loop pays packing once
and stays resident in bit form while its intermediates densify.

The views are pattern-only: bit words cannot carry min-plus distances
or plus-times counts, so the dispatcher is :attr:`boolean_only` like
the backends it wraps.  A boolean ``semiring=`` (an explicit
``"bool-or-and"`` included) routes byte-identically to the default; a
value semiring is rejected before any kernel runs.  Value algebras have
one executor, the generic backend (:mod:`repro.backends.generic`).

Cost model
----------
Costs are in *word-op units* (one uint64 ALU op on the simulated
device).  For ``C = A·B`` with ``A: m x k``, ``B: k x n``:

* bit kernel:     ``m * k * ceil(n / 64)`` word ops (the blocked
  broadcast OR-reduction touches every A bit once per B word column);
* sparse kernel:  ``alpha * (nnz(A) * nnz(B) / k + nnz(A) + nnz(B))``
  — the expected multiset expansion size plus one traversal of each
  stored operand (format prep is O(nnz) even when the product itself is
  tiny), scaled by ``alpha``, the measured per-product overhead of
  hashing/sorting relative to a word op.

``alpha`` is derived from the crossover density ``d*`` so the two costs
break even for a square equal-density multiply exactly at ``d*``:
``alpha = 1 / (64 * d*^2)``.  ``d* = CROSSOVER_DENSITY = 0.02`` is a
constant of the simulated executor, not a per-host measurement or a
knob: on the layered benchmark's calibration grid it misroutes 0 of 10
cells where a startup probe's value misrouted 4 of 10 (E11), so there
is no probe.

Each product is decided once.  :meth:`HybridBackend._mxm_kernel` builds
one table of the bit kernels that could run it — flat blocked, flat
Four-Russians, and their tiled counterparts over a
:class:`~repro.formats.tiled.TiledBitMatrix` grid, each with its
word-op cost and scratch bytes — and the :class:`CostEstimate` built
from it carries both the route price and the kernel, so bit-resident
operands (every fixpoint iteration after the first) run the kernel the
route was priced at.  Only when the product first had to pack an
operand is the table read again at launch: the conversion has just
replaced the occupancy estimate with the exact tile-presence bitmap.
The tiled costs charge only present tile pairs — the
zero-tile-skipping win on block-structured operands.  Kernel choices
and per-kernel wall time land in ``kernel_counts`` / ``kernel_times``
(E14 and the service stats).

Policy switches
---------------
``REPRO_HYBRID`` env var (read at :class:`~repro.core.context.Context`
creation): ``0``/unset — pure sparse path, byte-identical to the
wrapped backend; ``1``/``auto`` — adaptive dispatch; ``bit`` /
``sparse`` — force one regime (used by the agreement tests).  The same
modes are available programmatically via ``Context(hybrid=...)``.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.locktrace import make_lock
from repro.backends.base import Backend, BackendMatrix, get_backend, register_backend
from repro.errors import DimensionMismatchError, InvalidArgumentError
from repro.formats.bitmatrix import (
    _FR_GROUP_ROWS,
    _FR_TABLE_ENTRIES,
    _WORD,
    WORD_BITS,
    BitMatrix,
    _words_per_row,
)
from repro.formats.tiled import DEFAULT_TILE, TiledBitMatrix, scratch_shapes
from repro.gpu.device import Device

#: Density at which sparse and bit multiply break even for a square,
#: equal-density operand pair.  Calibrates SpGEMM's per-product cost,
#: ``1 / (64 * d*^2)`` word ops, and the service's ``auto`` residency.
CROSSOVER_DENSITY = 0.02
#: Calibrated per-element sparse-kernel overheads, in word-op units.
#: (Merge-path add and index-arithmetic kron move a few words per output
#: element; SpGEMM's per-product constant is derived from the crossover
#: density instead — see CROSSOVER_DENSITY.)
EWISE_SPARSE_COST = 4.0
KRON_SPARSE_COST = 6.0
#: Word-op cost per *output word* of the bit kron.  The fused
#: ``kron_into`` kernel shifts each B word-row into place and OR-scatters
#: it (two shifted reads + one OR-write per output word ≈ 3 word ops);
#: the old dense block-expansion constant was 9.
KRON_BIT_WORD_COST = 3.0

#: Four-Russians multiply: the table build (``_FR_TABLE_ENTRIES`` per
#: ``_FR_GROUP_ROWS``-row group of B) is a fixed cost amortized over
#: output rows, so the kernel only wins for products of at least
#: ``FOUR_RUSSIANS_MIN_ROWS`` output rows (the simulated-executor
#: break-even; a probe of the row ladder returned exactly this value on
#: every run — E11).  Hard floor on the reduction dimension: under a
#: word of k the grouped table never amortizes regardless of output rows.
FOUR_RUSSIANS_MIN_ROWS = 128
FOUR_RUSSIANS_MIN_K = 64

#: Python dispatch/launch overhead charged per visited tile pair of the
#: tiled route (word-op units).  Keeps fully-occupied grids on the flat
#: kernels, where the per-pair loop overhead would dominate the saved
#: work; block-structured operands amortize it over skipped tiles.
TILE_PAIR_OVERHEAD_WORDS = 4096.0

#: Multiplier (< 1) on the bit cost inside a ``backend.fixpoint()``
#: region once an operand is already bit-resident — hysteresis that
#: keeps densifying loops from thrashing between formats near the
#: crossover.
FIXPOINT_BIAS = 0.5
#: Bit routing is refused when the packed operands + result would push
#: arena live bytes beyond this fraction of device capacity (the dense
#: format must never OOM a workload the sparse path can run — E0/E8).
MAX_ARENA_FRACTION = 0.9


#: The off/auto/bit/sparse vocabulary (None: pure sparse path).
_HYBRID_MODES = {
    **dict.fromkeys(("", "0", "off", "false", "no")),
    **dict.fromkeys(("1", "on", "true", "yes", "auto"), "auto"),
    "bit": "bit",
    "sparse": "sparse",
}


def resolve_hybrid_mode(hybrid: bool | str | None = None, environ=None) -> str | None:
    """Parse a hybrid mode: None (off), "auto", "bit" or "sparse".

    ``hybrid`` is the ``Context(hybrid=)`` value; None defers to the
    ``REPRO_HYBRID`` variable of ``environ`` (default ``os.environ``).
    Both spell the same case-insensitive vocabulary, booleans included.
    """
    name = "hybrid"
    if hybrid is None:
        name = "REPRO_HYBRID"
        hybrid = (environ if environ is not None else os.environ).get(name, "")
    key = str(hybrid).strip().lower()
    if key not in _HYBRID_MODES:
        raise InvalidArgumentError(
            f"{name}={hybrid!r} not understood (use off/auto/bit/sparse)"
        )
    return _HYBRID_MODES[key]


@dataclass(frozen=True)
class HybridPolicy:
    """Dispatch policy of the hybrid backend.

    mode:
        ``"auto"`` — cost-model dispatch; ``"sparse"`` / ``"bit"`` —
        force one regime (ablation / agreement testing).

    Nothing else is policy: the crossover is ``CROSSOVER_DENSITY``, the
    cost table always offers the tiled rows (``DEFAULT_TILE``-bit tiles)
    and Four-Russians from ``FOUR_RUSSIANS_MIN_ROWS`` output rows up;
    fixpoint hysteresis and the arena budget are the ``FIXPOINT_BIAS``
    and ``MAX_ARENA_FRACTION`` constants.
    """

    mode: str = "auto"

    def __post_init__(self):
        if self.mode not in ("auto", "sparse", "bit"):
            raise InvalidArgumentError(
                f"hybrid mode {self.mode!r} not in ('auto', 'sparse', 'bit')"
            )


@dataclass
class CostEstimate:
    """Predicted word-op cost of both routes for one operation, and the
    bit ``mxm`` kernel the bit route was priced for (``None`` for the
    single-kernel ops)."""

    op: str
    sparse: float
    bit: float
    bit_bytes_needed: int = 0
    kernel: str | None = None

    @property
    def winner(self) -> str:
        return "bit" if self.bit < self.sparse else "sparse"


class HybridMatrix(BackendMatrix):
    """Matrix handle holding up to two cached views of the same pattern.

    ``sparse`` is a handle of the wrapped sparse backend; ``bit`` is a
    handle whose storage is a :class:`BitMatrix` with its word array
    living in the device arena.  At least one view is always present;
    the other materializes lazily on first use and stays cached, so a
    fixpoint loop converts each operand at most once.  ``tiled`` is an
    optional :class:`TiledBitMatrix` over the *same* arena words as the
    bit view (zero-copy — only the presence bitmap is extra), cached the
    same way for the tiled kernels' occupancy lookups.
    """

    __slots__ = ("sparse", "bit", "tiled", "_nnz")

    def __init__(
        self,
        backend: "HybridBackend",
        sparse: BackendMatrix | None = None,
        bit: BackendMatrix | None = None,
        tiled: TiledBitMatrix | None = None,
    ):
        if sparse is None and bit is None:
            raise InvalidArgumentError("hybrid matrix needs at least one view")
        if tiled is not None and bit is None:
            raise InvalidArgumentError("tiled view requires the bit view")
        self.sparse = sparse
        self.bit = bit
        self.tiled = tiled
        self.backend = backend
        self.buffers = []
        self._freed = False
        self._nnz = None

    # The resident view's storage; ``storage = None`` (from the base
    # class free path) is accepted and ignored — free() clears views.
    @property
    def storage(self):
        primary = self.sparse if self.sparse is not None else self.bit
        return primary.storage if primary is not None else None

    @storage.setter
    def storage(self, value):
        if value is not None:
            raise InvalidArgumentError(
                "hybrid matrix storage is derived from its views"
            )

    @property
    def nnz(self) -> int:
        self._check_alive()
        if self._nnz is None:
            # Prefer the sparse view: its nnz is O(1); the bit view's is
            # a popcount sweep.  Cached — handles are immutable.
            self._nnz = int(self.storage.nnz)
        return self._nnz

    @property
    def resident(self) -> str:
        """Which views are materialized: "sparse", "bit" or "both"."""
        self._check_alive()
        if self.sparse is not None and self.bit is not None:
            return "both"
        return "sparse" if self.sparse is not None else "bit"

    def memory_bytes(self) -> int:
        """Footprint of every materialized view (model bytes)."""
        self._check_alive()
        total = 0
        if self.sparse is not None:
            total += self.sparse.storage.memory_bytes()
        if self.bit is not None:
            total += self.bit.storage.memory_bytes()
        if self.tiled is not None:
            total += self.tiled.present.nbytes
        return total

    def free(self) -> None:
        if self._freed:
            return
        self._freed = True
        self.tiled = None
        for view in (self.sparse, self.bit):
            if view is not None:
                view.free()
        self.sparse = None
        self.bit = None


class HybridBackend(Backend):
    """Adaptive dispatcher over a sparse backend + bit-packed kernels."""

    name = "hybrid"
    format_kind = "hybrid"
    boolean_only = True

    def __init__(
        self,
        device: Device | None = None,
        *,
        inner: Backend | None = None,
        sparse_backend: str = "cubool",
        policy: HybridPolicy | None = None,
    ):
        if inner is None:
            inner = get_backend(sparse_backend, device=device)
        super().__init__(inner.device)
        self.inner = inner
        self.policy = policy if policy is not None else HybridPolicy()
        #: Leaf lock over the telemetry dicts below: one backend serves
        #: every scheduler worker of a QueryService, and the counters
        #: are read-modify-write.  Never held across a kernel call.
        self._telemetry_lock = make_lock("HybridBackend._telemetry_lock")
        #: op -> Counter of route decisions ("sparse"/"bit"),
        #: for the ablation benchmark and tests.
        self.dispatch_counts: dict[str, Counter] = {}  # guarded-by: _telemetry_lock
        #: op -> Counter of bit-kernel choices (mxm "blocked" /
        #: "four_russians" / "tiled" / "tiled_four_russians", kron
        #: "flat"), separate from route decisions.
        self.kernel_counts: dict[str, Counter] = {}  # guarded-by: _telemetry_lock
        #: op -> kernel -> accumulated wall seconds, the per-route
        #: timing telemetry surfaced by the service tier and selftest.
        self.kernel_times: dict[str, dict[str, float]] = {}  # guarded-by: _telemetry_lock
        #: A fixpoint region is a property of the calling thread: one
        #: scheduler worker's closure must not bias another's routing.
        self._fixpoint = threading.local()

    @property
    def _fixpoint_depth(self) -> int:
        """Nesting depth of this thread's :meth:`fixpoint` regions."""
        return getattr(self._fixpoint, "depth", 0)

    def _record_kernel(self, op: str, kernel: str, seconds: float) -> None:
        with self._telemetry_lock:
            self.kernel_counts.setdefault(op, Counter())[kernel] += 1
            times = self.kernel_times.setdefault(op, {})
            times[kernel] = times.get(kernel, 0.0) + seconds

    def telemetry(self) -> dict:
        """Consistent copy of ``dispatch_counts`` / ``kernel_counts`` /
        ``kernel_times``, keyed by those names — the read side for other
        threads (service stats) while workers are still dispatching."""
        with self._telemetry_lock:
            return {
                "dispatch_counts": {
                    op: dict(c) for op, c in self.dispatch_counts.items()
                },
                "kernel_counts": {
                    op: dict(c) for op, c in self.kernel_counts.items()
                },
                "kernel_times": {
                    op: dict(t) for op, t in self.kernel_times.items()
                },
            }

    def _record_route(self, op: str, decision: str) -> None:
        with self._telemetry_lock:
            self.dispatch_counts.setdefault(op, Counter())[decision] += 1

    # -- residency hint ----------------------------------------------------

    @contextlib.contextmanager
    def fixpoint(self):
        """Context manager marking an iterative accumulate loop.

        Inside the (re-entrant, per-thread) region the cost model
        applies ``FIXPOINT_BIAS`` hysteresis once an operand is
        bit-resident, so a densifying loop settles into the bit regime
        instead of thrashing at the crossover.
        """
        self._fixpoint.depth = self._fixpoint_depth + 1
        try:
            yield self
        finally:
            self._fixpoint.depth -= 1

    # -- view management ---------------------------------------------------

    def _wrap_sparse(self, handle: BackendMatrix) -> HybridMatrix:
        return HybridMatrix(self, sparse=handle)

    def _wrap_bit(self, bit: BitMatrix) -> HybridMatrix:
        return HybridMatrix(self, bit=self._adopt_bit(bit))

    def _adopt_bit(self, bit: BitMatrix) -> BackendMatrix:
        """Move a BitMatrix's words into the device arena (accounted)."""
        buf = self.device.arena.to_device(bit.words)
        bit.words = buf.data
        return BackendMatrix(bit, self, [buf])

    def _alloc_bit(self, shape: tuple[int, int]) -> tuple[BitMatrix, object]:
        """Allocate an *uninitialized* bit matrix directly in the arena.

        This is the fused-path allocation: one arena buffer that is both
        the accumulator seed and the kernel output, so ``mxm_into`` /
        ``kron_into`` run without any host-side word array or adoption
        copy.  ``MemoryArena.alloc`` returns ``np.empty`` storage — the
        caller MUST seed the words (zero-fill or copy the accumulator)
        before running an ``*_into`` kernel.
        """
        buf = self.device.arena.alloc(
            (shape[0], _words_per_row(shape[1])), _WORD
        )
        # No-copy: the arena hands back a contiguous uint64 array, which
        # BitMatrix adopts as-is.
        return BitMatrix(shape, buf.data), buf

    # -- bit-kernel arbitration --------------------------------------------

    def _occupancy_estimate(self, m: HybridMatrix, ntiles: int) -> float:
        """Expected present-tile fraction for ``m.nnz`` random bits over
        ``ntiles`` tiles (used when no tiled view is materialized)."""
        if ntiles <= 1:
            return 1.0 if m.nnz else 0.0
        return float(-np.expm1(m.nnz * np.log1p(-1.0 / ntiles)))

    def _mxm_kernel(self, a: HybridMatrix, b: HybridMatrix) -> tuple[str, float]:
        """Decide the bit kernel of ``a·b``: (kernel, word-op price of
        the bit route).

        One table of ``(kernel, word-op cost, scratch bytes)`` rows —
        flat blocked, flat Four-Russians, and their tiled counterparts.
        The tiled rows charge only *present* tile pairs (plus a per-pair
        dispatch overhead, the presence scan of non-resident operands
        and the output presence rescan), so block-structured operands go
        tiled while fully-occupied grids stay flat.  A row whose scratch
        would push the arena over budget is dropped; the cheapest
        survivor runs, the earlier row on a tie.

        The route is priced at the cheapest of the first three rows —
        the ones the sparse/bit crossover is calibrated against; tiled
        Four-Russians only refines the kernel once the product is on the
        bit route.
        """
        m, k = a.shape
        n = b.ncols
        wpr = _words_per_row(n)
        table = [("blocked", float(m * k * wpr), 0)]
        # The Four-Russians table build (256 entries per 8-row group of
        # B) amortizes over output rows: tall products only.
        tall = m >= FOUR_RUSSIANS_MIN_ROWS
        if tall and k >= FOUR_RUSSIANS_MIN_K:
            groups = -(-k // _FR_GROUP_ROWS)
            table.append((
                "four_russians",
                float((m + _FR_TABLE_ENTRIES) * groups * wpr),
                _FR_TABLE_ENTRIES * groups * wpr * 8,
            ))
        tile = DEFAULT_TILE
        ntr, ntk, ntj = -(-m // tile), -(-k // tile), -(-n // tile)
        # A single-tile grid is the flat kernel plus scan overhead.
        if ntr * ntk * ntj > 1:
            wpt = tile // WORD_BITS
            if a.bit is not None and b.bit is not None:
                # Exact pair count — the dot product of A's per-column
                # and B's per-row present-tile counts; the tiled views
                # are zero-copy wraps cached on the handles.
                pairs = float(
                    self._ensure_tiled(a).present_pairs(self._ensure_tiled(b))
                )
                scan = 0.0
            else:
                # Independence estimate from nnz, charged with the
                # presence scan the tiled route would then pay.
                occ_b = self._occupancy_estimate(b, ntk * ntj)
                pairs = (
                    ntr * ntk * ntj
                    * self._occupancy_estimate(a, ntr * ntk) * occ_b
                )
                scan = float(m * _words_per_row(k) + k * wpr)
            refresh = float(m * wpr)
            sel_shape, red_shape = scratch_shapes(tile)
            table.append((
                "tiled",
                pairs * (tile * tile * wpt + TILE_PAIR_OVERHEAD_WORDS)
                + scan + refresh,
                8 * (math.prod(sel_shape) + math.prod(red_shape)),
            ))
            if tall:
                if b.bit is not None:
                    b_tiles = float(np.count_nonzero(self._ensure_tiled(b).present))
                else:
                    b_tiles = ntk * ntj * occ_b
                groups_t = tile // _FR_GROUP_ROWS
                table_words = b_tiles * _FR_TABLE_ENTRIES * groups_t * wpt
                table.append((
                    "tiled_four_russians",
                    pairs * (tile * groups_t * wpt + TILE_PAIR_OVERHEAD_WORDS)
                    + table_words + scan + refresh,
                    int(table_words) * 8,
                ))
        kernel, best, price = None, float("inf"), float("inf")
        for name, cost, scratch in table:
            if scratch and not self._bit_fits(scratch):
                continue
            if cost < best:
                kernel, best = name, cost
            if name != "tiled_four_russians":
                price = min(price, cost)
        return kernel, price

    def _run_tiled_mxm(
        self,
        out: BitMatrix,
        a: HybridMatrix,
        b: HybridMatrix,
        kernel: str,
        mask: BitMatrix | None = None,
    ) -> TiledBitMatrix:
        """Execute the tiled multiply with arena-accounted scratch.

        The ``(sel, red)`` buffers of the blocked path come from the
        device arena (and are freed before returning), so the tiled
        route's scratch footprint is visible to the memory experiments;
        the Four-Russians variant's per-present-tile tables are bounded
        host scratch charged by :meth:`_mxm_kernel`.
        """
        a_t = self._ensure_tiled(a)
        b_t = self._ensure_tiled(b)
        out_t = TiledBitMatrix(out, DEFAULT_TILE, scan=False)
        four_russians = kernel == "tiled_four_russians"
        scratch = None
        scratch_bufs = []
        if not four_russians:
            sel_shape, red_shape = scratch_shapes(DEFAULT_TILE)
            sel_buf = self.device.arena.alloc(sel_shape, _WORD)
            red_buf = self.device.arena.alloc(red_shape, _WORD)
            scratch_bufs = [sel_buf, red_buf]
            scratch = (sel_buf.data, red_buf.data)
        try:
            out_t.mxm_into(
                a_t, b_t, four_russians=four_russians, scratch=scratch, mask=mask
            )
        finally:
            for sbuf in scratch_bufs:
                sbuf.free()
        return out_t

    def _ensure_sparse(self, m: HybridMatrix) -> BackendMatrix:
        if m.sparse is None:
            rows, cols = m.bit.storage.to_coo_arrays()
            m.sparse = self.inner.matrix_from_coo(rows, cols, m.shape)
        return m.sparse

    def _ensure_bit(self, m: HybridMatrix) -> BackendMatrix:
        if m.bit is None:
            storage = self._ensure_sparse(m).storage
            rows, cols = storage.to_coo_arrays()
            m.bit = self._adopt_bit(BitMatrix.from_coo(rows, cols, storage.shape))
        return m.bit

    def _ensure_tiled(self, m: HybridMatrix) -> TiledBitMatrix:
        """Cached tiled view over ``m``'s bit words (zero-copy wrap plus
        one presence scan)."""
        if m.tiled is None:
            m.tiled = TiledBitMatrix(self._ensure_bit(m).storage, DEFAULT_TILE)
        return m.tiled

    def adopt_bit_mapped(self, m: HybridMatrix, bit: BitMatrix) -> str:
        """Attach a file-backed, read-only ``bit`` as ``m``'s bit view.

        Zero-copy warm-start path for :mod:`repro.store`: ``bit.words``
        is an ``np.memmap`` over a snapshot container, registered with
        the arena via
        :meth:`~repro.gpu.memory.MemoryArena.adopt_external` instead of
        being copied to the heap (the packed words page in lazily from
        the OS cache).  No-op when ``m`` already holds a bit view.
        Returns :attr:`HybridMatrix.resident`.
        """
        m._check_alive()
        if m.bit is None:
            if bit.shape != m.shape:
                raise DimensionMismatchError("adopt_bit_mapped", m.shape, bit.shape)
            buf = self.device.arena.adopt_external(bit.words)
            m.bit = BackendMatrix(bit, self, [buf])
        return m.resident

    def ensure_resident(self, m: HybridMatrix, fmt: str) -> str:
        """Materialize (and keep) the requested view of ``m``.

        Residency hint used by long-lived holders (the service tier's
        :class:`~repro.service.graph_store.GraphStore`): a hot graph
        pinned ``"bit"`` skips the per-operation packing cost on every
        query that touches it; ``"tiled"`` additionally pins the tile
        presence bitmap so the tiled kernels' occupancy lookups are
        free.  Returns :attr:`HybridMatrix.resident`.
        """
        if fmt == "bit":
            self._ensure_bit(m)
        elif fmt == "tiled":
            self._ensure_tiled(m)
        elif fmt == "sparse":
            self._ensure_sparse(m)
        else:
            raise InvalidArgumentError(f"unknown residency format {fmt!r}")
        return m.resident

    # -- cost model --------------------------------------------------------

    @staticmethod
    def _bit_words(nrows: int, ncols: int) -> int:
        return nrows * _words_per_row(ncols)

    def _conversion_cost(self, m: HybridMatrix) -> tuple[float, int]:
        """(word ops, new arena bytes) to materialize the bit view."""
        if m.bit is not None:
            return 0.0, 0
        words = self._bit_words(m.nrows, m.ncols)
        # Scatter one bit per nnz plus zero-fill of the word array.
        return float(m.nnz + words), words * 8

    def estimate_costs(
        self, op: str, a: HybridMatrix, b: HybridMatrix | None = None
    ) -> CostEstimate:
        """Predicted cost of both routes for ``op`` (see module doc)."""
        if op not in ("mxm", "ewise_add", "ewise_mult", "kron"):
            raise InvalidArgumentError(f"no cost model for op {op!r}")
        if b is None:
            raise InvalidArgumentError(f"{op} cost model needs both operands")
        conv_a, bytes_a = self._conversion_cost(a)
        conv_b, bytes_b = self._conversion_cost(b)
        a_nnz, b_nnz = a.nnz, b.nnz
        kernel = None
        if op == "mxm":
            out_words = self._bit_words(a.nrows, b.ncols)
            flops = a_nnz * b_nnz / max(1, a.ncols)
            # Charge the operand traversal too: the sparse kernel reads
            # every stored element at least once (format prep, column
            # gather), so a huge-closure × one-edge-frontier product is
            # O(nnz(closure)), not O(flops) — without this term the
            # incremental fixpoints' asymmetric products misroute sparse.
            sparse = 1.0 / (WORD_BITS * CROSSOVER_DENSITY**2) * (flops + a_nnz + b_nnz)
            # Tile skipping is credited before the route is chosen: at
            # the flat kernel's full m*k word count a few-tile operand
            # would be handed to sparse.
            kernel, bit = self._mxm_kernel(a, b)
        elif op == "kron":
            out_words = self._bit_words(a.nrows * b.nrows, a.ncols * b.ncols)
            sparse = KRON_SPARSE_COST * a_nnz * b_nnz
            bit = KRON_BIT_WORD_COST * out_words
        else:
            out_words = self._bit_words(a.nrows, a.ncols)
            sparse = EWISE_SPARSE_COST * (a_nnz + b_nnz)
            bit = out_words
        bit += conv_a + conv_b
        if self._fixpoint_depth and (a.bit is not None or b.bit is not None):
            bit *= FIXPOINT_BIAS
        return CostEstimate(
            op=op,
            sparse=sparse,
            bit=bit,
            bit_bytes_needed=bytes_a + bytes_b + out_words * 8,
            kernel=kernel,
        )

    def _route(
        self, op: str, a: HybridMatrix, b: HybridMatrix
    ) -> tuple[str, str | None]:
        """Decide a boolean op: ``(route, bit mxm kernel the cost model
        priced it at)`` — no kernel when the mode is forced."""
        pol = self.policy
        if pol.mode == "auto":
            est = self.estimate_costs(op, a, b)
            decision, kernel = est.winner, est.kernel
            if decision == "bit" and not self._bit_fits(est.bit_bytes_needed):
                decision = "sparse"
        else:
            decision, kernel = pol.mode, None
        self._record_route(op, decision)
        return decision, kernel

    def _bit_fits(self, extra_bytes: int) -> bool:
        arena = self.device.arena
        budget = MAX_ARENA_FRACTION * arena.capacity_bytes
        return arena.live_bytes + extra_bytes <= budget

    # -- creation ----------------------------------------------------------

    def matrix_from_coo(self, rows, cols, shape):
        return self._wrap_sparse(self.inner.matrix_from_coo(rows, cols, shape))

    def matrix_empty(self, shape):
        return self._wrap_sparse(self.inner.matrix_empty(shape))

    def identity(self, n: int):
        return self._wrap_sparse(self.inner.identity(n))

    def duplicate(self, m: HybridMatrix):
        m._check_alive()
        out = HybridMatrix(
            self,
            sparse=self.inner.duplicate(m.sparse) if m.sparse is not None else None,
            bit=self._adopt_bit(m.bit.storage.copy()) if m.bit is not None else None,
        )
        return out

    # -- operations --------------------------------------------------------

    def mxm(self, a, b, accumulate=None, mask=None, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_mxm_shapes(a, b)
        out_shape = (a.nrows, b.ncols)
        self._check_product_operands(out_shape, accumulate, mask)
        route, kernel = self._route("mxm", a, b)
        if route == "bit":
            resident = a.bit is not None and b.bit is not None
            a_bit: BitMatrix = self._ensure_bit(a).storage
            b_bit: BitMatrix = self._ensure_bit(b).storage
            mask_bit: BitMatrix | None = (
                # _ensure_bit caches a bit *view* on the wrapper; the
                # mask's boolean contents stay untouched.
                self._ensure_bit(mask).storage if mask is not None else None
            )
            if kernel is None or not resident:
                # Forced mode, or the route was priced on occupancy
                # estimates and the conversion just produced the exact
                # presence bitmap: read the table now.  Resident
                # operands — every fixpoint iteration after the first —
                # run the kernel the route was priced at.
                kernel, _ = self._mxm_kernel(a, b)
            # One arena allocation that is accumulator seed and output
            # at once.  The seed copy reads the accumulator as-of call
            # time, so `accumulate` may alias a or b (the contract's
            # C <- C OR C*C case) — the *_into kernel never writes into
            # its operands.  The mask is applied inside the kernel per
            # contribution (AND-NOT distributes over the OR
            # accumulation), so the masked product never materializes.
            out, buf = self._alloc_bit(out_shape)
            if accumulate is not None:
                np.copyto(out.words, self._ensure_bit(accumulate).storage.words)
            else:
                out.words.fill(0)
            started = time.perf_counter()
            out_tiled = None
            if kernel in ("tiled", "tiled_four_russians"):
                out_tiled = self._run_tiled_mxm(out, a, b, kernel, mask=mask_bit)
            elif kernel == "four_russians":
                out.mxm_four_russians_into(a_bit, b_bit, mask_bit)
            else:
                out.mxm_into(a_bit, b_bit, mask_bit)
            self._record_kernel(
                "mxm", kernel if mask_bit is None else f"{kernel}_masked",
                time.perf_counter() - started,
            )
            return HybridMatrix(
                self, bit=BackendMatrix(out, self, [buf]), tiled=out_tiled
            )
        acc = self._ensure_sparse(accumulate) if accumulate is not None else None
        # Same caching idiom: only the sparse view slot is written.
        msk = self._ensure_sparse(mask) if mask is not None else None
        return self._wrap_sparse(
            self.inner.mxm(self._ensure_sparse(a), self._ensure_sparse(b), acc, msk)
        )

    def ewise_add(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_add", a, b)
        if self._route("ewise_add", a, b)[0] == "bit":
            return self._wrap_bit(
                self._ensure_bit(a).storage.ewise_or(self._ensure_bit(b).storage)
            )
        return self._wrap_sparse(
            self.inner.ewise_add(self._ensure_sparse(a), self._ensure_sparse(b))
        )

    def ewise_mult(self, a, b, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_same_shape("ewise_mult", a, b)
        if self._route("ewise_mult", a, b)[0] == "bit":
            return self._wrap_bit(
                self._ensure_bit(a).storage.ewise_and(self._ensure_bit(b).storage)
            )
        return self._wrap_sparse(
            self.inner.ewise_mult(self._ensure_sparse(a), self._ensure_sparse(b))
        )

    def _bit_kron(self, a, b, accumulate=None) -> HybridMatrix:
        """Bit-route Kronecker product, OR-scattered over ``accumulate``.

        The product is allocated in the arena and scattered into
        directly — no host word array, no adoption copy.  Always the
        flat kernel: it already skips empty A columns, so a tile grid
        has nothing further to skip.
        """
        a_bit: BitMatrix = self._ensure_bit(a).storage
        b_bit: BitMatrix = self._ensure_bit(b).storage
        seed = self._ensure_bit(accumulate).storage if accumulate is not None else None
        out, buf = self._alloc_bit((a.nrows * b.nrows, a.ncols * b.ncols))
        if seed is not None:
            np.copyto(out.words, seed.words)
        else:
            out.words.fill(0)
        started = time.perf_counter()
        out.kron_into(a_bit, b_bit)
        self._record_kernel("kron", "flat", time.perf_counter() - started)
        return HybridMatrix(self, bit=BackendMatrix(out, self, [buf]))

    def kron(self, a, b, *, semiring=None, accumulate=None):
        if accumulate is not None:
            return self.kron_accumulate(a, b, accumulate, semiring=semiring)
        self._resolve_semiring(semiring)
        if self._route("kron", a, b)[0] == "bit":
            return self._bit_kron(a, b)
        return self._wrap_sparse(
            self.inner.kron(self._ensure_sparse(a), self._ensure_sparse(b))
        )

    def kron_accumulate(self, a, b, accumulate, *, semiring=None):
        self._resolve_semiring(semiring)
        self._check_kron_accumulate(a, b, accumulate)
        if self._route("kron", a, b)[0] == "bit":
            return self._bit_kron(a, b, accumulate)
        return self._wrap_sparse(
            self.inner.kron_accumulate(
                self._ensure_sparse(a),
                self._ensure_sparse(b),
                self._ensure_sparse(accumulate),
            )
        )

    def _stay_resident(self, a: HybridMatrix) -> str:
        """Route format-preserving ops (transpose, extract): stay in the
        resident format — a conversion would dominate either kernel."""
        if self.policy.mode == "bit":
            return "bit"
        if self.policy.mode == "sparse":
            return "sparse"
        return "bit" if a.sparse is None else "sparse"

    def transpose(self, a):
        decision = self._stay_resident(a)
        self._record_route("transpose", decision)
        if decision == "bit":
            # Arena-accounted out-parameter form: output words and the
            # 64x64 tile workspace are arena buffers, and the source is
            # only read — a read-only memmap-backed snapshot view never
            # densifies into unaccounted host arrays.
            src: BitMatrix = self._ensure_bit(a).storage
            out, buf = self._alloc_bit((a.ncols, a.nrows))
            if a.nrows == 0 or a.ncols == 0:
                out.words.fill(0)
            else:
                tiles_buf = self.device.arena.alloc(
                    (src.words.shape[1], _words_per_row(a.nrows), WORD_BITS),
                    _WORD,
                )
                try:
                    out.transpose_into(src, tiles_scratch=tiles_buf.data)
                finally:
                    tiles_buf.free()
            return HybridMatrix(self, bit=BackendMatrix(out, self, [buf]))
        return self._wrap_sparse(self.inner.transpose(self._ensure_sparse(a)))

    def extract_submatrix(self, a, i, j, nrows, ncols):
        self._check_submatrix(a, i, j, nrows, ncols)
        decision = self._stay_resident(a)
        self._record_route("extract", decision)
        if decision == "bit":
            # Same arena-accounted contract as transpose above.
            src: BitMatrix = self._ensure_bit(a).storage
            out, buf = self._alloc_bit((nrows, ncols))
            out.extract_submatrix_into(src, i, j)
            return HybridMatrix(self, bit=BackendMatrix(out, self, [buf]))
        return self._wrap_sparse(
            self.inner.extract_submatrix(self._ensure_sparse(a), i, j, nrows, ncols)
        )

    def reduce_to_column(self, a, *, semiring=None):
        self._resolve_semiring(semiring)
        decision = self._stay_resident(a)
        self._record_route("reduce", decision)
        if decision == "bit":
            # Word-parallel row-OR straight off the packed view; the
            # skinny m x 1 result always lives sparse.
            mask = self._ensure_bit(a).storage.reduce_rows()
            rows = np.nonzero(mask)[0]
            return self._wrap_sparse(
                self.inner.matrix_from_coo(
                    rows, np.zeros(rows.size, dtype=np.int64), (a.nrows, 1)
                )
            )
        return self._wrap_sparse(self.inner.reduce_to_column(self._ensure_sparse(a)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HybridBackend(inner={self.inner.name!r}, "
            f"mode={self.policy.mode!r})"
        )


def wrap_backend(inner: Backend, *, mode: str = "auto") -> HybridBackend:
    """Wrap an existing sparse backend instance in a hybrid dispatcher."""
    return HybridBackend(inner=inner, policy=HybridPolicy(mode=mode))


register_backend("hybrid", lambda device=None: HybridBackend(device=device))
