"""Unit tests for the adaptive hybrid sparse/bit backend."""

import ast
import contextlib
import dataclasses
import functools
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends import get_backend, hybrid
from repro.backends.hybrid import (
    HybridBackend,
    HybridMatrix,
    HybridPolicy,
    resolve_hybrid_mode,
    wrap_backend,
)
from repro.errors import InvalidArgumentError
from repro.formats.bitmatrix import BitMatrix
from repro.formats.tiled import TiledBitMatrix
from repro.gpu.device import Device
from repro.gpu.limits import DeviceLimits


@pytest.fixture
def hybrid_ctx():
    context = repro.Context(backend="hybrid")
    yield context
    context.finalize()


def _hb(ctx) -> HybridBackend:
    return ctx.backend


class TestEnvParsing:
    def test_off_values(self):
        for raw in ("", "0", "off", "false", "no", "OFF"):
            assert resolve_hybrid_mode(None, {"REPRO_HYBRID": raw}) is None
            assert resolve_hybrid_mode(raw) is None
        assert resolve_hybrid_mode(None, {}) is None
        assert resolve_hybrid_mode(False) is None

    def test_on_values(self):
        # One vocabulary for the variable and the keyword.
        for raw in ("1", "on", "true", "auto", "AUTO", "yes"):
            assert resolve_hybrid_mode(None, {"REPRO_HYBRID": raw}) == "auto"
            assert resolve_hybrid_mode(raw) == "auto"
        assert resolve_hybrid_mode(True) == "auto"
        for mode in ("bit", "sparse"):
            assert resolve_hybrid_mode(None, {"REPRO_HYBRID": mode}) == mode
            assert resolve_hybrid_mode(mode) == mode

    def test_garbage_raises(self):
        with pytest.raises(InvalidArgumentError, match="REPRO_HYBRID"):
            resolve_hybrid_mode(None, {"REPRO_HYBRID": "maybe"})
        with pytest.raises(InvalidArgumentError, match="hybrid="):
            repro.Context(backend="cubool", hybrid="dense")

    def test_env_wraps_context(self, monkeypatch):
        monkeypatch.setenv("REPRO_HYBRID", "1")
        ctx = repro.Context(backend="cubool")
        assert ctx.backend_name == "hybrid"
        assert ctx.backend.inner.name == "cubool"
        ctx.finalize()

    def test_env_off_is_pure_sparse(self, monkeypatch):
        monkeypatch.setenv("REPRO_HYBRID", "0")
        ctx = repro.Context(backend="cubool")
        assert ctx.backend_name == "cubool"
        ctx.finalize()

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HYBRID", "1")
        ctx = repro.Context(backend="cubool", hybrid=False)
        assert ctx.backend_name == "cubool"
        ctx.finalize()

    def test_threshold_kwarg(self):
        # The crossover is hybrid.CROSSOVER_DENSITY, not a keyword: the
        # context takes three (no **kwargs, so any other is a TypeError).
        params = inspect.signature(repro.Context).parameters
        assert list(params) == ["backend", "device", "hybrid"]
        assert all(p.kind is not p.VAR_KEYWORD for p in params.values())
        assert hybrid.CROSSOVER_DENSITY == 0.02

    @pytest.mark.parametrize(
        "backend, value",
        [("hybrid", False), ("hybrid", "off"), ("cpu", "bit"), ("cpu", True),
         ("generic", "auto"), ("generic64", "sparse")],
    )
    def test_explicit_mode_that_cannot_apply_raises(self, backend, value):
        # Off on the dispatcher itself, or a mode on a backend it does
        # not wrap, cannot apply: an explicit one raises, not ignored.
        with pytest.raises(InvalidArgumentError, match="hybrid="):
            repro.Context(backend=backend, hybrid=value)

    @pytest.mark.parametrize("backend", ["cpu", "generic"])
    def test_explicit_off_on_unwrapped_backend_is_consistent(self, backend):
        ctx = repro.Context(backend=backend, hybrid=False)
        assert ctx.backend_name == backend
        ctx.finalize()

    @pytest.mark.parametrize("mode", ["bit", "sparse"])
    def test_explicit_mode_applies_to_hybrid_backend(self, mode, monkeypatch):
        ctx = repro.Context(backend="hybrid", hybrid=mode)
        assert ctx.backend.policy.mode == mode
        a = ctx.matrix_random((64, 64), 0.1, seed=1)
        a.mxm(a)
        assert set(ctx.backend.dispatch_counts["mxm"]) == {mode}
        ctx.finalize()
        # An env-only mode still leaves explicit backends alone (CI's
        # REPRO_HYBRID matrix relies on it).
        monkeypatch.setenv("REPRO_HYBRID", mode)
        for backend, name in (("hybrid", "hybrid"), ("cpu", "cpu"), ("generic", "generic")):
            ctx = repro.Context(backend=backend)
            assert ctx.backend_name == name
            assert getattr(ctx.backend, "policy", HybridPolicy()).mode == "auto"
            ctx.finalize()

    def test_repro_variables_are_audited(self):
        """Every ``REPRO_*`` name the package mentions is one of the
        three it reads, and each is documented."""
        repo = Path(__file__).resolve().parents[1]
        found = set()
        for path in (repo / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.update(re.findall(r"REPRO_[A-Z_]+", node.value))
        assert found == {
            "REPRO_HYBRID",
            "REPRO_STORE",
            "REPRO_CHECK_LOCKS",
        }
        docs = (repo / "README.md").read_text() + "".join(
            p.read_text() for p in sorted((repo / "docs").glob("*.md"))
        )
        assert all(name in docs for name in found)


class TestPolicy:
    def test_mode_validation(self):
        with pytest.raises(InvalidArgumentError):
            HybridPolicy(mode="dense")

    def test_spgemm_cost_calibration(self, monkeypatch):
        # At the crossover density the two mxm cost estimates must tie
        # (square, equal-density operands, no conversion charge).  The
        # crossover calibrates alpha against the *blocked* bit kernel;
        # Four-Russians has its own break-even, so lift it out of reach.
        monkeypatch.setattr(hybrid, "FOUR_RUSSIANS_MIN_ROWS", 10**9)
        monkeypatch.setattr(hybrid, "CROSSOVER_DENSITY", 0.05)
        backend = HybridBackend()
        n = 640
        d = 0.05
        nnz = int(d * n * n)
        rng = np.random.default_rng(0)
        a = backend.matrix_from_coo(
            rng.integers(0, n, nnz), rng.integers(0, n, nnz), (n, n)
        )
        backend._ensure_bit(a)  # no conversion term in the estimate
        est = backend.estimate_costs("mxm", a, a)
        ratio = est.sparse / est.bit
        # nnz collapses duplicates so actual density is slightly lower;
        # the tie must hold within that slack.
        assert 0.8 < ratio < 1.2
        a.free()


class TestForcedModes:
    def _random(self, ctx, shape, density, seed):
        return ctx.matrix_random(shape, density, seed=seed)

    @pytest.mark.parametrize("mode", ["sparse", "bit"])
    def test_all_ops_forced(self, mode):
        ctx = repro.Context(backend="cubool", hybrid=mode)
        a = self._random(ctx, (30, 80), 0.1, 1)
        b = self._random(ctx, (80, 20), 0.2, 2)
        c = self._random(ctx, (30, 80), 0.15, 3)
        da, db, dc = a.to_dense(), b.to_dense(), c.to_dense()

        assert np.array_equal(a.mxm(b).to_dense(), (da.astype(int) @ db.astype(int)) > 0)
        assert np.array_equal(a.ewise_add(c).to_dense(), da | dc)
        assert np.array_equal(a.ewise_mult(c).to_dense(), da & dc)
        small_a, small_b = self._random(ctx, (4, 5), 0.4, 4), self._random(ctx, (6, 7), 0.4, 5)
        assert np.array_equal(
            small_a.kron(small_b).to_dense(),
            np.kron(small_a.to_dense(), small_b.to_dense()),
        )
        assert np.array_equal(a.T.to_dense(), da.T)
        assert np.array_equal(a[5:25, 10:70].to_dense(), da[5:25, 10:70])
        assert sorted(a.reduce_to_vector().to_indices().tolist()) == sorted(
            np.nonzero(da.any(axis=1))[0].tolist()
        )
        counts = _hb(ctx).dispatch_counts
        for op_counter in counts.values():
            assert set(op_counter) == {mode}
        ctx.finalize()

    def test_masked_mxm_on_bit_route_records_masked_kernel(self):
        hb = HybridBackend(inner=get_backend("cubool"), policy=HybridPolicy(mode="bit"))
        rows = np.arange(64, dtype=np.int64)
        a = hb.matrix_from_coo(rows, (rows + 1) % 64, (64, 64))
        hb.mxm(a, a, mask=a)
        kernels = hb.telemetry()["kernel_counts"]["mxm"]
        assert any(k.endswith("_masked") for k in kernels), dict(kernels)

    def test_mxm_accumulate_bit(self):
        ctx = repro.Context(backend="cubool", hybrid="bit")
        a = self._random(ctx, (25, 25), 0.1, 6)
        acc = self._random(ctx, (25, 25), 0.1, 7)
        out = a.mxm(a, accumulate=acc)
        ref = ((a.to_dense().astype(int) @ a.to_dense().astype(int)) > 0) | acc.to_dense()
        assert np.array_equal(out.to_dense(), ref)
        ctx.finalize()


class TestResidency:
    def test_lazy_conversion_cached(self, hybrid_ctx):
        backend = _hb(hybrid_ctx)
        m = hybrid_ctx.matrix_random((40, 40), 0.3, seed=8)
        h: HybridMatrix = m.handle
        assert h.resident == "sparse"
        bit_view = backend._ensure_bit(h)
        assert h.resident == "both"
        # Second call must return the cached view, not reconvert.
        assert backend._ensure_bit(h) is bit_view

    def test_results_stay_resident(self):
        ctx = repro.Context(backend="cubool", hybrid="bit")
        a = ctx.matrix_random((30, 30), 0.3, seed=9)
        c = a.mxm(a)
        assert c.handle.resident == "bit"
        assert c.storage_kind == "bit"
        ctx.finalize()

    def test_sparse_results_resident_sparse(self):
        ctx = repro.Context(backend="cubool", hybrid="sparse")
        a = ctx.matrix_random((30, 30), 0.3, seed=9)
        c = a.mxm(a)
        assert c.handle.resident == "sparse"
        assert c.storage_kind == "csr"
        ctx.finalize()

    def test_free_releases_both_views(self, hybrid_ctx):
        backend = _hb(hybrid_ctx)
        arena = hybrid_ctx.device.arena
        before = arena.live_bytes
        m = hybrid_ctx.matrix_random((64, 64), 0.3, seed=10)
        backend._ensure_bit(m.handle)
        assert arena.live_bytes > before
        m.free()
        assert arena.live_bytes == before


class TestMemoryAccounting:
    def test_bit_view_hits_arena(self, hybrid_ctx):
        arena = hybrid_ctx.device.arena
        m = hybrid_ctx.matrix_random((128, 128), 0.2, seed=11)
        live_before = arena.live_bytes
        _hb(hybrid_ctx)._ensure_bit(m.handle)
        # 128 rows x 2 words x 8 bytes, plus alignment padding.
        assert arena.live_bytes >= live_before + 128 * 2 * 8

    def test_memory_guard_refuses_oversized_bit(self):
        from repro.gpu.device import Device
        from repro.gpu.limits import DeviceLimits

        # Near-full arena: the packed operands/result no longer fit under
        # MAX_ARENA_FRACTION, so auto mode must fall back to sparse even
        # though density favors bit.
        device = Device(limits=DeviceLimits(global_mem_bytes=1024 * 1024))
        ctx = repro.Context(backend="cubool", device=device, hybrid="auto")
        backend = _hb(ctx)
        a = ctx.matrix_random((256, 256), 0.3, seed=12)
        assert backend._route("mxm", a.handle, a.handle)[0] == "bit"
        filler = device.arena.alloc(
            int(device.arena.capacity_bytes * 0.95) - device.arena.live_bytes,
            np.uint8,
        )
        assert backend._route("mxm", a.handle, a.handle)[0] == "sparse"
        filler.free()
        ctx.finalize()

    def test_hybrid_memory_bytes_counts_views(self, hybrid_ctx):
        m = hybrid_ctx.matrix_random((64, 64), 0.2, seed=13)
        sparse_only = m.memory_bytes()
        _hb(hybrid_ctx)._ensure_bit(m.handle)
        assert m.handle.memory_bytes() == sparse_only + 64 * 1 * 8


class TestDispatchModel:
    def test_low_density_routes_sparse(self):
        ctx = repro.Context(backend="cubool", hybrid="auto")
        a = ctx.matrix_random((512, 512), 0.002, seed=14)
        a.mxm(a)
        assert _hb(ctx).dispatch_counts["mxm"]["sparse"] >= 1
        ctx.finalize()

    def test_high_density_routes_bit(self):
        ctx = repro.Context(backend="cubool", hybrid="auto")
        a = ctx.matrix_random((512, 512), 0.2, seed=15)
        a.mxm(a)
        assert _hb(ctx).dispatch_counts["mxm"]["bit"] >= 1
        ctx.finalize()

    def test_fixpoint_bias_is_reentrant(self, hybrid_ctx):
        backend = _hb(hybrid_ctx)
        assert backend._fixpoint_depth == 0
        with backend.fixpoint():
            with backend.fixpoint():
                assert backend._fixpoint_depth == 2
            assert backend._fixpoint_depth == 1
        assert backend._fixpoint_depth == 0

    def test_fixpoint_bias_favors_bit_resident(self, hybrid_ctx):
        backend = _hb(hybrid_ctx)
        m = hybrid_ctx.matrix_random((200, 200), 0.015, seed=16)
        h = m.handle
        backend._ensure_bit(h)
        plain = backend.estimate_costs("mxm", h, h)
        with backend.fixpoint():
            biased = backend.estimate_costs("mxm", h, h)
        assert biased.bit < plain.bit

    def test_fixpoint_region_is_per_thread(self, hybrid_ctx):
        # One scheduler worker's closure must not bias another worker's
        # routing: a region held open on thread A is invisible here.
        import threading

        backend = _hb(hybrid_ctx)
        m = hybrid_ctx.matrix_random((200, 200), 0.015, seed=16)
        h = m.handle
        backend._ensure_bit(h)
        plain = backend.estimate_costs("mxm", h, h)
        inside, release = threading.Event(), threading.Event()

        def hold_region():
            with backend.fixpoint():
                inside.set()
                release.wait(10.0)

        worker = threading.Thread(target=hold_region)
        worker.start()
        try:
            assert inside.wait(10.0)
            assert backend._fixpoint_depth == 0
            assert backend.estimate_costs("mxm", h, h).bit == plain.bit
        finally:
            release.set()
            worker.join(10.0)
        assert not worker.is_alive()

    def test_base_backend_fixpoint_noop(self):
        ctx = repro.Context(backend="cubool")
        with ctx.backend.fixpoint():
            m = ctx.matrix_random((8, 8), 0.2, seed=17)
            assert m.nnz >= 0
        ctx.finalize()


# Golden routing table, generated at 05d0c74 (the commit before the cost
# plan was folded into one table) by running each product for real:
# (n, density, structure) -> (kernel under mode="bit", route under
# mode="auto" for residency sparse/bit/both x outside/inside fixpoint()).
_GOLDEN_CELLS = [
    (residency, in_fixpoint)
    for residency in ("sparse", "bit", "both")
    for in_fixpoint in (False, True)
]
_GOLDEN = {
    (64, 0.002, "uniform"): ("blocked", "ssssss"),
    (64, 0.002, "blockdiag"): ("blocked", "ssssss"),
    (64, 0.01, "uniform"): ("blocked", "ssbbbb"),
    (64, 0.01, "blockdiag"): ("blocked", "sssbsb"),
    (64, 0.05, "uniform"): ("blocked", "bbbbbb"),
    (64, 0.05, "blockdiag"): ("blocked", "bbbbbb"),
    (256, 0.002, "uniform"): ("four_russians", "ssssss"),
    (256, 0.002, "blockdiag"): ("four_russians", "ssssss"),
    (256, 0.01, "uniform"): ("four_russians", "bbbbbb"),
    (256, 0.01, "blockdiag"): ("four_russians", "bbbbbb"),
    (256, 0.05, "uniform"): ("four_russians", "bbbbbb"),
    (256, 0.05, "blockdiag"): ("four_russians", "bbbbbb"),
    (1024, 0.002, "uniform"): ("four_russians", "ssssss"),
    (1024, 0.002, "blockdiag"): ("tiled_four_russians", "ssssss"),
    (1024, 0.01, "uniform"): ("four_russians", "bbbbbb"),
    (1024, 0.01, "blockdiag"): ("tiled_four_russians", "bbbbbb"),
    (1024, 0.05, "uniform"): ("four_russians", "bbbbbb"),
    (1024, 0.05, "blockdiag"): ("tiled_four_russians", "bbbbbb"),
    (2048, 0.002, "uniform"): ("four_russians", "ssssss"),
    (2048, 0.002, "blockdiag"): ("tiled_four_russians", "sssbsb"),
    (2048, 0.01, "uniform"): ("four_russians", "bbbbbb"),
    (2048, 0.01, "blockdiag"): ("tiled_four_russians", "bbbbbb"),
    (2048, 0.05, "uniform"): ("four_russians", "bbbbbb"),
    (2048, 0.05, "blockdiag"): ("tiled_four_russians", "bbbbbb"),
}
_SQUARE_ROWS = [
    pytest.param(
        ((n, n), density, structure), None, residency, in_fixpoint, None,
        {"s": "sparse", "b": "bit"}[routes[i]], kernel,
        id=f"{n}-{density}-{structure}-{residency}-{'fix' if in_fixpoint else 'nofix'}",
    )
    for (n, density, structure), (kernel, routes) in _GOLDEN.items()
    for i, (residency, in_fixpoint) in enumerate(_GOLDEN_CELLS)
]
_BLOCKS_1024 = ((1024, 1024), 0.01, "blockdiag")
_BLOCKS_2048 = ((2048, 2048), 0.01, "blockdiag")
_SHORT_BLOCKS = ((96, 2048), 0.01, "blockdiag")
_DENSE_256 = ((256, 256), 0.3, "uniform")
#: (a, b or None for a·a, residency, in fixpoint,
#: (arena MiB, fill fraction) or None, route, kernel)
_EXTRA_ROWS = [
    # A skinny frontier never amortizes the Four-Russians table build.
    *(
        pytest.param(
            ((8, 2048), 0.05, "uniform"), ((2048, 2048), 0.05, "uniform"),
            residency, False, None, "bit", "blocked", id=f"skinny-{residency}",
        )
        for residency in ("sparse", "bit", "both")
    ),
    # MAX_ARENA_FRACTION exceeded: the product goes sparse, and a forced
    # bit product cannot afford the Four-Russians table either.
    pytest.param(_DENSE_256, None, "sparse", False, (4, 0.0),
                 "bit", "four_russians", id="arena-empty"),
    pytest.param(_DENSE_256, None, "sparse", False, (4, 0.895),
                 "sparse", "blocked", id="arena-near-full"),
    # Under FOUR_RUSSIANS_MIN_ROWS output rows a block-structured product
    # runs the plain tiled kernel (64-120 rows do; 32 stay blocked).
    pytest.param(_SHORT_BLOCKS, _BLOCKS_2048, "bit", False, None,
                 "bit", "tiled", id="short-blockdiag-bit"),
]


@functools.lru_cache(maxsize=None)
def _golden_coo(shape, density, structure):
    rng = np.random.default_rng(23)
    m, n = shape
    if structure == "uniform":
        nnz = int(density * m * n)
        return rng.integers(0, m, nnz), rng.integers(0, n, nnz)
    # 8 diagonal blocks holding the same nnz
    rbs, cbs, nnz = m // 8, n // 8, int(density * m * n) // 8
    rows = np.repeat(np.arange(8) * rbs, nnz) + rng.integers(0, rbs, 8 * nnz)
    cols = np.repeat(np.arange(8) * cbs, nnz) + rng.integers(0, cbs, 8 * nnz)
    return rows, cols


def _golden_operand(hb, spec, residency):
    shape = spec[0]
    rows, cols = _golden_coo(*spec)
    if residency == "bit":
        return hb._wrap_bit(BitMatrix.from_coo(rows, cols, shape))
    m = hb.matrix_from_coo(rows, cols, shape)
    if residency == "both":
        hb.ensure_resident(m, "bit")
    return m


class TestRoutingPinned:
    """Routing is a contract: which route ``auto`` takes and which kernel
    the bit route runs are pinned product by product."""

    @staticmethod
    def _run(mode, a_spec, b_spec, residency, in_fixpoint, arena):
        """Run the product for real; (route taken, kernel that ran, kernel
        the cost estimate named beforehand)."""
        device = None
        if arena is not None:
            device = Device(
                limits=DeviceLimits(global_mem_bytes=arena[0] * 1024 * 1024)
            )
        hb = HybridBackend(
            inner=get_backend("cubool", device=device),
            policy=HybridPolicy(mode=mode),
        )
        a = _golden_operand(hb, a_spec, residency)
        b = a if b_spec is None else _golden_operand(hb, b_spec, residency)
        mem = hb.device.arena
        filler = None  # held: an unreferenced arena buffer frees itself
        if arena is not None and arena[1]:
            filler = mem.alloc(
                int(mem.capacity_bytes * arena[1]) - mem.live_bytes, np.uint8
            )
        with hb.fixpoint() if in_fixpoint else contextlib.nullcontext():
            named = hb.estimate_costs("mxm", a, b).kernel
            hb.mxm(a, b)
        (route,) = hb.dispatch_counts["mxm"]
        (ran,) = hb.kernel_counts.get("mxm") or (None,)
        return route, ran, named

    @pytest.mark.parametrize(
        "a_spec, b_spec, residency, in_fixpoint, arena, route, kernel",
        _SQUARE_ROWS + _EXTRA_ROWS,
    )
    def test_golden_route_and_kernel(
        self, a_spec, b_spec, residency, in_fixpoint, arena, route, kernel
    ):
        case = (a_spec, b_spec, residency, in_fixpoint, arena)
        got_route, ran, _ = self._run("auto", *case)
        assert got_route == route
        if route == "bit":
            assert ran == kernel
        _, ran, named = self._run("bit", *case)
        assert ran == kernel
        if residency != "sparse":
            # Nothing to convert, so the kernel that ran is the one the
            # estimate named; a conversion may refine it (exact tile
            # presence replaces the occupancy estimate).
            assert named == kernel

    def test_plain_tiled_product_matches_dense(self):
        hb = HybridBackend(inner=get_backend("cubool"))
        a = _golden_operand(hb, _SHORT_BLOCKS, "bit")
        b = _golden_operand(hb, _BLOCKS_2048, "bit")
        out = hb.mxm(a, b)
        assert dict(hb.kernel_counts["mxm"]) == {"tiled": 1}
        dense = []
        for spec in (_SHORT_BLOCKS, _BLOCKS_2048):
            d = np.zeros(spec[0], np.float32)
            d[_golden_coo(*spec)] = 1.0
            dense.append(d)
        got = np.zeros((96, 2048), bool)
        got[out.storage.to_coo_arrays()] = True
        assert np.array_equal(got, dense[0] @ dense[1] > 0)

    @pytest.mark.parametrize("mode", ["auto", "bit"])
    @pytest.mark.parametrize("residency", ["sparse", "both"])
    def test_tile_pairs_are_counted_once(self, mode, residency, monkeypatch):
        calls = []
        real = TiledBitMatrix.present_pairs
        monkeypatch.setattr(
            TiledBitMatrix,
            "present_pairs",
            lambda self, other: calls.append(1) or real(self, other),
        )
        hb = HybridBackend(
            inner=get_backend("cubool"), policy=HybridPolicy(mode=mode)
        )
        a = _golden_operand(hb, _BLOCKS_1024, residency)
        out = hb.mxm(a, a)
        assert dict(hb.kernel_counts["mxm"]) == {"tiled_four_russians": 1}
        assert len(calls) == 1
        # Steady state of a fixpoint: resident operands, one count each.
        hb.mxm(out, a)
        assert len(calls) == 2

    def test_estimate_needs_no_out_shape(self):
        hb = HybridBackend(inner=get_backend("cubool"))
        a = _golden_operand(hb, ((64, 64), 0.05, "uniform"), "sparse")
        b = hb.identity(3)
        est = hb.estimate_costs("kron", a, b)
        assert est.bit_bytes_needed == 64 * 8 + 3 * 8 + 192 * 3 * 8
        assert est.kernel is None
        for op in ("mxm", "ewise_add", "ewise_mult", "kron"):
            with pytest.raises(InvalidArgumentError):
                hb.estimate_costs(op, a)
        with pytest.raises(InvalidArgumentError):
            hb.estimate_costs("transpose", a, a)
        with pytest.raises(TypeError):
            hb.estimate_costs("kron", a, b, (192, 192))


class TestRouteShortcut:
    """``_route`` skips the kernel table when the conversions alone price
    the bit route out; the decision must be the full estimate's."""

    N = 512

    @staticmethod
    def _operand(hb, shape, density, seed, bit_resident):
        rng = np.random.default_rng(seed)
        nnz = max(1, int(density * shape[0] * shape[1]))
        rows, cols = rng.integers(0, shape[0], nnz), rng.integers(0, shape[1], nnz)
        if bit_resident:
            return hb._wrap_bit(BitMatrix.from_coo(rows, cols, shape))
        return hb.matrix_from_coo(rows, cols, shape)

    @pytest.mark.parametrize("small_arena", [False, True], ids=["arena", "small_arena"])
    @pytest.mark.parametrize("scale", [0.01, 0.1, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("a_rows", [1, N], ids=["thin", "square"])
    def test_shortcut_matches_full_estimate(self, a_rows, scale, small_arena, monkeypatch):
        n = self.N
        device = None
        if small_arena:
            device = Device(limits=DeviceLimits(global_mem_bytes=4 * 1024 * 1024))
        hb = HybridBackend(inner=get_backend("cubool", device=device))
        tables = []
        real = HybridBackend._mxm_kernel
        monkeypatch.setattr(
            HybridBackend, "_mxm_kernel",
            lambda self, a, b: tables.append(1) or real(self, a, b),
        )
        density = hybrid.CROSSOVER_DENSITY * scale
        operands = {
            (a_bit, b_bit): (
                self._operand(hb, (a_rows, n), density, 1, a_bit),
                self._operand(hb, (n, n), density, 2, b_bit),
            )
            for a_bit in (False, True)
            for b_bit in (False, True)
        }
        mem = hb.device.arena
        filler = None  # held: an unreferenced arena buffer frees itself
        if small_arena:
            filler = mem.alloc(int(mem.capacity_bytes * 0.88) - mem.live_bytes, np.uint8)
        skipped = 0
        for (a_bit, b_bit), (a, b) in operands.items():
            for in_fixpoint in (False, True):
                with hb.fixpoint() if in_fixpoint else contextlib.nullcontext():
                    before = len(tables)
                    route = hb._route("mxm", a, b)[0]
                    skipped += len(tables) == before
                    est = hb.estimate_costs("mxm", a, b)
                    fits = hb._bit_fits(est.bit_bytes_needed)
                    want = "bit" if est.winner == "bit" and fits else "sparse"
                    assert route == want, (a_bit, b_bit, in_fixpoint)
        assert filler is None or filler.nbytes > 0
        if scale == 0.01:
            # Far below the crossover, converting two sparse-resident
            # operands already costs more than the sparse product.
            assert skipped >= 2

    def test_thin_frontier_against_sparse_adjacency_builds_no_table(self, monkeypatch):
        """The serve path's shape: a few frontier rows times a large
        sparse-resident label matrix goes sparse without the table."""
        calls = []
        monkeypatch.setattr(
            HybridBackend, "_mxm_kernel", lambda self, a, b: calls.append(1)
        )
        hb = HybridBackend(inner=get_backend("cubool"))
        frontier = self._operand(hb, (4, 16384), 0.0005, 3, False)
        label = self._operand(hb, (16384, 16384), 0.0002, 4, False)
        out = hb.mxm(frontier, label)
        assert calls == [] and dict(hb.dispatch_counts["mxm"]) == {"sparse": 1}
        assert out.resident == "sparse"


class TestAutotune:
    """The autotuners and the unfused ablation arm are deleted (E11,
    E13): every spelling that asked for one is a ``TypeError``, not a
    silently ignored keyword, and the variable that enabled one is not
    read."""

    def test_context_kwarg(self):
        with pytest.raises(TypeError):
            repro.Context(backend="cubool", hybrid=True, hybrid_autotune=True)

    def test_wrap_backend_autotune(self):
        inner = get_backend("clbool")
        with pytest.raises(TypeError):
            wrap_backend(inner, autotune=True)
        with pytest.raises(TypeError):
            wrap_backend(inner, fuse=False)
        with pytest.raises(TypeError):
            HybridPolicy(fuse=False)

    def test_service_and_pool_kwargs(self):
        from repro.service import QueryService

        with pytest.raises(TypeError):
            QueryService(autotune=True)

    def test_env_enables_on_context(self, monkeypatch):
        monkeypatch.setenv("REPRO_HYBRID", "1")
        monkeypatch.setenv("REPRO_HYBRID_AUTOTUNE", "1")
        ctx = repro.Context(backend="cubool")
        assert ctx.backend_name == "hybrid"
        assert ctx.backend.policy == HybridPolicy()
        ctx.finalize()


class TestWrap:
    def test_wrap_backend_helper(self):
        inner = get_backend("clbool")
        hybrid = wrap_backend(inner, mode="bit")
        assert hybrid.inner is inner
        assert hybrid.policy == HybridPolicy(mode="bit")
        assert hybrid.device is inner.device
        # The crossover is the module constant CROSSOVER_DENSITY.
        with pytest.raises(TypeError):
            wrap_backend(inner, crossover_density=0.03)

    def test_clbool_inner_agrees(self):
        ctx_h = repro.Context(backend="clbool", hybrid="bit")
        ctx_s = repro.Context(backend="clbool")
        a_h = ctx_h.matrix_random((40, 40), 0.15, seed=18)
        a_s = ctx_s.matrix_from_lists((40, 40), *a_h.to_arrays())
        got = a_h.mxm(a_h).to_arrays()
        ref = a_s.mxm(a_s).to_arrays()
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        ctx_h.finalize()
        ctx_s.finalize()


class TestTiledRoute:
    """Tiled-kernel arbitration: cost model and telemetry."""

    @staticmethod
    def _backend():
        return HybridBackend(inner=get_backend("cubool"), policy=HybridPolicy(mode="bit"))

    @staticmethod
    def _block_diag(backend, n, blocks, density, seed=5):
        rng = np.random.default_rng(seed)
        dense = np.zeros((n, n), dtype=bool)
        bs = n // blocks
        for b in range(blocks):
            lo = b * bs
            dense[lo:lo + bs, lo:lo + bs] = rng.random((bs, bs)) < density
        rows, cols = np.nonzero(dense)
        return backend.matrix_from_coo(rows, cols, (n, n)), dense

    def test_policy_validation(self):
        # The kernel knobs are module constants and the worker-pool knobs
        # are gone: every old spelling is a TypeError, not ignored.
        assert [f.name for f in dataclasses.fields(HybridPolicy)] == ["mode"]
        for knob in ("tiled", "tile_size", "four_russians_min_rows", "workers",
                     "tiled_parallel_min_words", "fixpoint_bias",
                     "max_arena_fraction", "crossover_density"):
            with pytest.raises(TypeError):
                HybridPolicy(**{knob: 0})

    def test_block_diagonal_routes_tiled(self):
        hb = self._backend()
        a, dense = self._block_diag(hb, 1024, 4, 0.05)
        out = hb.mxm(a, a)
        kernels = hb.kernel_counts["mxm"]
        assert any(k.startswith("tiled") for k in kernels), dict(kernels)
        rows, cols = out.storage.to_coo_arrays()
        got = np.zeros((1024, 1024), dtype=bool)
        got[rows, cols] = True
        assert np.array_equal(got, dense @ dense)

    def test_single_tile_grid_stays_flat(self):
        hb = self._backend()
        a, _ = self._block_diag(hb, 192, 2, 0.2)
        assert not hb.estimate_costs("mxm", a, a).kernel.startswith("tiled")

    def test_ensure_resident_tiled(self):
        hb = self._backend()
        a, _ = self._block_diag(hb, 512, 2, 0.05)
        hb.ensure_resident(a, "tiled")
        assert a.bit is not None and a.tiled is not None
        a.tiled.validate()
        # Cached: a second call reuses the wrap.
        view = a.tiled
        hb.ensure_resident(a, "tiled")
        assert a.tiled is view

    def test_kernel_times_accumulate(self):
        hb = self._backend()
        a, _ = self._block_diag(hb, 1024, 4, 0.05)
        hb.mxm(a, a)
        times = hb.kernel_times["mxm"]
        assert set(times) == set(hb.kernel_counts["mxm"])
        assert all(t >= 0.0 for t in times.values())

    def test_wrap_backend_tiled_knobs(self):
        for knob in ("tiled", "workers"):
            with pytest.raises(TypeError):
                wrap_backend(get_backend("clbool"), **{knob: 2})

    def test_kron_on_the_bit_route_is_the_flat_kernel(self):
        hb = self._backend()
        a, dense = self._block_diag(hb, 512, 2, 0.05)
        eye = hb.identity(2)
        out = hb.kron(eye, a)
        assert dict(hb.kernel_counts["kron"]) == {"flat": 1}
        assert out.tiled is None
        rows, cols = out.storage.to_coo_arrays()
        got = np.zeros((1024, 1024), dtype=bool)
        got[rows, cols] = True
        assert np.array_equal(got, np.kron(np.eye(2, dtype=bool), dense))


class TestTelemetryLock:
    def test_concurrent_records_sum_exactly(self):
        import sys
        import threading

        from repro.backends import get_backend

        hb = HybridBackend(inner=get_backend("cubool"))
        threads_n, calls = 8, 20_000

        def hammer():
            for _ in range(calls):
                hb._record_kernel("mxm", "blocked", 1.0)
                hb._record_route("mxm", "bit")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        total = threads_n * calls
        snap = hb.telemetry()
        assert snap["kernel_counts"]["mxm"]["blocked"] == total
        assert snap["kernel_times"]["mxm"]["blocked"] == float(total)
        assert snap["dispatch_counts"]["mxm"]["bit"] == total
        assert set(snap) == {"dispatch_counts", "kernel_counts", "kernel_times"}
