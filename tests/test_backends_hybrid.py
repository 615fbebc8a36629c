"""Unit tests for the adaptive hybrid sparse/bit backend."""

import numpy as np
import pytest

import repro
from repro.backends.hybrid import (
    HybridBackend,
    HybridMatrix,
    HybridPolicy,
    hybrid_mode_from_env,
    wrap_backend,
)
from repro.errors import InvalidArgumentError


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
            assert hybrid_mode_from_env({"REPRO_HYBRID": raw}) is None
        assert hybrid_mode_from_env({}) is None

    def test_on_values(self):
        for raw in ("1", "on", "true", "auto", "AUTO", "yes"):
            assert hybrid_mode_from_env({"REPRO_HYBRID": raw}) == "auto"
        assert hybrid_mode_from_env({"REPRO_HYBRID": "bit"}) == "bit"
        assert hybrid_mode_from_env({"REPRO_HYBRID": "sparse"}) == "sparse"

    def test_garbage_raises(self):
        with pytest.raises(InvalidArgumentError):
            hybrid_mode_from_env({"REPRO_HYBRID": "maybe"})

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
        ctx = repro.Context(backend="cubool", hybrid=True, hybrid_threshold=0.1)
        assert ctx.backend.policy.crossover_density == 0.1
        ctx.finalize()
        ctx = repro.Context(backend="hybrid", hybrid_threshold=0.07)
        assert ctx.backend.policy.crossover_density == 0.07
        ctx.finalize()


class TestPolicy:
    def test_mode_validation(self):
        with pytest.raises(InvalidArgumentError):
            HybridPolicy(mode="dense")
        with pytest.raises(InvalidArgumentError):
            HybridPolicy(crossover_density=0.0)

    def test_spgemm_cost_calibration(self):
        # At the crossover density the two mxm cost estimates must tie
        # (square, equal-density operands, no conversion charge).  The
        # crossover calibrates alpha against the *blocked* bit kernel;
        # Four-Russians has its own break-even, so pin it off here.
        pol = HybridPolicy(crossover_density=0.05, four_russians_min_rows=0)
        backend = HybridBackend(policy=pol)
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
        # max_arena_fraction, so auto mode must fall back to sparse even
        # though density favors bit.
        device = Device(limits=DeviceLimits(global_mem_bytes=1024 * 1024))
        ctx = repro.Context(backend="cubool", device=device, hybrid="auto")
        backend = _hb(ctx)
        a = ctx.matrix_random((256, 256), 0.3, seed=12)
        assert backend._route("mxm", a.handle, a.handle) == "bit"
        filler = device.arena.alloc(
            int(device.arena.capacity_bytes * 0.95) - device.arena.live_bytes,
            np.uint8,
        )
        assert backend._route("mxm", a.handle, a.handle) == "sparse"
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


class TestAutotune:
    def _fast_kwargs(self):
        # Tiny sweep so the probe stays in the millisecond range.
        return dict(n=64, densities=(0.01, 0.08), runs=1, use_cache=False)

    def test_measured_crossover_within_bounds(self):
        from repro.backends import get_backend
        from repro.backends.hybrid import (
            AUTOTUNE_MAX_DENSITY,
            AUTOTUNE_MIN_DENSITY,
            autotune_crossover,
        )

        d = autotune_crossover(get_backend("cubool"), **self._fast_kwargs())
        assert AUTOTUNE_MIN_DENSITY <= d <= AUTOTUNE_MAX_DENSITY

    def test_process_cache_hit(self, monkeypatch):
        from repro.backends import get_backend
        from repro.backends.hybrid import _AUTOTUNE_CACHE, autotune_crossover

        inner = get_backend("cubool")
        key = ("crossover", inner.name, inner.device.name)
        monkeypatch.setitem(_AUTOTUNE_CACHE, key, 0.123)
        assert autotune_crossover(inner) == 0.123

    def test_four_russians_probe_returns_a_ladder_value(self):
        from repro.backends import get_backend
        from repro.backends.hybrid import autotune_four_russians

        m = autotune_four_russians(
            get_backend("cubool"), k=128, rows=(16, 32), runs=1, use_cache=False
        )
        assert m in (16, 32, 64)

    def test_measurements_round_trip_through_the_store(self, tmp_path, monkeypatch):
        from repro.backends import get_backend, hybrid
        from repro.store import load_autotune, save_autotune

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        monkeypatch.setattr(hybrid, "_AUTOTUNE_CACHE", {})
        inner = get_backend("cubool")
        names = (inner.name, inner.device.name)
        # A fresh probe is written back under its field, probe shape included.
        measured = hybrid.autotune_crossover(inner, **self._fast_kwargs())
        assert load_autotune(tmp_path, *names, "crossover") == measured
        assert load_autotune(tmp_path, *names, "probe_n") == 64
        # A persisted value is served without probing, each field its own.
        save_autotune(tmp_path, *names, crossover=0.0421, four_russians_min_rows=48)
        monkeypatch.setattr(hybrid, "_AUTOTUNE_CACHE", {})
        assert hybrid.autotune_crossover(inner) == 0.0421
        assert hybrid.autotune_four_russians(inner) == 48
        assert hybrid._AUTOTUNE_CACHE == {
            ("crossover", *names): 0.0421,
            ("four_russians_min_rows", *names): 48,
        }

    def test_wrap_backend_autotune(self, monkeypatch):
        from repro.backends import get_backend
        from repro.backends.hybrid import _AUTOTUNE_CACHE

        inner = get_backend("clbool")
        names = (inner.name, inner.device.name)
        monkeypatch.setitem(_AUTOTUNE_CACHE, ("crossover", *names), 0.031)
        monkeypatch.setitem(
            _AUTOTUNE_CACHE, ("four_russians_min_rows", *names), 64
        )
        hybrid = wrap_backend(inner, autotune=True)
        assert hybrid.policy.crossover_density == 0.031
        assert hybrid.policy.four_russians_min_rows == 64

    def test_explicit_threshold_beats_autotune(self, monkeypatch):
        from repro.backends import get_backend
        from repro.backends.hybrid import _AUTOTUNE_CACHE

        inner = get_backend("clbool")
        monkeypatch.setitem(
            _AUTOTUNE_CACHE, ("crossover", inner.name, inner.device.name), 0.031
        )
        hybrid = wrap_backend(inner, crossover_density=0.2, autotune=True)
        assert hybrid.policy.crossover_density == 0.2

    def test_context_kwarg(self, monkeypatch):
        from repro.backends.hybrid import _AUTOTUNE_CACHE

        _AUTOTUNE_CACHE.clear()
        ctx = repro.Context(backend="cubool", hybrid=True, hybrid_autotune=True)
        tuned = ctx.backend.policy.crossover_density
        (crossover_key,) = [k for k in _AUTOTUNE_CACHE if k[0] == "crossover"]
        assert tuned == _AUTOTUNE_CACHE[crossover_key]
        ctx.finalize()
        # The second context reuses the process-level measurement.
        ctx = repro.Context(backend="cubool", hybrid=True, hybrid_autotune=True)
        assert ctx.backend.policy.crossover_density == tuned
        ctx.finalize()

    def test_env_parsing(self):
        from repro.backends.hybrid import autotune_from_env

        for raw in ("1", "on", "true", "yes", "auto"):
            assert autotune_from_env({"REPRO_HYBRID_AUTOTUNE": raw})
        for raw in ("", "0", "off", "no", "false"):
            assert not autotune_from_env({"REPRO_HYBRID_AUTOTUNE": raw})
        assert not autotune_from_env({})

    def test_env_enables_on_context(self, monkeypatch):
        from repro.backends.hybrid import _AUTOTUNE_CACHE

        monkeypatch.setenv("REPRO_HYBRID", "1")
        monkeypatch.setenv("REPRO_HYBRID_AUTOTUNE", "1")
        monkeypatch.setitem(
            _AUTOTUNE_CACHE, ("crossover", "cubool", "cubool-dev"), 0.077
        )
        ctx = repro.Context(backend="cubool")
        assert ctx.backend_name == "hybrid"
        assert ctx.backend.policy.crossover_density == 0.077
        ctx.finalize()


class TestWrap:
    def test_wrap_backend_helper(self):
        from repro.backends import get_backend

        inner = get_backend("clbool")
        hybrid = wrap_backend(inner, mode="auto", crossover_density=0.03)
        assert hybrid.inner is inner
        assert hybrid.policy.crossover_density == 0.03
        assert hybrid.device is inner.device

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
    def _backend(**policy_kwargs):
        from repro.backends import get_backend

        policy = HybridPolicy(mode="bit", **policy_kwargs)
        return HybridBackend(inner=get_backend("cubool"), policy=policy)

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
        with pytest.raises(InvalidArgumentError):
            HybridPolicy(tile_size=100)
        with pytest.raises(InvalidArgumentError):
            HybridPolicy(tile_size=0)
        # The worker-pool knobs are gone, not silently accepted.
        with pytest.raises(TypeError):
            HybridPolicy(workers=2)
        with pytest.raises(TypeError):
            HybridPolicy(tiled_parallel_min_words=0)

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

    def test_tiled_disabled_stays_flat(self):
        hb = self._backend(tiled=False)
        a, _ = self._block_diag(hb, 1024, 4, 0.05)
        hb.mxm(a, a)
        kernels = hb.kernel_counts["mxm"]
        assert not any(k.startswith("tiled") for k in kernels), dict(kernels)

    def test_single_tile_grid_stays_flat(self):
        hb = self._backend()
        a, _ = self._block_diag(hb, 192, 2, 0.2)
        assert not hb._bit_mxm_plan(a, a).startswith("tiled")

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
        from repro.backends import get_backend

        hb = wrap_backend(get_backend("clbool"), tiled=False)
        assert hb.policy.tiled is False
        with pytest.raises(TypeError):
            wrap_backend(get_backend("clbool"), workers=2)

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
                hb._record_route("mxm", "bit", 0.5)

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
        assert snap["value_costs"]["mxm"] == total * 0.5
