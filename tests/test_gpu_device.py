"""Unit tests for devices, streams, launches, and limits."""

import numpy as np
import pytest

from repro.errors import DeviceError, InvalidArgumentError
from repro.gpu import (
    Device,
    DeviceLimits,
    LaunchConfig,
    Stream,
    grid_1d,
    occupancy,
)
from repro.gpu.limits import CUDA_LIKE, OPENCL_LIKE


class TestLimits:
    def test_defaults_valid(self):
        limits = DeviceLimits()
        assert limits.max_threads_per_block == 1024
        assert limits.warp_size == 32

    def test_clamp_block_rounds_to_warp(self):
        limits = DeviceLimits()
        assert limits.clamp_block(33) == 64
        assert limits.clamp_block(1) == 32
        assert limits.clamp_block(5000) == 1024

    def test_clamp_block_invalid(self):
        with pytest.raises(ValueError):
            DeviceLimits().clamp_block(0)

    def test_bad_warp_size(self):
        with pytest.raises(ValueError):
            DeviceLimits(warp_size=33)

    def test_bad_alignment(self):
        with pytest.raises(ValueError):
            DeviceLimits(alloc_alignment=100)

    def test_profiles_differ(self):
        assert OPENCL_LIKE.max_threads_per_block < CUDA_LIKE.max_threads_per_block


class TestLaunch:
    def test_grid_1d(self):
        cfg = grid_1d(1000, 256)
        assert cfg.grid == 4
        assert cfg.block == 256
        assert cfg.threads == 1024
        assert cfg.work_items == 1000

    def test_grid_1d_zero_items(self):
        cfg = grid_1d(0, 256)
        assert cfg.grid == 1  # at least one block launches

    def test_grid_1d_bad_block(self):
        with pytest.raises(InvalidArgumentError):
            grid_1d(10, 0)

    def test_undersized_launch_rejected(self):
        with pytest.raises(DeviceError):
            LaunchConfig(grid=1, block=32, work_items=64)

    def test_occupancy(self):
        cfg = grid_1d(1024, 256)
        assert occupancy(cfg, multiprocessor_count=4) == 1.0
        cfg2 = grid_1d(1, 256)  # 1 useful thread of 256, 1 block of 4 SMs
        assert occupancy(cfg2, multiprocessor_count=4) == pytest.approx(1 / 1024)


class TestStream:
    def test_launch_records(self):
        dev = Device()
        s = dev.stream()

        def kernel(config, x):
            return x + 1

        out = s.launch(kernel, grid_1d(10, 32), 41)
        assert out == 42
        assert s.launch_count == 1
        assert s.launches[0].kernel_name == "kernel"
        assert dev.counters.kernel_launches == 1

    def test_launch_log_is_bounded_and_counts_stay_exact(self, monkeypatch):
        from repro.gpu import stream as stream_mod

        monkeypatch.setattr(stream_mod, "LAUNCH_LOG_LIMIT", 4)
        dev = Device()
        s = dev.stream()
        for i in range(10):
            s.launch(lambda c, x: x, grid_1d(1, 32), i)
        assert len(s.launches) == 4  # the newest four
        assert s.launch_count == dev.counters.kernel_launches == 10
        assert s.total_kernel_time() == pytest.approx(
            dev.counters.kernel_time_s
        )

    def test_events_elapsed(self):
        dev = Device()
        s = dev.stream()
        e1 = s.record_event("start")
        e2 = s.record_event("end")
        assert e2.elapsed_since(e1) >= 0

    def test_destroyed_stream_rejects(self):
        dev = Device()
        s = dev.stream()
        s.destroy()
        with pytest.raises(DeviceError):
            s.synchronize()
        with pytest.raises(DeviceError):
            s.launch(lambda c: None, grid_1d(1, 32))

    def test_context_manager(self):
        dev = Device()
        with dev.stream() as s:
            s.record_event()
        with pytest.raises(DeviceError):
            s.record_event()

    def test_total_kernel_time(self):
        dev = Device()
        s = dev.stream()
        s.launch(lambda c: sum(range(1000)), grid_1d(1, 32))
        assert s.total_kernel_time() > 0


class TestDevice:
    def test_transfer_counters(self):
        dev = Device()
        buf = dev.to_device(np.arange(100, dtype=np.uint32))
        assert dev.counters.h2d_bytes == 400
        back = dev.to_host(buf)
        assert dev.counters.d2h_bytes == 400
        assert back.tolist() == list(range(100))
        buf.free()

    def test_reset_counters(self):
        dev = Device()
        buf = dev.to_device(np.arange(10, dtype=np.uint32))
        dev.reset_counters()
        assert dev.counters.h2d_bytes == 0
        assert dev.arena.peak_bytes == dev.arena.live_bytes
        buf.free()

    def test_unique_ids(self):
        assert Device().id != Device().id

    def test_default_device(self):
        from repro.gpu import default_device, reset_default_device

        d1 = default_device()
        assert default_device() is d1
        d2 = reset_default_device()
        assert default_device() is d2
        assert d2 is not d1
