"""Kernel-trace export tests."""

import io
import json

import repro
from repro.gpu import device_trace, write_trace

from .conftest import random_dense


class TestTrace:
    def test_events_cover_launches(self, rng):
        # Plain cuBool whatever REPRO_HYBRID says: the hybrid dispatcher
        # would route the dense product to the bit kernels.
        ctx = repro.Context(backend="cubool", hybrid=False)
        m = ctx.matrix_from_dense(random_dense(rng, (30, 30), 0.2))
        m.mxm(m).free()
        m.ewise_add(m).free()
        doc = device_trace(ctx.device)
        kernel_events = [e for e in doc["traceEvents"] if e.get("cat") == "kernel"]
        assert len(kernel_events) == ctx.device.counters.kernel_launches
        names = {e["name"] for e in kernel_events}
        assert any("spgemm" in n for n in names)
        assert any("merge_path" in n for n in names)
        ctx.finalize()

    def test_event_fields(self, cubool_ctx, rng):
        m = cubool_ctx.matrix_from_dense(random_dense(rng, (10, 10), 0.3))
        m.mxm(m).free()
        doc = device_trace(cubool_ctx.device)
        for e in doc["traceEvents"]:
            if e.get("cat") != "kernel":
                continue
            assert e["ph"] == "X"
            assert e["dur"] >= 0
            assert e["args"]["grid"] >= 1
            assert 0.0 <= e["args"]["occupancy"] <= 1.0

    def test_json_serializable(self, clbool_ctx, rng):
        m = clbool_ctx.matrix_from_dense(random_dense(rng, (15, 15), 0.2))
        m.mxm(m).free()
        buf = io.StringIO()
        write_trace(clbool_ctx.device, buf)
        parsed = json.loads(buf.getvalue())
        assert parsed["otherData"]["device"] == clbool_ctx.device.name

    def test_write_to_path(self, cubool_ctx, tmp_path, rng):
        m = cubool_ctx.matrix_from_dense(random_dense(rng, (8, 8), 0.3))
        m.mxm(m).free()
        path = tmp_path / "trace.json"
        write_trace(cubool_ctx.device, path)
        assert json.loads(path.read_text())["traceEvents"]
