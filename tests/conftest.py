"""Shared fixtures: per-backend contexts, oracles, random matrices."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import locktrace
from repro.errors import DeviceMemoryError

#: All registered backends (generic64 shares the generic code path and is
#: covered by its dedicated tests; "hybrid" is the adaptive sparse/bit
#: dispatcher over cubool).
BACKENDS = ("cpu", "cubool", "clbool", "generic", "hybrid")


def pytest_sessionfinish(session, exitstatus):
    """Under ``REPRO_CHECK_LOCKS=1`` any hazard the process-wide lock
    sentinel recorded fails the run.  (Tests that seed hazards install
    their own tracer, so the global one only ever sees product code.)"""
    tracer = locktrace.tracer()
    hazards = tracer.hazards() if tracer is not None else []
    if hazards:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        for hazard in hazards:
            reporter.write_line(f"lock sentinel: {hazard.render()}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(params=BACKENDS)
def ctx(request):
    """A fresh context on every backend (parametrized)."""
    context = repro.Context(backend=request.param)
    yield context
    context.finalize()


@pytest.fixture
def cubool_ctx():
    context = repro.Context(backend="cubool")
    yield context
    context.finalize()


@pytest.fixture
def clbool_ctx():
    context = repro.Context(backend="clbool")
    yield context
    context.finalize()


@pytest.fixture
def cpu_ctx():
    context = repro.Context(backend="cpu")
    yield context
    context.finalize()


@pytest.fixture
def generic_ctx():
    context = repro.Context(backend="generic")
    yield context
    context.finalize()


@pytest.fixture
def rng():
    return np.random.default_rng(20210705)


def random_dense(rng, shape, density):
    """Dense boolean array with the given expected density."""
    return rng.random(shape) < density


def dense_of(matrix) -> np.ndarray:
    """Materialize a core Matrix as dense bool (test helper)."""
    return matrix.to_dense()


def bool_mxm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense boolean product oracle."""
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def bool_closure(a: np.ndarray) -> np.ndarray:
    """Dense transitive closure oracle (length >= 1)."""
    out = a.copy()
    while True:
        nxt = out | bool_mxm(out, out)
        if np.array_equal(nxt, out):
            return out
        out = nxt


class FailingAlloc:
    """``arena.alloc`` stand-in that raises ``DeviceMemoryError`` on its
    ``fail_at``-th call (1-based; 0 never fails) and counts calls."""

    def __init__(self, alloc, fail_at: int):
        self.alloc, self.fail_at, self.calls = alloc, fail_at, 0

    def __call__(self, shape, dtype):
        self.calls += 1
        if self.calls == self.fail_at:
            raise DeviceMemoryError("injected arena exhaustion")
        return self.alloc(shape, dtype)
