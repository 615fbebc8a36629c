"""Public Matrix API tests (beyond the per-op oracle tests)."""

import numpy as np
import pytest

import repro
from repro.errors import InvalidArgumentError, InvalidStateError


class TestLifecycle:
    def test_free_then_use_raises(self, ctx):
        m = ctx.matrix_empty((2, 2))
        m.free()
        with pytest.raises(InvalidStateError):
            _ = m.nnz

    def test_free_idempotent(self, ctx):
        m = ctx.matrix_empty((2, 2))
        m.free()
        m.free()

    def test_context_finalize_frees_matrices(self):
        ctx = repro.Context(backend="cubool")
        m = ctx.matrix_empty((3, 3))
        ctx.finalize()
        with pytest.raises(InvalidStateError):
            _ = m.shape

    def test_finalized_context_rejects_creation(self):
        ctx = repro.Context(backend="cpu")
        ctx.finalize()
        with pytest.raises(InvalidStateError):
            ctx.matrix_empty((1, 1))

    def test_context_manager(self):
        with repro.Context(backend="cpu") as ctx:
            m = ctx.identity(2)
            assert m.nnz == 2
        with pytest.raises(InvalidStateError):
            ctx.identity(2)


class TestCrossContext:
    def test_mixing_contexts_rejected(self):
        c1 = repro.Context(backend="cpu")
        c2 = repro.Context(backend="cpu")
        a = c1.identity(2)
        b = c2.identity(2)
        with pytest.raises(InvalidArgumentError):
            a.mxm(b)
        with pytest.raises(InvalidArgumentError):
            a | b
        c1.finalize()
        c2.finalize()

    def test_non_matrix_operand_rejected(self, ctx):
        m = ctx.identity(2)
        with pytest.raises(InvalidArgumentError):
            m.ewise_add("nope")


class TestIntrospection:
    def test_iteration_order(self, ctx):
        m = ctx.matrix_from_lists((3, 3), [2, 0], [0, 1])
        assert list(m) == [(0, 1), (2, 0)]

    def test_len_and_bool(self, ctx):
        assert len(ctx.matrix_empty((2, 2))) == 0
        assert not ctx.matrix_empty((2, 2))
        assert ctx.identity(1)

    def test_contains(self, ctx):
        m = ctx.matrix_from_lists((2, 2), [0], [1])
        assert (0, 1) in m
        assert (1, 0) not in m

    def test_equals(self, ctx):
        a = ctx.matrix_from_lists((2, 2), [0, 1], [1, 0])
        b = ctx.matrix_from_lists((2, 2), [1, 0], [0, 1])
        c = ctx.matrix_from_lists((2, 2), [0], [1])
        assert a.equals(b)
        assert not a.equals(c)

    def test_density(self, ctx):
        m = ctx.matrix_from_lists((4, 5), [0], [0])
        assert m.density == pytest.approx(1 / 20)

    def test_memory_bytes_positive(self, ctx):
        assert ctx.identity(10).memory_bytes() > 0

    def test_getitem_requires_two_slices(self, ctx):
        m = ctx.identity(4)
        with pytest.raises(InvalidArgumentError):
            m[1]
        with pytest.raises(InvalidArgumentError):
            m[1, 2]


class TestAuto:
    def test_auto_context_backends(self, monkeypatch):
        monkeypatch.delenv("REPRO_HYBRID", raising=False)
        assert repro.Context.auto().backend_name == "cubool"
        assert repro.Context.auto(prefer_memory=True).backend_name == "clbool"

    def test_default_context_singleton(self):
        c1 = repro.default_context()
        assert repro.default_context() is c1
        c2 = repro.init(backend="cpu")
        assert repro.default_context() is c2
        assert c2.backend_name == "cpu"
        repro.init()  # restore default for other tests

    def test_unknown_backend(self):
        with pytest.raises(InvalidArgumentError):
            repro.Context(backend="tpu")
