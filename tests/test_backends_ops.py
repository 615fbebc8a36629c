"""Cross-backend operation tests: every backend vs. the dense oracle.

These are the core correctness tests of the library: each SPbLA
operation is exercised on every backend over a spread of shapes and
densities, including degenerate cases (empty matrices, empty rows,
single row/column).
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.errors import DeviceMemoryError, DimensionMismatchError, InvalidArgumentError

from .conftest import FailingAlloc, bool_mxm, random_dense


def make(ctx, dense):
    return ctx.matrix_from_dense(dense)


SHAPES = [
    (1, 1, 1),
    (5, 1, 5),
    (1, 7, 1),
    (13, 17, 11),
    (40, 40, 40),
]
DENSITIES = [0.0, 0.05, 0.3, 0.9]


class TestMxm:
    @pytest.mark.parametrize("m,k,n", SHAPES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_matches_oracle(self, ctx, rng, m, k, n, density):
        a = random_dense(rng, (m, k), density)
        b = random_dense(rng, (k, n), density)
        out = make(ctx, a).mxm(make(ctx, b))
        assert np.array_equal(out.to_dense(), bool_mxm(a, b))

    def test_accumulate(self, ctx, rng):
        a = random_dense(rng, (8, 8), 0.2)
        b = random_dense(rng, (8, 8), 0.2)
        c = random_dense(rng, (8, 8), 0.1)
        out = make(ctx, a).mxm(make(ctx, b), accumulate=make(ctx, c))
        assert np.array_equal(out.to_dense(), bool_mxm(a, b) | c)

    @pytest.mark.parametrize("m,k,n", SHAPES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_mask_accumulate_matches_oracle(self, ctx, rng, m, k, n, density):
        """``accumulate ∨ ((A·B) ∧ ¬mask)``: mask only, mask with
        accumulate, and the fixpoint shape with one handle in all four
        places."""
        a = random_dense(rng, (m, k), density)
        b = random_dense(rng, (k, n), density)
        mask = random_dense(rng, (m, n), max(density, 0.3))
        acc = random_dense(rng, (m, n), density)
        c = random_dense(rng, (m, m), density)
        ha, hb, hmask, hacc, hc = (make(ctx, x) for x in (a, b, mask, acc, c))
        product = bool_mxm(a, b)
        out = ha.mxm(hb, mask=hmask)
        assert np.array_equal(out.to_dense(), product & ~mask)
        out = ha.mxm(hb, accumulate=hacc, mask=hmask)
        assert np.array_equal(out.to_dense(), (product & ~mask) | acc)
        out = hc.mxm(hc, accumulate=hc, mask=hc)
        assert np.array_equal(out.to_dense(), bool_mxm(c, c) | c)
        # Operands are never mutated.
        for handle, dense in ((hacc, acc), (hmask, mask), (hc, c)):
            assert np.array_equal(handle.to_dense(), dense)

    def test_mask_shape_mismatch(self, ctx):
        a = ctx.matrix_empty((2, 3))
        b = ctx.matrix_empty((3, 4))
        with pytest.raises(DimensionMismatchError):
            a.mxm(b, mask=ctx.matrix_empty((2, 3)))

    def test_shape_mismatch(self, ctx):
        with pytest.raises(DimensionMismatchError):
            ctx.matrix_empty((2, 3)).mxm(ctx.matrix_empty((4, 5)))

    def test_accumulate_shape_mismatch(self, ctx):
        a = ctx.matrix_empty((2, 3))
        b = ctx.matrix_empty((3, 4))
        with pytest.raises(DimensionMismatchError):
            a.mxm(b, accumulate=ctx.matrix_empty((2, 3)))

    def test_empty_times_anything(self, ctx, rng):
        b = random_dense(rng, (5, 5), 0.5)
        out = ctx.matrix_empty((3, 5)).mxm(make(ctx, b))
        assert out.nnz == 0
        assert out.shape == (3, 5)

    def test_identity_is_neutral(self, ctx, rng):
        a = random_dense(rng, (9, 9), 0.3)
        eye = ctx.identity(9)
        assert np.array_equal(make(ctx, a).mxm(eye).to_dense(), a)
        assert np.array_equal(eye.mxm(make(ctx, a)).to_dense(), a)

    def test_matmul_operator(self, ctx, rng):
        a = random_dense(rng, (6, 6), 0.3)
        out = make(ctx, a) @ make(ctx, a)
        assert np.array_equal(out.to_dense(), bool_mxm(a, a))

    def test_dense_square(self, ctx):
        """Fully dense inputs hit the largest hash bins."""
        a = np.ones((30, 30), dtype=bool)
        out = make(ctx, a) @ make(ctx, a)
        assert out.nnz == 900


class TestEwiseAdd:
    @pytest.mark.parametrize("density", DENSITIES)
    def test_matches_oracle(self, ctx, rng, density):
        a = random_dense(rng, (15, 11), density)
        b = random_dense(rng, (15, 11), density)
        out = make(ctx, a) | make(ctx, b)
        assert np.array_equal(out.to_dense(), a | b)

    def test_self_union_idempotent(self, ctx, rng):
        a = random_dense(rng, (10, 10), 0.3)
        m = make(ctx, a)
        out = m | m
        assert np.array_equal(out.to_dense(), a)

    def test_disjoint_union(self, ctx):
        a = ctx.matrix_from_lists((4, 4), [0, 1], [0, 1])
        b = ctx.matrix_from_lists((4, 4), [2, 3], [2, 3])
        assert (a | b).nnz == 4

    def test_with_empty(self, ctx, rng):
        a = random_dense(rng, (7, 7), 0.4)
        out = make(ctx, a) | ctx.matrix_empty((7, 7))
        assert np.array_equal(out.to_dense(), a)

    def test_shape_mismatch(self, ctx):
        with pytest.raises(DimensionMismatchError):
            ctx.matrix_empty((2, 3)) | ctx.matrix_empty((3, 2))


class TestKron:
    @pytest.mark.parametrize(
        "ashape,bshape", [((2, 3), (3, 2)), ((1, 1), (5, 5)), ((4, 4), (1, 3))]
    )
    def test_matches_numpy(self, ctx, rng, ashape, bshape):
        a = random_dense(rng, ashape, 0.4)
        b = random_dense(rng, bshape, 0.4)
        out = make(ctx, a).kron(make(ctx, b))
        assert np.array_equal(out.to_dense(), np.kron(a, b) > 0)

    def test_nnz_is_product(self, ctx, rng):
        a = random_dense(rng, (6, 6), 0.3)
        b = random_dense(rng, (4, 4), 0.3)
        out = make(ctx, a).kron(make(ctx, b))
        assert out.nnz == int(a.sum()) * int(b.sum())

    def test_with_empty(self, ctx, rng):
        a = random_dense(rng, (3, 3), 0.5)
        out = make(ctx, a).kron(ctx.matrix_empty((2, 2)))
        assert out.nnz == 0
        assert out.shape == (6, 6)

    def test_accumulate_matches_numpy(self, ctx, rng):
        a = random_dense(rng, (4, 3), 0.4)
        b = random_dense(rng, (3, 5), 0.4)
        c = random_dense(rng, (12, 15), 0.1)
        hc = make(ctx, c)
        out = make(ctx, a).kron(make(ctx, b), accumulate=hc)
        assert np.array_equal(out.to_dense(), np.kron(a, b) | c)
        assert np.array_equal(hc.to_dense(), c)

    def test_accumulate_shape_mismatch(self, ctx):
        with pytest.raises(DimensionMismatchError):
            ctx.identity(2).kron(ctx.identity(3), accumulate=ctx.matrix_empty((6, 5)))

    def test_identity_kron_identity(self, ctx):
        out = ctx.identity(3).kron(ctx.identity(4))
        assert np.array_equal(out.to_dense(), np.eye(12, dtype=bool))


class TestTranspose:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (20, 5)])
    def test_matches_numpy(self, ctx, rng, shape):
        a = random_dense(rng, shape, 0.3)
        assert np.array_equal(make(ctx, a).T.to_dense(), a.T)

    def test_involution(self, ctx, rng):
        a = random_dense(rng, (8, 13), 0.3)
        assert np.array_equal(make(ctx, a).T.T.to_dense(), a)

    def test_empty(self, ctx):
        out = ctx.matrix_empty((3, 5)).T
        assert out.shape == (5, 3) and out.nnz == 0


class TestSubmatrix:
    def test_matches_numpy(self, ctx, rng):
        a = random_dense(rng, (12, 15), 0.3)
        m = make(ctx, a)
        for (i, j, h, w) in [(0, 0, 12, 15), (3, 4, 5, 6), (11, 14, 1, 1), (2, 2, 0, 0)]:
            out = m.extract_submatrix(i, j, h, w)
            assert np.array_equal(out.to_dense(), a[i : i + h, j : j + w])

    def test_slice_syntax(self, ctx, rng):
        a = random_dense(rng, (10, 10), 0.4)
        m = make(ctx, a)
        out = m[2:7, 1:9]
        assert np.array_equal(out.to_dense(), a[2:7, 1:9])

    def test_out_of_bounds(self, ctx):
        m = ctx.matrix_empty((4, 4))
        with pytest.raises(InvalidArgumentError):
            m.extract_submatrix(2, 2, 4, 4)
        with pytest.raises(InvalidArgumentError):
            m.extract_submatrix(-1, 0, 1, 1)

    def test_bad_slice_step(self, ctx):
        m = ctx.matrix_empty((4, 4))
        with pytest.raises(InvalidArgumentError):
            m[0:4:2, 0:4]


class TestReduce:
    def test_matches_numpy(self, ctx, rng):
        a = random_dense(rng, (14, 9), 0.2)
        v = make(ctx, a).reduce_to_vector()
        assert np.array_equal(v.to_dense(), a.any(axis=1))

    def test_empty(self, ctx):
        v = ctx.matrix_empty((5, 5)).reduce_to_vector()
        assert v.nnz == 0
        assert v.size == 5

    def test_full(self, ctx):
        a = np.ones((4, 2), dtype=bool)
        v = make(ctx, a).reduce_to_vector()
        assert v.nnz == 4


class TestCreationReadback:
    def test_to_lists_canonical_order(self, ctx):
        m = ctx.matrix_from_lists((3, 3), [2, 0, 2, 0], [1, 2, 0, 0])
        rows, cols = m.to_lists()
        assert rows == [0, 0, 2, 2]
        assert cols == [0, 2, 0, 1]

    def test_duplicates_collapse(self, ctx):
        m = ctx.matrix_from_lists((2, 2), [0, 0, 0], [1, 1, 1])
        assert m.nnz == 1

    def test_dup_is_deep(self, ctx, rng):
        a = random_dense(rng, (6, 6), 0.3)
        m = make(ctx, a)
        d = m.dup()
        m.free()
        assert np.array_equal(d.to_dense(), a)

    def test_random_density(self, ctx):
        m = ctx.matrix_random((50, 50), 0.1, seed=7)
        assert 0 < m.nnz <= 250

    def test_random_bad_density(self, ctx):
        with pytest.raises(InvalidArgumentError):
            ctx.matrix_random((5, 5), 1.5)


EXHAUSTION_OPS = {
    "mxm": lambda be, h: be.mxm(h["a"], h["b"]),
    "mxm_mask_accumulate": lambda be, h: be.mxm(
        h["a"], h["b"], accumulate=h["c"], mask=h["c"]
    ),
    "mxm_aliased": lambda be, h: be.mxm(h["a"], h["a"], accumulate=h["a"], mask=h["a"]),
    "kron_accumulate": lambda be, h: be.kron_accumulate(h["k"], h["k"], h["kk"]),
    "ewise_add": lambda be, h: be.ewise_add(h["a"], h["b"]),
    "ewise_mult": lambda be, h: be.ewise_mult(h["a"], h["b"]),
    "kron": lambda be, h: be.kron(h["k"], h["k"]),
    "transpose": lambda be, h: be.transpose(h["a"]),
    "extract_submatrix": lambda be, h: be.extract_submatrix(h["a"], 3, 5, 30, 20),
    "reduce_to_column": lambda be, h: be.reduce_to_column(h["a"]),
}


@pytest.mark.parametrize("op", sorted(EXHAUSTION_OPS))
@pytest.mark.parametrize("backend", ["cubool", "clbool", "generic"])
def test_arena_exhaustion_releases_partial_allocations(backend, op, rng):
    """Whichever allocation of an op fails, the op raises
    ``DeviceMemoryError`` and every byte it had taken is back."""
    be = get_backend(backend)
    dense = {
        "a": random_dense(rng, (60, 60), 0.1),
        "b": random_dense(rng, (60, 60), 0.1),
        "c": random_dense(rng, (60, 60), 0.05),
        "k": random_dense(rng, (8, 8), 0.3),
        "kk": random_dense(rng, (64, 64), 0.05),
    }
    handles = {k: be.matrix_from_dense(v) for k, v in dense.items()}
    arena = be.device.arena
    alloc = arena.alloc
    arena.alloc = counting = FailingAlloc(alloc, 0)
    EXHAUSTION_OPS[op](be, handles).free()
    assert counting.calls > 0
    baseline = arena.live_bytes
    for k in range(1, counting.calls + 1):
        arena.alloc = FailingAlloc(alloc, k)
        # The traceback keeps the op's frames alive: a buffer that only
        # a frame still references counts as leaked.
        with pytest.raises(DeviceMemoryError) as info:
            EXHAUSTION_OPS[op](be, handles)
        assert arena.live_bytes == baseline, (k, info.value)
    arena.alloc = alloc
    for h in handles.values():
        h.free()
    arena.check_balanced()
