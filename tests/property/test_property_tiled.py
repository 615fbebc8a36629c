"""Property tests: tiled ≡ flat ≡ sparse across tile boundaries.

For any operands, the tiled kernels (zero-tile skipping) must be
element-identical to the flat bit kernels and the sparse reference —
including fused ``accumulate=`` with an aliased accumulator, and with
shapes drawn to straddle tile boundaries (one off either side, exact
multiples, sub-tile).  A counter test pins the
perf claim's memory side: the tiled fixpoint route stays
allocation-flat per iteration just like the flat route.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import get_backend
from repro.backends.hybrid import HybridBackend, HybridPolicy
from repro.formats.bitmatrix import BitMatrix
from repro.formats.tiled import TiledBitMatrix

#: Dimensions hugging tile boundaries for 64/128-bit tiles.
BOUNDARY_DIMS = (1, 63, 64, 65, 127, 128, 129, 200)


@st.composite
def boundary_dense(draw, rows=None, cols=None):
    m = rows if rows is not None else draw(st.sampled_from(BOUNDARY_DIMS))
    n = cols if cols is not None else draw(st.sampled_from(BOUNDARY_DIMS))
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    return rng.random((m, n)) < density


def _tiled(dense, tile):
    return TiledBitMatrix(BitMatrix.from_dense(dense), tile)


# -- format-level equivalence -------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tiled_mxm_matches_flat_and_dense(data):
    a = data.draw(boundary_dense())
    b = data.draw(boundary_dense(rows=a.shape[1]))
    tile = data.draw(st.sampled_from([64, 128]))
    fr = data.draw(st.booleans())
    want = (a.astype(np.int64) @ b.astype(np.int64)) > 0
    flat = BitMatrix.from_dense(a).mxm(BitMatrix.from_dense(b))
    got = _tiled(a, tile).mxm(_tiled(b, tile), four_russians=fr)
    got.validate()
    assert np.array_equal(flat.to_dense(), want)
    assert np.array_equal(got.flat.to_dense(), want)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tiled_accumulate_preserves_seed(data):
    a = data.draw(boundary_dense())
    b = data.draw(boundary_dense(rows=a.shape[1]))
    c = data.draw(boundary_dense(rows=a.shape[0], cols=b.shape[1]))
    tile = data.draw(st.sampled_from([64, 128]))
    fr = data.draw(st.booleans())
    want = ((a.astype(np.int64) @ b.astype(np.int64)) > 0) | c
    out = _tiled(c, tile)
    out.mxm_into(_tiled(a, tile), _tiled(b, tile), four_russians=fr)
    out.validate()
    assert np.array_equal(out.flat.to_dense(), want)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tiled_kron_matches_flat(data):
    a = data.draw(boundary_dense(rows=data.draw(st.integers(0, 9)),
                                 cols=data.draw(st.integers(0, 9))))
    b = data.draw(boundary_dense(rows=data.draw(st.integers(0, 20)),
                                 cols=data.draw(st.integers(0, 20))))
    out = _tiled(a, 64).kron(_tiled(b, 64))
    out.validate()
    assert np.array_equal(out.flat.to_dense(), np.kron(a, b))


# -- backend-level equivalence ------------------------------------------------


def _from_dense(backend, dense):
    rows, cols = np.nonzero(dense)
    return backend.matrix_from_coo(rows, cols, dense.shape)


def _to_dense(handle, shape):
    rows, cols = handle.storage.to_coo_arrays()
    out = np.zeros(shape, dtype=bool)
    out[rows, cols] = True
    return out


#: The bit route under the default policy; its tile grid is fixed, so
#: tiled ≡ flat at 64- and 128-bit tiles is the format-level tests' job.
BIT_ROUTE = HybridBackend(inner=get_backend("cubool"), policy=HybridPolicy(mode="bit"))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_hybrid_tiled_route_matches_flat_and_sparse(data):
    a = data.draw(boundary_dense())
    b = data.draw(boundary_dense(rows=a.shape[1]))
    want = (a.astype(np.int64) @ b.astype(np.int64)) > 0
    sparse = get_backend("cubool")
    got_sparse = _to_dense(
        sparse.mxm(_from_dense(sparse, a), _from_dense(sparse, b)), want.shape
    )
    assert np.array_equal(got_sparse, want)
    out = BIT_ROUTE.mxm(_from_dense(BIT_ROUTE, a), _from_dense(BIT_ROUTE, b))
    assert np.array_equal(_to_dense(out, want.shape), want)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_hybrid_tiled_aliased_accumulator(data):
    n = data.draw(st.sampled_from(BOUNDARY_DIMS))
    a = data.draw(boundary_dense(rows=n, cols=n))
    want = ((a.astype(np.int64) @ a.astype(np.int64)) > 0) | a
    ma = _from_dense(BIT_ROUTE, a)
    out = BIT_ROUTE.mxm(ma, ma, accumulate=ma)  # C <- C OR C*C
    assert np.array_equal(_to_dense(out, want.shape), want)


# -- allocation profile of the tiled fixpoint route ---------------------------


def test_tiled_fixpoint_allocates_one_buffer_per_iteration():
    """The tiled route must stay allocation-flat in fixpoint loops:
    one output buffer plus the bounded scratch pair per mxm, no
    growth across iterations (the PR's memory acceptance gate)."""
    import repro

    ctx = repro.Context(backend="cubool", hybrid="bit")
    try:
        # Force the tiled kernel on a block-diagonal operand big enough
        # for a multi-tile grid.
        n = 1024
        rng = np.random.default_rng(99)
        dense = np.zeros((n, n), dtype=bool)
        for bi in range(4):
            lo = bi * 256
            dense[lo:lo + 256, lo:lo + 256] = rng.random((256, 256)) < 0.03
        cur = ctx.matrix_from_dense(dense)
        arena = ctx.device.arena
        allocs = []
        hybrid = ctx.backend
        with hybrid.fixpoint():
            for _ in range(4):
                before = arena.stats().alloc_count
                step = cur.mxm(cur, accumulate=cur)
                allocs.append(arena.stats().alloc_count - before)
                cur.free()
                cur = step
        cur.free()
        kernels = hybrid.kernel_counts["mxm"]
        assert any(k.startswith("tiled") for k in kernels), dict(kernels)
        # Steady state: every iteration costs the same bounded number
        # of arena allocations (output buffer + scratch pair).
        assert len(set(allocs[1:])) == 1, allocs
    finally:
        ctx.finalize()
