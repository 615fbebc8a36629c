"""Property tests: the fused accumulate contract.

For any operands, ``mxm(a, b, accumulate=c)`` and ``kron(a, b,
accumulate=c)`` must be element-identical to the unfused compose
(product then OR) — across every backend, every hybrid mode, and when
``accumulate`` aliases an operand (the fixpoint's ``C <- C ∨ C·C``
shape).  A counter test pins the tentpole's memory
claim: a bit-path fixpoint iteration performs exactly one arena
allocation — the output buffer — and its peak over the live set stays
flat across iterations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import get_backend
from repro.backends.hybrid import wrap_backend
from repro.errors import InvalidArgumentError
from repro.formats.bitmatrix import BitMatrix

SPARSE_BACKENDS = ("cpu", "generic", "cubool", "clbool")


@st.composite
def dense_bool(draw, rows=st.integers(0, 12), cols=st.integers(0, 12)):
    m = draw(rows)
    n = draw(cols)
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    return rng.random((m, n)) < density


def _from_dense(backend, dense):
    rows, cols = np.nonzero(dense)
    return backend.matrix_from_coo(rows, cols, dense.shape)


def _to_dense(handle, shape):
    rows, cols = handle.storage.to_coo_arrays()
    out = np.zeros(shape, dtype=bool)
    out[rows, cols] = True
    return out


_HYBRIDS = {}


def _hybrid(mode):
    if mode not in _HYBRIDS:
        _HYBRIDS[mode] = wrap_backend(get_backend("cubool"), mode=mode)
    return _HYBRIDS[mode]


# -- fused == unfused, every backend ------------------------------------------


@settings(max_examples=30, deadline=None)
@given(dense_bool(), st.data())
def test_mxm_accumulate_matches_compose_everywhere(a, data):
    k = a.shape[1]
    b = data.draw(dense_bool(rows=st.just(k)))
    c = data.draw(
        dense_bool(rows=st.just(a.shape[0]), cols=st.just(b.shape[1]))
    )
    want = ((a.astype(np.int64) @ b.astype(np.int64)) > 0) | c
    backends = [get_backend(name) for name in SPARSE_BACKENDS]
    backends += [_hybrid(mode) for mode in ("auto", "bit", "sparse")]
    for backend in backends:
        ma, mb, mc = (_from_dense(backend, d) for d in (a, b, c))
        out = backend.mxm(ma, mb, accumulate=mc)
        assert np.array_equal(_to_dense(out, want.shape), want), backend.name
        # Functional contract: the accumulate operand is not consumed.
        assert np.array_equal(_to_dense(mc, c.shape), c), backend.name


@settings(max_examples=30, deadline=None)
@given(
    dense_bool(rows=st.integers(0, 5), cols=st.integers(0, 5)),
    dense_bool(rows=st.integers(0, 5), cols=st.integers(0, 5)),
    st.data(),
)
def test_kron_accumulate_matches_compose_everywhere(a, b, data):
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    c = data.draw(dense_bool(rows=st.just(shape[0]), cols=st.just(shape[1])))
    want = np.kron(a, b) | c
    backends = [get_backend(name) for name in SPARSE_BACKENDS]
    backends += [_hybrid(mode) for mode in ("auto", "bit", "sparse")]
    for backend in backends:
        ma, mb, mc = (_from_dense(backend, d) for d in (a, b, c))
        out = backend.kron_accumulate(ma, mb, mc)
        assert np.array_equal(_to_dense(out, want.shape), want), backend.name
        assert np.array_equal(_to_dense(mc, c.shape), c), backend.name


@settings(max_examples=25, deadline=None)
@given(dense_bool(rows=st.integers(1, 10), cols=st.integers(1, 10)))
def test_accumulate_may_alias_operands(a):
    """C <- C ∨ C·C with the *same handle* passed three times must read
    the accumulator as-of call time on every backend."""
    sq = a[: min(a.shape), : min(a.shape)]
    want = ((sq.astype(np.int64) @ sq.astype(np.int64)) > 0) | sq
    backends = [get_backend(name) for name in SPARSE_BACKENDS]
    backends.append(_hybrid("bit"))
    for backend in backends:
        m = _from_dense(backend, sq)
        out = backend.mxm(m, m, accumulate=m)
        assert np.array_equal(_to_dense(out, want.shape), want), backend.name
        assert np.array_equal(_to_dense(m, sq.shape), sq), backend.name


# -- BitMatrix kernels --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(dense_bool(rows=st.integers(0, 20), cols=st.integers(0, 150)), st.data())
def test_bitmatrix_into_kernels_match_dense(a, data):
    k = a.shape[1]
    b = data.draw(dense_bool(rows=st.just(k), cols=st.integers(0, 150)))
    seed = data.draw(
        dense_bool(rows=st.just(a.shape[0]), cols=st.just(b.shape[1]))
    )
    want = ((a.astype(np.int64) @ b.astype(np.int64)) > 0) | seed
    ba, bb = BitMatrix.from_dense(a), BitMatrix.from_dense(b)
    for kernel in ("mxm_into", "mxm_four_russians_into"):
        out = BitMatrix.from_dense(seed)
        getattr(out, kernel)(ba, bb)
        assert np.array_equal(out.to_dense(), want), kernel


@settings(max_examples=40, deadline=None)
@given(
    dense_bool(rows=st.integers(0, 4), cols=st.integers(0, 4)),
    # Wide B stresses the word-stride shift/carry paths of kron_into.
    dense_bool(rows=st.integers(0, 4), cols=st.integers(0, 90)),
    st.data(),
)
def test_bitmatrix_kron_into_matches_dense(a, b, data):
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    seed = data.draw(
        dense_bool(rows=st.just(shape[0]), cols=st.just(shape[1]))
    )
    want = np.kron(a, b) | seed
    out = BitMatrix.from_dense(seed)
    out.kron_into(BitMatrix.from_dense(a), BitMatrix.from_dense(b))
    assert np.array_equal(out.to_dense(), want)


def test_into_kernels_reject_aliased_output():
    a = BitMatrix.from_dense(np.eye(8, dtype=bool))
    with pytest.raises(InvalidArgumentError):
        a.mxm_into(a, a)
    with pytest.raises(InvalidArgumentError):
        a.mxm_four_russians_into(a, a)
    one = BitMatrix.from_dense(np.ones((1, 1), dtype=bool))
    with pytest.raises(InvalidArgumentError):
        a.kron_into(a, one)


# -- the memory claim ---------------------------------------------------------


def test_bit_fixpoint_allocates_one_buffer_per_iteration():
    """Fused bit fixpoint: exactly one arena allocation per iteration
    (the output words) and a flat peak over the live set — no hidden
    full-matrix temporaries."""
    backend = wrap_backend(get_backend("cubool"), mode="bit")
    rng = np.random.default_rng(5)
    n = 192
    dense = rng.random((n, n)) < 0.05
    cur = _from_dense(backend, dense)
    backend._ensure_bit(cur)
    arena = backend.device.arena
    peaks, allocs = [], []
    with backend.fixpoint():
        for _ in range(5):
            arena.reset_peak()
            before = arena.stats().alloc_count
            step = backend.mxm(cur, cur, accumulate=cur)
            allocs.append(arena.stats().alloc_count - before)
            peaks.append(arena.peak_bytes)
            cur.free()
            cur = step
    # Iteration 0 may pay one-time packing; steady state is one alloc.
    assert allocs[1:] == [1] * (len(allocs) - 1), allocs
    assert len(set(peaks[1:])) == 1, peaks
    # The Kronecker accumulate has the same shape: the seeded output
    # buffer is its only allocation.
    eye = _from_dense(backend, np.eye(2, dtype=bool))
    backend._ensure_bit(eye)
    acc = backend.kron(eye, cur)
    before = arena.stats().alloc_count
    backend.kron_accumulate(eye, cur, acc)
    assert arena.stats().alloc_count - before == 1
