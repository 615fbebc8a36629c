"""Property-based tests: algebraic laws and backend equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import available_backends, get_backend


@st.composite
def dense_bool(draw, rows=st.integers(1, 12), cols=st.integers(1, 12)):
    m = draw(rows)
    n = draw(cols)
    bits = draw(
        st.lists(st.booleans(), min_size=m * n, max_size=m * n)
    )
    return np.array(bits, dtype=bool).reshape(m, n)


@st.composite
def mxm_chain(draw):
    """Three chain-compatible matrices for associativity checks."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    l = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))

    def mat(r, c):
        bits = draw(st.lists(st.booleans(), min_size=r * c, max_size=r * c))
        return np.array(bits, dtype=bool).reshape(r, c)

    return mat(m, k), mat(k, l), mat(l, n)


CTX = {}


def ctx_for(name):
    if name not in CTX:
        CTX[name] = repro.Context(backend=name)
    return CTX[name]


@settings(max_examples=40, deadline=None)
@given(mxm_chain())
def test_mxm_associative(chain):
    a, b, c = chain
    ctx = ctx_for("cubool")
    ma, mb, mc = (ctx.matrix_from_dense(x) for x in (a, b, c))
    left = (ma @ mb) @ mc
    right = ma @ (mb @ mc)
    assert left.equals(right)


@settings(max_examples=40, deadline=None)
@given(dense_bool(), st.data())
def test_ewise_add_commutative_associative_idempotent(a, data):
    ctx = ctx_for("cubool")
    b = data.draw(dense_bool(rows=st.just(a.shape[0]), cols=st.just(a.shape[1])))
    c = data.draw(dense_bool(rows=st.just(a.shape[0]), cols=st.just(a.shape[1])))
    ma, mb, mc = (ctx.matrix_from_dense(x) for x in (a, b, c))
    assert (ma | mb).equals(mb | ma)
    assert ((ma | mb) | mc).equals(ma | (mb | mc))
    assert (ma | ma).equals(ma)


@settings(max_examples=30, deadline=None)
@given(mxm_chain())
def test_mxm_distributes_over_add(chain):
    a, b, c = chain
    # Use b and c of the same shape: regenerate c to match b.
    ctx = ctx_for("cubool")
    ma = ctx.matrix_from_dense(a)
    mb = ctx.matrix_from_dense(b)
    mc = ctx.matrix_from_dense(np.roll(b, 1, axis=0))  # same shape as b
    left = ma @ (mb | mc)
    right = (ma @ mb) | (ma @ mc)
    assert left.equals(right)


@settings(max_examples=30, deadline=None)
@given(dense_bool(rows=st.integers(1, 6), cols=st.integers(1, 6)), st.data())
def test_kron_mixed_product_law(a, data):
    """(A ⊗ B) · (C ⊗ D) = (A·C) ⊗ (B·D) on conforming shapes."""
    ctx = ctx_for("cubool")
    m, k = a.shape
    b = data.draw(dense_bool(rows=st.integers(1, 4), cols=st.integers(1, 4)))
    p, q = b.shape
    c = data.draw(dense_bool(rows=st.just(k), cols=st.integers(1, 4)))
    d = data.draw(dense_bool(rows=st.just(q), cols=st.integers(1, 4)))
    ma, mb, mc, md = (ctx.matrix_from_dense(x) for x in (a, b, c, d))
    left = ma.kron(mb) @ mc.kron(md)
    right = (ma @ mc).kron(mb @ md)
    assert left.equals(right)


@settings(max_examples=30, deadline=None)
@given(dense_bool())
def test_transpose_involution_and_product_law(a):
    ctx = ctx_for("cubool")
    ma = ctx.matrix_from_dense(a)
    assert ma.T.T.equals(ma)
    sq = ctx.matrix_from_dense(a[: min(a.shape), : min(a.shape)])
    assert (sq @ sq).T.equals(sq.T @ sq.T)


@settings(max_examples=25, deadline=None)
@given(dense_bool(), st.data())
def test_backends_equivalent(a, data):
    """Every backend, cpu included, computes each operation's dense
    NumPy pattern (no backend is another's oracle)."""
    b = data.draw(dense_bool(rows=st.just(a.shape[1]), cols=st.integers(1, 10)))
    e = data.draw(dense_bool(rows=st.just(a.shape[0]), cols=st.just(a.shape[1])))
    want = (
        (a.astype(np.int64) @ b.astype(np.int64)) > 0,
        a | e,
        a.T,
        np.kron(a, e),
        a.any(axis=1),
    )
    for name in available_backends():
        ctx = ctx_for(name)
        ma = ctx.matrix_from_dense(a)
        mb = ctx.matrix_from_dense(b)
        me = ctx.matrix_from_dense(e)
        got = (
            (ma @ mb).to_dense(),
            (ma | me).to_dense(),
            ma.T.to_dense(),
            ma.kron(me).to_dense(),
            ma.reduce_to_vector().to_dense(),
        )
        for idx, (ref_part, got_part) in enumerate(zip(want, got)):
            assert np.array_equal(ref_part, got_part), (name, idx)


@settings(max_examples=30, deadline=None)
@given(dense_bool())
def test_reduce_matches_any(a):
    ctx = ctx_for("clbool")
    v = ctx.matrix_from_dense(a).reduce_to_vector()
    assert np.array_equal(v.to_dense(), a.any(axis=1))


@settings(max_examples=30, deadline=None)
@given(dense_bool(), st.data())
def test_submatrix_of_union(a, data):
    """Extraction commutes with union."""
    ctx = ctx_for("cubool")
    b = data.draw(dense_bool(rows=st.just(a.shape[0]), cols=st.just(a.shape[1])))
    i = data.draw(st.integers(0, a.shape[0] - 1))
    j = data.draw(st.integers(0, a.shape[1] - 1))
    h = data.draw(st.integers(0, a.shape[0] - i))
    w = data.draw(st.integers(0, a.shape[1] - j))
    ma, mb = ctx.matrix_from_dense(a), ctx.matrix_from_dense(b)
    left = (ma | mb).extract_submatrix(i, j, h, w)
    right = ma.extract_submatrix(i, j, h, w) | mb.extract_submatrix(i, j, h, w)
    assert left.equals(right)
