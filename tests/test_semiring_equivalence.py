"""Property-style equivalence: sparse semiring ops ≡ dense reference.

For every *registered* semiring and both generic value backends
(float32 ``generic``, float64 ``generic64``), the sparse operations
must compute the same algebra as :meth:`Semiring.mxm_dense` and
friends — including the fused ``accumulate=`` merge (aliased, the
fixpoint shape ``C ← C ⊕ C·C``) and the structural-complement
``mask=``.  Dense images use the semiring's ⊕-identity for absent
entries, so pattern differences that matter show up as value
differences.  One unregistered semiring whose ⊕ is a plain callable,
not a ufunc, rides along (the registry is global).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.backends import get_backend
from repro.core.semiring import Semiring, available_semirings, get_semiring

BACKENDS = ("generic", "generic64")

#: max-times with a lambda ⊕: no ``add_ufunc``, so every ⊕-fold takes
#: the callable path.
MAX_TIMES_CALLABLE = Semiring(
    name="max-times-callable",
    dtype=np.dtype(np.float64),
    add=lambda a, b: np.maximum(a, b),
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    add_reduce=np.maximum.reduce,
)
SEMIRINGS = (*available_semirings(), MAX_TIMES_CALLABLE.name)

#: Value ranges that keep every registered algebra well-conditioned:
#: positive, away from float32 cancellation, inside [0, 1] for
#: max-times (so products stay bounded), and exactly 1 for the
#: presence-style algebras.
_VALUE_RANGES = {
    "bool-or-and": (1.0, 1.0),
    "plus-pair": (1.0, 1.0),
    "plus-times": (0.5, 2.0),
    "min-plus": (0.1, 5.0),
    "max-times": (0.1, 1.0),
    "max-times-callable": (0.1, 1.0),
}


def _semiring(name):
    if name == MAX_TIMES_CALLABLE.name:
        return MAX_TIMES_CALLABLE
    return get_semiring(name)


def _random_dense(rng, shape, density, s):
    """Dense array over ``s``'s domain with absent entries = ⊕-identity."""
    lo, hi = _VALUE_RANGES.get(s.name, (0.5, 2.0))
    present = rng.random(shape) < density
    vals = rng.uniform(lo, hi, size=shape)
    out = np.full(shape, s.zero, dtype=np.float64)
    out[present] = vals[present]
    return out


def _to_sparse(be, dense, s):
    return be.matrix_from_dense_values(dense, semiring=s)


def _to_dense(be, handle, shape, s):
    rows, cols, vals = be.matrix_to_coo_values(handle)
    out = np.full(shape, float(s.zero), dtype=np.float64)
    out[rows, cols] = vals
    return out


def _ref_cast(s, dense_f64):
    """Run a float64 image through the semiring's reference dtype."""
    return np.asarray(dense_f64, dtype=s.dtype)


def _assert_close(got, want, be):
    """Dense-image comparison with dtype-appropriate tolerance."""
    want = np.asarray(want, dtype=np.float64)
    rtol = 1e-4 if be.value_dtype == np.float32 else 1e-10
    finite = np.isfinite(want) & np.isfinite(got)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.allclose(got[finite], want[finite], rtol=rtol)


@pytest.fixture(params=BACKENDS)
def be(request):
    return get_backend(request.param)


@pytest.mark.parametrize("name", SEMIRINGS)
class TestSemiringEquivalence:
    """Each registered semiring, each op, sparse ≡ dense reference."""

    def test_mxm(self, be, name):
        s = _semiring(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        da = _random_dense(rng, (17, 13), 0.3, s)
        db = _random_dense(rng, (13, 19), 0.3, s)
        want = s.mxm_dense(_ref_cast(s, da), _ref_cast(s, db)).astype(np.float64)
        a, b = _to_sparse(be, da, s), _to_sparse(be, db, s)
        out = be.mxm(a, b, semiring=s)
        got = _to_dense(be, out, (17, 19), s)
        for h in (a, b, out):
            h.free()
        _assert_close(got, want, be)

    def test_mxm_accumulate_aliased(self, be, name):
        """The fixpoint shape ``C ← C ⊕ C·C`` with C aliased three ways."""
        s = _semiring(name)
        rng = np.random.default_rng(hash(name) % 2**32 + 1)
        dc = _random_dense(rng, (15, 15), 0.25, s)
        prod = s.mxm_dense(_ref_cast(s, dc), _ref_cast(s, dc))
        want = s.ewise_add_dense(prod, _ref_cast(s, dc)).astype(np.float64)
        c = _to_sparse(be, dc, s)
        out = be.mxm(c, c, accumulate=c, semiring=s)
        got = _to_dense(be, out, (15, 15), s)
        c.free()
        out.free()
        _assert_close(got, want, be)

    def test_mxm_masked(self, be, name):
        """``mask=`` is a structural complement: masked coordinates are
        dropped from the product (⊕-identity in the dense image)."""
        s = _semiring(name)
        rng = np.random.default_rng(hash(name) % 2**32 + 2)
        da = _random_dense(rng, (12, 12), 0.3, s)
        db = _random_dense(rng, (12, 12), 0.3, s)
        dm = _random_dense(rng, (12, 12), 0.4, s)
        want = s.mxm_dense(_ref_cast(s, da), _ref_cast(s, db)).astype(np.float64)
        want[dm != s.zero] = s.zero
        a, b, m = (_to_sparse(be, d, s) for d in (da, db, dm))
        out = be.mxm(a, b, mask=m, semiring=s)
        got = _to_dense(be, out, (12, 12), s)
        for h in (a, b, m, out):
            h.free()
        _assert_close(got, want, be)

    def test_ewise_add(self, be, name):
        s = _semiring(name)
        rng = np.random.default_rng(hash(name) % 2**32 + 3)
        da = _random_dense(rng, (14, 11), 0.3, s)
        db = _random_dense(rng, (14, 11), 0.3, s)
        want = s.ewise_add_dense(
            _ref_cast(s, da), _ref_cast(s, db)
        ).astype(np.float64)
        a, b = _to_sparse(be, da, s), _to_sparse(be, db, s)
        out = be.ewise_add(a, b, semiring=s)
        got = _to_dense(be, out, (14, 11), s)
        for h in (a, b, out):
            h.free()
        _assert_close(got, want, be)

    def test_ewise_mult(self, be, name):
        s = _semiring(name)
        rng = np.random.default_rng(hash(name) % 2**32 + 4)
        da = _random_dense(rng, (14, 11), 0.4, s)
        db = _random_dense(rng, (14, 11), 0.4, s)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.asarray(
                s.mul(_ref_cast(s, da), _ref_cast(s, db)), dtype=np.float64
            )
        a, b = _to_sparse(be, da, s), _to_sparse(be, db, s)
        out = be.ewise_mult(a, b, semiring=s)
        got = _to_dense(be, out, (14, 11), s)
        for h in (a, b, out):
            h.free()
        _assert_close(got, want, be)

    def test_reduce_to_column(self, be, name):
        s = _semiring(name)
        rng = np.random.default_rng(hash(name) % 2**32 + 5)
        da = _random_dense(rng, (16, 9), 0.3, s)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.asarray(
                s.add_reduce(_ref_cast(s, da), axis=1), dtype=np.float64
            ).reshape(16, 1)
        a = _to_sparse(be, da, s)
        out = be.reduce_to_column(a, semiring=s)
        got = _to_dense(be, out, (16, 1), s)
        a.free()
        out.free()
        _assert_close(got, want, be)

    def test_from_coo_duplicates_combine(self, be, name):
        """Duplicate coordinates ⊕-combine at construction."""
        s = _semiring(name)
        rows = np.array([0, 0, 1], dtype=np.int64)
        cols = np.array([1, 1, 2], dtype=np.int64)
        lo, hi = _VALUE_RANGES.get(s.name, (0.5, 2.0))
        vals = np.array([lo, hi, lo], dtype=np.float64)
        m = be.matrix_from_coo_values(rows, cols, (3, 3), vals, semiring=s)
        got = _to_dense(be, m, (3, 3), s)
        m.free()
        combined = float(s.add(s.dtype.type(lo), s.dtype.type(hi)))
        assert np.isclose(got[0, 1], combined, rtol=1e-4)
        assert np.isclose(got[1, 2], lo, rtol=1e-4)


def test_boolean_image_matches_pattern_backends():
    """The boolean semiring's arithmetic image on the value backend
    agrees coordinate-for-coordinate with the pattern (cpu) backend."""
    s = get_semiring("bool-or-and")
    rng = np.random.default_rng(0xB001)
    da = rng.random((20, 20)) < 0.15
    db = rng.random((20, 20)) < 0.15
    gbe, pbe = get_backend("generic"), get_backend("cpu")

    ga = gbe.matrix_from_dense_values(da.astype(np.float64), semiring=s)
    gb = gbe.matrix_from_dense_values(db.astype(np.float64), semiring=s)
    gout = gbe.mxm(ga, gb, semiring=s)
    grows, gcols, gvals = gbe.matrix_to_coo_values(gout)
    assert np.all(gvals == 1.0)

    ra, ca = np.nonzero(da)
    rb, cb = np.nonzero(db)
    pa = pbe.matrix_from_coo(ra.astype(np.int64), ca.astype(np.int64), (20, 20))
    pb = pbe.matrix_from_coo(rb.astype(np.int64), cb.astype(np.int64), (20, 20))
    pout = pbe.mxm(pa, pb)
    prows, pcols = pbe.matrix_to_coo(pout)

    assert set(zip(grows.tolist(), gcols.tolist())) == set(
        zip(prows.tolist(), pcols.tolist())
    )
    for h in (ga, gb, gout):
        h.free()
    for h in (pa, pb, pout):
        h.free()


#: Every pattern-only context: both device backends plain and under
#: each hybrid mode, and the registered hybrid backend.
PATTERN_CONTEXTS = [
    *(
        pytest.param({"backend": b, "hybrid": h}, id=f"{b}-hybrid={h}")
        for b in ("cubool", "clbool")
        for h in (False, "auto", "bit", "sparse")
    ),
    pytest.param({"backend": "hybrid"}, id="hybrid"),
]


@pytest.mark.parametrize("kwargs", PATTERN_CONTEXTS)
def test_pattern_only_contexts_reject_value_semirings(kwargs):
    """Value algebras have one executor, the generic backend: every
    pattern-only context, whatever its hybrid dispatch, refuses them
    before any allocation, and still runs the boolean algebra against
    dense NumPy."""
    ctx = repro.Context(**kwargs)
    be = ctx.backend
    rng = np.random.default_rng(0x40)
    da = rng.random((10, 10)) < 0.2
    db = rng.random((10, 10)) < 0.2
    ma, mb = ctx.matrix_from_dense(da), ctx.matrix_from_dense(db)
    a, b = ma.handle, mb.handle
    ops = {
        "mxm": (
            lambda s: be.mxm(a, b, semiring=s),
            (da.astype(np.int64) @ db.astype(np.int64)) > 0,
        ),
        "ewise_add": (lambda s: be.ewise_add(a, b, semiring=s), da | db),
        "ewise_mult": (lambda s: be.ewise_mult(a, b, semiring=s), da & db),
        "kron": (lambda s: be.kron(a, b, semiring=s), np.kron(da, db)),
        "reduce_to_column": (
            lambda s: be.reduce_to_column(a, semiring=s),
            da.any(axis=1)[:, None],
        ),
    }
    arena = be.device.arena
    before = arena.live_bytes
    for name, (call, _) in ops.items():
        with pytest.raises(repro.InvalidArgumentError, match="generic"):
            call("min-plus")
        assert arena.live_bytes == before, name
    for name, (call, want) in ops.items():
        out = call("bool-or-and")
        rows, cols = be.matrix_to_coo(out)
        out.free()
        got = np.zeros(want.shape, dtype=bool)
        got[rows, cols] = True
        assert np.array_equal(got, want), name
    ctx.finalize()


@pytest.mark.parametrize("name", ["max-times", MAX_TIMES_CALLABLE.name])
def test_values_absorbed_by_the_identity_are_rejected(be, name):
    """An absent entry stands for the ⊕-identity, so a stored value
    ``v`` with ``v ⊕ zero != v`` is outside the domain: under max-times
    a −1.29 would be 0 in the dense reference (``max(−1.29, 0)``) but
    −1.29 after a one-sided sparse ``ewise_add``.  Both constructors
    refuse it, before any device allocation."""
    s = _semiring(name)
    dense = np.array([[0.0, -1.29], [0.5, 0.0]])
    with pytest.raises(repro.InvalidArgumentError, match="outside the domain"):
        be.matrix_from_dense_values(dense, semiring=s)
    with pytest.raises(repro.InvalidArgumentError, match="outside the domain"):
        be.matrix_from_coo_values([0, 1], [1, 0], (2, 2), [-1.29, 0.5], semiring=s)
    assert be.device.arena.live_bytes == 0


@pytest.mark.parametrize("name", ["plus-times", "min-plus"])
def test_identity_never_absorbs_plus_times_or_min_plus(name):
    """``v + 0 == v`` and ``min(v, inf) == v`` for every v: negative
    weights stay legal where the algebra allows them."""
    s = get_semiring(name)
    be = get_backend("generic64")
    dense = np.array([[s.zero, -1.29], [-3.5, s.zero]])
    m = be.matrix_from_dense_values(dense, semiring=s)
    assert np.array_equal(_to_dense(be, m, (2, 2), s), dense)
    m.free()
