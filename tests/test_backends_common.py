"""Unit tests for the shared vectorized kernel primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import common
from repro.formats import BoolCoo, BoolCsr, ValCsr
from repro.utils.arrays import (
    coo_from_keys,
    keys_from_coo,
    merge_union,
    sort_unique_keys,
)

U32_MAX = 2**32 - 1


class TestKeys:
    def test_round_trip(self):
        rows = np.array([0, 1, 7], dtype=np.uint32)
        cols = np.array([3, 0, 9], dtype=np.uint32)
        k = keys_from_coo(rows, cols)
        r, c = coo_from_keys(k)
        assert r.tolist() == rows.tolist()
        assert c.tolist() == cols.tolist()

    def test_order_preserving(self):
        """Row-major order on pairs == numeric order on keys."""
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 50, 100)
        cols = rng.integers(0, 37, 100)
        k = keys_from_coo(rows, cols)
        order = np.argsort(k, kind="stable")
        lex = np.lexsort((cols, rows))
        assert np.array_equal(k[order], keys_from_coo(rows[lex], cols[lex]))

    def test_round_trip_extremes(self):
        """The key needs no matrix width: every uint32 pair round-trips
        and orders row-major, including at 0 and 2**32 - 1."""
        rows = np.array([0, 0, U32_MAX, U32_MAX], dtype=np.uint32)
        cols = np.array([0, U32_MAX, 0, U32_MAX], dtype=np.uint32)
        k = keys_from_coo(rows, cols)
        assert np.all(k[1:] > k[:-1])
        r, c = coo_from_keys(k)
        assert r.tolist() == rows.tolist() and c.tolist() == cols.tolist()


class TestMergeUnion:
    def test_sizes_and_content(self):
        a = np.array([1, 3, 5], dtype=np.int64)
        b = np.array([2, 3, 6], dtype=np.int64)
        assert merge_union(a, b).tolist() == [1, 2, 3, 5, 6]

    def test_disjoint(self):
        a = np.array([1, 2], dtype=np.int64)
        b = np.array([10, 20], dtype=np.int64)
        assert merge_union(a, b).tolist() == [1, 2, 10, 20]
        assert merge_union(b, a).tolist() == [1, 2, 10, 20]

    def test_identical(self):
        a = np.array([4, 8], dtype=np.int64)
        assert merge_union(a, a.copy()).tolist() == [4, 8]

    def test_empty_sides(self):
        a = np.array([1], dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        assert merge_union(a, e).tolist() == [1]
        assert merge_union(e, a).tolist() == [1]
        assert merge_union(e, e).size == 0

    def test_random_against_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = np.unique(rng.integers(0, 100, rng.integers(0, 40)))
            b = np.unique(rng.integers(0, 100, rng.integers(0, 40)))
            assert merge_union(a, b).tolist() == np.union1d(a, b).tolist()


#: Coordinates biased toward the ends of the uint32 range.
_COORD = st.sampled_from([0, 1, U32_MAX - 1, U32_MAX]) | st.integers(0, U32_MAX)
_PAIRS = st.lists(st.tuples(_COORD, _COORD), max_size=40)


def _arrays(pairs):
    rows = np.array([p[0] for p in pairs], dtype=np.uint32)
    cols = np.array([p[1] for p in pairs], dtype=np.uint32)
    return rows, cols


def _pairs(rows, cols):
    return list(zip(rows.tolist(), cols.tolist()))


def _valcsr_reference(rows, cols, values, combine):
    """Stable lexsort order; each duplicate run folds left to right."""
    order = np.lexsort((cols, rows))
    out: dict = {}
    for i in order.tolist():
        key = (int(rows[i]), int(cols[i]))
        out[key] = values[i] if key not in out else combine(out[key], values[i])
    return list(out), np.array(list(out.values()), dtype=values.dtype)


@settings(max_examples=150, deadline=None)
@given(
    _PAIRS,
    _PAIRS,
    st.sampled_from(["random", "duplicated", "canonical"]),
    st.lists(st.floats(width=32, allow_nan=False), min_size=80, max_size=80),
)
def test_codec_matches_set_reference(a, b, layout, floats):
    """Union, sort-unique, transpose and every format's ``from_coo``
    against a Python-set reference, on random, duplicated, canonical and
    empty inputs with coordinates at 0 and 2**32 - 1."""
    if layout == "duplicated":
        a = a + a[::-1]
    elif layout == "canonical":
        a = sorted(set(a))
    expect_a, expect_b = sorted(set(a)), sorted(set(b))
    ka = sort_unique_keys(keys_from_coo(*_arrays(a)))
    kb = sort_unique_keys(keys_from_coo(*_arrays(b)))
    assert _pairs(*coo_from_keys(ka)) == expect_a
    assert _pairs(*coo_from_keys(merge_union(ka, kb))) == sorted(set(a) | set(b))
    assert _pairs(*common.transpose_coo(*coo_from_keys(ka))) == sorted(
        (c, r) for r, c in expect_a
    )

    rows, cols = _arrays(a)
    m = BoolCoo.from_coo(rows, cols, (2**32, 2**32))
    m.validate()
    assert _pairs(*m.to_coo_arrays()) == expect_a
    # CSR pays a row pointer per row: fold the rows into a short range.
    rows %= 8
    short = sorted(set(_pairs(rows, cols)))
    m = BoolCsr.from_coo(rows, cols, (8, 2**32))
    m.validate()
    assert _pairs(*m.to_coo_arrays()) == short
    values = np.array(floats[: rows.size], dtype=np.float32)
    for combine in (np.add, np.minimum):
        m = ValCsr.from_coo(rows, cols, (8, 2**32), values, combine=combine)
        m.validate()
        want_pairs, want_values = _valcsr_reference(rows, cols, values, combine)
        assert _pairs(*m.to_coo_arrays()) == want_pairs
        assert m.values.tobytes() == want_values.tobytes()


class TestMergeIntersection:
    def test_basic(self):
        a = np.array([1, 3, 5, 9], dtype=np.int64)
        b = np.array([3, 4, 9], dtype=np.int64)
        assert common.merge_intersection(a, b).tolist() == [3, 9]

    def test_random_against_numpy(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = np.unique(rng.integers(0, 60, rng.integers(0, 30)))
            b = np.unique(rng.integers(0, 60, rng.integers(0, 30)))
            expect = np.intersect1d(a, b)
            assert common.merge_intersection(a, b).tolist() == expect.tolist()

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        a = np.array([1], dtype=np.int64)
        assert common.merge_intersection(a, e).size == 0
        assert common.merge_intersection(e, a).size == 0


class TestExpansion:
    def test_expand_products(self):
        # A = [(0,0),(0,1),(1,1)], B rows: 0->[2], 1->[0,2]
        a_rows = np.array([0, 0, 1], dtype=np.int64)
        a_cols = np.array([0, 1, 1], dtype=np.int64)
        b = BoolCsr.from_coo([0, 1, 1], [2, 0, 2], (2, 3))
        owner, gather = common.expand_gather(a_cols, b.rowptr)
        got = sorted(zip(a_rows[owner].tolist(), b.cols[gather].tolist()))
        assert got == [(0, 0), (0, 2), (0, 2), (1, 0), (1, 2)]
        keys = common.bool_spgemm_keys(a_rows, a_cols, b.rowptr, b.cols)
        assert _pairs(*coo_from_keys(keys)) == sorted(set(got))

    def test_expand_empty_b_rows(self):
        a_rows = np.array([0], dtype=np.int64)
        a_cols = np.array([0], dtype=np.int64)
        b = BoolCsr.empty((1, 4))
        owner, gather = common.expand_gather(a_cols, b.rowptr)
        assert owner.size == gather.size == 0
        assert common.bool_spgemm_keys(a_rows, a_cols, b.rowptr, b.cols).size == 0

    def test_expand_valued_multiplies(self):
        """The generic backend reads both value planes through the one
        expansion gather."""
        a_cols = np.array([0], dtype=np.int64)
        a_vals = np.array([2.0], dtype=np.float32)
        from repro.formats.valcsr import ValCsr

        b = ValCsr.from_coo([0, 0], [1, 2], (1, 3), [3.0, 5.0])
        owner, gather = common.expand_gather(a_cols, b.rowptr)
        assert b.cols[gather].tolist() == [1, 2]
        assert (a_vals[owner] * b.values[gather]).tolist() == [6.0, 10.0]

    def test_upper_bound_matches_expansion(self):
        rng = np.random.default_rng(3)
        a = BoolCsr.from_dense(rng.random((12, 9)) < 0.3)
        b = BoolCsr.from_dense(rng.random((9, 15)) < 0.3)
        ub = common.spgemm_upper_bound(a.rowptr, a.cols, b.rowptr)
        a_rows, a_cols = a.to_coo_arrays()
        owner, _ = common.expand_gather(a_cols, b.rowptr)
        c_rows = a_rows[owner]
        counts = np.bincount(c_rows, minlength=12) if c_rows.size else np.zeros(12)
        assert ub.tolist() == counts.tolist()


class TestKronCoo:
    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        a = BoolCsr.from_dense(rng.random((4, 5)) < 0.4)
        b = BoolCsr.from_dense(rng.random((3, 2)) < 0.5)
        a_rows, a_cols = a.to_coo_arrays()
        b_rows, b_cols = b.to_coo_arrays()
        k_rows, k_cols = common.kron_coo(
            a_rows, a_cols, a.rowptr, b_rows, b_cols, b.shape, b.rowptr
        )
        dense = np.zeros((12, 10), dtype=bool)
        if k_rows.size:
            dense[k_rows, k_cols] = True
        assert np.array_equal(dense, np.kron(a.to_dense(), b.to_dense()) > 0)

    def test_emission_is_canonical(self):
        rng = np.random.default_rng(5)
        a = BoolCsr.from_dense(rng.random((6, 6)) < 0.4)
        b = BoolCsr.from_dense(rng.random((4, 4)) < 0.4)
        a_rows, a_cols = a.to_coo_arrays()
        b_rows, b_cols = b.to_coo_arrays()
        k_rows, k_cols = common.kron_coo(
            a_rows, a_cols, a.rowptr, b_rows, b_cols, b.shape, b.rowptr
        )
        key = k_rows * 24 + k_cols
        assert np.all(np.diff(key) > 0)  # strictly increasing => canonical


class TestTransposeAndFilters:
    def test_transpose_coo_canonical(self):
        m = BoolCsr.from_coo([0, 0, 2], [1, 3, 0], (3, 4))
        rows, cols = m.to_coo_arrays()
        t_rows, t_cols = common.transpose_coo(rows, cols)
        key = t_rows.astype(np.int64) * 3 + t_cols.astype(np.int64)
        assert np.all(np.diff(key) > 0)
        back = BoolCsr.from_coo(t_rows, t_cols, (4, 3))
        assert np.array_equal(back.to_dense(), m.to_dense().T)

    def test_submatrix_coo(self):
        rows = np.array([0, 1, 2, 3], dtype=np.uint32)
        cols = np.array([0, 1, 2, 3], dtype=np.uint32)
        s_rows, s_cols = common.submatrix_coo(rows, cols, 1, 1, 2, 2)
        assert s_rows.tolist() == [0, 1]
        assert s_cols.tolist() == [0, 1]

    def test_reduce_rows(self):
        assert common.reduce_rows_coo(np.array([3, 3, 0, 5])).tolist() == [0, 3, 5]
