"""Property-based tests: PairSet behaves as the Python set of its tuples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.pairset import PairSet

#: Coordinates near both ends of the uint32 range, so the packed key's
#: high and low halves are both exercised.
COORD = st.one_of(st.integers(0, 6), st.integers(2**32 - 3, 2**32 - 1))
PAIRS = st.lists(st.tuples(COORD, COORD), max_size=30)


def pair_set(pairs) -> PairSet:
    coo = np.array(pairs, dtype=np.uint64).reshape(-1, 2)
    return PairSet.from_coo(coo[:, 0], coo[:, 1])


@settings(max_examples=150, deadline=None)
@given(PAIRS)
def test_matches_python_set(pairs):
    got, want = pair_set(pairs), set(pairs)
    assert got == want and want == got
    assert not (got != want) and not (want != got)
    assert got == frozenset(want)
    assert len(got) == len(want)
    assert list(got) == sorted(want)
    assert all(type(u) is int and type(v) is int for u, v in got)
    assert got.nbytes == 8 * len(want)
    assert (got.rows.tolist(), got.cols.tolist()) == (
        [u for u, _ in sorted(want)],
        [v for _, v in sorted(want)],
    )
    if want:
        assert got != want - {min(want)}
        assert got != want | {(7, 7)}


@settings(max_examples=150, deadline=None)
@given(PAIRS, st.tuples(COORD, COORD))
def test_contains(pairs, probe):
    got, want = pair_set(pairs), set(pairs)
    assert (probe in got) == (probe in want)
    for item in ((-1, 0), (0, -1), (2**32, 0), (0, 2**32), (2**64, 0)):
        assert item not in got
    for item in (None, 3, "ab", (1,), (1, 2, 3), ("a", 1), (1.5, 2)):
        assert item not in got


@settings(max_examples=150, deadline=None)
@given(PAIRS, PAIRS)
def test_union_and_difference(a, b):
    left, right = pair_set(a), pair_set(b)
    union, difference = left.union(right), left.difference(right)
    assert isinstance(union, PairSet) and isinstance(difference, PairSet)
    assert union == set(a) | set(b)
    assert difference == set(a) - set(b)
    assert list(union) == sorted(set(a) | set(b))
    assert left == pair_set(a)  # operands untouched


def test_empty_and_unhashable():
    empty = PairSet()
    assert empty == set() and set() == empty and len(empty) == 0
    assert list(empty) == [] and empty.nbytes == 0
    assert empty == pair_set([])
    assert (0, 0) not in empty
    assert empty.union(empty) == set()
    with pytest.raises(TypeError):
        hash(PairSet.from_coo([1], [2]))
    with pytest.raises(TypeError):
        {PairSet()}


def test_wraps_canonical_keys_read_only():
    keys = np.array([1, 2 << 32, (2 << 32) | 5], dtype=np.uint64)
    wrapped = PairSet(keys)
    assert wrapped.keys is keys
    assert not keys.flags.writeable
    assert wrapped == {(0, 1), (2, 0), (2, 5)}
    assert PairSet(keys[::-1]) == wrapped
