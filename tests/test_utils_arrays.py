"""Unit tests for the vectorized index-array primitives."""

import numpy as np
import pytest

from repro.errors import InvalidArgumentError
from repro.utils.arrays import (
    INDEX_DTYPE,
    as_index_array,
    concat_ranges,
    coo_from_keys,
    dedupe_sorted_keys,
    exclusive_scan,
    is_sorted_unique,
    keys_from_coo,
    row_lengths_from_ptr,
    rows_from_rowptr,
    rowptr_from_sorted_rows,
    segment_ids,
    sort_unique_keys,
)


class TestAsIndexArray:
    def test_basic_conversion(self):
        out = as_index_array([1, 2, 3])
        assert out.dtype == INDEX_DTYPE
        assert out.tolist() == [1, 2, 3]

    def test_scalar_becomes_1d(self):
        assert as_index_array(5).tolist() == [5]

    def test_empty(self):
        assert as_index_array([]).size == 0

    def test_float_integral_accepted(self):
        assert as_index_array(np.array([1.0, 2.0])).tolist() == [1, 2]

    def test_float_fractional_rejected(self):
        with pytest.raises(InvalidArgumentError):
            as_index_array(np.array([1.5]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            as_index_array([-1])

    def test_2d_rejected(self):
        with pytest.raises(InvalidArgumentError):
            as_index_array(np.zeros((2, 2), dtype=np.int64))

    def test_overflow_rejected(self):
        with pytest.raises(InvalidArgumentError):
            as_index_array([2**33])


class TestRowptr:
    def test_round_trip(self):
        rows = np.array([0, 0, 2, 2, 2, 5], dtype=INDEX_DTYPE)
        ptr = rowptr_from_sorted_rows(rows, 6)
        assert ptr.tolist() == [0, 2, 2, 5, 5, 5, 6]
        back = rows_from_rowptr(ptr)
        assert back.tolist() == rows.tolist()

    def test_empty(self):
        ptr = rowptr_from_sorted_rows(np.empty(0, INDEX_DTYPE), 4)
        assert ptr.tolist() == [0, 0, 0, 0, 0]
        assert rows_from_rowptr(ptr).size == 0

    def test_row_lengths(self):
        ptr = np.array([0, 2, 2, 5], dtype=INDEX_DTYPE)
        assert row_lengths_from_ptr(ptr).tolist() == [2, 0, 3]


class TestPairs:
    def test_dedupe(self):
        rows = np.array([0, 0, 0, 1, 1], dtype=INDEX_DTYPE)
        cols = np.array([1, 1, 2, 0, 0], dtype=INDEX_DTYPE)
        r, c = coo_from_keys(dedupe_sorted_keys(keys_from_coo(rows, cols)))
        assert r.tolist() == [0, 0, 1]
        assert c.tolist() == [1, 2, 0]

    def test_dedupe_empty(self):
        keys = keys_from_coo(np.empty(0, INDEX_DTYPE), np.empty(0, INDEX_DTYPE))
        r, c = coo_from_keys(dedupe_sorted_keys(keys))
        assert r.size == 0 and c.size == 0

    def test_sort_unique_returns_canonical_input_untouched(self):
        keys = keys_from_coo([0, 0, 5], [3, 9, 0])
        assert is_sorted_unique(keys)
        assert sort_unique_keys(keys) is keys


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([10, 20]), np.array([3, 2]))
        assert out.tolist() == [10, 11, 12, 20, 21]

    def test_with_empty_segments(self):
        out = concat_ranges(np.array([5, 7, 1]), np.array([0, 2, 3]))
        assert out.tolist() == [7, 8, 1, 2, 3]

    def test_all_empty(self):
        assert concat_ranges(np.array([1, 2]), np.array([0, 0])).size == 0

    def test_no_segments(self):
        assert concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_single_segment(self):
        assert concat_ranges(np.array([3]), np.array([4])).tolist() == [3, 4, 5, 6]

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            concat_ranges(np.array([0]), np.array([-1]))

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(1, 20))
            starts = rng.integers(0, 100, size=k)
            lengths = rng.integers(0, 10, size=k)
            expected = np.concatenate(
                [np.arange(s, s + l) for s, l in zip(starts, lengths)]
            ) if lengths.sum() else np.empty(0, np.int64)
            got = concat_ranges(starts, lengths)
            assert got.tolist() == expected.tolist()


class TestScansAndSegments:
    def test_segment_ids(self):
        assert segment_ids(np.array([2, 0, 3])).tolist() == [0, 0, 2, 2, 2]

    def test_segment_ids_empty(self):
        assert segment_ids(np.array([], dtype=np.int64)).size == 0

    def test_exclusive_scan(self):
        assert exclusive_scan(np.array([1, 2, 3])).tolist() == [0, 1, 3, 6]

    def test_exclusive_scan_empty(self):
        assert exclusive_scan(np.array([], dtype=np.int64)).tolist() == [0]
