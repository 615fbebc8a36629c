"""Internal utilities shared across the library."""

from repro.utils.arrays import (
    INDEX_DTYPE,
    as_index_array,
    concat_ranges,
    exclusive_scan,
    row_lengths_from_ptr,
    rowptr_from_sorted_rows,
    rows_from_rowptr,
    segment_ids,
)

__all__ = [
    "INDEX_DTYPE",
    "as_index_array",
    "concat_ranges",
    "exclusive_scan",
    "row_lengths_from_ptr",
    "rowptr_from_sorted_rows",
    "rows_from_rowptr",
    "segment_ids",
]
