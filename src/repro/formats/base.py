"""Common interface for sparse matrix storage formats."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import DimensionMismatchError, IndexOutOfBoundsError, InvalidArgumentError
from repro.utils.arrays import (
    INDEX_DTYPE,
    as_index_array,
    coo_from_keys,
    keys_from_coo,
    sort_unique_keys,
)


def checked_coo(rows, cols, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Validate coordinate input for a matrix of ``shape``: equal-length
    uint32 index arrays, every coordinate in bounds.  The returned arrays
    never alias the caller's."""
    r = as_index_array(rows, "rows")
    c = as_index_array(cols, "cols")
    if r.shape != c.shape:
        raise InvalidArgumentError("rows and cols must have equal length")
    if r.size:
        nrows, ncols = int(shape[0]), int(shape[1])
        rmax, cmax = int(r.max()), int(c.max())
        if rmax >= nrows:
            raise IndexOutOfBoundsError("row", rmax, nrows)
        if cmax >= ncols:
            raise IndexOutOfBoundsError("column", cmax, ncols)
    return (r.copy() if r is rows else r), (c.copy() if c is cols else c)


def canonical_coo(rows, cols, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Validated coordinates in canonical order: row-major sorted,
    duplicates collapsed (boolean OR saturation).

    Already-canonical input — what every kernel emits — passes through
    after one O(n) check on its packed keys; anything else is sorted.
    """
    rows, cols = checked_coo(rows, cols, shape)
    keys = keys_from_coo(rows, cols)
    unique = sort_unique_keys(keys)
    return (rows, cols) if unique is keys else coo_from_keys(unique)


class SparseFormat(abc.ABC):
    """Abstract base for concrete storage formats.

    A format is a *passive container*: it owns index (and possibly value)
    arrays plus the matrix shape, provides canonicalization, validation,
    conversion to coordinate form and memory accounting.  Operations on
    matrices live in the backends, not here.
    """

    #: Short identifier used in reports ("csr", "coo", "valcsr", "bit").
    kind: str = "abstract"

    def __init__(self, shape: tuple[int, int]):
        nrows, ncols = int(shape[0]), int(shape[1])
        if nrows < 0 or ncols < 0:
            raise InvalidArgumentError(f"negative matrix dimension {shape}")
        self.nrows = nrows
        self.ncols = ncols

    # -- required --------------------------------------------------------

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored (true) entries."""

    @abc.abstractmethod
    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (rows, cols) in canonical row-major sorted order."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Bytes of index/value storage this format needs for its data.

        This is the *model* figure used in the paper's memory tables (it
        counts the algorithmic storage, not Python object overhead).
        """

    @abc.abstractmethod
    def validate(self) -> None:
        """Raise if internal invariants are broken (for tests/debug)."""

    # -- shared helpers ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def density(self) -> float:
        """nnz / (nrows * ncols); zero for degenerate shapes."""
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

    def same_shape(self, other: "SparseFormat", op: str) -> None:
        if self.shape != other.shape:
            raise DimensionMismatchError(op, self.shape, other.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense boolean array (testing aid; small inputs)."""
        rows, cols = self.to_coo_arrays()
        dense = np.zeros(self.shape, dtype=bool)
        if rows.size:
            dense[rows, cols] = True
        return dense

    def pattern_equal(self, other: "SparseFormat") -> bool:
        """True when both matrices store exactly the same coordinates."""
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        r1, c1 = self.to_coo_arrays()
        r2, c2 = other.to_coo_arrays()
        return bool(np.array_equal(r1, r2) and np.array_equal(c1, c2))

    @staticmethod
    def index_itemsize() -> int:
        return INDEX_DTYPE.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(shape={self.nrows}x{self.ncols}, nnz={self.nnz})"
        )
