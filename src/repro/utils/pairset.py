"""Immutable host-side set of ``(row, col)`` pairs, stored as packed keys.

The library's device formats already keep only the coordinates of the
true entries, as sorted uint64 keys ``row << 32 | col``
(:mod:`repro.utils.arrays`).  :class:`PairSet` is the same layout on
the host: all-pairs answers come out of the engines as one read-only
key array, with no Python tuple per pair, and the service's result
cache can hold and hand out that one object because nobody can edit
it.

It is a :class:`collections.abc.Set`, so it compares equal to a set of
tuples and iterates as ``(int, int)`` pairs in row-major order.  Set
operators inherited from the ABC (``|``, ``&``, ``-``, ``^``) answer a
``frozenset``; :meth:`union` and :meth:`difference` stay in key space.
"""

from __future__ import annotations

import operator
from collections.abc import Set

import numpy as np

from repro.utils.arrays import (
    INDEX_DTYPE,
    KEY_DTYPE,
    in_sorted,
    keys_from_coo,
    merge_union,
    sort_unique_keys,
)

_KEY_LIMIT = 1 << 32


class PairSet(Set):
    """Sorted, duplicate-free, read-only uint64 pair keys behind the
    :class:`~collections.abc.Set` interface.

    ``PairSet(keys)`` wraps ``keys`` without a copy when they are
    already canonical (uint64, strictly increasing) and marks the array
    read-only; anything else is sorted and deduplicated first.
    """

    __slots__ = ("_keys",)
    __hash__ = None

    def __init__(self, keys=()):
        keys = sort_unique_keys(np.asarray(keys, dtype=KEY_DTYPE))
        keys.flags.writeable = False
        self._keys = keys

    @classmethod
    def from_coo(cls, rows, cols) -> "PairSet":
        """Pairs from coordinate arrays, in any order, duplicates allowed."""
        return cls(keys_from_coo(rows, cols))

    @classmethod
    def _from_iterable(cls, pairs):
        # Results of the inherited Set operators hold arbitrary items.
        return frozenset(pairs)

    @property
    def keys(self) -> np.ndarray:
        """The read-only key array, ascending."""
        return self._keys

    @property
    def rows(self) -> np.ndarray:
        return (self._keys >> 32).astype(INDEX_DTYPE)

    @property
    def cols(self) -> np.ndarray:
        return (self._keys & 0xFFFFFFFF).astype(INDEX_DTYPE)

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes

    def __len__(self) -> int:
        return self._keys.size

    def __iter__(self):
        return zip(self.rows.tolist(), self.cols.tolist())

    def __contains__(self, item) -> bool:
        try:
            row, col = item
            row, col = operator.index(row), operator.index(col)
        except (TypeError, ValueError):
            return False
        if not (0 <= row < _KEY_LIMIT and 0 <= col < _KEY_LIMIT):
            return False
        key = KEY_DTYPE.type(row << 32 | col)
        pos = int(np.searchsorted(self._keys, key))
        return pos < self._keys.size and bool(self._keys[pos] == key)

    def __eq__(self, other):
        if isinstance(other, PairSet):
            return np.array_equal(self._keys, other._keys)
        return Set.__eq__(self, other)

    def union(self, other: "PairSet") -> "PairSet":
        return PairSet(merge_union(self._keys, other._keys))

    def difference(self, other: "PairSet") -> "PairSet":
        return PairSet(self._keys[~in_sorted(self._keys, other._keys)])
