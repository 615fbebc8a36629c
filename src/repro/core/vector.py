"""Sparse boolean vector.

The paper notes "the sparse vector is partially presented; its full
support will be added in the future" — this reproduction implements the
full planned surface.  A vector of length ``n`` is stored as an ``n × 1``
backend matrix, so every operation reuses the accelerated matrix
kernels: ``vxm`` is a ``1 × n`` by ``n × m`` product, ``mxv`` its
transpose-free dual, and element-wise OR is matrix add.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import InvalidArgumentError, InvalidStateError


class Vector:
    """Sparse boolean vector bound to a context."""

    __slots__ = ("_mat", "_ctx", "__weakref__")

    def __init__(self, mat, ctx):
        # ``mat`` is an (n, 1) core Matrix used as storage.
        self._mat = mat
        self._ctx = ctx

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, ctx, n: int) -> "Vector":
        return cls(ctx.matrix_empty((int(n), 1)), ctx)

    @classmethod
    def from_indices(cls, ctx, n: int, indices) -> "Vector":
        indices = np.asarray(indices, dtype=np.int64)
        zeros = np.zeros(indices.size, dtype=np.int64)
        return cls(ctx.matrix_from_lists((int(n), 1), indices, zeros), ctx)

    @classmethod
    def from_dense(cls, ctx, dense) -> "Vector":
        dense = np.asarray(dense).astype(bool).ravel()
        return cls.from_indices(ctx, dense.size, np.nonzero(dense)[0])

    # -- introspection ---------------------------------------------------

    @property
    def size(self) -> int:
        return self._mat.nrows

    @property
    def nnz(self) -> int:
        return self._mat.nnz

    @property
    def context(self):
        return self._ctx

    def to_indices(self) -> np.ndarray:
        """Support of the vector, sorted ascending."""
        rows, _ = self._mat.to_arrays()
        return rows

    def to_list(self) -> list[int]:
        return self.to_indices().tolist()

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.size, dtype=bool)
        idx = self.to_indices()
        if idx.size:
            out[idx] = True
        return out

    def get(self, i: int) -> bool:
        return self._mat.get(i, 0)

    def __contains__(self, i: int) -> bool:
        return self.get(int(i))

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def __len__(self) -> int:
        return self.nnz

    def __bool__(self) -> bool:
        return self.nnz > 0

    def dup(self) -> "Vector":
        return Vector(self._mat.dup(), self._ctx)

    def free(self) -> None:
        self._mat.free()

    # -- operations ------------------------------------------------------

    def _check_peer(self, other: "Vector", op: str) -> None:
        if not isinstance(other, Vector):
            raise InvalidArgumentError(f"{op}: expected Vector")
        if other._ctx is not self._ctx:
            raise InvalidArgumentError(f"{op}: vectors from different contexts")

    def ewise_add(self, other: "Vector") -> "Vector":
        """Element-wise OR."""
        self._check_peer(other, "ewise_add")
        return Vector(self._mat.ewise_add(other._mat), self._ctx)

    def __or__(self, other: "Vector") -> "Vector":
        return self.ewise_add(other)

    def ewise_mult(self, other: "Vector") -> "Vector":
        """Element-wise AND (support intersection)."""
        self._check_peer(other, "ewise_mult")
        return Vector(self._mat.ewise_mult(other._mat), self._ctx)

    def __and__(self, other: "Vector") -> "Vector":
        return self.ewise_mult(other)

    def dot(self, other: "Vector") -> bool:
        """Boolean dot product: do the supports intersect."""
        self._check_peer(other, "dot")
        meet = self.ewise_mult(other)
        try:
            return meet.nnz > 0
        finally:
            meet.free()

    def vxm(self, matrix) -> "Vector":
        """Row-vector × matrix: reachability step ``vᵀ · M``.

        Implemented as ``(vᵀ · M)ᵀ``: keeping the vector a column costs
        two transposes of an n×1 operand, O(nnz(v)), never one of ``M``.
        """
        if matrix.context is not self._ctx:
            raise InvalidArgumentError("vxm: operands from different contexts")
        row = self._mat.transpose()
        try:
            product = row.mxm(matrix)
        finally:
            row.free()
        try:
            return Vector(product.transpose(), self._ctx)
        finally:
            product.free()

    def mxv(self, matrix) -> "Vector":
        """Matrix × column-vector: ``M · v``."""
        if matrix.context is not self._ctx:
            raise InvalidArgumentError("mxv: operands from different contexts")
        return Vector(matrix.mxm(self._mat), self._ctx)

    def reduce(self) -> bool:
        """OR-reduce: does the vector have any true entry."""
        return self.nnz > 0

    def equals(self, other: "Vector") -> bool:
        self._check_peer(other, "equals")
        return self._mat.equals(other._mat)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        try:
            return f"Vector(n={self.size}, nnz={self.nnz})"
        except InvalidStateError:
            return "Vector(<freed>)"
