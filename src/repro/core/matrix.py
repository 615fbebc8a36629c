"""The public sparse boolean ``Matrix`` — pyspbla's user-facing object.

Wraps a backend matrix handle with a Pythonic surface covering the full
SPbLA operation list:

======================  ==========================================
SPbLA C API             Matrix API
======================  ==========================================
create/delete           ``Context.matrix_*`` / :meth:`Matrix.free`
fill with values        :meth:`Matrix.build` (via constructors)
read values             :meth:`Matrix.to_lists`
transpose               :attr:`Matrix.T` / :meth:`Matrix.transpose`
sub-matrix extraction   ``m[i0:i1, j0:j1]``
reduce to column        :meth:`Matrix.reduce_to_vector`
``C += M × N``          :meth:`Matrix.mxm` / ``@`` operator
``M += N``              :meth:`Matrix.ewise_add` / ``|`` operator
``K = M ⊗ N``           :meth:`Matrix.kron`
======================  ==========================================

Results stay on the creating context's backend; mixing matrices from
different contexts raises (matching the C API, where every object
belongs to one library instance).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.backends.base import BackendMatrix
from repro.errors import InvalidArgumentError, InvalidStateError


class Matrix:
    """Sparse boolean matrix bound to a :class:`~repro.core.context.Context`.

    Construct through the context factories
    (:meth:`Context.matrix_from_lists`, :meth:`Context.matrix_from_dense`,
    :meth:`Context.matrix_empty`, :meth:`Context.identity`,
    :meth:`Context.matrix_random`).
    """

    __slots__ = ("_handle", "_ctx", "__weakref__")

    def __init__(self, handle: BackendMatrix, ctx):
        self._handle = handle
        self._ctx = ctx

    # -- plumbing ----------------------------------------------------------

    @property
    def handle(self) -> BackendMatrix:
        if self._handle is None or self._handle.freed:
            raise InvalidStateError("matrix used after free()")
        return self._handle

    @property
    def context(self):
        return self._ctx

    def _peer(self, other: "Matrix", op: str) -> BackendMatrix:
        if not isinstance(other, Matrix):
            raise InvalidArgumentError(f"{op}: expected Matrix, got {type(other).__name__}")
        if other._ctx is not self._ctx:
            raise InvalidArgumentError(
                f"{op}: operands belong to different contexts"
            )
        return other.handle

    def free(self) -> None:
        """Release backing device memory (idempotent)."""
        if self._handle is not None:
            self._handle.free()
            self._handle = None

    def __del__(self):  # noqa: D105
        try:
            self.free()
        # __del__ during interpreter shutdown: modules may already be
        # torn down; raising here aborts the process.
        except Exception:  # pragma: no cover  # reprolint: disable=R4
            pass

    # -- shape & introspection ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.handle.shape

    @property
    def nrows(self) -> int:
        return self.handle.nrows

    @property
    def ncols(self) -> int:
        return self.handle.ncols

    @property
    def nnz(self) -> int:
        """Number of true entries."""
        return self.handle.nnz

    @property
    def density(self) -> float:
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

    @property
    def storage_kind(self) -> str:
        """Kind of the resident storage format (``"csr"``, ``"coo"``,
        ``"bit"``, ...).  Under the hybrid backend this reports which
        format the adaptive dispatcher left the result in."""
        return self.handle.storage.kind

    def memory_bytes(self) -> int:
        """Storage-model bytes of the backing format (paper's metric)."""
        return self.handle.memory_bytes()

    # -- data exchange -----------------------------------------------------

    def to_lists(self) -> tuple[list[int], list[int]]:
        """Read back (rows, cols) of all true entries, canonical order."""
        rows, cols = self._ctx.backend.matrix_to_coo(self.handle)
        return rows.tolist(), cols.tolist()

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read back (rows, cols) as NumPy arrays, canonical order."""
        return self._ctx.backend.matrix_to_coo(self.handle)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense boolean array (small matrices)."""
        rows, cols = self.to_arrays()
        out = np.zeros(self.shape, dtype=bool)
        if rows.size:
            out[rows, cols] = True
        return out

    def dup(self) -> "Matrix":
        """Deep copy."""
        return self._ctx._wrap(self._ctx.backend.duplicate(self.handle))

    def to_scipy(self):
        """Export the pattern as a ``scipy.sparse.csr_matrix`` of bools.

        SciPy is an optional interop dependency — raises a clear error
        when it is not installed.
        """
        try:
            from scipy import sparse
        except ImportError as exc:  # pragma: no cover - env dependent
            raise InvalidStateError("scipy is not installed") from exc
        rows, cols = self.to_arrays()
        data = np.ones(rows.size, dtype=bool)
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=self.shape, dtype=bool
        )

    # -- operations ------------------------------------------------------

    def mxm(
        self,
        other: "Matrix",
        accumulate: "Matrix | None" = None,
        mask: "Matrix | None" = None,
        *,
        semiring=None,
    ) -> "Matrix":
        """Matrix product under ``semiring`` (default boolean OR-AND);
        with ``accumulate`` computes ``accumulate ⊕ (self · other)``
        (the C API's ``C += M × N``).

        ``mask`` is the GraphBLAS structural *complement* mask: the
        product is filtered to ``(self · other) ∧ ¬mask`` before the
        accumulate merge.  Passing the previous fixpoint as ``mask``
        makes the returned delta carry only *new* facts — its ``nnz``
        is the convergence test of the incremental engines
        (:mod:`repro.incr`).  ``semiring`` is a
        :class:`~repro.core.semiring.Semiring` or registered name; value
        semirings need the generic backend (``Context(backend="generic")``);
        the pattern-only backends, hybrid included, reject them."""
        acc = self._peer(accumulate, "mxm") if accumulate is not None else None
        msk = self._peer(mask, "mxm") if mask is not None else None
        out = self._ctx.backend.mxm(
            self.handle, self._peer(other, "mxm"), acc, msk, semiring=semiring
        )
        return self._ctx._wrap(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mxm(other)

    def ewise_add(self, other: "Matrix", *, semiring=None) -> "Matrix":
        """Element-wise ⊕ (default OR)."""
        out = self._ctx.backend.ewise_add(
            self.handle, self._peer(other, "ewise_add"), semiring=semiring
        )
        return self._ctx._wrap(out)

    def __or__(self, other: "Matrix") -> "Matrix":
        return self.ewise_add(other)

    __add__ = __or__

    def ewise_mult(self, other: "Matrix", *, semiring=None) -> "Matrix":
        """Element-wise ⊗ (default AND — pattern intersection)."""
        out = self._ctx.backend.ewise_mult(
            self.handle, self._peer(other, "ewise_mult"), semiring=semiring
        )
        return self._ctx._wrap(out)

    def __and__(self, other: "Matrix") -> "Matrix":
        return self.ewise_mult(other)

    def kron(
        self,
        other: "Matrix",
        accumulate: "Matrix | None" = None,
        *,
        semiring=None,
    ) -> "Matrix":
        """Kronecker product ``self ⊗ other``; with ``accumulate``
        computes ``accumulate ⊕ (self ⊗ other)`` under the fused
        accumulate contract (see :meth:`Backend.mxm`): functional
        result, operands untouched, ``accumulate`` may alias either."""
        if accumulate is not None:
            out = self._ctx.backend.kron_accumulate(
                self.handle,
                self._peer(other, "kron"),
                self._peer(accumulate, "kron"),
                semiring=semiring,
            )
        else:
            out = self._ctx.backend.kron(
                self.handle, self._peer(other, "kron"), semiring=semiring
            )
        return self._ctx._wrap(out)

    def transpose(self) -> "Matrix":
        out = self._ctx.backend.transpose(self.handle)
        return self._ctx._wrap(out)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def extract_submatrix(self, i: int, j: int, nrows: int, ncols: int) -> "Matrix":
        out = self._ctx.backend.extract_submatrix(self.handle, i, j, nrows, ncols)
        return self._ctx._wrap(out)

    def __getitem__(self, key) -> "Matrix":
        """Slice-based sub-matrix extraction: ``m[i0:i1, j0:j1]``.

        Only contiguous, step-1 slices are supported (matching the C
        API's rectangular extraction).
        """
        if not (isinstance(key, tuple) and len(key) == 2):
            raise InvalidArgumentError("matrix indexing requires m[rows, cols] slices")
        rs, cs = key
        if not (isinstance(rs, slice) and isinstance(cs, slice)):
            raise InvalidArgumentError("matrix indexing requires slice objects")
        if rs.step not in (None, 1) or cs.step not in (None, 1):
            raise InvalidArgumentError("only step-1 slices are supported")
        i0, i1, _ = rs.indices(self.nrows)
        j0, j1, _ = cs.indices(self.ncols)
        return self.extract_submatrix(i0, j0, max(0, i1 - i0), max(0, j1 - j0))

    def tril(self, k: int = 0) -> "Matrix":
        """Lower-triangular part: entries with ``col <= row + k``.

        A coordinate-filter convenience (GraphBLAS ``select``-style);
        built on read-back + rebuild rather than a dedicated kernel.
        """
        rows, cols = self.to_arrays()
        keep = cols.astype(np.int64) <= rows.astype(np.int64) + k
        return self._ctx.matrix_from_lists(self.shape, rows[keep], cols[keep])

    def triu(self, k: int = 0) -> "Matrix":
        """Upper-triangular part: entries with ``col >= row + k``."""
        rows, cols = self.to_arrays()
        keep = cols.astype(np.int64) >= rows.astype(np.int64) + k
        return self._ctx.matrix_from_lists(self.shape, rows[keep], cols[keep])

    def extract_row(self, i: int):
        """Row ``i`` as a sparse :class:`~repro.core.vector.Vector`
        of length ``ncols`` (a 1×n sub-matrix extraction)."""
        from repro.core.vector import Vector

        row = self.extract_submatrix(int(i), 0, 1, self.ncols)
        try:
            _, cols = row.to_arrays()
        finally:
            row.free()
        return Vector.from_indices(self._ctx, self.ncols, cols)

    def extract_col(self, j: int):
        """Column ``j`` as a sparse :class:`~repro.core.vector.Vector`
        of length ``nrows``."""
        from repro.core.vector import Vector

        col = self.extract_submatrix(0, int(j), self.nrows, 1)
        try:
            rows, _ = col.to_arrays()
        finally:
            col.free()
        return Vector.from_indices(self._ctx, self.nrows, rows)

    def reduce_to_vector(self):
        """OR-reduce rows to a sparse :class:`~repro.core.vector.Vector`."""
        from repro.core.vector import Vector

        col = self._ctx.backend.reduce_to_column(self.handle)
        try:
            rows, _ = self._ctx.backend.matrix_to_coo(col)
        finally:
            col.free()
        return Vector.from_indices(self._ctx, self.nrows, rows)

    # -- predicates / dunder ----------------------------------------------

    def get(self, i: int, j: int) -> bool:
        """Single-entry membership test."""
        storage = self.handle.storage
        return bool(storage.get(int(i), int(j)))

    def __contains__(self, coord: tuple[int, int]) -> bool:
        i, j = coord
        return self.get(i, j)

    def equals(self, other: "Matrix") -> bool:
        """Exact pattern equality."""
        peer = self._peer(other, "equals")
        if self.shape != peer.shape or self.nnz != peer.nnz:
            return False
        r1, c1 = self.to_arrays()
        r2, c2 = self._ctx.backend.matrix_to_coo(peer)
        return bool(np.array_equal(r1, r2) and np.array_equal(c1, c2))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Iterate (row, col) pairs in canonical order."""
        rows, cols = self.to_arrays()
        return zip(rows.tolist(), cols.tolist())

    def __len__(self) -> int:
        return self.nnz

    def __bool__(self) -> bool:
        return self.nnz > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._handle is None or self._handle.freed:
            return "Matrix(<freed>)"
        return (
            f"Matrix({self.nrows}x{self.ncols}, nnz={self.nnz}, "
            f"backend={self._ctx.backend_name})"
        )
