"""Backend interface, matrix handles, and the backend registry.

The interface mirrors the SPbLA C API operation list (paper, §Libraries
Design):

* create / delete a sparse matrix,
* fill with values / read values back,
* transpose,
* sub-matrix extraction,
* matrix-to-vector reduce,
* matrix-matrix multiply(-add),
* matrix-matrix element-wise add,
* matrix-matrix Kronecker product.

A :class:`BackendMatrix` is the C-API matrix handle: it pairs the storage
format object with the device buffers backing it, so deleting the handle
returns its bytes to the device arena (the C API's ``Matrix_Free``).
"""

from __future__ import annotations

import abc
import contextlib
from typing import Callable, Iterable

import numpy as np

from repro.core.semiring import BOOL_OR_AND, Semiring, get_semiring
from repro.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidStateError,
)
from repro.formats.base import SparseFormat
from repro.gpu.device import Device
from repro.gpu.memory import DeviceBuffer
from repro.utils.arrays import keys_from_coo


class BackendMatrix:
    """Handle to a matrix owned by a backend.

    ``storage`` is the format object whose arrays *alias the device
    buffers* in ``buffers`` (when the backend does device accounting) or
    plain host arrays (cpu backend).  After :meth:`free`, any use raises.
    """

    __slots__ = ("storage", "buffers", "backend", "_freed")

    def __init__(
        self,
        storage: SparseFormat,
        backend: "Backend",
        buffers: Iterable[DeviceBuffer] = (),
    ):
        self.storage = storage
        self.backend = backend
        self.buffers = list(buffers)
        self._freed = False

    # -- shape/introspection ------------------------------------------------

    def _check_alive(self) -> None:
        if self._freed:
            raise InvalidStateError("matrix handle used after free")

    @property
    def nrows(self) -> int:
        self._check_alive()
        return self.storage.nrows

    @property
    def ncols(self) -> int:
        self._check_alive()
        return self.storage.ncols

    @property
    def shape(self) -> tuple[int, int]:
        self._check_alive()
        return self.storage.shape

    @property
    def nnz(self) -> int:
        self._check_alive()
        return self.storage.nnz

    def memory_bytes(self) -> int:
        """The storage-model memory footprint of this matrix."""
        self._check_alive()
        return self.storage.memory_bytes()

    # -- lifecycle -----------------------------------------------------------

    def free(self) -> None:
        """Release device buffers (idempotent)."""
        if self._freed:
            return
        self._freed = True
        for buf in self.buffers:
            if not buf.freed:
                buf.free()
        self.buffers.clear()
        self.storage = None  # type: ignore[assignment]

    @property
    def freed(self) -> bool:
        return self._freed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._freed:
            return "BackendMatrix(<freed>)"
        return (
            f"BackendMatrix({self.backend.name}, {self.nrows}x{self.ncols}, "
            f"nnz={self.nnz})"
        )


class Backend(abc.ABC):
    """Abstract operation set every backend provides."""

    #: Registry name ("cubool", "clbool", "cpu", "generic").
    name: str = "abstract"
    #: Storage format kind the backend natively operates on.
    format_kind: str = "abstract"
    #: Pattern-only storage: the backend implements exactly the
    #: ``(∨, ∧)`` instance and rejects value semirings.
    boolean_only: bool = False

    def __init__(self, device: Device | None = None):
        self.device = device if device is not None else Device(name=f"{self.name}-dev")

    # -- creation / transfer (required) ------------------------------------

    @abc.abstractmethod
    def matrix_from_coo(self, rows, cols, shape: tuple[int, int]) -> BackendMatrix:
        """Create a matrix from coordinate pairs (duplicates collapse)."""

    @abc.abstractmethod
    def matrix_empty(self, shape: tuple[int, int]) -> BackendMatrix:
        """Create an all-false matrix."""

    def identity(self, n: int) -> BackendMatrix:
        """n x n identity pattern (default: via coordinates)."""
        idx = np.arange(n, dtype=np.int64)
        return self.matrix_from_coo(idx, idx, (n, n))

    def matrix_to_coo(self, m: BackendMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Read back (rows, cols) in canonical order (the C API's read)."""
        m._check_alive()
        return m.storage.to_coo_arrays()

    def matrix_from_dense(self, dense: np.ndarray) -> BackendMatrix:
        dense = np.asarray(dense)
        rows, cols = np.nonzero(dense)
        return self.matrix_from_coo(rows, cols, dense.shape)

    def duplicate(self, m: BackendMatrix) -> BackendMatrix:
        """Deep copy of a matrix handle."""
        rows, cols = self.matrix_to_coo(m)
        return self.matrix_from_coo(rows, cols, m.shape)

    # -- semiring resolution -------------------------------------------------

    def _resolve_semiring(self, semiring: Semiring | str | None) -> Semiring:
        """Normalize an operation's ``semiring=`` argument.

        ``None`` means the library's native boolean algebra; strings are
        registry lookups.  On a :attr:`boolean_only` backend a value
        semiring is rejected here, *before* any kernel runs (callers
        route value algebras through the generic backend instead).
        """
        if semiring is None:
            return BOOL_OR_AND
        if isinstance(semiring, str):
            semiring = get_semiring(semiring)
        if not isinstance(semiring, Semiring):
            raise InvalidArgumentError(
                f"semiring must be a Semiring or registered name, "
                f"got {type(semiring).__name__}"
            )
        if self.boolean_only and not semiring.is_boolean:
            raise InvalidArgumentError(
                f"backend {self.name!r} is pattern-only and supports only "
                f"boolean semirings; {semiring.name!r} needs the generic "
                f"(valcsr) backend"
            )
        return semiring

    # -- operations (required) ----------------------------------------------

    @abc.abstractmethod
    def mxm(
        self,
        a: BackendMatrix,
        b: BackendMatrix,
        accumulate: BackendMatrix | None = None,
        mask: BackendMatrix | None = None,
        *,
        semiring: Semiring | str | None = None,
    ) -> BackendMatrix:
        """Matrix product ``A·B`` under ``semiring`` (default boolean —
        the C API's ``C += A x B``).

        ``semiring`` selects the algebra: ``C[i, j] = ⊕_k A[i, k] ⊗
        B[k, j]``.  ``None`` (and every boolean semiring) is the native
        pattern product; value semirings are evaluated natively only by
        value-carrying backends (generic/hybrid) — pattern-only
        backends reject them via :meth:`_resolve_semiring` before any
        kernel runs.

        With ``accumulate`` the result is ``accumulate ⊕ (A·B)``.  The
        accumulate contract, uniform across every backend and algebra:

        * **Fusion point, not post-merge.**  No backend holds the
          product as a temporary.  The bit-packed kernels (``mxm_into``)
          seed the accumulate pattern into the one result buffer and OR
          the product directly into it.  The sparse backends finish the
          product in key space — mask, then merge with the accumulate
          keys (:func:`repro.backends.common.masked_union`; the generic
          backend folds with ⊕) — and emit the output once.
        * **Functional result.**  A *new* handle is always returned;
          ``accumulate`` (and ``a``/``b``) are never mutated or
          consumed — callers free their operands themselves.
        * **Aliasing is allowed.**  ``accumulate`` may alias ``a``
          and/or ``b`` (the fixpoint engines' ``C ← C ∨ C·C`` passes
          the same handle three times); implementations must read the
          accumulate pattern as-of call time, never Gauss–Seidel
          through a half-written output.

        With ``mask`` the product is filtered by the *complement*
        before the merge: the result is ``accumulate ⊕ ((A·B) ∧ ¬mask)``
        (GraphBLAS structural complement mask; ∧ here is structural —
        the mask filters positions, never values).  ``mask`` must match
        the output shape, is never mutated, may alias any other
        operand, and composes with ``accumulate`` — the masked product
        of the incremental fixpoints passes ``mask=accumulate`` so only
        *new* facts survive (``nnz == 0`` on the returned delta means
        the fixed point is reached, no full-matrix comparison pass).
        On the bit path the mask is applied inside the ``*_into``
        kernels per contribution; sparse backends drop the mask's keys
        from the sorted product keys before the accumulate merge.
        """

    @abc.abstractmethod
    def ewise_add(
        self,
        a: BackendMatrix,
        b: BackendMatrix,
        *,
        semiring: Semiring | str | None = None,
    ) -> BackendMatrix:
        """Element-wise ⊕ of equal-shaped matrices (boolean: OR).

        Under a value semiring, positions present in both operands
        combine with ``semiring.add``; positions present in one keep
        their value (the absent side contributes the ⊕-identity)."""

    @abc.abstractmethod
    def ewise_mult(
        self,
        a: BackendMatrix,
        b: BackendMatrix,
        *,
        semiring: Semiring | str | None = None,
    ) -> BackendMatrix:
        """Element-wise ⊗ on the pattern intersection of equal-shaped
        matrices (boolean: AND) — the masking primitive of the planned
        full GraphBLAS surface (paper, future work)."""

    @abc.abstractmethod
    def kron(
        self,
        a: BackendMatrix,
        b: BackendMatrix,
        *,
        semiring: Semiring | str | None = None,
        accumulate: BackendMatrix | None = None,
    ) -> BackendMatrix:
        """Kronecker product ``A ⊗ B`` (values multiply under
        ``semiring.mul``); with ``accumulate``, ``accumulate ⊕ (A ⊗ B)``
        under :meth:`kron_accumulate`'s contract."""

    def kron_accumulate(
        self,
        a: BackendMatrix,
        b: BackendMatrix,
        accumulate: BackendMatrix,
        *,
        semiring: Semiring | str | None = None,
    ) -> BackendMatrix:
        """``accumulate ⊕ (A ⊗ B)`` — the fused form of the tensor
        engines' ``M ← M ∨ (R_sym ⊗ G_sym)`` inner sum.

        Same contract as :meth:`mxm`'s accumulate: a new handle is
        returned, operands are never mutated, ``accumulate`` may alias
        ``a`` or ``b``.  The product is never a temporary: the bit path
        scatters into a copy of the accumulate words (``kron_into``),
        and the sparse backends merge the accumulate keys into the
        Kronecker emission inside :meth:`kron` and emit once.
        """
        return self.kron(a, b, semiring=semiring, accumulate=accumulate)

    @abc.abstractmethod
    def transpose(self, a: BackendMatrix) -> BackendMatrix:
        """``Aᵀ``."""

    @abc.abstractmethod
    def extract_submatrix(
        self, a: BackendMatrix, i: int, j: int, nrows: int, ncols: int
    ) -> BackendMatrix:
        """Copy of ``A[i : i + nrows, j : j + ncols]``."""

    @abc.abstractmethod
    def reduce_to_column(
        self,
        a: BackendMatrix,
        *,
        semiring: Semiring | str | None = None,
    ) -> BackendMatrix:
        """⊕-reduce each row (boolean: OR) into an ``m x 1`` matrix
        (SPbLA ``reduceToColumn``)."""

    # -- hints ---------------------------------------------------------------

    def fixpoint(self):
        """Context manager hinting that the caller is entering an
        iterative accumulate loop (closure / CFPQ / RPQ fixpoints).

        The base implementation is a no-op; the hybrid backend
        (:mod:`repro.backends.hybrid`) uses the hint for format-residency
        hysteresis while intermediates densify.
        """
        return contextlib.nullcontext(self)

    # -- shared checks ------------------------------------------------------

    @staticmethod
    def _check_mxm_shapes(a: BackendMatrix, b: BackendMatrix) -> None:
        if a.ncols != b.nrows:
            raise DimensionMismatchError("mxm", a.shape, b.shape)

    @staticmethod
    def _check_same_shape(op: str, a: BackendMatrix, b: BackendMatrix) -> None:
        if a.shape != b.shape:
            raise DimensionMismatchError(op, a.shape, b.shape)

    @staticmethod
    def _keys(m: BackendMatrix | None) -> np.ndarray | None:
        """Sorted distinct keys of ``m``'s entries, read from its storage
        without a device allocation; ``None`` stays ``None``."""
        return None if m is None else keys_from_coo(*m.storage.to_coo_arrays())

    @staticmethod
    def _check_product_operands(
        shape: tuple[int, int],
        accumulate: BackendMatrix | None,
        mask: BackendMatrix | None,
    ) -> None:
        """``mxm``'s ``accumulate`` and ``mask`` must have the product's
        shape."""
        if accumulate is not None and accumulate.shape != shape:
            raise DimensionMismatchError("mxm-accumulate", accumulate.shape, shape)
        if mask is not None and mask.shape != shape:
            raise DimensionMismatchError("mxm-mask", mask.shape, shape)

    @staticmethod
    def _check_kron_accumulate(
        a: BackendMatrix, b: BackendMatrix, accumulate: BackendMatrix | None
    ) -> None:
        if accumulate is None:
            return
        expected = (a.nrows * b.nrows, a.ncols * b.ncols)
        if accumulate.shape != expected:
            raise DimensionMismatchError(
                "kron-accumulate", accumulate.shape, expected
            )

    @staticmethod
    def _check_submatrix(a: BackendMatrix, i: int, j: int, nrows: int, ncols: int) -> None:
        if nrows < 0 or ncols < 0:
            raise InvalidArgumentError("submatrix dimensions must be non-negative")
        if i < 0 or j < 0 or i + nrows > a.nrows or j + ncols > a.ncols:
            raise InvalidArgumentError(
                f"submatrix [{i}:{i + nrows}, {j}:{j + ncols}] outside "
                f"{a.nrows}x{a.ncols}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(device={self.device.name!r})"


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., Backend]] = {}


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register a backend factory under ``name`` (overwrites)."""
    # Deliberate process-level registry: registration is an import-time
    # plugin mechanism, not kernel state.
    _REGISTRY[name] = factory  # reprolint: disable=R5


def available_backends() -> list[str]:
    """Sorted names of registered backends."""
    return sorted(_REGISTRY)


def get_backend(name: str, device: Device | None = None) -> Backend:
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return factory(device=device)
