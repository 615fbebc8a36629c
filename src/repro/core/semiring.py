"""Semiring definitions and the semiring registry.

The library's native algebra is the **Boolean semiring**
``({0, 1}, ∨, ∧)`` — "values set {true, false} with false as an identity
element, '+' operation is defined as logical or and '×' is defined as
logical and" (paper, §Libraries Design).  The sparse backends implement
it natively (pattern-only storage), and the hybrid dispatcher keeps its
bit-packed fast path reserved for it (``is_boolean``).

Every other registered semiring is a *value* semiring: the generic
backend evaluates it natively over ``valcsr`` storage, and the dense
methods here (:meth:`Semiring.mxm_dense` and friends) are the reference
oracle used by tests and the dense algorithm fallbacks.

Registry
--------
Built-ins are looked up by :func:`get_semiring` (``"bool-or-and"``,
``"plus-times"``, ``"min-plus"``, ``"max-times"``, ``"plus-pair"``);
:func:`register_semiring` adds user-defined instances and
:func:`available_semirings` lists the names.  Backend operations accept
``semiring=`` as either a :class:`Semiring` or a registered name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import DimensionMismatchError, InvalidArgumentError


@dataclass(frozen=True)
class Semiring:
    """An algebraic semiring ``(D, add, mul, zero, one)``.

    ``add``/``mul`` are binary NumPy ufunc-compatible callables; ``zero``
    is the add-identity (and the mul-annihilator — see ``annihilator``),
    ``one`` the mul-identity.  ``add_reduce`` performs the reduction of
    ``add`` along an axis.

    Metadata for the sparse engines:

    ``is_boolean``
        Marks the native pattern-only algebra.  The hybrid dispatcher
        reserves the bit-packed/tiled fast path for boolean semirings;
        everything else routes to the value backend.
    ``annihilator``
        The absorbing element of ``mul`` (``mul(x, annihilator) ==
        annihilator``).  Sparse kernels rely on ``annihilator == zero``
        — implicit entries then stay implicit through products — so the
        default (``None`` → ``zero``) is what every sparse-evaluable
        semiring wants.
    ``add_ufunc``
        The raw :class:`numpy.ufunc` behind ``add`` when one exists
        (``np.minimum``, ``np.add``, ...).  Sparse kernels use its
        ``.at`` scatter / ``.reduceat`` segment forms; ``None`` folds
        through ``add`` itself, one vectorized call per run position.
    """

    name: str
    dtype: np.dtype
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    add_reduce: Callable[..., Any]
    is_boolean: bool = False
    annihilator: Any = None
    add_ufunc: np.ufunc | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.annihilator is None:
            object.__setattr__(self, "annihilator", self.zero)
        if self.add_ufunc is None and isinstance(self.add, np.ufunc):
            object.__setattr__(self, "add_ufunc", self.add)

    def mxm_dense(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product under this semiring (reference semantics).

        ``C[i, j] = add-reduce over k of mul(A[i, k], B[k, j])`` — O(mkn)
        but fully vectorized via broadcasting; intended for tests and
        small examples, not production sizes.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionMismatchError("mxm_dense", a.shape[:2], b.shape[:2])
        # (m, k, 1) x (1, k, n) -> reduce over k.  Semirings with infinite
        # identities (min-plus) legitimately produce inf arithmetic here.
        with np.errstate(invalid="ignore", over="ignore"):
            products = self.mul(a[:, :, None], b[None, :, :])
            return self.add_reduce(products, axis=1)

    def ewise_add_dense(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if a.shape != b.shape:
            raise DimensionMismatchError("ewise_add_dense", a.shape[:2], b.shape[:2])
        return self.add(a, b)

    def closure_dense(self, a: np.ndarray, *, reflexive: bool = False) -> np.ndarray:
        """Fixpoint of ``A ← A ⊕ A·A`` (transitive closure semantics).

        For the boolean semiring this is graph transitive closure; for
        min-plus it is all-pairs shortest paths.  Squaring doubles path
        lengths per iteration, so O(log n) dense products suffice.
        """
        a = np.asarray(a, dtype=self.dtype)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidArgumentError("closure requires a square matrix")
        if reflexive:
            eye = np.full(a.shape, self.zero, dtype=self.dtype)
            np.fill_diagonal(eye, self.one)
            a = self.add(a, eye)
        while True:
            nxt = self.add(a, self.mxm_dense(a, a))
            if np.array_equal(nxt, a):
                return nxt
            a = nxt


def _bool_or(a, b):
    return np.logical_or(a, b)


def _bool_and(a, b):
    return np.logical_and(a, b)


def _pair(a, b):
    """PAIR multiply: 1 wherever both operands are present (nonzero).

    On sparse storage a multiply only ever sees *stored* intersections,
    so PAIR degenerates to the constant 1 there — which is exactly what
    makes ``plus-pair`` count common neighbours (triangle counting)
    instead of multiplying weights.
    """
    return np.logical_and(a != 0, b != 0).astype(np.result_type(a, b))


#: The library's native algebra.
BOOL_OR_AND = Semiring(
    name="bool-or-and",
    dtype=np.dtype(bool),
    add=_bool_or,
    mul=_bool_and,
    zero=False,
    one=True,
    add_reduce=np.logical_or.reduce,
    is_boolean=True,
    add_ufunc=np.logical_or,
)

#: Ordinary arithmetic — what the generic baseline computes.
PLUS_TIMES = Semiring(
    name="plus-times",
    dtype=np.dtype(np.float64),
    add=np.add,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    add_reduce=np.add.reduce,
)

#: Tropical semiring — shortest paths (paper future work: custom semirings).
MIN_PLUS = Semiring(
    name="min-plus",
    dtype=np.dtype(np.float64),
    add=np.minimum,
    mul=np.add,
    zero=np.inf,
    one=0.0,
    add_reduce=np.minimum.reduce,
)

#: Max-times over [0, ∞) — widest-path / max-reliability products.
#: 0 is both the add-identity and the mul-annihilator, so it is sparse-
#: evaluable without restriction (implicit zeros behave).
MAX_TIMES = Semiring(
    name="max-times",
    dtype=np.dtype(np.float64),
    add=np.maximum,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    add_reduce=np.maximum.reduce,
)

#: PLUS_PAIR — common-neighbour counting (triangle counting's algebra).
#: PAIR is not a true semiring multiply over the reals (it is not
#: distributive off the {0, 1} sub-domain), but over sparse operands a
#: multiply only sees stored intersections, where PAIR ≡ 1; the dense
#: reference applies the same presence test, keeping both paths equal.
PLUS_PAIR = Semiring(
    name="plus-pair",
    dtype=np.dtype(np.float64),
    add=np.add,
    mul=_pair,
    zero=0.0,
    one=1.0,
    add_reduce=np.add.reduce,
)

_REGISTRY = {
    s.name: s for s in (BOOL_OR_AND, PLUS_TIMES, MIN_PLUS, MAX_TIMES, PLUS_PAIR)
}


def get_semiring(name: str) -> Semiring:
    """Look up a registered semiring by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown semiring {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def register_semiring(semiring: Semiring) -> Semiring:
    """Register a user-defined semiring under its ``name``.

    Re-registering a name replaces the previous entry (last wins), so
    applications can shadow a built-in with a tuned variant.  Returns
    the semiring for chaining.
    """
    if not isinstance(semiring, Semiring):
        raise InvalidArgumentError(
            f"register_semiring expects a Semiring, got {type(semiring).__name__}"
        )
    _REGISTRY[semiring.name] = semiring
    return semiring


def available_semirings() -> list[str]:
    """Sorted names of every registered semiring."""
    return sorted(_REGISTRY)
