"""Library context: backend selection and lifetime management.

A :class:`Context` corresponds to the SPbLA C API's library handle
(``cuBool_Initialize(hints) … cuBool_Finalize()``): it owns a backend
(and through it a simulated device), creates matrices, and releases
every matrix it created when finalized.  The paper's design section
describes exactly this "option to automatically select a specific
implementation depending on the capabilities of the target device" —
:func:`Context.auto` models the planned automatic backend choice.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from repro.backends import get_backend
from repro.backends.base import Backend, BackendMatrix
from repro.errors import InvalidArgumentError, InvalidStateError
from repro.gpu.device import Device


class Context:
    """An initialized library instance bound to one backend.

    Parameters
    ----------
    backend:
        Backend name: ``"cubool"`` (CSR, CUDA-like), ``"clbool"``
        (COO, OpenCL-like), ``"cpu"`` (sequential reference),
        ``"generic"``/``"generic64"`` (value-carrying baseline),
        ``"hybrid"`` (adaptive sparse/bit dispatch over cubool).
    device:
        Optional explicit simulated device (benchmarks pass one to read
        its counters); by default the backend creates its own.
    hybrid:
        Hybrid sparse/bit dispatch policy: ``None`` (default) consults
        the ``REPRO_HYBRID`` env var, which wraps only the
        ``cubool``/``clbool`` backends; ``False``/``"off"`` forces the
        pure sparse path (byte identical to the unwrapped backend);
        ``True``/``"auto"`` enables cost-model dispatch;
        ``"bit"``/``"sparse"`` force one regime.  An explicit mode also
        applies to ``backend="hybrid"``.  An explicit value that cannot
        apply — a mode on a backend the dispatcher does not wrap, or off
        on ``backend="hybrid"`` — raises :class:`InvalidArgumentError`.
        The crossover density is the constant
        :data:`repro.backends.hybrid.CROSSOVER_DENSITY`.
    """

    def __init__(
        self,
        backend: str = "cubool",
        device: Device | None = None,
        *,
        hybrid: bool | str | None = None,
    ):
        from repro.backends.hybrid import HybridBackend, resolve_hybrid_mode, wrap_backend

        self._backend: Backend = get_backend(backend, device=device)
        mode = resolve_hybrid_mode(hybrid)
        if isinstance(self._backend, HybridBackend):
            # Only what the caller spelled out re-modes the dispatcher: an
            # env-selected mode must not touch an explicit backend="hybrid".
            if hybrid is not None:
                if mode is None:
                    raise InvalidArgumentError(
                        f"hybrid={hybrid!r}: backend='hybrid' is the dispatcher; "
                        "use backend='cubool' for the pure sparse path"
                    )
                self._backend.policy = replace(self._backend.policy, mode=mode)
        elif mode is not None:
            if backend in ("cubool", "clbool"):
                self._backend = wrap_backend(self._backend, mode=mode)
            elif hybrid is not None:
                raise InvalidArgumentError(
                    f"hybrid={hybrid!r} does not apply to backend {backend!r} "
                    "(the dispatcher wraps cubool and clbool)"
                )
        self._live: list = []
        self._finalized = False
        self._lock = threading.Lock()

    # -- factory helpers ---------------------------------------------------

    @classmethod
    def auto(cls, *, prefer_memory: bool = False) -> "Context":
        """Pick a backend automatically.

        Models SPbLA's planned auto-selection: the CSR backend is the
        general default; ``prefer_memory=True`` selects the COO backend,
        which the paper recommends for hyper-sparse data where memory
        footprint dominates.
        """
        return cls(backend="clbool" if prefer_memory else "cubool")

    # -- lifecycle -----------------------------------------------------------

    def _check_alive(self) -> None:
        if self._finalized:
            raise InvalidStateError("context used after finalize()")

    def finalize(self) -> None:
        """Release every matrix created through this context (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        for ref in self._live:
            m = ref()
            if m is not None:
                m.free()
        self._live.clear()

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()

    # -- introspection ---------------------------------------------------

    @property
    def backend(self) -> Backend:
        self._check_alive()
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def device(self) -> Device:
        return self._backend.device

    # -- matrix creation (returns repro.core.matrix.Matrix) ----------------

    def _register(self, matrix) -> None:
        import weakref

        with self._lock:
            self._live.append(weakref.ref(matrix))
            # Opportunistically drop dead references.
            if len(self._live) > 1024:
                self._live = [r for r in self._live if r() is not None]

    def _wrap(self, handle: BackendMatrix):
        from repro.core.matrix import Matrix

        m = Matrix(handle, self)
        self._register(m)
        return m

    def matrix_empty(self, shape: tuple[int, int]):
        """All-false matrix of the given shape."""
        self._check_alive()
        return self._wrap(self._backend.matrix_empty(shape))

    def matrix_from_lists(self, shape: tuple[int, int], rows, cols):
        """Matrix from row/column index lists (duplicates collapse)."""
        self._check_alive()
        return self._wrap(self._backend.matrix_from_coo(rows, cols, shape))

    def matrix_from_dense(self, dense: np.ndarray):
        """Matrix from a dense boolean/truthy array."""
        self._check_alive()
        return self._wrap(self._backend.matrix_from_dense(dense))

    def identity(self, n: int):
        """n x n identity pattern."""
        self._check_alive()
        return self._wrap(self._backend.identity(n))

    def matrix_random(
        self,
        shape: tuple[int, int],
        density: float,
        *,
        seed: int | None = None,
    ):
        """Uniform random boolean matrix with expected ``density``."""
        self._check_alive()
        if not 0.0 <= density <= 1.0:
            raise InvalidArgumentError("density must be within [0, 1]")
        rng = np.random.default_rng(seed)
        nrows, ncols = int(shape[0]), int(shape[1])
        target = int(round(density * nrows * ncols))
        if target == 0 or nrows == 0 or ncols == 0:
            return self.matrix_empty(shape)
        rows = rng.integers(0, nrows, size=target)
        cols = rng.integers(0, ncols, size=target)
        return self.matrix_from_lists(shape, rows, cols)

    def matrix_from_scipy(self, sparse_matrix):
        """Import the nonzero pattern of any ``scipy.sparse`` matrix."""
        coo = sparse_matrix.tocoo()
        keep = coo.data != 0 if coo.data is not None else slice(None)
        return self.matrix_from_lists(coo.shape, coo.row[keep], coo.col[keep])

    def vector_from_indices(self, n: int, indices):
        """Sparse boolean vector of length ``n`` with the given support."""
        from repro.core.vector import Vector

        self._check_alive()
        return Vector.from_indices(self, n, indices)

    def vector_empty(self, n: int):
        from repro.core.vector import Vector

        self._check_alive()
        return Vector.empty(self, n)


_default_lock = threading.Lock()
_default_context: Context | None = None


def default_context() -> Context:
    """Process-wide lazily-created context (cubool backend)."""
    global _default_context
    with _default_lock:
        if _default_context is None or _default_context._finalized:
            _default_context = Context()
        return _default_context


def init(backend: str = "cubool", device: Device | None = None) -> Context:
    """(Re)initialize the default context with an explicit backend."""
    global _default_context
    with _default_lock:
        if _default_context is not None:
            _default_context.finalize()
        _default_context = Context(backend=backend, device=device)
        return _default_context
