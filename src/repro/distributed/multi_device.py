"""nnz-balanced row-block distribution over a pool of simulated devices."""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.errors import DimensionMismatchError, InvalidArgumentError, InvalidStateError
from repro.gpu.device import Device
from repro.utils.arrays import INDEX_DTYPE, coo_from_keys, keys_from_coo, sort_unique_keys


class DevicePool:
    """A fixed set of simulated devices sharing one backend kind.

    Parameters
    ----------
    n_devices:
        Pool size (≥ 1).
    backend:
        Backend name instantiated once per device ("cubool", "clbool",
        "cpu", "generic").
    hybrid:
        Wrap every device's backend in the adaptive sparse/bit
        dispatcher (:mod:`repro.backends.hybrid`).  ``None`` defers to
        the ``REPRO_HYBRID`` env var; ``"auto"``/``"bit"``/``"sparse"``
        force a mode.  With a hybrid pool, :meth:`distribute` and
        :meth:`replicate` pin each row block's residency by its own
        density — dense blocks are bit-packed once up front,
        hyper-sparse blocks stay in COO/CSR — so a skewed matrix holds
        mixed representations across devices.
    """

    def __init__(
        self,
        n_devices: int = 2,
        backend: str = "cubool",
        *,
        hybrid: bool | str | None = None,
    ):
        if n_devices < 1:
            raise InvalidArgumentError("pool needs at least one device")
        self.backend_name = backend
        inners = [
            get_backend(backend, device=Device(name=f"{backend}-pool{i}"))
            for i in range(n_devices)
        ]
        if hybrid is None:
            from repro.backends.hybrid import hybrid_mode_from_env

            hybrid = hybrid_mode_from_env()
        elif hybrid is True:
            hybrid = "auto"
        elif hybrid is False:
            hybrid = None
        self.hybrid_mode = hybrid
        if hybrid:
            from repro.backends.hybrid import wrap_backend

            self.backends = [wrap_backend(be, mode=hybrid) for be in inners]
        else:
            self.backends = inners
        self._finalized = False

    @property
    def n_devices(self) -> int:
        return len(self.backends)

    @property
    def devices(self) -> list[Device]:
        return [be.device for be in self.backends]

    def _check_alive(self) -> None:
        if self._finalized:
            raise InvalidStateError("device pool used after finalize()")

    # -- distribution ------------------------------------------------------

    def partition_rows(self, rows: np.ndarray, nrows: int) -> np.ndarray:
        """Row-block boundaries balancing nnz across devices.

        Returns ``bounds`` of length ``n_devices + 1`` with
        ``bounds[0] == 0``, ``bounds[-1] == nrows``; device ``i`` owns
        rows ``[bounds[i], bounds[i+1])``.  Boundaries are chosen so
        each block carries ≈ nnz / n_devices entries (the dynamic
        work-balancing theme of the paper's kernels, at device scale).
        """
        k = self.n_devices
        bounds = np.zeros(k + 1, dtype=np.int64)
        bounds[-1] = nrows
        if rows.size == 0 or k == 1:
            if k > 1:
                # Even row split when there is nothing to balance.
                bounds[1:-1] = [(nrows * i) // k for i in range(1, k)]
            return bounds
        counts = np.bincount(rows.astype(np.int64), minlength=nrows)
        cum = np.cumsum(counts)
        total = int(cum[-1])
        for i in range(1, k):
            target = (total * i) // k
            bounds[i] = int(np.searchsorted(cum, target, side="left")) + 1
        bounds[1:-1] = np.clip(bounds[1:-1], 0, nrows)
        # Boundaries must be non-decreasing.
        np.maximum.accumulate(bounds, out=bounds)
        return bounds

    def distribute(self, rows, cols, shape: tuple[int, int]) -> "DistributedMatrix":
        """Scatter a coordinate pattern into per-device row blocks."""
        self._check_alive()
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise InvalidArgumentError("rows and cols must have equal length")
        nrows, ncols = int(shape[0]), int(shape[1])
        # Dedupe before partitioning so the nnz balance reflects what the
        # devices will actually store (duplicates collapse under OR).
        if rows.size:
            keys = sort_unique_keys(keys_from_coo(rows, cols))
            rows, cols = (a.astype(np.int64) for a in coo_from_keys(keys))
        bounds = self.partition_rows(rows, nrows)
        blocks = []
        for i, be in enumerate(self.backends):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            mask = (rows >= lo) & (rows < hi)
            block = be.matrix_from_coo(
                rows[mask] - lo, cols[mask], (hi - lo, ncols)
            )
            self._pin_residency(be, block)
            blocks.append(block)
        return DistributedMatrix(self, shape, bounds, blocks)

    def replicate(self, rows, cols, shape: tuple[int, int]) -> list:
        """Copy one matrix onto every device (the B operand of mxm)."""
        self._check_alive()
        replicas = []
        for be in self.backends:
            r = be.matrix_from_coo(rows, cols, shape)
            self._pin_residency(be, r)
            replicas.append(r)
        return replicas

    def _pin_residency(self, be, block) -> None:
        """Bit-pack a hybrid block up front when its density warrants it.

        Row blocks of a skewed matrix have wildly different densities
        even under nnz balancing (few dense rows vs many sparse ones);
        deciding per block — against the policy's crossover density —
        gives each device the representation its slice
        deserves instead of one global choice.  Hyper-sparse blocks are
        left alone: packing them would waste ``nrows x ncols / 8`` bits
        of arena for no kernel win.
        """
        if not self.hybrid_mode:
            return
        nrows, ncols = block.shape
        cells = nrows * ncols
        if cells == 0:
            return
        if block.nnz / cells >= be.policy.crossover_density:
            be.ensure_resident(block, "bit")

    # -- introspection ---------------------------------------------------

    def memory_report(self) -> dict:
        """Per-device live/peak bytes (the replication overhead shows up
        as near-identical live figures on every device)."""
        return {
            be.device.name: {
                "live_bytes": be.device.arena.live_bytes,
                "peak_bytes": be.device.arena.peak_bytes,
            }
            for be in self.backends
        }

    def finalize(self) -> None:
        self._finalized = True

    def __enter__(self) -> "DevicePool":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DevicePool({self.n_devices} x {self.backend_name})"


class DistributedMatrix:
    """A boolean matrix split into per-device row blocks."""

    def __init__(self, pool: DevicePool, shape, bounds: np.ndarray, blocks: list):
        self.pool = pool
        self.shape = (int(shape[0]), int(shape[1]))
        self.bounds = bounds
        self.blocks = blocks  # BackendMatrix handles, one per device

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)

    def block_nnz(self) -> list[int]:
        """Per-device entry counts (balance diagnostic)."""
        return [b.nnz for b in self.blocks]

    def block_formats(self) -> list[str]:
        """Per-device resident representation (``"sparse"``, ``"bit"``,
        ``"tiled"``).  On a hybrid pool a skewed matrix shows a mix —
        the residency diagnostic for the per-block density pinning."""
        return [getattr(b, "resident", None) or "sparse" for b in self.blocks]

    # -- operations ------------------------------------------------------

    def mxm_replicated(self, b_rows, b_cols, b_shape) -> "DistributedMatrix":
        """``C = A · B`` with B replicated to every device.

        Communication-free: each device multiplies its row block against
        its full local copy of B, producing the matching row block of C.
        """
        if self.ncols != int(b_shape[0]):
            raise DimensionMismatchError("mxm", self.shape, tuple(b_shape))
        replicas = self.pool.replicate(b_rows, b_cols, b_shape)
        out_blocks = []
        try:
            for be, a_block, b_local in zip(self.pool.backends, self.blocks, replicas):
                out_blocks.append(be.mxm(a_block, b_local))
        finally:
            for r in replicas:
                r.free()
        return DistributedMatrix(
            self.pool, (self.nrows, int(b_shape[1])), self.bounds, out_blocks
        )

    def ewise_add(self, other: "DistributedMatrix") -> "DistributedMatrix":
        """Element-wise OR of identically-partitioned matrices."""
        self._check_aligned(other, "ewise_add")
        out_blocks = [
            be.ewise_add(a, b)
            for be, a, b in zip(self.pool.backends, self.blocks, other.blocks)
        ]
        return DistributedMatrix(self.pool, self.shape, self.bounds, out_blocks)

    def ewise_mult(self, other: "DistributedMatrix") -> "DistributedMatrix":
        """Element-wise AND of identically-partitioned matrices."""
        self._check_aligned(other, "ewise_mult")
        out_blocks = [
            be.ewise_mult(a, b)
            for be, a, b in zip(self.pool.backends, self.blocks, other.blocks)
        ]
        return DistributedMatrix(self.pool, self.shape, self.bounds, out_blocks)

    def _check_aligned(self, other: "DistributedMatrix", op: str) -> None:
        if not isinstance(other, DistributedMatrix) or other.pool is not self.pool:
            raise InvalidArgumentError(f"{op}: operands from different pools")
        if self.shape != other.shape or not np.array_equal(self.bounds, other.bounds):
            raise DimensionMismatchError(op, self.shape, other.shape)

    # -- gather ----------------------------------------------------------

    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Collect the global (rows, cols) pattern on the host."""
        all_rows, all_cols = [], []
        for i, (be, block) in enumerate(zip(self.pool.backends, self.blocks)):
            rows, cols = be.matrix_to_coo(block)
            all_rows.append(rows.astype(np.int64) + int(self.bounds[i]))
            all_cols.append(cols.astype(np.int64))
        if not all_rows:
            return np.empty(0, INDEX_DTYPE), np.empty(0, INDEX_DTYPE)
        return (
            np.concatenate(all_rows).astype(INDEX_DTYPE),
            np.concatenate(all_cols).astype(INDEX_DTYPE),
        )

    def to_dense(self) -> np.ndarray:
        rows, cols = self.gather()
        out = np.zeros(self.shape, dtype=bool)
        if rows.size:
            out[rows, cols] = True
        return out

    def free(self) -> None:
        for b in self.blocks:
            b.free()
        self.blocks = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DistributedMatrix({self.shape[0]}x{self.shape[1]}, "
            f"blocks={self.block_nnz()})"
        )
