"""Multi-device row-block distribution tests."""

import numpy as np
import pytest

from repro.distributed import DevicePool, DistributedMatrix
from repro.errors import DimensionMismatchError, InvalidArgumentError, InvalidStateError

from .conftest import bool_mxm, random_dense


def coords(dense):
    rows, cols = np.nonzero(dense)
    return rows, cols


class TestPartitioning:
    def test_bounds_cover_rows(self, rng):
        pool = DevicePool(n_devices=3, backend="cpu")
        rows = rng.integers(0, 50, 200)
        bounds = pool.partition_rows(rows, 50)
        assert bounds[0] == 0 and bounds[-1] == 50
        assert np.all(np.diff(bounds) >= 0)

    def test_nnz_balance_on_skew(self, rng):
        """A heavily skewed distribution still splits near-evenly by nnz."""
        pool = DevicePool(n_devices=4, backend="cpu")
        rows = np.concatenate([np.zeros(700, dtype=np.int64), rng.integers(1, 100, 300)])
        bounds = pool.partition_rows(rows, 100)
        counts = np.bincount(rows, minlength=100)
        cum = np.concatenate([[0], np.cumsum(counts)])
        per_dev = [int(cum[bounds[i + 1]] - cum[bounds[i]]) for i in range(4)]
        # Row 0 alone carries 70%; it cannot split, but the rest must.
        assert per_dev[0] >= 700
        assert sum(per_dev) == 1000

    def test_empty_matrix_even_split(self):
        pool = DevicePool(n_devices=4, backend="cpu")
        bounds = pool.partition_rows(np.empty(0, np.int64), 40)
        assert bounds.tolist() == [0, 10, 20, 30, 40]

    def test_single_device(self):
        pool = DevicePool(n_devices=1, backend="cpu")
        bounds = pool.partition_rows(np.array([1, 2]), 5)
        assert bounds.tolist() == [0, 5]

    def test_bad_pool_size(self):
        with pytest.raises(InvalidArgumentError):
            DevicePool(n_devices=0)


class TestDistributedOps:
    @pytest.mark.parametrize("backend", ["cpu", "cubool", "clbool"])
    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    def test_mxm_matches_single_device(self, rng, backend, n_devices):
        a = random_dense(rng, (30, 24), 0.15)
        b = random_dense(rng, (24, 18), 0.15)
        pool = DevicePool(n_devices=n_devices, backend=backend)
        da = pool.distribute(*coords(a), a.shape)
        dc = da.mxm_replicated(*coords(b), b.shape)
        assert np.array_equal(dc.to_dense(), bool_mxm(a, b))
        dc.free()
        da.free()

    def test_ewise_ops_aligned(self, rng):
        a = random_dense(rng, (20, 20), 0.3)
        b = random_dense(rng, (20, 20), 0.3)
        pool = DevicePool(n_devices=3, backend="cubool")
        da = pool.distribute(*coords(a), a.shape)
        # Align b to da's partition by distributing with the same bounds:
        rows_b, cols_b = coords(b)
        db = DistributedMatrix(
            pool,
            b.shape,
            da.bounds,
            [
                pool.backends[i].matrix_from_coo(
                    rows_b[(rows_b >= da.bounds[i]) & (rows_b < da.bounds[i + 1])]
                    - da.bounds[i],
                    cols_b[(rows_b >= da.bounds[i]) & (rows_b < da.bounds[i + 1])],
                    (int(da.bounds[i + 1] - da.bounds[i]), b.shape[1]),
                )
                for i in range(pool.n_devices)
            ],
        )
        assert np.array_equal(da.ewise_add(db).to_dense(), a | b)
        assert np.array_equal(da.ewise_mult(db).to_dense(), a & b)

    def test_mxm_shape_mismatch(self, rng):
        a = random_dense(rng, (10, 5), 0.3)
        pool = DevicePool(n_devices=2, backend="cpu")
        da = pool.distribute(*coords(a), a.shape)
        with pytest.raises(DimensionMismatchError):
            da.mxm_replicated(np.array([0]), np.array([0]), (7, 7))

    def test_misaligned_rejected(self, rng):
        a = random_dense(rng, (10, 10), 0.3)
        pool = DevicePool(n_devices=2, backend="cpu")
        other_pool = DevicePool(n_devices=2, backend="cpu")
        da = pool.distribute(*coords(a), a.shape)
        db = other_pool.distribute(*coords(a), a.shape)
        with pytest.raises(InvalidArgumentError):
            da.ewise_add(db)

    def test_nnz_and_blocks(self, rng):
        a = random_dense(rng, (40, 10), 0.2)
        pool = DevicePool(n_devices=4, backend="clbool")
        da = pool.distribute(*coords(a), a.shape)
        assert da.nnz == int(a.sum())
        assert sum(da.block_nnz()) == da.nnz


def skewed_dense(rng, n=256, dense_rows=32, dense_nnz=3000, tail_nnz=20):
    """A matrix whose nnz-balanced row blocks span both density regimes.

    nnz balancing equalizes entries per block, so packing the bulk of
    the pattern into the first ``dense_rows`` rows leaves the last
    block covering most of the row range at hyper-sparse density while
    the leading blocks sit far above the bit-packing crossover.
    """
    out = np.zeros((n, n), dtype=bool)
    out[rng.integers(0, dense_rows, dense_nnz), rng.integers(0, n, dense_nnz)] = True
    out[rng.integers(dense_rows, n, tail_nnz), rng.integers(0, n, tail_nnz)] = True
    return out


class TestHybridPool:
    def test_plain_pool_stays_sparse(self, rng):
        a = skewed_dense(rng)
        pool = DevicePool(n_devices=4, backend="cubool")
        assert pool.hybrid_mode is None
        da = pool.distribute(*coords(a), a.shape)
        assert da.block_formats() == ["sparse"] * 4

    def test_skewed_matrix_mixes_block_formats(self, rng):
        a = skewed_dense(rng)
        pool = DevicePool(n_devices=4, backend="cubool", hybrid=True)
        assert pool.hybrid_mode == "auto"
        da = pool.distribute(*coords(a), a.shape)
        formats = da.block_formats()
        # Dense leading blocks are bit-packed up front; the hyper-sparse
        # tail block keeps its sparse representation.
        assert "sparse" in formats
        assert any(f != "sparse" for f in formats)
        assert formats[-1] == "sparse"

    def test_hybrid_mxm_matches_dense_oracle(self, rng):
        a = skewed_dense(rng, n=128, dense_rows=16, dense_nnz=1200)
        b = random_dense(rng, (128, 96), 0.1)
        pool = DevicePool(n_devices=4, backend="cubool", hybrid=True)
        da = pool.distribute(*coords(a), a.shape)
        dc = da.mxm_replicated(*coords(b), b.shape)
        assert np.array_equal(dc.to_dense(), bool_mxm(a, b))
        dc.free()
        da.free()

    def test_replicas_pinned_by_density(self, rng):
        b = random_dense(rng, (48, 48), 0.3)  # well above the crossover
        pool = DevicePool(n_devices=3, backend="cubool", hybrid=True)
        replicas = pool.replicate(*coords(b), b.shape)
        assert all(r.resident != "sparse" for r in replicas)
        for r in replicas:
            r.free()

    def test_env_var_enables_hybrid(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_HYBRID", "auto")
        pool = DevicePool(n_devices=2, backend="cubool")
        assert pool.hybrid_mode == "auto"
        monkeypatch.setenv("REPRO_HYBRID", "0")
        assert DevicePool(n_devices=2, backend="cubool").hybrid_mode is None


class TestPoolAccounting:
    def test_per_device_memory_isolated(self, rng):
        a = random_dense(rng, (60, 60), 0.1)
        pool = DevicePool(n_devices=3, backend="cubool")
        da = pool.distribute(*coords(a), a.shape)
        report = pool.memory_report()
        assert len(report) == 3
        assert all(entry["live_bytes"] > 0 for entry in report.values())

    def test_replication_overhead_visible(self, rng):
        """B replication shows as live bytes on every device during mxm."""
        a = random_dense(rng, (40, 40), 0.1)
        pool = DevicePool(n_devices=2, backend="cubool")
        da = pool.distribute(*coords(a), a.shape)
        before = [d.arena.peak_bytes for d in pool.devices]
        dc = da.mxm_replicated(*coords(a), a.shape)
        after = [d.arena.peak_bytes for d in pool.devices]
        assert all(b2 > b1 for b1, b2 in zip(before, after))
        dc.free()

    def test_finalized_pool_rejects(self):
        pool = DevicePool(n_devices=1, backend="cpu")
        pool.finalize()
        with pytest.raises(InvalidStateError):
            pool.distribute(np.array([0]), np.array([0]), (2, 2))

    def test_context_manager(self, rng):
        with DevicePool(n_devices=2, backend="cpu") as pool:
            assert pool.n_devices == 2
        with pytest.raises(InvalidStateError):
            pool.distribute(np.array([0]), np.array([0]), (2, 2))
