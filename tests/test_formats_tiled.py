"""Unit tests for the tiled bit matrix (presence grid, zero-tile skipping)."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, InvalidArgumentError
from repro.formats.bitmatrix import BitMatrix
from repro.formats.convert import convert, to_tiled
from repro.formats.tiled import (
    DEFAULT_TILE,
    TiledBitMatrix,
    _block_any,
    scratch_shapes,
)


def random_dense(shape, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


def tiled_from_dense(dense, tile=64):
    return TiledBitMatrix(BitMatrix.from_dense(dense), tile)


class TestConstruction:
    def test_wrap_is_zero_copy_and_presence_exact(self):
        d = random_dense((130, 200), 0.02, seed=1)
        flat = BitMatrix.from_dense(d)
        m = TiledBitMatrix(flat, 64)
        assert m.flat.words is flat.words
        m.validate()
        # Exactness: a tile is present iff its dense block has a bit.
        for ti in range(m.tiles_rows):
            for tc in range(m.tiles_cols):
                block = d[ti * 64 : (ti + 1) * 64, tc * 64 : (tc + 1) * 64]
                assert m.present[ti, tc] == block.any()

    def test_rejects_bad_tile_edges(self):
        flat = BitMatrix.empty((4, 4))
        for bad in (0, 32, 100, -64):
            with pytest.raises(InvalidArgumentError):
                TiledBitMatrix(flat, bad)

    def test_rejects_wrong_presence_shape(self):
        flat = BitMatrix.empty((128, 128))
        with pytest.raises(InvalidArgumentError):
            TiledBitMatrix(flat, 64, present=np.zeros((1, 1), dtype=bool))

    def test_deferred_scan_then_refresh(self):
        d = random_dense((100, 100), 0.1, seed=2)
        m = TiledBitMatrix(BitMatrix.from_dense(d), 64, scan=False)
        assert not m.present.any()
        with pytest.raises(InvalidArgumentError):
            m.validate()
        m.refresh_presence()
        m.validate()

    def test_grid_geometry_and_occupancy(self):
        # 130 rows / 200 cols at tile 64: 3 x 4 grid (200 cols -> 4
        # words/row -> 4 word-tiles of width 1).
        m = tiled_from_dense(np.zeros((130, 200), dtype=bool))
        assert (m.tiles_rows, m.tiles_cols) == (3, 4)
        assert m.occupancy == 0.0
        m = tiled_from_dense(np.ones((130, 200), dtype=bool))
        assert m.occupancy == 1.0

    def test_empty_matrix_grid(self):
        m = TiledBitMatrix(BitMatrix.empty((0, 0)), 64)
        assert m.tiles_rows == 0
        m.validate()

    def test_memory_bytes_counts_presence(self):
        flat = BitMatrix.empty((256, 256))
        m = TiledBitMatrix(flat, 64)
        assert m.memory_bytes() == flat.memory_bytes() + m.present.nbytes

    def test_copy_is_independent(self):
        d = random_dense((70, 70), 0.1, seed=3)
        m = tiled_from_dense(d)
        c = m.copy()
        assert c.flat.words is not m.flat.words
        assert c.present is not m.present
        c.flat.words.fill(0)
        m.validate()


class TestPresentPairs:
    def test_block_diagonal_counts(self):
        # Two 64x64 diagonal blocks: A@A visits exactly 2 tile pairs.
        d = np.zeros((128, 128), dtype=bool)
        d[:64, :64] = True
        d[64:, 64:] = True
        m = tiled_from_dense(d)
        assert m.present_pairs(m) == 2

    def test_shape_mismatch(self):
        a = tiled_from_dense(np.zeros((64, 128), dtype=bool))
        with pytest.raises(DimensionMismatchError):
            a.present_pairs(a)


class TestKernels:
    SHAPES = [
        ((1, 1), (1, 1)),
        ((64, 64), (64, 64)),
        ((65, 63), (63, 130)),
        ((128, 256), (256, 64)),
        ((200, 100), (100, 150)),
    ]

    @pytest.mark.parametrize("shape_a,shape_b", SHAPES)
    @pytest.mark.parametrize("four_russians", [False, True])
    def test_mxm_matches_dense(self, shape_a, shape_b, four_russians):
        da = random_dense(shape_a, 0.1, seed=10)
        db = random_dense(shape_b, 0.1, seed=11)
        out = tiled_from_dense(da).mxm(
            tiled_from_dense(db), four_russians=four_russians
        )
        out.validate()
        assert np.array_equal(out.flat.to_dense(), da @ db)

    def test_mxm_into_preserves_accumulator_seed(self):
        da = random_dense((100, 100), 0.05, seed=12)
        db = random_dense((100, 100), 0.05, seed=13)
        seed = random_dense((100, 100), 0.05, seed=14)
        out = tiled_from_dense(seed)
        out.mxm_into(tiled_from_dense(da), tiled_from_dense(db))
        out.validate()
        assert np.array_equal(out.flat.to_dense(), seed | (da @ db))

    def test_mxm_skips_absent_pairs(self):
        # Off-diagonal-block product of block-diagonal operands is
        # empty; presence must end up all-False without touching words.
        d = np.zeros((128, 128), dtype=bool)
        d[:64, 64:] = random_dense((64, 64), 0.2, seed=15)
        a = tiled_from_dense(d)
        out = a.mxm(a)  # upper-triangular block squared -> zero
        out.validate()
        assert out.nnz == 0
        assert not out.present.any()

    def test_mxm_into_uses_the_callers_scratch_pair(self):
        d = random_dense((128, 128), 0.2, seed=18)
        a = tiled_from_dense(d)
        out = TiledBitMatrix(BitMatrix.empty((128, 128)), 64, scan=False)
        sel_shape, red_shape = scratch_shapes(64)
        sel = np.zeros(sel_shape, np.uint64)
        red = np.zeros(red_shape, np.uint64)
        out.mxm_into(a, a, scratch=(sel, red))
        assert np.array_equal(out.flat.to_dense(), d @ d)
        assert sel.any() and red.any()

    def test_kernels_are_serial_by_signature(self):
        a = tiled_from_dense(random_dense((64, 64), 0.2, seed=19))
        out = TiledBitMatrix(BitMatrix.empty((64, 64)), 64, scan=False)
        for call in (
            lambda: a.mxm(a, workers=2),
            lambda: out.mxm_into(a, a, workers=2),
            lambda: a.kron(a, workers=2),
            lambda: out.kron_into(a, a, workers=2),
        ):
            with pytest.raises(TypeError):
                call()

    def test_mxm_tile_mismatch(self):
        a = tiled_from_dense(np.zeros((64, 64), dtype=bool), tile=64)
        b = tiled_from_dense(np.zeros((64, 64), dtype=bool), tile=128)
        with pytest.raises(InvalidArgumentError):
            a.mxm(b)

    def test_kron_matches_dense(self):
        da = random_dense((9, 7), 0.3, seed=20)
        db = random_dense((11, 13), 0.3, seed=21)
        out = tiled_from_dense(da).kron(tiled_from_dense(db))
        out.validate()
        assert np.array_equal(out.flat.to_dense(), np.kron(da, db))

    def test_kron_into_accumulates(self):
        da = random_dense((4, 4), 0.5, seed=22)
        db = random_dense((16, 16), 0.1, seed=23)
        seed = random_dense((64, 64), 0.02, seed=24)
        out = tiled_from_dense(seed)
        out.kron_into(tiled_from_dense(da), tiled_from_dense(db))
        assert np.array_equal(out.flat.to_dense(), seed | np.kron(da, db))

    def test_degenerate_dims(self):
        a = tiled_from_dense(np.zeros((0, 64), dtype=bool))
        b = tiled_from_dense(np.zeros((64, 64), dtype=bool))
        out = TiledBitMatrix(BitMatrix.empty((0, 64)), 64, scan=False)
        out.mxm_into(a, b)
        out.validate()


class TestConversions:
    def test_round_trip_through_convert(self):
        d = random_dense((70, 130), 0.1, seed=30)
        flat = BitMatrix.from_dense(d)
        tiled = convert(flat, "tiled")
        assert isinstance(tiled, TiledBitMatrix)
        assert convert(tiled, "bit") is tiled.flat
        csr = convert(tiled, "csr")
        r1, c1 = csr.to_coo_arrays()
        r2, c2 = flat.to_coo_arrays()
        assert np.array_equal(r1, r2) and np.array_equal(c1, c2)

    def test_to_tiled_from_sparse(self):
        from repro.formats.csr import BoolCsr

        csr = BoolCsr.from_coo([0, 5, 99], [0, 64, 99], (100, 100))
        tiled = to_tiled(csr)
        tiled.validate()
        assert tiled.nnz == 3


class TestHelpers:
    def test_block_any_matches_brute_force(self):
        rng = np.random.default_rng(40)
        words = (rng.random((130, 5)) < 0.05).astype(np.uint64)
        got = _block_any(words, 130, 128)
        for ti in range(got.shape[0]):
            for tc in range(got.shape[1]):
                blk = words[ti * 128 : (ti + 1) * 128, tc * 2 : (tc + 1) * 2]
                assert got[ti, tc] == bool((blk != 0).any())

    def test_scratch_shapes(self):
        sel, red = scratch_shapes(DEFAULT_TILE)
        assert sel == (256, 4, 64)
        assert red == (256, 4)


class TestReadOnlySources:
    """Satellite: snapshot (memmap) views are read-only — the *_into
    kernels must consume them without writing through the source."""

    @staticmethod
    def frozen(dense):
        m = BitMatrix.from_dense(dense)
        m.words.flags.writeable = False
        return m

    def test_transpose_into_from_read_only(self):
        d = random_dense((65, 130), 0.1, seed=50)
        src = self.frozen(d)
        out = BitMatrix.empty((130, 65))
        out.transpose_into(src)
        assert np.array_equal(out.to_dense(), d.T)

    def test_extract_submatrix_into_from_read_only(self):
        d = random_dense((100, 200), 0.1, seed=51)
        src = self.frozen(d)
        out = BitMatrix.empty((40, 70))
        out.extract_submatrix_into(src, 30, 65)
        assert np.array_equal(out.to_dense(), d[30:70, 65:135])

    def test_tiled_mxm_from_read_only_operands(self):
        da = random_dense((128, 128), 0.1, seed=52)
        db = random_dense((128, 128), 0.1, seed=53)
        a = TiledBitMatrix(self.frozen(da), 64)
        b = TiledBitMatrix(self.frozen(db), 64)
        out = TiledBitMatrix(BitMatrix.empty((128, 128)), 64, scan=False)
        out.mxm_into(a, b)
        assert np.array_equal(out.flat.to_dense(), da @ db)
