"""clBool backend specifics: ESC SpGEMM, one-pass merge, COO behaviour."""

import numpy as np
import pytest

import repro
from repro.backends.clbool.backend import ClBoolBackend

from .conftest import bool_mxm, random_dense


class TestEscSpgemm:
    def test_expansion_heavy_case(self, rng):
        """The fan-through-hub worst case: k² candidates,
        expansion buffer must appear in the arena peak."""
        from repro.datasets.random_graphs import worst_case_bipartite

        k = 30
        g = worst_case_bipartite(k)
        be = ClBoolBackend()
        pairs = np.asarray(g.edges["a"], dtype=np.int64)
        m = be.matrix_from_coo(pairs[:, 0], pairs[:, 1], (g.n, g.n))
        live = be.device.arena.live_bytes
        be.device.arena.reset_peak()
        out = be.mxm(m, m)
        peak_over_live = be.device.arena.peak_bytes - live
        # k^2 candidates at 2 planes x 4 bytes must show up in the peak.
        assert peak_over_live >= k * k * 2 * 4
        assert out.nnz == k * k  # every source reaches every sink

    def test_correct_on_random(self, rng):
        be = ClBoolBackend()
        for density in (0.05, 0.3):
            a = random_dense(rng, (35, 28), density)
            b = random_dense(rng, (28, 22), density)
            out = be.mxm(be.matrix_from_dense(a), be.matrix_from_dense(b))
            rows, cols = be.matrix_to_coo(out)
            dense = np.zeros((35, 22), bool)
            if rows.size:
                dense[rows, cols] = True
            assert np.array_equal(dense, bool_mxm(a, b))

    def test_kernel_sequence(self, rng):
        be = ClBoolBackend()
        a = be.matrix_from_dense(random_dense(rng, (10, 10), 0.3))
        be.mxm(a, a)
        names = [rec.kernel_name for rec in be.stream.launches]
        for expected in ("esc_expand", "esc_radix_sort", "esc_compact"):
            assert expected in names, names


class TestOnePassMerge:
    def test_merge_buffer_overallocation(self, rng):
        """clBool allocates nnz(A)+nnz(B) before merging — visible as
        peak >= both inputs even when the result is tiny (full overlap)."""
        be = ClBoolBackend()
        d = random_dense(rng, (50, 50), 0.3)
        a = be.matrix_from_dense(d)
        b = be.matrix_from_dense(d)  # identical: result size = input size
        live = be.device.arena.live_bytes
        be.device.arena.reset_peak()
        out = be.ewise_add(a, b)
        peak_over_live = be.device.arena.peak_bytes - live
        nnz = int(d.sum())
        assert out.nnz == nnz
        # merge buffer: 2 planes x (2 nnz) x 4 bytes
        assert peak_over_live >= 2 * (2 * nnz) * 4

    def test_correct_union(self, rng):
        be = ClBoolBackend()
        a = random_dense(rng, (20, 20), 0.2)
        b = random_dense(rng, (20, 20), 0.2)
        out = be.ewise_add(be.matrix_from_dense(a), be.matrix_from_dense(b))
        rows, cols = be.matrix_to_coo(out)
        dense = np.zeros((20, 20), bool)
        if rows.size:
            dense[rows, cols] = True
        assert np.array_equal(dense, a | b)


class TestCooStorage:
    def test_storage_is_coo(self):
        be = ClBoolBackend()
        m = be.matrix_from_coo([0, 5], [1, 2], (10, 10))
        assert m.storage.kind == "coo"
        m.storage.validate()

    def test_memory_independent_of_rows(self):
        be = ClBoolBackend()
        small = be.matrix_from_coo([0, 1], [0, 1], (10, 10))
        huge = be.matrix_from_coo([0, 99999], [0, 1], (100000, 10))
        assert small.memory_bytes() == huge.memory_bytes()

    def test_ops_release_scratch(self, rng):
        be = ClBoolBackend()
        a = be.matrix_from_dense(random_dense(rng, (30, 30), 0.2))
        live = be.device.arena.live_bytes
        for op in (lambda: be.mxm(a, a), lambda: be.transpose(a), lambda: be.kron(a, a)):
            out = op()
            out.free()
            assert be.device.arena.live_bytes == live

    @pytest.mark.parametrize(
        "op, b_cols, expected",
        [
            ("ewise_add", [6, 1], [(3, 2**32 - 3), (7, 1), (2**32 - 2, 5), (2**32 - 2, 6)]),
            ("ewise_mult", [5, 1], [(2**32 - 2, 5)]),
        ],
    )
    def test_elementwise_beyond_int64_cells(self, op, b_cols, expected):
        """COO memory is 2·nnz, so a (2**32 - 1)² matrix is legal although
        nrows·ncols > 2**63; the pair key must not depend on the width."""
        n = 2**32 - 1
        with repro.Context(backend="clbool") as ctx:
            a = ctx.matrix_from_lists((n, n), [n - 1, 3], [5, n - 2])
            b = ctx.matrix_from_lists((n, n), [n - 1, 7], b_cols)
            assert list(getattr(a, op)(b)) == expected
