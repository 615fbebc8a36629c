"""cuBool backend specifics: hash SpGEMM internals, binning, accounting."""

import numpy as np
import pytest

import repro
from repro.backends import get_backend
from repro.backends.cubool.backend import CuBoolBackend
from repro.backends.cubool import spgemm_hash
from repro.backends.cubool.spgemm_hash import DEFAULT_BIN_BOUNDS, spgemm_boolean_csr
from repro.backends.common import emit_csr, expansion_lengths, spgemm_upper_bound
from repro.gpu.launch import grid_1d
from repro.formats.csr import BoolCsr
from repro.utils.arrays import coo_from_keys, is_sorted_unique, keys_from_coo, segment_ids

from .conftest import bool_mxm, random_dense


def _hash_product(a, b, **kw):
    """Run ``spgemm_boolean_csr`` on dense operands; return the dense
    product, the product's packed keys and the launch names."""
    be = CuBoolBackend()
    sa, sb = BoolCsr.from_dense(a), BoolCsr.from_dense(b)
    rowptr, cols, buffers = spgemm_boolean_csr(
        be.device, be.stream, sa.shape, sa.rowptr, sa.cols,
        sb.shape, sb.rowptr, sb.cols, **kw,
    )
    rows = segment_ids(np.diff(rowptr.astype(np.int64)))
    keys = keys_from_coo(rows, cols)
    dense = np.zeros((a.shape[0], b.shape[1]), dtype=bool)
    dense[rows, cols] = True
    for buf in buffers:
        buf.free()
    be.device.arena.check_balanced()
    return dense, keys, [rec.kernel_name for rec in be.stream.launches]


class TestHashSpgemm:
    def test_all_duplicate_candidates(self):
        """Every candidate of row 0 is one of two columns, 16 times over."""
        a = np.zeros((3, 8), dtype=bool)
        a[0, :] = True
        b = np.zeros((8, 16), dtype=bool)
        b[:, [3, 9]] = True
        dense, keys, _ = _hash_product(a, b)
        assert np.array_equal(dense, bool_mxm(a, b))
        assert keys.tolist() == [3, 9]

    def test_row_with_bound_distinct_columns(self):
        """ub == bound with every candidate distinct: the fullest table
        the bin admits."""
        a = np.zeros((2, 4), dtype=bool)
        a[1, :] = True
        b = np.zeros((4, 40), dtype=bool)
        for k in range(4):
            b[k, 10 * k : 10 * k + 4] = True
        dense, _, names = _hash_product(a, b, bin_bounds=(16,))
        assert np.array_equal(dense, bool_mxm(a, b))
        assert dense[1].sum() == 16
        assert names == ["spgemm_hash_shared_b16"]

    def test_all_empty_rows(self):
        """Rows of A that are empty, or select only empty B rows, launch
        nothing and emit nothing."""
        a = np.zeros((5, 6), dtype=bool)
        a[[1, 3], [0, 5]] = True
        b = np.zeros((6, 7), dtype=bool)
        b[2, 4] = True
        dense, keys, names = _hash_product(a, b)
        assert not dense.any() and keys.size == 0
        assert names == []

    def test_interleaved_shared_and_global_rows(self, rng):
        """Even rows fit the shared bins, odd rows overflow into the
        global bin; the assembled output must be canonical."""
        a = np.zeros((24, 24), dtype=bool)
        a[0::2, :] = random_dense(rng, (12, 24), 0.05)
        a[1::2, :] = random_dense(rng, (12, 24), 0.6)
        b = random_dense(rng, (24, 24), 0.3)
        dense, keys, names = _hash_product(a, b, bin_bounds=(4, 8))
        assert np.array_equal(dense, bool_mxm(a, b))
        assert is_sorted_unique(keys)
        assert any(n.startswith("spgemm_hash_shared") for n in names)
        assert any(n.startswith("spgemm_hash_global") for n in names)


def _pinned_operands():
    """48 rows of rising density over 3000 one-entry rows: several
    shared bins, a multi-chunk b32 bin and, under tight bounds, a
    global bin."""
    rng = np.random.default_rng(2024)
    p = np.linspace(0.0, 0.6, 48)[:, None]
    tall = np.zeros((3000, 48), dtype=bool)
    tall[np.arange(3000), rng.integers(0, 48, 3000)] = True
    a = np.vstack([rng.random((48, 48)) < p, tall])
    b = rng.random((48, 48)) < 0.08
    return a, b


@pytest.mark.parametrize(
    "kwargs, launches, alloc_sizes",
    [
        (
            {},
            [
                ("spgemm_hash_shared_b32", 1440, 32),
                ("spgemm_hash_shared_b32", 1440, 32),
                ("spgemm_hash_shared_b32", 79, 32),
                ("spgemm_hash_shared_b64", 12, 64),
                ("spgemm_hash_shared_b128", 20, 128),
                ("spgemm_hash_shared_b256", 1, 256),
            ],
            [12196, 51452],
        ),
        (
            {"bin_bounds": (4, 8)},
            [
                ("spgemm_hash_shared_b4", 1906, 32),
                ("spgemm_hash_shared_b8", 935, 32),
                ("spgemm_hash_global_b135", 151, 160),
            ],
            [309248, 12196, 51452],
        ),
        (
            {"use_binning": False},
            [("spgemm_hash_global_b135", 2992, 160)],
            [6127616, 12196, 51452],
        ),
    ],
    ids=["default", "bounds_4_8", "no_binning"],
)
def test_launches_and_allocs_pinned(kwargs, launches, alloc_sizes, monkeypatch):
    """Bins, chunking, launch geometry ``(name, grid, block)`` and arena
    alloc bytes in order are the launch and memory model E9 reports; the
    executor must not move them."""
    be = CuBoolBackend(**kwargs)
    a, b = _pinned_operands()
    ha, hb = be.matrix_from_dense(a), be.matrix_from_dense(b)
    sizes = []
    alloc = be.device.arena.alloc

    def recording_alloc(shape, dtype):
        buf = alloc(shape, dtype)
        sizes.append(buf.nbytes)
        return buf

    monkeypatch.setattr(be.device.arena, "alloc", recording_alloc)
    before = be.stream.launch_count
    out = be.mxm(ha, hb)
    records = list(be.stream.launches)[before:]
    assert [(r.kernel_name, r.config.grid, r.config.block) for r in records] == launches
    assert sizes == alloc_sizes
    rows, cols = be.matrix_to_coo(out)
    dense = np.zeros(a.shape, dtype=bool)
    dense[rows, cols] = True
    assert np.array_equal(dense, bool_mxm(a, b))


def _op_operands():
    """90 x 90 operands: ``a`` of rising row density (several SpGEMM
    bins), sparse ``b``/``acc``, a denser ``mask``; ``ka``/``kb`` and the
    120 x 99 ``kacc`` for the Kronecker ops."""
    rng = np.random.default_rng(34)
    a = rng.random((90, 90)) < np.linspace(0.0, 0.5, 90)[:, None]
    b = rng.random((90, 90)) < 0.06
    mask = rng.random((90, 90)) < 0.2
    acc = rng.random((90, 90)) < 0.03
    kacc = rng.random((120, 99)) < 0.05
    return {
        "a": a, "b": b, "mask": mask, "acc": acc,
        "ka": a[60:72, :9], "kb": b[:10, :11], "kacc": kacc,
    }


#: op -> (backend call over handles, dense NumPy reference over the
#: operands).  The reference shares no code with any backend.
PIN_OPS = {
    "mxm": (
        lambda be, h: be.mxm(h["a"], h["b"]),
        lambda d: bool_mxm(d["a"], d["b"]),
    ),
    "mxm_mask_accumulate": (
        lambda be, h: be.mxm(h["a"], h["b"], accumulate=h["acc"], mask=h["mask"]),
        lambda d: (bool_mxm(d["a"], d["b"]) & ~d["mask"]) | d["acc"],
    ),
    "ewise_add": (
        lambda be, h: be.ewise_add(h["a"], h["b"]),
        lambda d: d["a"] | d["b"],
    ),
    "ewise_mult": (
        lambda be, h: be.ewise_mult(h["a"], h["mask"]),
        lambda d: d["a"] & d["mask"],
    ),
    "kron": (
        lambda be, h: be.kron(h["ka"], h["kb"]),
        lambda d: np.kron(d["ka"], d["kb"]),
    ),
    "kron_accumulate": (
        lambda be, h: be.kron_accumulate(h["ka"], h["kb"], h["kacc"]),
        lambda d: np.kron(d["ka"], d["kb"]) | d["kacc"],
    ),
    "transpose": (
        lambda be, h: be.transpose(h["a"]),
        lambda d: d["a"].T,
    ),
    "extract_submatrix": (
        lambda be, h: be.extract_submatrix(h["a"], 10, 20, 50, 60),
        lambda d: d["a"][10:60, 20:80],
    ),
    "reduce_to_column": (
        lambda be, h: be.reduce_to_column(h["a"]),
        lambda d: d["a"].any(axis=1)[:, None],
    ),
}


def _op_record(backend: str, op: str):
    """Run one op on ``backend``; return its ``(name, grid, block)`` per
    launch and arena alloc bytes in order, after checking the result
    against the op's dense NumPy reference."""
    be = get_backend(backend)
    dense = _op_operands()
    handles = {k: be.matrix_from_dense(v) for k, v in dense.items()}
    sizes = []
    alloc = be.device.arena.alloc

    def recording_alloc(shape, dtype):
        buf = alloc(shape, dtype)
        sizes.append(buf.nbytes)
        return buf

    be.device.arena.alloc = recording_alloc
    before = be.stream.launch_count
    run, reference = PIN_OPS[op]
    out = run(be, handles)
    records = list(be.stream.launches)[before:]
    want = reference(dense).astype(bool)
    rows, cols = be.matrix_to_coo(out)
    got = np.zeros(out.shape, dtype=bool)
    got[rows, cols] = True
    assert out.shape == want.shape and out.nnz == int(want.sum())
    assert np.array_equal(got, want)
    return (
        [(r.kernel_name, r.config.grid, r.config.block) for r in records],
        sizes,
    )


#: Recorded before the backends shared one key-space core (cubool,
#: clbool) and before the generic backend gathered its values through
#: the boolean index plans (generic, generic64); the launch plans and
#: arena charges must not move.  The ``mxm_mask_accumulate`` and
#: ``kron_accumulate`` rows are the fused tails: the mask and the
#: accumulator enter the product's one emission, so there is no product
#: matrix, no host mask pass and no ``ewise_add`` launch or output.
OP_PINS = {
    ("cubool", "mxm"): (
        [
            ("spgemm_hash_shared_b32", 10, 32),
            ("spgemm_hash_shared_b64", 15, 64),
            ("spgemm_hash_shared_b128", 22, 128),
            ("spgemm_hash_shared_b256", 40, 256),
            ("spgemm_hash_shared_b512", 2, 512),
        ],
        [364, 21148],
    ),
    ("cubool", "mxm_mask_accumulate"): (
        [
            ("spgemm_hash_shared_b32", 10, 32),
            ("spgemm_hash_shared_b64", 15, 64),
            ("spgemm_hash_shared_b128", 22, 128),
            ("spgemm_hash_shared_b256", 40, 256),
            ("spgemm_hash_shared_b512", 2, 512),
        ],
        [364, 17352],
    ),
    ("cubool", "ewise_add"): (
        [
            ("merge_path_count", 10, 256),
            ("merge_path_merge", 10, 256),
        ],
        [364, 9704],
    ),
    ("cubool", "ewise_mult"): (
        [
            ("merge_path_intersect", 7, 256),
        ],
        [364, 1600],
    ),
    ("cubool", "kron"): (
        [
            ("kron_index_arithmetic", 1, 256),
        ],
        [484, 640],
    ),
    ("cubool", "kron_accumulate"): (
        [
            ("kron_index_arithmetic", 1, 256),
        ],
        [484, 2976],
    ),
    ("cubool", "transpose"): (
        [
            ("transpose_scatter", 9, 256),
        ],
        [364, 8232],
    ),
    ("cubool", "extract_submatrix"): (
        [
            ("submatrix_filter", 4, 256),
        ],
        [204, 2380],
    ),
    ("cubool", "reduce_to_column"): (
        [
            ("reduce_row_nonempty", 1, 256),
        ],
        [364, 356],
    ),
    ("clbool", "mxm"): (
        [
            ("esc_bucket_b_rows", 2, 256),
            ("esc_expand", 9, 256),
            ("esc_radix_sort", 44, 256),
            ("esc_compact", 44, 256),
        ],
        [364, 44048, 44048, 21148, 21148],
    ),
    ("clbool", "mxm_mask_accumulate"): (
        [
            ("esc_bucket_b_rows", 2, 256),
            ("esc_expand", 9, 256),
            ("esc_radix_sort", 44, 256),
            ("esc_compact", 44, 256),
        ],
        [364, 44048, 44048, 17352, 17352],
    ),
    ("clbool", "ewise_add"): (
        [
            ("merge_path_one_pass", 10, 256),
            ("merge_compact", 10, 256),
        ],
        [10136, 10136, 9704, 9704],
    ),
    ("clbool", "ewise_mult"): (
        [
            ("merge_path_intersect", 7, 256),
        ],
        [6448, 6448, 1600, 1600],
    ),
    ("clbool", "kron"): (
        [
            ("kron_index_arithmetic", 1, 256),
        ],
        [52, 44, 640, 640],
    ),
    ("clbool", "kron_accumulate"): (
        [
            ("kron_index_arithmetic", 1, 256),
        ],
        [52, 44, 2976, 2976],
    ),
    ("clbool", "transpose"): (
        [
            ("transpose_sort", 9, 256),
        ],
        [8232, 8232],
    ),
    ("clbool", "extract_submatrix"): (
        [
            ("submatrix_filter", 9, 256),
        ],
        [2380, 2380],
    ),
    ("clbool", "reduce_to_column"): (
        [
            ("reduce_unique_rows", 9, 256),
        ],
        [356, 356],
    ),
    ("generic", "mxm"): (
        [
            ("generic_expand_multiply", 9, 256),
            ("generic_sort_reduce", 44, 256),
        ],
        [44048, 44048, 44048, 364, 21148, 21148],
    ),
    ("generic", "mxm_mask_accumulate"): (
        [
            ("generic_expand_multiply", 9, 256),
            ("generic_sort_reduce", 44, 256),
            ("generic_merge_accumulate_into", 17, 256),
        ],
        [44048, 44048, 44048, 364, 17352, 17352],
    ),
    ("generic", "ewise_add"): (
        [
            ("generic_merge_add", 10, 256),
        ],
        [364, 9704, 9704],
    ),
    ("generic", "ewise_mult"): (
        [
            ("generic_intersect_multiply", 7, 256),
        ],
        [364, 1600, 1600],
    ),
    ("generic", "kron"): (
        [
            ("generic_kron", 1, 256),
        ],
        [484, 640, 640],
    ),
    ("generic", "kron_accumulate"): (
        [
            ("generic_kron", 1, 256),
            ("generic_merge_accumulate_into", 3, 256),
        ],
        [484, 2976, 2976],
    ),
    ("generic", "transpose"): (
        [
            ("generic_transpose", 9, 256),
        ],
        [364, 8232, 8232],
    ),
    ("generic", "extract_submatrix"): (
        [
            ("generic_submatrix", 9, 256),
        ],
        [204, 2380, 2380],
    ),
    ("generic", "reduce_to_column"): (
        [
            ("generic_reduce_sum", 1, 256),
        ],
        [364, 356, 356],
    ),
    ("generic64", "mxm"): (
        [
            ("generic_expand_multiply", 9, 256),
            ("generic_sort_reduce", 44, 256),
        ],
        [44048, 44048, 88096, 364, 21148, 42296],
    ),
    ("generic64", "mxm_mask_accumulate"): (
        [
            ("generic_expand_multiply", 9, 256),
            ("generic_sort_reduce", 44, 256),
            ("generic_merge_accumulate_into", 17, 256),
        ],
        [44048, 44048, 88096, 364, 17352, 34704],
    ),
    ("generic64", "ewise_add"): (
        [
            ("generic_merge_add", 10, 256),
        ],
        [364, 9704, 19408],
    ),
    ("generic64", "ewise_mult"): (
        [
            ("generic_intersect_multiply", 7, 256),
        ],
        [364, 1600, 3200],
    ),
    ("generic64", "kron"): (
        [
            ("generic_kron", 1, 256),
        ],
        [484, 640, 1280],
    ),
    ("generic64", "kron_accumulate"): (
        [
            ("generic_kron", 1, 256),
            ("generic_merge_accumulate_into", 3, 256),
        ],
        [484, 2976, 5952],
    ),
    ("generic64", "transpose"): (
        [
            ("generic_transpose", 9, 256),
        ],
        [364, 8232, 16464],
    ),
    ("generic64", "extract_submatrix"): (
        [
            ("generic_submatrix", 9, 256),
        ],
        [204, 2380, 4760],
    ),
    ("generic64", "reduce_to_column"): (
        [
            ("generic_reduce_sum", 1, 256),
        ],
        [364, 356, 712],
    ),
}


@pytest.mark.parametrize("backend, op", sorted(OP_PINS))
def test_op_launches_and_allocs_pinned(backend, op):
    """Per op, the launch plan ``(name, grid, block)`` and the arena
    alloc bytes in order, on both accounted boolean backends and both
    generic value backends."""
    launches, alloc_sizes = OP_PINS[backend, op]
    assert _op_record(backend, op) == (launches, alloc_sizes)


class TestUpperBound:
    def test_formula(self):
        a = BoolCsr.from_coo([0, 0, 1], [0, 1, 1], (2, 2))
        b = BoolCsr.from_coo([0, 0, 1], [0, 1, 0], (2, 2))
        ub = spgemm_upper_bound(a.rowptr, a.cols, b.rowptr)
        # row 0 of A hits B-rows 0 (len 2) and 1 (len 1) -> 3; row 1 -> 1
        assert ub.tolist() == [3, 1]

    def test_empty_rows(self):
        a = BoolCsr.empty((3, 3))
        b = BoolCsr.identity(3)
        ub = spgemm_upper_bound(a.rowptr, a.cols, b.rowptr)
        assert ub.tolist() == [0, 0, 0]


def _diff_upper_bound(a_rowptr, a_cols, b_rowptr):
    """The upper bound read off B's whole row-length array."""
    per_entry = np.diff(b_rowptr.astype(np.int64))[a_cols.astype(np.int64)]
    return np.array(
        [per_entry[lo:hi].sum() for lo, hi in zip(a_rowptr[:-1], a_rowptr[1:])],
        dtype=np.int64,
    )


@pytest.mark.parametrize(
    "a_rows, a_density", [(0, 0.0), (7, 0.0), (3, 0.05), (40, 0.2), (40, 0.7)]
)
def test_upper_bound_matches_row_length_diff(a_rows, a_density):
    """Gathered at A's columns (fewer A entries than B rows) or read off
    B's row lengths, the upper bound equals the segmented sum over
    ``np.diff`` of B's whole row pointer, also where B ends in empty
    rows."""
    rng = np.random.default_rng(a_rows + int(100 * a_density))
    b = rng.random((30, 25)) < 0.3
    b[22:] = False  # empty trailing rows
    sa = BoolCsr.from_dense(rng.random((a_rows, 30)) < a_density)
    sb = BoolCsr.from_dense(b)
    ub = spgemm_upper_bound(sa.rowptr, sa.cols, sb.rowptr)
    assert ub.dtype == np.int64
    assert ub.tolist() == _diff_upper_bound(sa.rowptr, sa.cols, sb.rowptr).tolist()
    lengths = expansion_lengths(sa.cols, sb.rowptr)
    assert lengths.dtype == sb.rowptr.dtype
    assert lengths.tolist() == np.diff(sb.rowptr.astype(np.int64))[sa.cols].tolist()


def _per_bin_mask_reference(
    device, stream, a_shape, a_rowptr, a_cols, b_shape, b_rowptr, b_cols,
    *, bin_bounds=DEFAULT_BIN_BOUNDS, use_binning=True,
):
    """The dispatcher before the one-pass binning: one boolean mask per
    bin and one ``_run_bin`` call per bin, empty bins included."""
    ub = _diff_upper_bound(a_rowptr, a_cols, b_rowptr)
    shared_slots = (
        device.limits.shared_mem_per_block // 4
    ) * device.limits.multiprocessor_count
    chunk_keys = []

    def _run_bin(rows_bin, bound, shared):
        if rows_bin.size == 0:
            return
        ts = spgemm_hash._next_pow2((2 if not shared else 4) * max(1, bound))
        if shared:
            chunk_rows = max(64, shared_slots // ts)
            table_buf = None
        else:
            chunk_rows = max(1, min(rows_bin.size, (1 << 24) // ts))
            table_buf = device.arena.alloc((min(chunk_rows, rows_bin.size), ts), np.uint32)
        block = device.limits.clamp_block(min(bound if bound else 32, 1024))
        for lo in range(0, rows_bin.size, chunk_rows):
            rows_chunk = rows_bin[lo : lo + chunk_rows]

            def _kernel(config, rows_chunk=rows_chunk):
                return spgemm_hash._process_chunk(
                    rows_chunk, a_rowptr, a_cols, b_rowptr, b_cols
                )

            _kernel.__name__ = f"spgemm_hash_{'shared' if shared else 'global'}_b{bound or 'max'}"
            chunk_keys.append(stream.launch(_kernel, grid_1d(rows_chunk.size * block, block)))
        if table_buf is not None:
            table_buf.free()

    nonzero_rows = np.nonzero(ub > 0)[0]
    nz_ub = ub[nonzero_rows]
    prev = 0
    for bound in bin_bounds if use_binning else ():
        _run_bin(nonzero_rows[(nz_ub > prev) & (nz_ub <= bound)], bound, shared=True)
        prev = bound
    big = nonzero_rows[nz_ub > prev]
    if big.size:
        _run_bin(big, int(ub[big].max()), shared=False)
    keys = np.concatenate(chunk_keys) if chunk_keys else np.empty(0, np.uint64)
    keys.sort(kind="stable")
    buffers = emit_csr(device.arena, int(a_shape[0]), *coo_from_keys(keys))
    return buffers[0].data, buffers[1].data, buffers


def _operands_with_upper_bound(ub, seed):
    """CSR operands ``A · B`` whose product upper bound is exactly ``ub``.

    Row ``i`` of A holds one entry, on a B row of ``ub[i]`` random
    columns; a zero is an empty A row or, for every other one, an entry
    on an empty B row.  B's rows are the distinct lengths, shuffled."""
    rng = np.random.default_rng(seed)
    ub = np.asarray(ub, dtype=np.int64)
    lengths = rng.permutation(np.unique(np.concatenate([ub, [0]])))
    n = max(1, int(lengths.max()))
    b_cols = [np.sort(rng.choice(n, int(length), replace=False)) for length in lengths]
    b_rowptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.uint32)
    which = {int(length): j for j, length in enumerate(lengths)}
    has = (ub > 0) | (np.arange(ub.size) % 2 == 1)
    a_cols = np.array([which[int(v)] for v in ub[has]], dtype=np.uint32)
    a_rowptr = np.concatenate([[0], np.cumsum(has)]).astype(np.uint32)
    return (
        (ub.size, lengths.size), a_rowptr, a_cols,
        (lengths.size, n), b_rowptr, np.concatenate(b_cols).astype(np.uint32),
    )


def _dispatch_record(spgemm, operands, **kwargs):
    """``(name, grid, block, rows)`` per launch, arena alloc bytes in
    order and the ``(rowptr, cols)`` output of one SpGEMM call."""
    be = CuBoolBackend()
    sizes, chunks = [], []
    alloc = be.device.arena.alloc

    def recording_alloc(shape, dtype):
        buf = alloc(shape, dtype)
        sizes.append(buf.nbytes)
        return buf

    def recording_chunk(rows_chunk, *args):
        chunks.append(rows_chunk.tolist())
        return process_chunk(rows_chunk, *args)

    be.device.arena.alloc = recording_alloc
    process_chunk = spgemm_hash._process_chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spgemm_hash, "_process_chunk", recording_chunk)
        rowptr, cols, buffers = spgemm(be.device, be.stream, *operands, **kwargs)
    out = (rowptr.tolist(), cols.tolist())
    for buf in buffers:
        buf.free()
    be.device.arena.check_balanced()
    launches = [
        (r.kernel_name, r.config.grid, r.config.block, rows)
        for r, rows in zip(be.stream.launches, chunks, strict=True)
    ]
    return launches, sizes, out


def _ub_cases():
    """Named ``ub`` generators over a bin configuration's bounds."""
    def on_bounds(rng, bounds):
        edges = [v for b in bounds for v in (b - 1, b, b + 1)] + [0, 1]
        return rng.choice(np.array(edges), 150)

    return {
        "on_bounds": on_bounds,
        "all_zero": lambda rng, bounds: np.zeros(60, np.int64),
        "only_global": lambda rng, bounds: rng.integers(8193, 9000, 7),
        "one_bin": lambda rng, bounds: rng.integers(33, 65, 120),
        "mixed": lambda rng, bounds: np.where(
            rng.random(200) < 0.05, rng.integers(8193, 8400, 200), rng.integers(0, 300, 200)
        ),
    }


@pytest.mark.parametrize("case", sorted(_ub_cases()))
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"use_binning": False}, {"bin_bounds": (4, 8)}, {"bin_bounds": (128, 8192)}],
    ids=["default", "no_binning", "bounds_4_8", "bounds_128_8192"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_one_pass_binning_matches_per_bin_masks(case, kwargs, seed):
    """Same launches (name, grid, block and the rows of each chunk, in
    order), same arena allocs in order and the same output as the
    per-bin-mask dispatcher, over random ``ub``."""
    rng = np.random.default_rng(seed)
    ub = _ub_cases()[case](rng, kwargs.get("bin_bounds", DEFAULT_BIN_BOUNDS))
    operands = _operands_with_upper_bound(ub, seed)
    assert spgemm_upper_bound(operands[1], operands[2], operands[4]).tolist() == list(ub)
    got = _dispatch_record(spgemm_boolean_csr, operands, **kwargs)
    want = _dispatch_record(_per_bin_mask_reference, operands, **kwargs)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]


def test_one_pass_binning_on_an_empty_a():
    """No rows, no entries: nothing launches and the output is empty."""
    operands = _operands_with_upper_bound(np.zeros(0, np.int64), 3)
    launches, sizes, (rowptr, cols) = _dispatch_record(spgemm_boolean_csr, operands)
    assert launches == [] and rowptr == [0] and cols == []
    assert _dispatch_record(_per_bin_mask_reference, operands)[1] == sizes


class TestBinning:
    def test_custom_bounds_still_correct(self, rng):
        be = CuBoolBackend(bin_bounds=(4, 16))
        a = random_dense(rng, (30, 30), 0.3)
        h = be.matrix_from_dense(a)
        out = be.mxm(h, h)
        rows, cols = be.matrix_to_coo(out)
        dense = np.zeros((30, 30), bool)
        dense[rows, cols] = True
        assert np.array_equal(dense, bool_mxm(a, a))

    def test_no_binning_still_correct(self, rng):
        be = CuBoolBackend(use_binning=False)
        a = random_dense(rng, (25, 25), 0.3)
        h = be.matrix_from_dense(a)
        out = be.mxm(h, h)
        rows, cols = be.matrix_to_coo(out)
        dense = np.zeros((25, 25), bool)
        dense[rows, cols] = True
        assert np.array_equal(dense, bool_mxm(a, a))

    def test_global_bin_hit(self, rng):
        """A row exceeding the last bound must route to the global bin
        and allocate its tables in device memory."""
        be = CuBoolBackend(bin_bounds=(4, 8))
        # One dense row -> ub = 20*20 = 400 > 8.
        a = np.zeros((20, 20), dtype=bool)
        a[0, :] = True
        b = np.ones((20, 20), dtype=bool)
        ha, hb = be.matrix_from_dense(a), be.matrix_from_dense(b)
        allocs_before = be.device.arena.stats().alloc_count
        out = be.mxm(ha, hb)
        allocs_after = be.device.arena.stats().alloc_count
        # at least: global tables + rowptr + cols
        assert allocs_after - allocs_before >= 3
        assert out.nnz == 20

    def test_default_bounds_are_powers_of_two(self):
        for b in DEFAULT_BIN_BOUNDS:
            assert b & (b - 1) == 0

    def test_launch_names_report_bins(self, rng):
        be = CuBoolBackend(bin_bounds=(32,))
        a = random_dense(rng, (10, 10), 0.4)
        h = be.matrix_from_dense(a)
        be.mxm(h, h)
        names = {rec.kernel_name for rec in be.stream.launches}
        assert any("spgemm_hash_shared_b32" in n for n in names)


class TestMemoryAccounting:
    def test_storage_accounted(self):
        be = CuBoolBackend()
        before = be.device.arena.live_bytes
        m = be.matrix_from_coo([0, 1, 2], [1, 2, 0], (100, 100))
        assert be.device.arena.live_bytes > before
        m.free()
        assert be.device.arena.live_bytes == before

    def test_ops_release_scratch(self, rng):
        be = CuBoolBackend()
        a = be.matrix_from_dense(random_dense(rng, (40, 40), 0.2))
        live_with_a = be.device.arena.live_bytes
        out = be.mxm(a, a)
        out2 = be.ewise_add(a, out)
        out.free()
        out2.free()
        assert be.device.arena.live_bytes == live_with_a

    def test_context_finalize_releases_all(self, rng):
        ctx = repro.Context(backend="cubool")
        dev = ctx.device
        for _ in range(5):
            ctx.matrix_random((50, 50), 0.1, seed=1)
        ctx.finalize()
        assert dev.arena.live_bytes == 0

    def test_memory_model_vs_arena(self):
        """Arena accounting must cover at least the storage-model bytes."""
        be = CuBoolBackend()
        m = be.matrix_from_coo(
            np.arange(500) % 100, np.arange(500) % 97, (100, 100)
        )
        assert be.device.arena.live_bytes >= m.memory_bytes()
        m.free()


class TestHandleLifecycle:
    def test_use_after_free(self):
        be = CuBoolBackend()
        m = be.matrix_from_coo([0], [0], (2, 2))
        m.free()
        from repro.errors import InvalidStateError

        with pytest.raises(InvalidStateError):
            _ = m.nnz

    def test_double_free_is_noop(self):
        be = CuBoolBackend()
        m = be.matrix_from_coo([0], [0], (2, 2))
        m.free()
        m.free()  # idempotent
