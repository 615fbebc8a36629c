"""Property-based tests: container round-trips and WAL recovery."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import BitMatrix, BoolCoo, BoolCsr, ValCsr
from repro.store import WriteAheadLog, dump_matrix, load_matrix

BUILDERS = {
    "csr": BoolCsr.from_coo,
    "coo": BoolCoo.from_coo,
    "bit": BitMatrix.from_coo,
    "valcsr": ValCsr.from_coo,
}


@st.composite
def coo_data(draw, max_dim=70):
    """Random coordinates, duplicates allowed, degenerate shapes included."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    count = draw(st.integers(0, 80))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=count, max_size=count)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=count, max_size=count)
    )
    return rows, cols, (nrows, ncols)


@settings(max_examples=40, deadline=None)
@given(coo_data(), st.sampled_from(sorted(BUILDERS)))
def test_dump_load_is_element_identical(data, kind):
    """``load(dump(m))`` reproduces the exact element set, every format."""
    rows, cols, shape = data
    m = BUILDERS[kind](rows, cols, shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.rpc"
        dump_matrix(m, path)
        back = load_matrix(path, mmap=False)
        back.validate()
        assert type(back) is type(m)
        assert back.shape == m.shape
        assert back.nnz == m.nnz
        assert np.array_equal(back.to_dense(), m.to_dense())


@settings(max_examples=40, deadline=None)
@given(coo_data())
def test_bit_round_trip_is_byte_identical(data):
    """BitMatrix payloads survive verbatim — padding words included —
    so the mmap view is bit-for-bit the array that was dumped."""
    rows, cols, shape = data
    m = BitMatrix.from_coo(rows, cols, shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bit.rpc"
        dump_matrix(m, path)
        heap = load_matrix(path, mmap=False)
        assert heap.words.tobytes() == m.words.tobytes()
        mapped = load_matrix(path, mmap=True)
        assert not mapped.words.flags["WRITEABLE"]
        assert mapped.words.tobytes() == m.words.tobytes()
        mapped.validate()


@st.composite
def wal_transactions(draw):
    count = draw(st.integers(1, 6))
    txns = []
    for version in range(1, count + 1):
        op = draw(st.sampled_from(["add", "remove"]))
        label = draw(st.sampled_from(["a", "b", "знач"]))
        edges = draw(
            st.lists(
                st.tuples(st.integers(0, 500), st.integers(0, 500)),
                min_size=0,
                max_size=8,
            )
        )
        txns.append((op, label, edges, version))
    return txns


@settings(max_examples=30, deadline=None)
@given(wal_transactions())
def test_wal_replay_round_trip(txns):
    with tempfile.TemporaryDirectory() as tmp:
        log = WriteAheadLog(Path(tmp) / "wal.log")
        for op, label, edges, version in txns:
            log.append(
                op, label, np.asarray(edges, dtype=np.uint32).reshape(-1, 2),
                version=version,
            )
        log.close()
        deltas, version = WriteAheadLog(log.path).replay()
        assert version == txns[-1][3]
        assert len(deltas) == len(txns)
        for delta, (op, label, edges, ver) in zip(deltas, txns):
            assert (delta.op, delta.label, delta.version) == (op, label, ver)
            assert [tuple(e) for e in delta.edges.tolist()] == edges


@settings(max_examples=30, deadline=None)
@given(wal_transactions(), st.data())
def test_wal_torn_tail_recovers_last_commit(txns, data):
    """Truncating at any byte inside the final transaction recovers
    exactly the preceding commits — never fewer, never a partial one."""
    with tempfile.TemporaryDirectory() as tmp:
        log = WriteAheadLog(Path(tmp) / "wal.log")
        sizes = []
        for op, label, edges, version in txns:
            log.append(
                op, label, np.asarray(edges, dtype=np.uint32).reshape(-1, 2),
                version=version,
            )
            sizes.append(log.size())
        log.close()
        full = log.path.read_bytes()
        prev_end = sizes[-2] if len(sizes) > 1 else 0
        cut = data.draw(st.integers(prev_end, sizes[-1] - 1), label="cut")
        log.path.write_bytes(full[:cut])
        deltas, version = WriteAheadLog(log.path).replay()
        assert version == (txns[-2][3] if len(txns) > 1 else 0)
        assert len(deltas) == len(txns) - 1
        assert log.path.stat().st_size == prev_end
