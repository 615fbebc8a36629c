"""Property tests for the DCSR extension format."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import BoolCoo, BoolCsr, BoolDcsr


@st.composite
def coo_data(draw, max_dim=30):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    count = draw(st.integers(0, 50))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=count, max_size=count))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=count, max_size=count))
    return rows, cols, (nrows, ncols)


@settings(max_examples=50, deadline=None)
@given(coo_data())
def test_dcsr_equals_csr_semantics(data):
    rows, cols, shape = data
    dcsr = BoolDcsr.from_coo(rows, cols, shape)
    csr = BoolCsr.from_coo(rows, cols, shape)
    dcsr.validate()
    assert dcsr.pattern_equal(csr)
    assert dcsr.nnz == csr.nnz
    # Row access agrees everywhere, including inactive rows.
    for i in range(shape[0]):
        assert dcsr.row(i).tolist() == csr.row(i).tolist()


@settings(max_examples=50, deadline=None)
@given(coo_data())
def test_dcsr_memory_ordering(data):
    """DCSR ≤ CSR always (active ≤ m); DCSR vs COO flips with avg row fill."""
    rows, cols, shape = data
    dcsr = BoolDcsr.from_coo(rows, cols, shape)
    csr = BoolCsr.from_coo(rows, cols, shape)
    coo = BoolCoo.from_coo(rows, cols, shape)
    # 2*active + 1 + nnz  <=  m + 1 + nnz  iff  active <= m/2; in general
    # DCSR <= CSR + active (it never loses by more than the active list).
    assert dcsr.memory_bytes() <= csr.memory_bytes() + dcsr.nrows_nonempty * 4
    # Exact crossover vs COO: DCSR wins iff 2*active + 1 < nnz.
    if 2 * dcsr.nrows_nonempty + 1 < dcsr.nnz:
        assert dcsr.memory_bytes() < coo.memory_bytes()
    elif 2 * dcsr.nrows_nonempty + 1 > dcsr.nnz:
        assert dcsr.memory_bytes() > coo.memory_bytes()
