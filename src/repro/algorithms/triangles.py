"""Triangle counting.

Boolean products give path *existence*, not path *counts*, so triangle
counting is the canonical workload where a value-carrying semiring is
actually required — the same contrast the boolean-vs-generic benchmark
measures from the other side.  The implementation mirrors the classic
GraphBLAS formulation ``trace(L·L ∘ L)`` on the backend semiring
contract: wedges are counted with one ``mxm`` under the plus-pair
semiring (⊕ sums, ⊗ tests presence — insensitive to stored edge
multiplicities), the counts are gathered at actual edges with
``ewise_mult``, and the total comes off a plus ``reduce_to_column``.
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_PAIR
from repro.errors import InvalidArgumentError
from repro.utils.arrays import coo_from_keys, keys_from_coo, sort_unique_keys


def triangle_count(adjacency: Matrix, *, directed: bool = False) -> int:
    """Count triangles in the graph of ``adjacency``.

    With ``directed=False`` (default) the pattern is treated as an
    undirected graph: it is symmetrized first and each triangle is
    counted once.  With ``directed=True`` counts directed 3-cycles
    ``u→v→w→u`` once per cycle.
    """
    if adjacency.nrows != adjacency.ncols:
        raise InvalidArgumentError("triangle_count requires a square matrix")
    rows, cols = adjacency.to_arrays()
    n = adjacency.nrows
    if rows.size == 0:
        return 0

    be = get_backend("generic")
    if not directed:
        # Symmetrize and drop self-loops; dedupe so every edge weighs 1.
        keep = rows != cols
        r = np.concatenate([rows[keep], cols[keep]]).astype(np.int64)
        c = np.concatenate([cols[keep], rows[keep]]).astype(np.int64)
        r, c = _dedupe(r, c)
        a = be.matrix_from_coo(r, c, (n, n))
        sq = be.mxm(a, a, semiring=PLUS_PAIR)  # wedge counts
        hits = be.ewise_mult(sq, a)            # ... at actual edges
        total = _sum_entries(be, hits)
        for h in (a, sq, hits):
            h.free()
        # Each triangle contributes 2 wedges per edge (both orientations)
        # over 3 edges -> divide by 6.
        return int(total // 6)
    else:
        r, c = _dedupe(rows, cols)
        a = be.matrix_from_coo(r, c, (n, n))
        sq = be.mxm(a, a, semiring=PLUS_PAIR)  # sq[u, w] = # of u→v→w
        at = be.transpose(a)                   # closing edges w→u, probed at (u, w)
        hits = be.ewise_mult(sq, at)
        total = _sum_entries(be, hits)
        for h in (a, sq, at, hits):
            h.free()
        # A directed 3-cycle u→v→w→u is found once per starting edge -> /3.
        return int(total // 3)


def _dedupe(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate coordinates (multi-edges count once)."""
    return coo_from_keys(sort_unique_keys(keys_from_coo(rows, cols)))


def _sum_entries(be, m) -> int:
    """Σ of a value matrix's entries via a plus row-reduce."""
    col = be.reduce_to_column(m)
    _, _, sums = be.matrix_to_coo_values(col)
    col.free()
    return int(round(float(sums.sum())))
