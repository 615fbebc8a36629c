"""Transitive closure over the boolean semiring.

:func:`transitive_closure` iterates ``C ← C ∨ C·C``: path lengths
double each round, O(log diameter) products at the cost of denser
intermediates.  :func:`seminaive` is the one masked frontier loop over
device matrices (the GraphBLAS complement-mask pattern): small-product
RPQ reachability — single, batched and warm — and the incremental
closure below run on it.  (A large-product reach masks its frontier on
the host, where its automaton step already needs it; see
:func:`repro.rpq.engine._frontier_walk`.)

The paper identifies *incremental* transitive closure as the bottleneck
for subcubic CFPQ: the tensor algorithm repeatedly adds edge batches to
an already-closed matrix and needs the closure maintained.
:func:`incremental_transitive_closure` implements the warm-start scheme
the CFPQ engine uses: new paths must cross at least one new edge, so the
update multiplies with the (small) delta instead of re-closing from
scratch.

:func:`kron_sum` builds the product graph ``Σ R ⊗ G`` whose closure the
RPQ and tensor CFPQ engines take.
"""

from __future__ import annotations

from repro.core.matrix import Matrix
from repro.errors import InvalidArgumentError


def _check_square(m: Matrix, op: str) -> None:
    if m.nrows != m.ncols:
        raise InvalidArgumentError(f"{op} requires a square matrix, got {m.shape}")


def transitive_closure(
    adjacency: Matrix,
    *,
    reflexive: bool = False,
) -> Matrix:
    """Closure of a boolean adjacency matrix.

    Returns a new matrix ``C`` with ``C[u, v] = 1`` iff there is a path
    from ``u`` to ``v`` of length ≥ 1 (or ≥ 0 with ``reflexive=True``).
    """
    _check_square(adjacency, "transitive_closure")
    ctx = adjacency.context
    if reflexive:
        eye = ctx.identity(adjacency.nrows)
        current = adjacency.ewise_add(eye)
        eye.free()
    else:
        current = adjacency.dup()

    # The fixpoint hint lets the hybrid backend keep densifying
    # intermediates resident in bit-packed form across iterations.
    with ctx.backend.fixpoint():
        while True:
            step = current.mxm(current, accumulate=current)
            if step.nnz == current.nnz:
                step.free()
                return current
            current.free()
            current = step


def seminaive(total: Matrix, step, *, frontier: Matrix | None = None, cancel=None):
    """Run the masked semi-naive loop to its fixed point.

    Each round computes ``new = step(total, frontier)``, which must
    return only facts outside ``total`` (a product under the ``¬total``
    mask; ``frontier`` is None in a first round that expands all of
    ``total``), and stops when ``new.nnz == 0`` — the size of the
    *change*, never a full-matrix comparison.  Otherwise ``total ←
    total ∨ new`` and ``new`` is the next frontier.  Takes ownership of
    ``total`` and ``frontier``; ``cancel`` is called before every round
    and may raise to abort.  Whatever raises — ``cancel``, ``step`` or
    the merge — every matrix the loop owns is freed before the exception
    leaves, so a held traceback keeps no device memory charged.
    Returns ``(total, rounds)``.
    """
    rounds, new = 0, None
    try:
        with total.context.backend.fixpoint():
            while True:
                if cancel is not None:
                    cancel()
                rounds += 1
                new = step(total, frontier)
                if frontier is not None:
                    frontier.free()
                if new.nnz == 0:
                    new.free()
                    return total, rounds
                grown = total.ewise_add(new)
                total.free()
                total, frontier, new = grown, new, None
    except BaseException:
        for owned in (total, frontier, new):
            if owned is not None:
                owned.free()
        raise


def incremental_transitive_closure(closure: Matrix, delta: Matrix) -> Matrix:
    """Update a closed matrix with a batch of new edges.

    Given ``closure`` already transitively closed and ``delta`` a batch
    of new edges, returns the closure of their union.  Every genuinely
    new path crosses at least one new edge, so the :func:`seminaive`
    frontier (initially the delta itself) is multiplied against the
    bulk state from both sides under the structural complement mask

        ``new ← (total·frontier ∨ frontier·total) ∧ ¬total``

    so each round's products return only genuinely new pairs, and each
    round's work scales with the shrinking frontier rather than the
    whole closure (the property the tensor CFPQ algorithm and
    :mod:`repro.incr` exploit).
    """
    _check_square(closure, "incremental_transitive_closure")
    if closure.shape != delta.shape:
        raise InvalidArgumentError(
            f"closure {closure.shape} and delta {delta.shape} differ in shape"
        )
    total = closure.ewise_add(delta)
    if delta.nnz == 0:
        return total

    def both_sides(total, frontier):
        # Paths gaining one frontier pair, minus everything known:
        left = total.mxm(frontier, mask=total)
        try:
            return frontier.mxm(total, accumulate=left, mask=total)
        finally:
            left.free()

    try:
        frontier = delta.dup()
    except BaseException:
        total.free()
        raise
    return seminaive(total, both_sides, frontier=frontier)[0]


def kron_sum(ctx, shape, r_mats: dict, operands):
    """``Σ R_sym ⊗ G_sym`` over ``(sym, G_sym)`` pairs.

    Each step is the fused ``product <- product ∨ (R ⊗ G)`` — on the
    bit path the Kronecker blocks OR-scatter straight into the new
    sum's words, with no per-symbol product temporary.  Symbols on no
    automaton edge, and empty or missing operands, contribute nothing.
    A failing step frees the partial sum before the exception leaves.
    """
    product = ctx.matrix_empty(shape)
    try:
        for sym, g in operands:
            r = r_mats.get(sym)
            if r is None or r.nnz == 0 or g is None or g.nnz == 0:
                continue
            merged = r.kron(g, accumulate=product)
            product.free()
            product = merged
    except BaseException:
        product.free()
        raise
    return product
