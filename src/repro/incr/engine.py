"""Delta-driven fixpoint restarts for the closure/RPQ/CFPQ engines.

Every function here answers the same question: given the *previous*
fixed point (a :class:`~repro.incr.state.FixpointState` snapshot) and
an adds-only edge delta, produce the new answer without re-running the
fixpoint from scratch.  Three ingredients:

* **Kleene warm-starting** — the engines iterate monotone operators, so
  restarting from the old least fixed point (⊆ the new one) converges
  to the new least fixed point.  Adds-only is the precondition;
  removals invalidate monotonicity and the caller must recompute.
* **masked products** — ``mxm(..., mask=known)`` returns
  ``(A·B) ∧ ¬known``: only *new* facts.  Fixpoint detection becomes
  "the delta came back empty" (an ``nnz`` on a matrix the size of the
  change), replacing the full-matrix entry-count comparison.
* **frontier seeding** — the delta (new edges, or facts discovered last
  round) is the only thing multiplied against the bulk state, so each
  round's work is proportional to what changed.

Engines return ``(answer, new_state)`` so the service can republish
both; geometry-incompatible states make the entry point return None and
the scheduler falls back to the cold path.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.closure import incremental_transitive_closure
from repro.grammar.rsm import RSM
from repro.incr.state import FixpointState, matrix_coo

# Product builders and readouts are shared with the cold paths on
# purpose: warm and cold must disagree only in iteration count, never
# in algebra.
from repro.cfpq.tensor_algorithm import kron_sum, read_new_facts
from repro.rpq.engine import _product_matrix, closure_pairs
from repro.utils.arrays import coo_from_keys, keys_from_coo, sort_unique_keys

_EMPTY = (np.empty(0, np.int64), np.empty(0, np.int64))


# -- RPQ single-source reachability ----------------------------------------


def rpq_reach_incremental(
    nfa, n: int, source: int, ctx, adjacency: dict, state=None, cancel=None
):
    """Single-source RPQ via a masked frontier fixpoint.

    Cold (``state=None``): seed the frontier at the automaton's start
    states over ``source`` and expand — the same answer as
    :func:`~repro.rpq.engine.rpq_reach_batch` on a batch of one.

    Warm: seed from the previous *final* frontier instead.  The product
    matrix is rebuilt against the current (merged) adjacency, so the
    first masked product immediately reports only reachability the new
    edges enabled; an irrelevant delta converges in one iteration.

    Returns ``(targets, new_state, warm_used, iterations)``.
    """
    k = nfa.n
    shape = (1, k * n)
    shared = sorted(set(nfa.labels) & set(adjacency))
    g_mats = {label: adjacency[label] for label in shared}
    product = _product_matrix(nfa, g_mats, n, ctx, shared)

    warm = state is not None and state.compatible(
        "reach", shape, n=n, k=k, source=int(source)
    )
    if warm:
        total = state.matrix(ctx, "frontier")
    else:
        cols = [(s0 * n) + int(source) for s0 in nfa.starts]
        total = ctx.matrix_from_lists(shape, [0] * len(cols), cols)

    iterations = 0
    frontier = None
    try:
        with ctx.backend.fixpoint():
            while True:
                if cancel is not None:
                    cancel()
                iterations += 1
                # Round 1 expands the whole (old) frontier — anything
                # may have grown a new out-edge; later rounds expand
                # only last round's genuinely-new pairs.
                src = frontier if frontier is not None else total
                new = src.mxm(product, mask=total)
                if frontier is not None:
                    frontier.free()
                    frontier = None
                if new.nnz == 0:
                    new.free()
                    break
                grown = total.ewise_add(new)
                total.free()
                total, frontier = grown, new
    finally:
        product.free()

    _, cols = total.to_arrays()
    finals = nfa.finals
    targets = {c % n for c in cols.tolist() if c // n in finals}
    new_state = FixpointState(
        "reach",
        shape,
        {"frontier": matrix_coo(total)},
        {"n": n, "k": k, "source": int(source)},
    )
    total.free()
    return targets, new_state, warm, iterations


# -- RPQ all-pairs (product-closure index) ---------------------------------


def pairs_state_from_index(index) -> FixpointState:
    """Snapshot a cold :class:`~repro.rpq.engine.RpqIndex` for reuse."""
    return FixpointState(
        "closure",
        index.closure.shape,
        {"closure": matrix_coo(index.closure)},
        {"n": index.n, "k": index.k},
    )


def rpq_pairs_incremental(nfa, n: int, ctx, state: FixpointState, adds: dict):
    """All-pairs RPQ from a cached product closure plus new edges.

    ``adds`` maps label → host ``(rows, cols)`` of edges added since the
    state was captured.  New query matches must cross a new product edge
    ``Σ R_label ⊗ ΔG_label``, so the cached closure is updated with that
    (small) delta instead of re-closing the product graph.

    Returns ``(pairs, new_state)`` or None when the state's geometry
    does not match (recompute).
    """
    k = nfa.n
    shape = (k * n, k * n)
    if not state.compatible("closure", shape, n=n, k=k):
        return None
    shared = sorted(set(nfa.labels) & set(adds))
    delta_g = {
        label: ctx.matrix_from_lists((n, n), *adds[label]) for label in shared
    }
    try:
        if shared:
            delta = _product_matrix(nfa, delta_g, n, ctx, shared)
        else:
            delta = ctx.matrix_empty(shape)
    finally:
        for m in delta_g.values():
            m.free()
    prev = state.matrix(ctx, "closure")
    closure = incremental_transitive_closure(prev, delta)
    prev.free()
    delta.free()
    pairs = closure_pairs(nfa, n, closure)
    new_state = FixpointState(
        "closure", shape, {"closure": matrix_coo(closure)}, {"n": n, "k": k}
    )
    closure.free()
    return pairs, new_state


# -- tensor CFPQ -----------------------------------------------------------


def tensor_state_from_index(index) -> FixpointState:
    """Snapshot a cold :class:`~repro.cfpq.tensor_algorithm.TensorIndex`."""
    coo = {"closure": matrix_coo(index.closure)}
    for nt, (rows, cols) in index.fact_pairs.items():
        coo["fact:" + nt] = (
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
        )
    return FixpointState(
        "tensor",
        index.closure.shape,
        coo,
        {"n": index.n, "k": index.rsm.n_states},
    )


def tensor_cfpq_incremental(graph, query, ctx, state: FixpointState, adds: dict):
    """Tensor CFPQ restarted from a cached product closure + fact sets.

    The tensor algorithm is *already* delta-driven across its own
    iterations; this extends the same machinery across requests: the
    added terminal edges play the role of the first round's Δ-facts,
    the cached closure absorbs them via
    :func:`~repro.algorithms.closure.incremental_transitive_closure`,
    and the box readout is the cold path's own
    (:func:`~repro.cfpq.tensor_algorithm.read_new_facts`).

    Returns ``(pairs, new_state)`` or None when the state's geometry
    does not match.
    """
    rsm = query if isinstance(query, RSM) else RSM.from_cfg(query)
    n = graph.n
    k = rsm.n_states
    shape = (k * n, k * n)
    if not state.compatible("tensor", shape, n=n, k=k):
        return None

    facts: dict[str, np.ndarray] = {}
    for nt in rsm.nonterminals:
        rows, cols = state.coo.get("fact:" + nt, _EMPTY)
        facts[nt] = sort_unique_keys(keys_from_coo(rows, cols))

    r_mats = rsm.transition_matrices(ctx)

    # Round 0's Δ-facts are the added *terminal* edges.
    delta_mats = {
        label: ctx.matrix_from_lists((n, n), *pair)
        for label, pair in adds.items()
        if label in set(rsm.terminals)
    }
    closure = state.matrix(ctx, "closure")
    with ctx.backend.fixpoint():
        while True:
            delta = kron_sum(ctx, shape, r_mats, delta_mats.items())
            for m in delta_mats.values():
                m.free()
            updated = incremental_transitive_closure(closure, delta)
            delta.free()
            closure.free()
            closure = updated

            delta_mats = read_new_facts(ctx, rsm, n, closure, facts)
            if not delta_mats:
                break

    for m in r_mats.values():
        m.free()

    start_rows, start_cols = coo_from_keys(facts[rsm.start_nonterminal])
    pairs = set(zip(start_rows.tolist(), start_cols.tolist()))
    coo = {"closure": matrix_coo(closure)}
    for nt, keys in facts.items():
        coo["fact:" + nt] = tuple(a.astype(np.int64) for a in coo_from_keys(keys))
    closure.free()
    new_state = FixpointState("tensor", shape, coo, {"n": n, "k": k})
    return pairs, new_state
