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

The last two are one loop,
:func:`~repro.algorithms.closure.seminaive`; a warm engine here is
"seed from the state, then the cold engine's loop".

Engines return ``(answer, new_state)`` so the service can republish
both; geometry-incompatible states make the entry point return None and
the scheduler falls back to the cold path.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.closure import incremental_transitive_closure, kron_sum
from repro.grammar.rsm import RSM
from repro.incr.state import FixpointState, matrix_keys

# Product builders, readouts and round loops are shared with the cold
# paths on purpose: warm and cold must disagree only in iteration
# count, never in algebra.
from repro.cfpq.tensor_algorithm import fact_rounds
from repro.rpq.engine import _reach, closure_pairs
from repro.utils.arrays import KEY_DTYPE
from repro.utils.pairset import PairSet


# -- RPQ single-source reachability ----------------------------------------


def rpq_reach_incremental(
    nfa, n: int, source: int, ctx, adjacency: dict, state=None, cancel=None
):
    """Single-source RPQ via the masked frontier fixpoint.

    A stack of one in :func:`~repro.rpq.engine.rpq_reach_batch`'s
    engine: cold (``state=None``, or a state of another geometry) seeds
    the frontier at the automaton's start states over ``source``; warm
    seeds it from the previous *final* frontier, and the first masked
    round against the current adjacency reports only reachability the
    new edges enabled — an irrelevant delta converges in one iteration.

    Returns ``(targets, new_state, warm_used, iterations)``.  A coalesced
    group passes equal-length lists as ``nfa``, ``source`` and ``state``
    and gets a list of such tuples from one stacked fixpoint, so every
    service reach evaluation enters through this one function.
    """
    group = isinstance(nfa, list)
    if not group:
        nfa, source, state = [nfa], [source], [state]
    members, iterations = _reach(nfa, source, n, ctx, adjacency, state, cancel)
    out = [(*member, iterations) for member in members]
    return out if group else out[0]


# -- RPQ all-pairs (product-closure index) ---------------------------------


def pairs_state_from_index(index) -> FixpointState:
    """Snapshot a cold :class:`~repro.rpq.engine.RpqIndex` for reuse."""
    return FixpointState(
        "closure",
        index.closure.shape,
        {"closure": matrix_keys(index.closure)},
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
    r_mats = nfa.transition_matrices(ctx, labels=shared)
    try:
        with ctx.backend.fixpoint():
            delta = kron_sum(ctx, shape, r_mats, delta_g.items())
    finally:
        for m in (*r_mats.values(), *delta_g.values()):
            m.free()
    prev = state.matrix(ctx, "closure")
    closure = incremental_transitive_closure(prev, delta)
    prev.free()
    delta.free()
    pairs = closure_pairs(nfa, n, closure)
    new_state = FixpointState(
        "closure", shape, {"closure": matrix_keys(closure)}, {"n": n, "k": k}
    )
    closure.free()
    return pairs, new_state


# -- tensor CFPQ -----------------------------------------------------------


def _tensor_state(closure, facts: dict, n: int, k: int) -> FixpointState:
    """The product closure plus each nonterminal's fact keys, shared
    with (not copied from) the caller's arrays."""
    keys = {"closure": matrix_keys(closure)}
    keys.update(("fact:" + nt, fact_keys) for nt, fact_keys in facts.items())
    return FixpointState("tensor", closure.shape, keys, {"n": n, "k": k})


def tensor_state_from_index(index) -> FixpointState:
    """Snapshot a cold :class:`~repro.cfpq.tensor_algorithm.TensorIndex`;
    the fact components are the index's answers' key arrays."""
    facts = {nt: pairs.keys for nt, pairs in index.facts.items()}
    return _tensor_state(index.closure, facts, index.n, index.rsm.n_states)


def tensor_cfpq_incremental(graph, query, ctx, state: FixpointState, adds: dict):
    """Tensor CFPQ restarted from a cached product closure + fact sets.

    The tensor algorithm is *already* delta-driven across its own
    iterations; this extends the same machinery across requests: seed
    the closure and fact sets from the state, let the added terminal
    edges play the first round's Δ-facts, and run the cold engine's own
    round loop (:func:`~repro.cfpq.tensor_algorithm.fact_rounds`).

    Returns ``(pairs, new_state)`` or None when the state's geometry
    does not match.
    """
    rsm = query if isinstance(query, RSM) else RSM.from_cfg(query)
    n = graph.n
    k = rsm.n_states
    shape = (k * n, k * n)
    if not state.compatible("tensor", shape, n=n, k=k):
        return None

    empty = np.empty(0, KEY_DTYPE)
    facts = {nt: state.keys.get("fact:" + nt, empty) for nt in rsm.nonterminals}

    r_mats = rsm.transition_matrices(ctx)
    # Round 0's Δ-facts are the added *terminal* edges.
    delta_mats = {
        label: ctx.matrix_from_lists((n, n), *pair)
        for label, pair in adds.items()
        if label in set(rsm.terminals)
    }
    closure, _ = fact_rounds(
        ctx, rsm, n, r_mats, state.matrix(ctx, "closure"), facts, delta_mats
    )
    for m in r_mats.values():
        m.free()

    # The start nonterminal's fact keys are the answer: wrapped, not copied.
    pairs = PairSet(facts[rsm.start_nonterminal])
    new_state = _tensor_state(closure, facts, n, k)
    closure.free()
    return pairs, new_state
