"""Kronecker-product (tensor) CFPQ algorithm (**Tns** in Table IV).

The algorithm of Orachev et al., reduced to boolean-matrix operations:

1. Lower the grammar to an RSM ``R`` (k states over terminals and
   nonterminals) and the graph to per-label matrices ``G`` (n vertices).
   Nonterminal "graph edges" start empty — except directly-nullable
   nonterminals, which contribute the identity (ε derives v → v).
2. Iterate to fixpoint:

   * ``M  = Σ_sym R_sym ⊗ G_sym``  — the product graph (kn × kn);
   * ``C  = M⁺``                   — transitive closure;
   * for every nonterminal ``A`` and every (box-start ``s``, box-final
     ``f``) pair, the block ``C[s·n …, f·n …]`` (sub-matrix extraction)
     yields new fact pairs for ``A``; OR them into ``G_A``.

   The closure is maintained *incrementally* across iterations: only
   nonterminal matrices change, so the new product edges form a small
   delta ``Σ_A R_A ⊗ ΔG_A`` and
   :func:`~repro.algorithms.closure.incremental_transitive_closure`
   updates ``C`` — the paper's "incremental transitive closure is the
   bottleneck" observation is about exactly this step.
3. The final closure *is* the all-paths index: every derivation of every
   fact embeds as a product-graph path, which
   :mod:`repro.cfpq.paths` unwinds into concrete graph paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.closure import (
    incremental_transitive_closure,
    kron_sum,
    transitive_closure,
)
from repro.errors import InvalidArgumentError
from repro.grammar.cfg import CFG
from repro.grammar.rsm import RSM
from repro.graph import LabeledGraph
from repro.utils.arrays import (
    KEY_DTYPE,
    coo_from_keys,
    keys_from_coo,
    merge_union,
    sort_unique_keys,
)
from repro.utils.pairset import PairSet


@dataclass
class TensorIndex:
    """The all-paths CFPQ index: product closure + fact matrices."""

    rsm: RSM
    n: int
    closure: object            # Matrix (k*n, k*n) — final product closure
    facts: dict                # nonterminal -> PairSet
    graph_edges: dict          # terminal label -> (rows, cols) host arrays
    ctx: object
    stats: dict = field(default_factory=dict)

    @property
    def fact_pairs(self) -> dict:
        """nonterminal -> host ``(rows, cols)`` of its facts."""
        return {nt: (facts.rows, facts.cols) for nt, facts in self.facts.items()}

    def pairs(self, nonterminal: str | None = None) -> PairSet:
        nt = nonterminal or self.rsm.start_nonterminal
        if nt not in self.rsm.boxes:
            raise InvalidArgumentError(f"unknown nonterminal {nt!r}")
        return self.facts.get(nt, PairSet())

    def free(self) -> None:
        if self.closure is not None:
            self.closure.free()
            self.closure = None


def read_new_facts(ctx, rsm: RSM, n: int, closure, facts: dict) -> dict:
    """One box readout: the (start, final) blocks of each box in
    ``closure`` are that nonterminal's derivable pairs.  Pairs not yet
    in ``facts`` (nonterminal → sorted key array) are merged into it;
    returns nonterminal → matrix of just those Δ-facts (empty dict:
    fixed point reached)."""
    delta_mats: dict[str, object] = {}
    for nt, box in rsm.boxes.items():
        fresh_keys = []
        for f in box.finals:
            block = closure.extract_submatrix(box.start * n, f * n, n, n)
            try:
                rows, cols = block.to_arrays()
            finally:
                block.free()
            if rows.size:
                fresh_keys.append(keys_from_coo(rows, cols))
        if not fresh_keys:
            continue
        candidate = sort_unique_keys(np.concatenate(fresh_keys))
        new = candidate[~np.isin(candidate, facts[nt])]
        if new.size:
            facts[nt] = merge_union(facts[nt], new)
            delta_mats[nt] = ctx.matrix_from_lists((n, n), *coo_from_keys(new))
    return delta_mats


def fact_rounds(ctx, rsm: RSM, n: int, r_mats: dict, closure, facts: dict, delta_mats: dict):
    """The tensor algorithm's round loop, shared by the cold engine and
    :func:`~repro.incr.engine.tensor_cfpq_incremental`: the Δ-facts'
    product edges (:func:`~repro.algorithms.closure.kron_sum`) update
    ``closure`` incrementally, and the box readout
    (:func:`read_new_facts`, which grows ``facts``) yields the next
    Δ-facts, until there are none.  Consumes ``closure`` and
    ``delta_mats``; returns ``(closure, rounds)``.
    """
    rounds = 0
    with ctx.backend.fixpoint():
        while delta_mats:
            rounds += 1
            delta = kron_sum(ctx, closure.shape, r_mats, delta_mats.items())
            for m in delta_mats.values():
                m.free()
            updated = incremental_transitive_closure(closure, delta)
            delta.free()
            closure.free()
            closure = updated
            delta_mats = read_new_facts(ctx, rsm, n, closure, facts)
    return closure, rounds


def tensor_cfpq(
    graph: LabeledGraph,
    query,
    ctx,
    *,
    incremental: bool = True,
) -> TensorIndex:
    """Run the tensor algorithm; the timed "index creation" of Table IV.

    ``query`` is a :class:`~repro.grammar.cfg.CFG` or a prebuilt
    :class:`~repro.grammar.rsm.RSM` (regular queries work too — an RPQ
    is just an RSM whose single box has no nonterminal transitions,
    which is the paper's "unified algorithm" point).
    ``incremental=False`` re-closes the product graph from scratch every
    iteration (ablation E9 measures the difference).
    """
    t0 = time.perf_counter()
    rsm = query if isinstance(query, RSM) else RSM.from_cfg(query)
    n = graph.n
    if n == 0:
        raise InvalidArgumentError("empty graph")

    # Host-side fact sets per nonterminal (sorted key arrays) + seeds.
    facts: dict[str, np.ndarray] = {}
    eye = np.arange(n)
    for nt in rsm.nonterminals:
        if nt in rsm.nullable_nonterminals():
            facts[nt] = keys_from_coo(eye, eye)
        else:
            facts[nt] = np.empty(0, dtype=KEY_DTYPE)

    # Graph matrices for terminals (device), built once.
    terminals = sorted(set(rsm.terminals) & set(graph.labels))
    g_term = graph.adjacency_matrices(ctx, labels=terminals)
    r_mats = rsm.transition_matrices(ctx)

    k = rsm.n_states

    shape = (k * n, k * n)
    closure = None
    iterations = 0
    # The outer loop is itself a fixpoint: hint the backend so product /
    # closure intermediates stay resident in their winning format.
    with ctx.backend.fixpoint():
        # Round 1 closes the whole product graph; ``incremental=False``
        # keeps re-closing it from scratch while facts appear.
        while closure is None or (delta_mats and not incremental):
            iterations += 1
            fact_mats = {
                nt: ctx.matrix_from_lists((n, n), *coo_from_keys(facts[nt]))
                for nt in rsm.nonterminals
            }
            operands = {**fact_mats, **g_term}
            product = kron_sum(
                ctx, shape, r_mats, ((sym, operands.get(sym)) for sym in rsm.labels)
            )
            for m in fact_mats.values():
                m.free()
            if closure is not None:
                closure.free()
            closure = transitive_closure(product)
            product.free()
            delta_mats = read_new_facts(ctx, rsm, n, closure, facts)
        closure, rounds = fact_rounds(ctx, rsm, n, r_mats, closure, facts, delta_mats)
    iterations += rounds

    elapsed = time.perf_counter() - t0

    graph_edges = {}
    for label, m in g_term.items():
        rows, cols = m.to_arrays()
        graph_edges[label] = (rows.astype(np.int64), cols.astype(np.int64))
        m.free()
    for m in r_mats.values():
        m.free()

    return TensorIndex(
        rsm=rsm,
        n=n,
        closure=closure,
        facts={nt: PairSet(keys) for nt, keys in facts.items()},
        graph_edges=graph_edges,
        ctx=ctx,
        stats={
            "time_s": elapsed,
            "iterations": iterations,
            "rsm_states": k,
            "closure_nnz": closure.nnz,
            "incremental": incremental,
        },
    )
