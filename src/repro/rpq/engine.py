"""Kronecker-product RPQ evaluation.

Given an edge-labeled graph ``G`` (n vertices) and a regular expression
compiled to an NFA ``R`` (k states), the product graph

    ``M = Σ_{label} R_label ⊗ G_label``           (kn × kn, boolean)

has an edge ``(s, v) → (t, w)`` exactly when the automaton can move
``s → t`` while the graph moves ``v → w`` on the same label.  A word of
the query language labels a path ``u → v`` iff some final-state block of
the transitive closure ``M⁺`` contains ``(start, u) → (final, v)``.

Index = the closure plus its block decomposition; the sub-matrix
extraction operation of the library carves out the per-(start, final)
blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.closure import kron_sum, seminaive, transitive_closure
from repro.automata.glushkov import glushkov_nfa
from repro.automata.nfa import NFA
from repro.automata.regex_ast import Regex
from repro.automata.regex_parse import parse_regex
from repro.errors import InvalidArgumentError
from repro.graph import LabeledGraph
from repro.incr.state import FixpointState
from repro.utils.arrays import KEY_DTYPE, keys_from_coo, sort_unique_keys
from repro.utils.pairset import PairSet


@dataclass
class RpqIndex:
    """The evaluated query: closure of the product graph + metadata."""

    nfa: NFA
    n: int                      # graph vertex count
    closure: object             # Matrix of shape (k*n, k*n), M⁺
    graph_matrices: dict        # label -> host (rowptr, cols) CSR arrays
    ctx: object
    stats: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.nfa.n

    # -- result readout -----------------------------------------------------

    def pairs(self) -> PairSet:
        """All (u, v) with a query-matching path u → v.

        Nonempty-word matches come from closure blocks; if the query
        language contains ε, every vertex matches itself as well.
        """
        return closure_pairs(self.nfa, self.n, self.closure)

    @property
    def matches_epsilon(self) -> bool:
        return bool(self.nfa.starts & self.nfa.finals)

    def reachable_from(self, source: int) -> set[int]:
        """Targets v such that (source, v) is in the answer."""
        return {v for u, v in self.pairs() if u == source}

    def free(self) -> None:
        self.closure.free()


def closure_pairs(nfa: NFA, n: int, closure) -> PairSet:
    """(start, final) block readout of a product closure ``M⁺``: the
    blocks' keys, plus the diagonal when the language holds ε, sorted
    once into the answer."""
    runs = [np.empty(0, KEY_DTYPE)]
    for s in nfa.starts:
        for f in nfa.finals:
            block = closure.extract_submatrix(s * n, f * n, n, n)
            try:
                runs.append(keys_from_coo(*block.to_arrays()))
            finally:
                block.free()
    if nfa.starts & nfa.finals:
        runs.append(keys_from_coo(np.arange(n), np.arange(n)))
    return PairSet(np.concatenate(runs))


def _compile(query, automaton: str = "glushkov") -> NFA:
    if isinstance(query, NFA):
        return query
    if isinstance(query, str):
        query = parse_regex(query)
    if not isinstance(query, Regex):
        raise InvalidArgumentError(f"unsupported query type {type(query).__name__}")
    if automaton == "glushkov":
        return glushkov_nfa(query)
    if automaton == "thompson":
        from repro.automata.nfa import thompson_nfa

        return thompson_nfa(query)
    if automaton == "mindfa":
        from repro.automata.dfa import determinize, minimize

        return minimize(determinize(glushkov_nfa(query))).to_nfa()
    raise InvalidArgumentError(
        f"unknown automaton construction {automaton!r} "
        "(glushkov / thompson / mindfa)"
    )


def rpq_index(
    graph: LabeledGraph,
    query,
    ctx,
    *,
    automaton: str = "glushkov",
    adjacency: dict | None = None,
) -> RpqIndex:
    """Build the RPQ reachability index (the timed operation of E3/E4).

    ``query`` may be a regex string, AST, or a prebuilt NFA.
    ``automaton`` selects the query-compilation strategy: Glushkov's
    position automaton (default — what the provenance-aware RPQ
    literature uses), Thompson + ε-elimination, or the minimized DFA
    (``mindfa``: smallest product graph, at the cost of determinization
    up front — compared in the ablation benchmark).

    ``adjacency`` optionally supplies pre-lowered ``label → Matrix``
    adjacency matrices on ``ctx`` (the service tier's GraphStore keeps
    graphs resident); borrowed matrices are *not* freed.
    """
    nfa = _compile(query, automaton)
    n = graph.n
    if n == 0:
        raise InvalidArgumentError("empty graph")
    t0 = time.perf_counter()

    shared = sorted(set(nfa.labels) & set(graph.labels))
    if adjacency is None:
        g_mats = graph.adjacency_matrices(ctx, labels=shared)
        borrowed = False
    else:
        g_mats = {label: adjacency[label] for label in shared}
        borrowed = True

    r_mats = nfa.transition_matrices(ctx, labels=shared)
    try:
        with ctx.backend.fixpoint():
            product = kron_sum(ctx, (nfa.n * n, nfa.n * n), r_mats, g_mats.items())
    finally:
        for mat in r_mats.values():
            mat.free()
    t_product = time.perf_counter()

    closure = transitive_closure(product)
    product.free()
    t_closure = time.perf_counter()

    host_graph = {}
    for label in shared:
        rows, cols = g_mats[label].to_arrays()
        host_graph[label] = (rows, cols)
        if not borrowed:
            g_mats[label].free()

    return RpqIndex(
        nfa=nfa,
        n=n,
        closure=closure,
        graph_matrices=host_graph,
        ctx=ctx,
        stats={
            "product_time_s": t_product - t0,
            "closure_time_s": t_closure - t_product,
            "total_time_s": t_closure - t0,
            "product_nnz": closure.nnz,
            "automaton_states": nfa.n,
        },
    )


def rpq_pairs(graph: LabeledGraph, query, ctx) -> PairSet:
    """Convenience: evaluate and return the reachable pairs."""
    index = rpq_index(graph, query, ctx)
    try:
        return index.pairs()
    finally:
        index.free()


def _reach(nfas: list, sources: list, n: int, ctx, adjacency: dict, states=None, cancel=None):
    """Single-source RPQ for a stack of queries in **one** fixpoint.

    Query ``i`` asks for every ``v`` reachable from ``sources[i]`` along
    a path matching ``nfas[i]``.  The automata (one block per distinct
    object) are stacked block-diagonally into one union automaton ``R``,
    ``M = Σ R_label ⊗ G_label`` is built once over the borrowed
    ``adjacency``, and the frontier holds one row per query; blocks are
    disconnected in ``M``, so each row's answer is the query's alone.
    Row ``i`` is seeded from ``states[i]`` (its previous final frontier,
    if that state fits its geometry) or else at its automaton's start
    states over its source; one masked
    :func:`~repro.algorithms.closure.seminaive` loop then expands every
    seeded row against the current product.

    Returns ``([(targets, state, used_warm), ...], rounds)`` in input
    order; each ``state`` is that member's own final frontier.
    """
    if len(nfas) != len(sources):
        raise InvalidArgumentError(f"{len(nfas)} queries but {len(sources)} sources")
    if n == 0:
        raise InvalidArgumentError("empty graph")
    for src in sources:
        if not 0 <= src < n:
            raise InvalidArgumentError(f"source {src} outside [0, {n})")
    if not nfas:
        return [], 0

    blocks = {id(nfa): nfa for nfa in nfas}
    firsts = np.cumsum([0] + [nfa.n for nfa in blocks.values()]).tolist()
    offsets, k = dict(zip(blocks, firsts)), firsts[-1]
    transitions: dict[str, list] = {}
    for key, nfa in blocks.items():
        for label, pairs in nfa.renumbered(offsets[key], k).transitions.items():
            transitions.setdefault(label, []).extend(pairs)
    union = NFA(k, frozenset(), frozenset(), transitions)

    metas = [{"n": n, "k": nfa.n, "source": int(src)} for nfa, src in zip(nfas, sources)]
    warm = [
        state is not None and state.compatible("reach", (1, meta["k"] * n), **meta)
        for state, meta in zip(states or [None] * len(nfas), metas)
    ]
    rows, cols = [], []
    for i, (nfa, src) in enumerate(zip(nfas, sources)):
        if warm[i]:
            # A one-row frontier's key is its column.
            seed = states[i].keys["frontier"].astype(np.int64)
        else:
            seed = np.array([s0 * n + int(src) for s0 in nfa.starts], np.int64)
        cols.append(seed + offsets[id(nfa)] * n)
        rows.append(np.full(seed.size, i, np.int64))

    shared = sorted(set(union.labels) & set(adjacency))
    r_mats = union.transition_matrices(ctx, labels=shared)
    try:
        with ctx.backend.fixpoint():
            product = kron_sum(
                ctx, (k * n, k * n), r_mats, ((label, adjacency[label]) for label in shared)
            )
    finally:
        for mat in r_mats.values():
            mat.free()
    try:
        total = ctx.matrix_from_lists(
            (len(nfas), k * n), np.concatenate(rows), np.concatenate(cols)
        )
        total, rounds = seminaive(
            total,
            lambda total, frontier: (total if frontier is None else frontier).mxm(
                product, mask=total
            ),
            cancel=cancel,
        )
    finally:
        product.free()

    rows, cols = total.to_arrays()
    total.free()
    out = []
    for i, (nfa, meta) in enumerate(zip(nfas, metas)):
        own = cols[rows == i].astype(np.int64) - offsets[id(nfa)] * n
        targets = frozenset(c % n for c in own.tolist() if c // n in nfa.finals)
        frontier = sort_unique_keys(keys_from_coo(np.zeros_like(own), own))
        state = FixpointState("reach", (1, nfa.n * n), {"frontier": frontier}, meta)
        out.append((targets, state, warm[i]))
    return out, rounds


def rpq_reach_batch(
    graph: LabeledGraph,
    queries: list,
    sources: list[int],
    ctx,
    *,
    automaton: str = "glushkov",
    adjacency: dict | None = None,
    cancel=None,
) -> list[frozenset[int]]:
    """Evaluate many single-source RPQ queries in **one** fixpoint.

    The cold, stacked evaluation behind the query service's multi-query
    coalescing: query ``i`` asks for all ``v`` reachable from
    ``sources[i]`` along a path matching ``queries[i]`` (see
    :func:`_reach` for the stacking).  ``queries`` entries may be regex
    strings, ASTs, or prebuilt NFAs; identical objects share one
    automaton block.  ``adjacency`` borrows pre-lowered graph matrices
    as in :func:`rpq_index`.  ``cancel``, if given, is invoked between
    fixpoint iterations and may raise to abort cooperatively.

    Returns one frozen target set per query, in input order.
    """
    nfas = [_compile(q, automaton) for q in queries]
    owned = {}
    if adjacency is None:
        labels = set(graph.labels) & {label for nfa in nfas for label in nfa.labels}
        adjacency = owned = graph.adjacency_matrices(ctx, labels=sorted(labels))
    try:
        out, _ = _reach(nfas, sources, graph.n, ctx, adjacency, cancel=cancel)
    finally:
        for mat in owned.values():
            mat.free()
    return [targets for targets, _, _ in out]


def rpq_reach(
    graph: LabeledGraph,
    query,
    source: int,
    ctx,
    *,
    automaton: str = "glushkov",
    adjacency: dict | None = None,
) -> frozenset[int]:
    """Single-source RPQ reachability (a batch of one)."""
    return rpq_reach_batch(
        graph, [query], [source], ctx, automaton=automaton, adjacency=adjacency
    )[0]
