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

Single-source reach (:func:`_reach`, behind ``rpq_reach``,
``rpq_reach_batch`` and the service's warm reach) needs only the rows of
``M⁺`` over its seeds.  It walks a masked frontier in one of two ways,
selected by the exact entry count of ``M``: a small product is built
once and walked (few backend calls per round); a large one is never
built, and the frontier — one row per automaton state — steps through
the automaton and the visited mask on the host and through ``G_label``
on the device.  Both walks keep the same ``FixpointState`` layout.
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
from repro.utils.arrays import (
    KEY_DTYPE,
    coo_from_keys,
    in_sorted,
    keys_from_coo,
    merge_union,
    sort_unique_keys,
)
from repro.utils.pairset import PairSet

#: Largest Kronecker product, in entries (``Σ_label |R_label| ·
#: nnz(G_label)``), that :func:`_reach` still builds and walks.  Above
#: it building the product costs more than the whole product-free walk;
#: below it the product walk's few, large backend calls per round hold
#: the interpreter lock far less than the product-free walk's upload and
#: product per label, which concurrent requests wait on (EXPERIMENTS.md,
#: E18).
PRODUCT_WALK_MAX_NNZ = 1 << 15


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
    a path matching ``nfas[i]``, over the borrowed per-label
    ``adjacency``.  Member ``i`` is seeded from ``states[i]`` (its
    previous final frontier, if that state fits its geometry) or else at
    its automaton's start states over its source; one masked frontier
    loop then expands every seeded member.  It takes one of two walks,
    chosen here and nowhere else by the exact size of the Kronecker
    product ``Σ_label |R_label| · nnz(G_label)`` over the distinct
    automata:

    * at most :data:`PRODUCT_WALK_MAX_NNZ` entries — :func:`_product_walk`
      builds the product once and walks one frontier row per member in
      :func:`~repro.algorithms.closure.seminaive`;
    * above it — :func:`_frontier_walk` never builds the product and
      walks a ``(Σ k_i) × n`` frontier through the adjacency.

    Both read and write the same ``FixpointState`` (key ``state·n +
    vertex`` in a ``1 × k·n`` frontier), so a state left by one walk
    seeds the other.

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

    metas = [{"n": n, "k": nfa.n, "source": int(src)} for nfa, src in zip(nfas, sources)]
    warm = [
        state is not None and state.compatible("reach", (1, meta["k"] * n), **meta)
        for state, meta in zip(states or [None] * len(nfas), metas)
    ]
    seeds = [
        # A one-row frontier's key is its column.
        states[i].keys["frontier"].astype(np.int64)
        if warm[i]
        else np.array([s0 * n + int(src) for s0 in nfa.starts], np.int64)
        for i, (nfa, src) in enumerate(zip(nfas, sources))
    ]

    blocks = {id(nfa): nfa for nfa in nfas}
    product_nnz = sum(
        len(nfa.transitions.get(label, ())) * adjacency[label].nnz
        for nfa in blocks.values()
        for label in set(nfa.labels) & set(adjacency)
    )
    walk = _product_walk if product_nnz <= PRODUCT_WALK_MAX_NNZ else _frontier_walk
    visited, rounds = walk(nfas, seeds, n, ctx, adjacency, cancel)

    out = []
    for i, (nfa, meta) in enumerate(zip(nfas, metas)):
        own = visited[i]
        targets = frozenset((own % n)[np.isin(own // n, list(nfa.finals))].tolist())
        frontier = sort_unique_keys(keys_from_coo(np.zeros_like(own), own))
        state = FixpointState("reach", (1, nfa.n * n), {"frontier": frontier}, meta)
        out.append((targets, state, warm[i]))
    return out, rounds


def _product_walk(nfas, seeds, n, ctx, adjacency, cancel):
    """Walk one frontier row per member over ``M = Σ R_label ⊗ G_label``.

    The automata (one block per distinct object) are stacked
    block-diagonally into one union automaton ``R``; blocks are
    disconnected in ``M``, so each row's reach is its member's alone.
    Returns each member's visited keys (``state·n + vertex``) and the
    round count.
    """
    blocks = {id(nfa): nfa for nfa in nfas}
    firsts = np.cumsum([0] + [nfa.n for nfa in blocks.values()]).tolist()
    offsets, k = dict(zip(blocks, firsts)), firsts[-1]
    transitions: dict[str, list] = {}
    for key, nfa in blocks.items():
        for label, pairs in nfa.renumbered(offsets[key], k).transitions.items():
            transitions.setdefault(label, []).extend(pairs)
    union = NFA(k, frozenset(), frozenset(), transitions)

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
            (len(nfas), k * n),
            np.concatenate([np.full(seed.size, i, np.int64) for i, seed in enumerate(seeds)]),
            np.concatenate(
                [seed + offsets[id(nfa)] * n for nfa, seed in zip(nfas, seeds)]
            ),
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
    visited = [
        cols[rows == i].astype(np.int64) - offsets[id(nfa)] * n for i, nfa in enumerate(nfas)
    ]
    return visited, rounds


def _frontier_walk(nfas, seeds, n, ctx, adjacency, cancel):
    """Walk a ``(Σ k_i) × n`` frontier through the per-label adjacency.

    Member ``i`` owns the ``k_i`` rows from ``firsts[i]``, one per
    automaton state (members that share an automaton still get a block
    each).  One round is ``F' = ⋁_label (R_labelᵀ · F) · G_label ∧
    ¬visited``: the automaton step ``R_labelᵀ`` is a host row map over
    the frontier's keys (the automaton is host data, tens of states),
    and each label whose map moved any row costs one upload and one
    accumulating ``mxm`` against ``G_label``.  The row map needs the
    frontier on the host every round anyway, so ``¬visited`` is applied
    there, to the round's one read-back, against a sorted key array: no
    ``k·n``-sized operand and no device-side visited matrix exist.
    ``cancel`` is called before every round.  Returns each member's
    visited keys (``state·n + vertex``) and the round count.
    """
    firsts = np.cumsum([0] + [nfa.n for nfa in nfas]).tolist()
    k = firsts[-1]
    shape = (k, n)
    moves = {}  # label -> (rowptr over the k rows, target rows), CSR
    for label in sorted({label for nfa in nfas for label in nfa.transitions} & set(adjacency)):
        pairs = [
            (s + first, t + first)
            for nfa, first in zip(nfas, firsts)
            for s, t in nfa.transitions.get(label, ())
        ]
        if pairs and adjacency[label].nnz:
            arr = np.array(sorted(pairs), np.int64)
            rowptr = np.searchsorted(arr[:, 0], np.arange(k + 1))
            moves[label] = (rowptr, arr[:, 1])

    # Keys of the (k, n) frontier matrix: row << 32 | col.
    visited = frontier = sort_unique_keys(
        keys_from_coo(
            np.concatenate([seed // n + first for seed, first in zip(seeds, firsts)]),
            np.concatenate([seed % n for seed in seeds]),
        )
    )
    rounds = 0
    with ctx.backend.fixpoint():
        while frontier.size:
            if cancel is not None:
                cancel()
            rounds += 1
            rows, cols = coo_from_keys(frontier)
            rows = rows.astype(np.int64)
            new = None
            try:
                for label, (rowptr, targets) in moves.items():
                    lo = rowptr[rows]
                    count = rowptr[rows + 1] - lo
                    hits = int(count.sum())
                    if hits == 0:
                        continue
                    entry = np.repeat(np.arange(rows.size), count)
                    ends = np.cumsum(count)
                    slot = lo[entry] + np.arange(hits) - np.repeat(ends - count, count)
                    moved = ctx.matrix_from_lists(shape, targets[slot], cols[entry])
                    try:
                        grown = moved.mxm(adjacency[label], accumulate=new)
                    finally:
                        moved.free()
                    if new is not None:
                        new.free()
                    new = grown
                reached = keys_from_coo(*new.to_arrays()) if new is not None else frontier[:0]
            finally:
                if new is not None:
                    new.free()
            frontier = reached[~in_sorted(reached, visited)]
            visited = merge_union(visited, frontier)

    rows, cols = coo_from_keys(visited)
    bounds = np.searchsorted(rows, firsts)
    visited = [
        (rows[lo:hi].astype(np.int64) - first) * n + cols[lo:hi]
        for lo, hi, first in zip(bounds[:-1], bounds[1:], firsts)
    ]
    return visited, rounds


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
