"""The query-kind table: one row per kind of query the service answers.

RPQ and CFPQ are one pipeline in the paper (product → closure → block
readout); what differs between ``reach``, ``pairs``, ``cfpq`` and
``dist`` is a handful of facts, written down here and nowhere else.
The scheduler, both caches, the service facade, the read router and
the follower are generic over a row; none of them names a kind.
``evaluate`` and ``batch`` return the same ``(result, state,
used_warm)`` per query, so a coalesced ``reach`` member warm-starts and
publishes its state exactly as a lone one does: both run the one
frontier engine of :mod:`repro.rpq.engine` (through
``rpq_reach_incremental``), a group as one row per member.

Engine entry points are resolved through their *module* at call time
(``_rpq.rpq_index(...)``, never ``from ... import rpq_index``): tools
that wrap a module attribute — the benchmark's span tracer — must see
every call.

Each row also carries its ``oracle``: the answer from host data alone
(product BFS, worklist CFL-reachability, dense Bellman-Ford), compiled
without the plan cache.  The selftests and the test suite check every
answer against it; nothing on the serving path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro.algorithms.shortest_paths as _sssp
import repro.cfpq.tensor_algorithm as _tns
import repro.incr.engine as _incr
import repro.rpq.engine as _rpq
from repro.cfpq.naive import naive_cfpq
from repro.errors import InvalidArgumentError
from repro.grammar.cfg import CFG
from repro.rpq.naive import naive_rpq
from repro.utils.pairset import PairSet


@dataclass(frozen=True)
class QueryKind:
    """Everything that varies by query kind."""

    name: str
    #: :class:`~repro.service.plan_cache.PlanCache` kind; rows sharing
    #: one share compiled plans.
    plan_kind: str
    needs_source: bool
    #: ``(ctx, handle, plan, source, warm, cancel, want_state) ->
    #: (result, state, used_warm)``.  ``warm`` is the scheduler's
    #: ``(FixpointState, adds)`` offer or None; ``state`` the resumable
    #: fixed point (None unless ``want_state``).  ``result`` is
    #: immutable — a :class:`~repro.utils.pairset.PairSet` or a
    #: ``frozenset`` — because the result cache hands every hit the
    #: object itself.
    evaluate: Callable
    #: The query's text on the replica wire, or None: run on the primary.
    wire_query: Callable
    #: ``(graph, query, source) -> answer`` over a host
    #: :class:`~repro.graph.LabeledGraph`: the reference answer.
    oracle: Callable
    #: Answer to / from its JSON wire value.
    encode: Callable | None = None
    decode: Callable | None = None
    #: ``(ctx, handle, plans, sources, warms, cancel) -> [(result,
    #: state, used_warm), ...]``: ``evaluate`` for a coalesced same-graph
    #: group in one fixpoint, one warm offer and one state per member
    #: (None: never coalesces).
    batch: Callable | None = None
    #: False: no FixpointState lineage, never offered a warm start.
    warm_starts: bool = True


def _eval_reach(ctx, handle, plan, source, warm, cancel, want_state):
    [(targets, state, used)] = _batch_reach(ctx, handle, [plan], [source], [warm], cancel)
    return targets, state if want_state else None, used


def _batch_reach(ctx, handle, plans, sources, warms, cancel):
    # One frontier row per member; plans may differ, identical NFA
    # objects share one automaton block.
    seeds = [warm[0] if warm is not None else None for warm in warms]
    out = _incr.rpq_reach_incremental(
        [plan.nfa for plan in plans], handle.n, sources, ctx,
        handle.query_matrices(), seeds, cancel,
    )
    return [(targets, state, used) for targets, state, used, _ in out]


def _warm_or_cold(restart, build_index, snapshot):
    """Index-building kinds: try the delta restart, else build the
    index cold, snapshot its fixed point, and read the pairs out."""

    def evaluate(ctx, handle, plan, source, warm, cancel, want_state):
        out = restart(ctx, handle, plan, *warm) if warm is not None else None
        if out is not None:  # None: state geometry did not match
            return (*out, True)
        index = build_index(ctx, handle, plan)
        try:
            state = snapshot(index) if want_state else None
            return index.pairs(), state, False
        finally:
            index.free()

    return evaluate


def _eval_dist(ctx, handle, plan, source, warm, cancel, want_state):
    # Value backend; answers ride the result cache tagged by semiring.
    weights = dict(plan.meta.get("weights") or ())
    w = _sssp.weight_matrix(handle.graph, weights or None)
    dist = _sssp.single_source_shortest_paths(w, source)
    answer = frozenset((int(v), float(d)) for v, d in enumerate(dist) if d < float("inf"))
    return answer, None, False


def _oracle_cfpq(graph, query, source):
    grammar = CFG.from_text(query) if isinstance(query, str) else query
    return naive_cfpq(graph, grammar)[grammar.start]


def _oracle_dist(graph, query, source):
    # Dense Bellman-Ford; unlisted labels weigh 1, parallel edges the least.
    weights = dict(query[1] or ())
    w = np.full((graph.n, graph.n), np.inf)
    for label, pairs in graph.edges.items():
        for u, v in pairs:
            w[u, v] = min(w[u, v], float(weights.get(label, 1.0)))
    dist = np.full(graph.n, np.inf)
    dist[source] = 0.0
    for _ in range(graph.n):
        relaxed = np.minimum(dist, (dist[:, None] + w).min(axis=0))
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    return {(v, float(d)) for v, d in enumerate(dist) if d < np.inf}


def _text_query(query) -> str | None:
    """Prebuilt automata / grammar objects have no wire form."""
    return query if isinstance(query, str) else None


def _encode_pairs(pairs: PairSet) -> list[list[int]]:
    # Key order is row-major order: the wire list comes out sorted.
    return np.column_stack((pairs.rows, pairs.cols)).tolist()


def _decode_pairs(value) -> PairSet:
    coo = np.asarray(value, dtype=np.int64).reshape(-1, 2)
    return PairSet.from_coo(coo[:, 0], coo[:, 1])


REACH = QueryKind(
    name="reach",
    plan_kind="rpq",
    needs_source=True,
    evaluate=_eval_reach,
    batch=_batch_reach,
    wire_query=_text_query,
    oracle=lambda graph, query, source: {
        v for _, v in naive_rpq(graph, query, sources=[source])
    },
    encode=lambda reached: sorted(int(v) for v in reached),
    decode=lambda value: frozenset(int(v) for v in value),
)
PAIRS = QueryKind(
    name="pairs",
    plan_kind="rpq",
    needs_source=False,
    evaluate=_warm_or_cold(
        lambda ctx, h, plan, *warm: _incr.rpq_pairs_incremental(plan.nfa, h.n, ctx, *warm),
        lambda ctx, h, plan: _rpq.rpq_index(
            h.graph, plan.nfa, ctx, adjacency=h.query_matrices()
        ),
        lambda index: _incr.pairs_state_from_index(index),
    ),
    wire_query=_text_query,
    oracle=lambda graph, query, source: naive_rpq(graph, query),
    encode=_encode_pairs,
    decode=_decode_pairs,
)
CFPQ = QueryKind(
    name="cfpq",
    plan_kind="cfpq",
    needs_source=False,
    evaluate=_warm_or_cold(
        lambda ctx, h, plan, *warm: _incr.tensor_cfpq_incremental(h.graph, plan.rsm, ctx, *warm),
        lambda ctx, h, plan: _tns.tensor_cfpq(h.graph, plan.rsm, ctx),
        lambda index: _incr.tensor_state_from_index(index),
    ),
    wire_query=_text_query,
    oracle=_oracle_cfpq,
    encode=_encode_pairs,
    decode=_decode_pairs,
)
DIST = QueryKind(
    name="dist",
    plan_kind="dist",
    needs_source=True,
    evaluate=_eval_dist,
    wire_query=lambda query: None,  # no replication path for value answers
    oracle=_oracle_dist,
    warm_starts=False,
)

KINDS: dict[str, QueryKind] = {k.name: k for k in (REACH, PAIRS, CFPQ, DIST)}


def get_kind(name: str) -> QueryKind:
    if name not in KINDS:
        raise InvalidArgumentError(f"unknown query kind {name!r}; available: {sorted(KINDS)}")
    return KINDS[name]
