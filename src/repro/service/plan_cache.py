"""Compiled-plan cache: canonical query source → reusable plan.

Every RPQ/CFPQ evaluation starts with a compilation pipeline — parse
the regex, build the position automaton, determinize + minimize (or
normalize the grammar and build its RSM).  For a service answering the
same templated queries over and over, that work is pure overhead after
the first request.  :class:`PlanCache` memoizes it behind a canonical
key derived from the *query source* (so formatting differences hash to
the same plan) with LRU eviction and hit/miss/eviction counters.

Plans are immutable once built: the RPQ plan is the **minimized DFA**
(re-exported as an ε-free NFA — the smallest product graph an
equivalent query can produce, which also makes repeated queries cheap
to batch because the plan object is shared by identity); the CFPQ plan
is the query's RSM (plus the wCNF for plain CFGs, used by the matrix
engine).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.locktrace import make_lock
from repro.automata.nfa import NFA
from repro.automata.regex_ast import Regex
from repro.automata.regex_parse import parse_regex
from repro.errors import InvalidArgumentError
from repro.grammar.cfg import CFG
from repro.grammar.rsm import RSM


@dataclass(frozen=True)
class QueryPlan:
    """An executable, cached compilation of one query.

    ``kind`` is ``"rpq"`` (``nfa`` set), ``"cfpq"`` (``rsm`` set,
    ``cfg`` set when the source was a plain grammar) or ``"dist"``
    (neither set — the plan is the validated semiring + label-weight
    assignment in ``meta``).  ``key`` is the canonical cache key
    (``None`` for uncacheable inputs such as prebuilt automata).
    ``compile_time_s`` is what the cache saves on every subsequent
    hit.
    """

    kind: str
    key: str | None
    nfa: NFA | None = None
    rsm: RSM | None = None
    cfg: CFG | None = None
    compile_time_s: float = 0.0
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def states(self) -> int:
        if self.nfa is not None:
            return self.nfa.n
        if self.rsm is not None:
            return sum(box.nfa.n for box in self.rsm.boxes.values())
        return 0


def canonical_rpq_key(query) -> str | None:
    """Canonical cache key for a regular query, or None if uncacheable.

    Strings and ASTs canonicalize through the parsed AST's repr, so
    ``"a|b"`` and ``" a | b "`` share one plan.  Prebuilt NFAs carry no
    source to key on and bypass the cache.
    """
    if isinstance(query, str):
        query = parse_regex(query)
    if isinstance(query, Regex):
        return repr(query)
    if isinstance(query, NFA):
        return None
    raise InvalidArgumentError(
        f"unsupported RPQ query type {type(query).__name__}"
    )


def canonical_cfpq_key(query) -> str | None:
    """Canonical cache key for a context-free query."""
    if isinstance(query, str):
        query = CFG.from_text(query)
    if isinstance(query, CFG):
        return query.to_text()
    if isinstance(query, RSM):
        return None
    raise InvalidArgumentError(
        f"unsupported CFPQ query type {type(query).__name__}"
    )


def dist_query(semiring, weights) -> tuple:
    """Canonical ``(semiring name, weights)`` distance query.

    Resolves ``semiring`` through the registry (unknown algebras raise)
    and normalizes ``weights`` — a label → weight dict, or normalized
    pairs — to a sorted tuple of ``(label, weight)`` pairs or None.
    Only min-plus is evaluable, and only this function says so: it runs
    pre-admission (``submit_distances``) and again at plan compile.
    """
    from repro.core.semiring import get_semiring

    s = get_semiring(semiring)
    if s.name != "min-plus":
        raise InvalidArgumentError(
            f"distance queries require the min-plus semiring, got {s.name!r}"
        )
    pairs = weights.items() if isinstance(weights, dict) else weights or ()
    return s.name, tuple(sorted((str(k), float(v)) for k, v in pairs)) or None


def canonical_dist_key(query) -> str:
    """Canonical cache key for a distance query — a :func:`dist_query`
    tuple, whose repr is already canonical."""
    if (
        not isinstance(query, tuple)
        or len(query) != 2
        or not isinstance(query[0], str)
    ):
        raise InvalidArgumentError(
            "distance query must be a (semiring, weights) tuple"
        )
    name, weights = query
    return f"{name}|{weights!r}"


def compile_dist_plan(query, *, key: str | None = None) -> QueryPlan:
    """Validate a distance query into a plan.

    There is no automaton to build: the plan pins the resolved semiring
    name and normalized weights in ``meta`` so the result cache can tag
    entries by algebra.
    """
    t0 = time.perf_counter()
    name, weights = dist_query(*query)
    return QueryPlan(
        kind="dist",
        key=key,
        compile_time_s=time.perf_counter() - t0,
        meta={"semiring": name, "weights": weights},
    )


def compile_rpq_plan(query, *, key: str | None = None) -> QueryPlan:
    """Compile a regular query down to its minimal automaton."""
    t0 = time.perf_counter()
    if isinstance(query, NFA):
        nfa = query
        meta = {"construction": "prebuilt"}
    else:
        if isinstance(query, str):
            query = parse_regex(query)
        if not isinstance(query, Regex):
            raise InvalidArgumentError(
                f"unsupported RPQ query type {type(query).__name__}"
            )
        from repro.automata.dfa import determinize, minimize
        from repro.automata.glushkov import glushkov_nfa

        glushkov = glushkov_nfa(query)
        nfa = minimize(determinize(glushkov)).to_nfa()
        meta = {"construction": "mindfa", "glushkov_states": glushkov.n}
    return QueryPlan(
        kind="rpq",
        key=key,
        nfa=nfa,
        compile_time_s=time.perf_counter() - t0,
        meta=meta,
    )


def compile_cfpq_plan(query, *, key: str | None = None) -> QueryPlan:
    """Compile a context-free query to its RSM (and wCNF if a CFG)."""
    from repro.cfpq.engine import as_rsm

    t0 = time.perf_counter()
    cfg = None
    if isinstance(query, str):
        query = CFG.from_text(query)
    if isinstance(query, CFG):
        cfg = query
        from repro.grammar.cnf import cached_wcnf

        cached_wcnf(cfg)  # warm the wCNF for the matrix engine
    rsm = as_rsm(query)
    return QueryPlan(
        kind="cfpq",
        key=key,
        rsm=rsm,
        cfg=cfg,
        compile_time_s=time.perf_counter() - t0,
    )


#: plan kind -> (canonical key, compile).
PLAN_KINDS = {
    "rpq": (canonical_rpq_key, compile_rpq_plan),
    "cfpq": (canonical_cfpq_key, compile_cfpq_plan),
    "dist": (canonical_dist_key, compile_dist_plan),
}


class PlanCache:
    """Thread-safe LRU cache of :class:`QueryPlan` objects.

    ``capacity`` bounds the entry count; the least-recently-*used*
    entry is evicted (hits refresh recency).  Counters are cumulative
    for the cache's lifetime and exposed via :meth:`stats` — the
    service's E12 acceptance asserts a repeated query costs zero
    recompilation by reading them.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise InvalidArgumentError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = make_lock("PlanCache._lock")
        self._entries: OrderedDict = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, kind: str, query) -> QueryPlan:
        """Return the cached plan for ``query``, compiling on miss.

        Uncacheable queries (prebuilt NFA/RSM objects) are compiled
        fresh each call and never stored; they count as neither hit nor
        miss.
        """
        if kind not in PLAN_KINDS:
            raise InvalidArgumentError(f"unknown plan kind {kind!r}")
        canonical_key, compile_fn = PLAN_KINDS[kind]
        key = canonical_key(query)

        if key is not None:
            with self._lock:
                plan = self._entries.get((kind, key))
                if plan is not None:
                    self.hits += 1
                    self._entries.move_to_end((kind, key))
                    return plan
                self.misses += 1

        plan = compile_fn(query, key=key)

        if key is not None:
            with self._lock:
                if (kind, key) not in self._entries:
                    self._entries[(kind, key)] = plan
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                else:
                    # Lost a compile race: reuse the incumbent so
                    # identical queries keep sharing one plan object.
                    self._entries.move_to_end((kind, key))
                    plan = self._entries[(kind, key)]
        return plan

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_ratio": self.hits / lookups if lookups else 0.0,
            }
