"""Host-only RPQ reference: breadth-first search over the product graph.

The oracle the query-kind table (:mod:`repro.service.kinds`) and the
tests check the RPQ engines against.  It builds no matrix and needs no
context: the query compiles straight to its Glushkov automaton (never
through the service's plan cache), and reachability is a plain BFS over
``(automaton state, vertex)`` pairs, so a bug in the Kronecker/closure
engines cannot hide in it.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.automata.glushkov import glushkov_nfa
from repro.automata.nfa import NFA
from repro.automata.regex_ast import Regex
from repro.automata.regex_parse import parse_regex
from repro.errors import InvalidArgumentError
from repro.graph import LabeledGraph


def naive_rpq(graph: LabeledGraph, query, sources=None) -> set[tuple[int, int]]:
    """Every ``(u, v)`` joined by a path whose labels spell a word of ``query``.

    ``query`` is a regex string, AST or prebuilt NFA; ``sources`` limits
    ``u`` (default: every vertex).  The empty word matches ``(u, u)``.
    """
    if isinstance(query, str):
        query = parse_regex(query)
    if isinstance(query, Regex):
        query = glushkov_nfa(query)
    if not isinstance(query, NFA):
        raise InvalidArgumentError(f"unsupported query type {type(query).__name__}")
    moves = defaultdict(list)  # state -> [(label, next state)]
    for label, pairs in query.transitions.items():
        for s, t in pairs:
            moves[s].append((label, t))
    adj = defaultdict(list)  # (label, vertex) -> [successor]
    for label, pairs in graph.edges.items():
        for u, v in pairs:
            adj[label, u].append(v)

    out = set()
    for u in range(graph.n) if sources is None else sources:
        seen = {(s, u) for s in query.starts}
        queue = deque(seen)
        while queue:
            s, v = queue.popleft()
            if s in query.finals:
                out.add((u, v))
            for label, t in moves.get(s, ()):
                for w in adj.get((label, v), ()):
                    if (t, w) not in seen:
                        seen.add((t, w))
                        queue.append((t, w))
    return out
