"""Nondeterministic finite automata.

:class:`NFA` is the engine-facing representation: integer states,
label → transition-pair lists, start/final state sets, no epsilon
transitions (constructions eliminate them).  :func:`thompson_nfa`
compiles a regex AST via Thompson's construction followed by epsilon
closure elimination.

``transition_matrices`` lowers the automaton to one boolean matrix per
symbol — the query-side operand of the RPQ Kronecker product.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.automata.regex_ast import (
    Concat,
    Empty,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)
from repro.errors import InvalidArgumentError


@dataclass
class NFA:
    """Epsilon-free NFA with integer states ``0..n-1``."""

    n: int
    starts: frozenset[int]
    finals: frozenset[int]
    transitions: dict = field(default_factory=dict)  # label -> list[(s, t)]

    def __post_init__(self) -> None:
        for s in self.starts | self.finals:
            if not 0 <= s < self.n:
                raise InvalidArgumentError(f"state {s} outside [0, {self.n})")
        clean = defaultdict(list)
        for label, pairs in self.transitions.items():
            for s, t in pairs:
                if not (0 <= s < self.n and 0 <= t < self.n):
                    raise InvalidArgumentError(f"transition ({s},{t}) out of range")
                clean[label].append((int(s), int(t)))
        self.transitions = dict(clean)

    # -- introspection ---------------------------------------------------

    @property
    def labels(self) -> list[str]:
        return sorted(self.transitions)

    @property
    def num_transitions(self) -> int:
        return sum(len(p) for p in self.transitions.values())

    def accepts(self, word) -> bool:
        """Subset simulation (test oracle)."""
        current = set(self.starts)
        for sym in word:
            step = {
                t for s, t in self.transitions.get(sym, ()) if s in current
            }
            current = step
            if not current:
                return False
        return bool(current & self.finals)

    # -- transforms --------------------------------------------------------

    def reverse(self) -> "NFA":
        """Language-reversal automaton."""
        rev = {
            label: [(t, s) for s, t in pairs]
            for label, pairs in self.transitions.items()
        }
        return NFA(self.n, self.finals, self.starts, rev)

    def renumbered(self, offset: int, total: int) -> "NFA":
        """Copy with all states shifted by ``offset`` inside ``total`` states."""
        return NFA(
            total,
            frozenset(s + offset for s in self.starts),
            frozenset(s + offset for s in self.finals),
            {
                label: [(s + offset, t + offset) for s, t in pairs]
                for label, pairs in self.transitions.items()
            },
        )

    # -- lowering ----------------------------------------------------------

    def transition_matrices(self, ctx, labels=None) -> dict:
        """One boolean ``n x n`` matrix per symbol on the given context
        (all of them, or none if an upload fails)."""
        wanted = list(labels) if labels is not None else self.labels
        out = {}
        try:
            for label in wanted:
                pairs = self.transitions.get(label, [])
                if pairs:
                    arr = np.asarray(pairs, dtype=np.int64)
                    out[label] = ctx.matrix_from_lists((self.n, self.n), arr[:, 0], arr[:, 1])
                else:
                    out[label] = ctx.matrix_empty((self.n, self.n))
        except BaseException:
            for mat in out.values():
                mat.free()
            raise
        return out


# -- Thompson construction ---------------------------------------------------


class _Frag:
    """Fragment with one start, one accept, epsilon edges allowed."""

    __slots__ = ("start", "accept")

    def __init__(self, start: int, accept: int):
        self.start = start
        self.accept = accept


class _Builder:
    def __init__(self) -> None:
        self.count = 0
        self.eps: list[tuple[int, int]] = []
        self.sym: dict[str, list[tuple[int, int]]] = defaultdict(list)

    def new_state(self) -> int:
        s = self.count
        self.count += 1
        return s

    def build(self, node: Regex) -> _Frag:
        if isinstance(node, Empty):
            return _Frag(self.new_state(), self.new_state())
        if isinstance(node, Epsilon):
            s, t = self.new_state(), self.new_state()
            self.eps.append((s, t))
            return _Frag(s, t)
        if isinstance(node, Symbol):
            s, t = self.new_state(), self.new_state()
            self.sym[node.name].append((s, t))
            return _Frag(s, t)
        if isinstance(node, Concat):
            a = self.build(node.left)
            b = self.build(node.right)
            self.eps.append((a.accept, b.start))
            return _Frag(a.start, b.accept)
        if isinstance(node, Union):
            a = self.build(node.left)
            b = self.build(node.right)
            s, t = self.new_state(), self.new_state()
            self.eps += [(s, a.start), (s, b.start), (a.accept, t), (b.accept, t)]
            return _Frag(s, t)
        if isinstance(node, Star):
            a = self.build(node.inner)
            s, t = self.new_state(), self.new_state()
            self.eps += [(s, a.start), (s, t), (a.accept, a.start), (a.accept, t)]
            return _Frag(s, t)
        if isinstance(node, Plus):
            a = self.build(node.inner)
            s, t = self.new_state(), self.new_state()
            self.eps += [(s, a.start), (a.accept, a.start), (a.accept, t)]
            return _Frag(s, t)
        if isinstance(node, Optional):
            a = self.build(node.inner)
            s, t = self.new_state(), self.new_state()
            self.eps += [(s, a.start), (s, t), (a.accept, t)]
            return _Frag(s, t)
        raise InvalidArgumentError(f"unknown regex node {type(node).__name__}")


def thompson_nfa(node: Regex) -> NFA:
    """Compile a regex into an epsilon-free NFA (Thompson + ε-elimination).

    Epsilon elimination: compute ε-closures (boolean closure of the
    ε-edge relation), then pull symbol transitions through closures and
    propagate finality backwards.
    """
    builder = _Builder()
    frag = builder.build(node)
    n = builder.count
    if n == 0:
        # Pure-epsilon or empty expression with zero states.
        return NFA(1, frozenset({0}), frozenset({0} if node.nullable() else ()), {})

    # ε-closure via dense boolean closure (query automata are tiny).
    closure = np.eye(n, dtype=bool)
    for s, t in builder.eps:
        closure[s, t] = True
    while True:
        nxt = closure | (closure @ closure)
        if np.array_equal(nxt, closure):
            break
        closure = nxt

    transitions: dict[str, list[tuple[int, int]]] = {}
    for label, pairs in builder.sym.items():
        out = set()
        for s, t in pairs:
            # u --ε*--> s --label--> t --ε*--> v  becomes  u --label--> v's ε-closure start t
            sources = np.nonzero(closure[:, s])[0]
            for u in sources.tolist():
                out.add((u, t))
        transitions[label] = sorted(out)

    finals = frozenset(np.nonzero(closure[:, frag.accept])[0].tolist())
    starts = frozenset({frag.start})
    nfa = NFA(n, starts, finals, transitions)
    return _trim(nfa)


def _trim(nfa: NFA) -> NFA:
    """Drop states unreachable from starts or not co-reachable to finals."""
    fwd = _reach(nfa.n, nfa.starts, nfa.transitions, forward=True)
    bwd = _reach(nfa.n, nfa.finals, nfa.transitions, forward=False)
    alive = sorted(fwd & bwd)
    if not alive:
        return NFA(1, frozenset({0}), frozenset(), {})
    remap = {old: new for new, old in enumerate(alive)}
    keep = set(alive)
    return NFA(
        len(alive),
        frozenset(remap[s] for s in nfa.starts if s in keep),
        frozenset(remap[s] for s in nfa.finals if s in keep),
        {
            label: [
                (remap[s], remap[t])
                for s, t in pairs
                if s in keep and t in keep
            ]
            for label, pairs in nfa.transitions.items()
        },
    )


def _reach(n: int, seeds, transitions, *, forward: bool) -> set[int]:
    adj = defaultdict(list)
    for pairs in transitions.values():
        for s, t in pairs:
            if forward:
                adj[s].append(t)
            else:
                adj[t].append(s)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen
