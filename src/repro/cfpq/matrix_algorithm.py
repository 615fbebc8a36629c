"""Azimov's matrix-based CFPQ algorithm (**Mtx** in Table IV).

For a wCNF grammar, maintain one boolean ``n × n`` matrix ``T_A`` per
nonterminal whose pattern is the fact set "A derives a path u → v";
iterate the binary rules as boolean multiply-adds

    ``T_A += T_B · T_C``

until no matrix grows.  Every step maps directly onto the library's
``mxm``-with-accumulate primitive — this algorithm is *why* SPbLA's API
has that operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidArgumentError
from repro.grammar.cfg import CFG
from repro.grammar.cnf import cached_wcnf
from repro.graph import LabeledGraph
from repro.utils.pairset import PairSet


@dataclass
class MatrixIndex:
    """Result of the matrix algorithm: per-nonterminal fact matrices."""

    grammar: CFG              # the wCNF actually iterated
    original_start: str
    matrices: dict            # nonterminal -> Matrix (n x n)
    ctx: object
    stats: dict = field(default_factory=dict)
    witnesses: object = None  # WitnessTable when record_witnesses=True

    def pairs(self, nonterminal: str | None = None) -> PairSet:
        """Fact pairs for a nonterminal (default: the query start)."""
        key = nonterminal
        if key is None:
            key = self.grammar.start  # wCNF start aliases the original
        if key == self.original_start and key not in self.matrices:
            key = self.grammar.start
        if key not in self.matrices:
            raise InvalidArgumentError(f"unknown nonterminal {key!r}")
        return PairSet.from_coo(*self.matrices[key].to_arrays())

    def extract_single_path(
        self, u: int, v: int, nonterminal: str | None = None
    ):
        """Reconstruct the one witnessed path for a fact (single-path
        semantics, Azimov-style).  Requires ``record_witnesses=True``."""
        from repro.errors import InvalidStateError

        if self.witnesses is None:
            raise InvalidStateError(
                "run matrix_cfpq(..., record_witnesses=True) to extract paths"
            )
        nt = nonterminal or self.grammar.start
        if nt == self.original_start and not any(
            key[0] == nt for key in self.witnesses._table
        ):
            nt = self.grammar.start
        return self.witnesses.reconstruct(nt, int(u), int(v))

    def free(self) -> None:
        for m in self.matrices.values():
            m.free()
        self.matrices.clear()


def matrix_cfpq(
    graph: LabeledGraph,
    grammar: CFG,
    ctx,
    *,
    record_witnesses: bool = False,
    warm_start: dict | None = None,
) -> MatrixIndex:
    """Run Azimov's algorithm; the timed "index creation" of Table IV.

    ``record_witnesses=True`` additionally builds the single-path
    witness table (a post-pass; excluded from ``stats["time_s"]`` so the
    benchmark times match the paper's reachability-only measurement).

    ``warm_start`` maps nonterminal → host ``(rows, cols)`` fact pairs
    from a previous fixed point (see :mod:`repro.incr`): the matrices
    are seeded with them, so after an adds-only edge delta the fixpoint
    only derives the facts the new edges enable.  Seeding facts that no
    longer derive (i.e. after a removal) is the caller's bug — the loop
    is monotone and will happily keep them.
    """
    t0 = time.perf_counter()
    wcnf = cached_wcnf(grammar)
    n = graph.n

    matrices = {nt: ctx.matrix_empty((n, n)) for nt in wcnf.nonterminals}
    if warm_start:
        for nt, (w_rows, w_cols) in warm_start.items():
            if nt not in matrices or not len(w_rows):
                continue
            seed = ctx.matrix_from_lists((n, n), w_rows, w_cols)
            merged = matrices[nt].ewise_add(seed)
            seed.free()
            matrices[nt].free()
            matrices[nt] = merged

    # Seed terminal rules and the epsilon rule.
    binary_rules: list[tuple[str, str, str]] = []
    for p in wcnf.productions:
        if len(p.rhs) == 1:
            label = p.rhs[0]
            pairs = graph.edges.get(label, [])
            if pairs:
                arr = np.asarray(pairs, dtype=np.int64)
                seed = ctx.matrix_from_lists((n, n), arr[:, 0], arr[:, 1])
                merged = matrices[p.lhs].ewise_add(seed)
                seed.free()
                matrices[p.lhs].free()
                matrices[p.lhs] = merged
        elif len(p.rhs) == 2:
            binary_rules.append((p.lhs, p.rhs[0], p.rhs[1]))
        else:  # S -> eps
            eye = ctx.identity(n)
            merged = matrices[p.lhs].ewise_add(eye)
            eye.free()
            matrices[p.lhs].free()
            matrices[p.lhs] = merged

    # Fixpoint iteration over binary rules.  The hint lets the hybrid
    # backend keep densifying fact matrices resident in bit form.
    iterations = 0
    changed = True
    with ctx.backend.fixpoint():
        while changed:
            changed = False
            iterations += 1
            for lhs, b, c in binary_rules:
                before = matrices[lhs].nnz
                updated = matrices[b].mxm(matrices[c], accumulate=matrices[lhs])
                if updated.nnz != before:
                    changed = True
                matrices[lhs].free()
                matrices[lhs] = updated

    elapsed = time.perf_counter() - t0

    witnesses = None
    if record_witnesses:
        from repro.cfpq.witnesses import build_witnesses

        fact_arrays = {
            nt: m.to_arrays() for nt, m in matrices.items()
        }
        witnesses = build_witnesses(wcnf, graph, fact_arrays, n)

    return MatrixIndex(
        grammar=wcnf,
        original_start=grammar.start,
        matrices=matrices,
        ctx=ctx,
        stats={
            "time_s": elapsed,
            "iterations": iterations,
            "wcnf_rules": len(wcnf.productions),
            "original_rules": len(grammar.productions),
            "nonterminals": len(wcnf.nonterminals),
            "warm_started": bool(warm_start),
        },
        witnesses=witnesses,
    )
