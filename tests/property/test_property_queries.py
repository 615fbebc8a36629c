"""Property-based tests: query engines vs. independent oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.automata import glushkov_nfa, parse_regex, thompson_nfa
from repro.cfpq import matrix_cfpq, naive_cfpq, tensor_cfpq
from repro.grammar import CFG
from repro.rpq import rpq_pairs
from repro.service.kinds import PAIRS
from tests.property.conftest import random_graph

CTX = repro.Context(backend="cubool")


@st.composite
def regex_ast_text(draw, depth=3):
    """A random small regex over {a, b}."""
    if depth == 0:
        return draw(st.sampled_from(["a", "b"]))
    kind = draw(st.sampled_from(["sym", "concat", "union", "star", "plus", "opt"]))
    if kind == "sym":
        return draw(st.sampled_from(["a", "b"]))
    if kind == "concat":
        return f"({draw(regex_ast_text(depth=depth - 1))} . {draw(regex_ast_text(depth=depth - 1))})"
    if kind == "union":
        return f"({draw(regex_ast_text(depth=depth - 1))} | {draw(regex_ast_text(depth=depth - 1))})"
    inner = draw(regex_ast_text(depth=depth - 1))
    op = {"star": "*", "plus": "+", "opt": "?"}[kind]
    return f"({inner}){op}"


@settings(max_examples=25, deadline=None)
@given(random_graph(max_n=8), regex_ast_text())
def test_rpq_matches_product_bfs(graph, regex):
    assert rpq_pairs(graph, regex, CTX) == PAIRS.oracle(graph, regex, None)


@settings(max_examples=25, deadline=None)
@given(regex_ast_text(), st.lists(st.sampled_from(["a", "b"]), max_size=5))
def test_construction_agreement_on_words(regex, word):
    node = parse_regex(regex)
    assert thompson_nfa(node).accepts(word) == glushkov_nfa(node).accepts(word)


GRAMMARS = [
    CFG.from_text("S -> a S b | a b"),
    CFG.from_text("S -> a S b S | eps"),
    CFG.from_text("S -> S S | a | b"),
    CFG.from_text("S -> a S | b"),
]


@settings(max_examples=20, deadline=None)
@given(random_graph(max_n=6), st.sampled_from(GRAMMARS))
def test_cfpq_engines_match_oracle(graph, grammar):
    ref = naive_cfpq(graph, grammar)[grammar.start]
    mi = matrix_cfpq(graph, grammar, CTX)
    ti = tensor_cfpq(graph, grammar, CTX)
    try:
        assert mi.pairs() == ref
        assert ti.pairs() == ref
    finally:
        mi.free()
        ti.free()


@settings(max_examples=15, deadline=None)
@given(random_graph(max_n=6))
def test_rpq_as_cfpq_is_consistent(graph):
    """A regular query evaluated by the CFPQ tensor engine must equal
    the RPQ engine's answer minus nothing (the unification property)."""
    from repro.grammar.rsm import RSM

    regex = "a . b*"
    rsm = RSM.from_regex_rules("S", {"S": regex})
    ti = tensor_cfpq(graph, rsm, CTX)
    try:
        assert ti.pairs() == PAIRS.oracle(graph, regex, None)
    finally:
        ti.free()


@settings(max_examples=20, deadline=None)
@given(random_graph(max_n=6))
def test_closure_is_idempotent(graph):
    from repro.algorithms import transitive_closure

    a = graph.adjacency_union(CTX)
    c1 = transitive_closure(a)
    c2 = transitive_closure(c1)
    assert c1.equals(c2)
