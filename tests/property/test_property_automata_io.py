"""Property tests: automata semantics."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    determinize,
    glushkov_nfa,
    minimize,
    parse_regex,
    thompson_nfa,
)


@st.composite
def regex_text(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from(["a", "b", "c"]))
    kind = draw(
        st.sampled_from(["sym", "sym", "concat", "union", "star", "plus", "opt"])
    )
    if kind == "sym":
        return draw(st.sampled_from(["a", "b", "c"]))
    if kind == "concat":
        return (
            f"({draw(regex_text(depth=depth - 1))} . "
            f"{draw(regex_text(depth=depth - 1))})"
        )
    if kind == "union":
        return (
            f"({draw(regex_text(depth=depth - 1))} | "
            f"{draw(regex_text(depth=depth - 1))})"
        )
    op = {"star": "*", "plus": "+", "opt": "?"}[kind]
    return f"({draw(regex_text(depth=depth - 1))}){op}"


def lang(nfa, maxlen=3, alphabet="abc"):
    return {
        w
        for k in range(maxlen + 1)
        for w in itertools.product(alphabet, repeat=k)
        if nfa.accepts(w)
    }


@settings(max_examples=40, deadline=None)
@given(regex_text())
def test_constructions_agree(text):
    node = parse_regex(text)
    g = glushkov_nfa(node)
    t = thompson_nfa(node)
    assert lang(g) == lang(t)


@settings(max_examples=30, deadline=None)
@given(regex_text())
def test_determinize_minimize_preserve(text):
    node = parse_regex(text)
    g = glushkov_nfa(node)
    d = determinize(g)
    m = minimize(d)
    assert lang(g) == lang(d.to_nfa()) == lang(m.to_nfa())
    assert m.n <= d.n


@settings(max_examples=40, deadline=None)
@given(regex_text())
def test_to_string_round_trip(text):
    node = parse_regex(text)
    again = parse_regex(node.to_string())
    assert lang(glushkov_nfa(node)) == lang(glushkov_nfa(again))


@settings(max_examples=40, deadline=None)
@given(regex_text())
def test_nullable_matches_acceptance(text):
    node = parse_regex(text)
    assert node.nullable() == glushkov_nfa(node).accepts(())
