"""RPQ engine tests: Kronecker index vs. the product-BFS oracle."""

import pytest

from repro.automata import glushkov_nfa, parse_regex
from repro.datasets import RPQ_TEMPLATES, generate_rpq_queries, instantiate_template
from repro.errors import InvalidArgumentError
from repro.graph import LabeledGraph
from repro.rpq import extract_paths, rpq_index, rpq_pairs
from repro.service.kinds import PAIRS


@pytest.fixture
def small_graph(rng):
    g = LabeledGraph(n=10)
    for label in "abcd":
        for _ in range(15):
            g.add_edge(int(rng.integers(10)), label, int(rng.integers(10)))
    return g


class TestPairs:
    QUERIES = ["a*", "a . b*", "(a | b)+", "a . b", "a? . b*", "(a | b)+ . (c | d)+"]

    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_brute_force(self, ctx, small_graph, query):
        assert rpq_pairs(small_graph, query, ctx) == PAIRS.oracle(small_graph, query, None)

    def test_epsilon_query_matches_identity(self, cubool_ctx, small_graph):
        pairs = rpq_pairs(small_graph, "a*", cubool_ctx)
        for v in range(small_graph.n):
            assert (v, v) in pairs

    def test_query_with_absent_label(self, cubool_ctx, small_graph):
        pairs = rpq_pairs(small_graph, "zzz", cubool_ctx)
        assert pairs == set()

    def test_accepts_prebuilt_nfa(self, cubool_ctx, small_graph):
        nfa = glushkov_nfa(parse_regex("a . b"))
        idx = rpq_index(small_graph, nfa, cubool_ctx)
        assert idx.pairs() == rpq_pairs(small_graph, "a . b", cubool_ctx)
        idx.free()

    def test_reachable_from(self, cubool_ctx, small_graph):
        idx = rpq_index(small_graph, "a+", cubool_ctx)
        all_pairs = idx.pairs()
        assert idx.reachable_from(0) == {v for u, v in all_pairs if u == 0}
        idx.free()

    def test_bad_query_type(self, cubool_ctx, small_graph):
        with pytest.raises(InvalidArgumentError):
            rpq_index(small_graph, 42, cubool_ctx)

    def test_stats_populated(self, cubool_ctx, small_graph):
        idx = rpq_index(small_graph, "a . b*", cubool_ctx)
        assert idx.stats["total_time_s"] > 0
        assert idx.stats["automaton_states"] == idx.nfa.n
        idx.free()


class TestPathExtraction:
    def test_paths_match_query_language(self, cubool_ctx):
        g = LabeledGraph(n=5)
        g.add_edge(0, "a", 1)
        g.add_edge(1, "b", 2)
        g.add_edge(2, "b", 3)
        g.add_edge(1, "b", 3)
        g.add_edge(3, "c", 4)
        idx = rpq_index(g, "a . b* . c", cubool_ctx)
        paths = extract_paths(idx, 0, 4, max_paths=10)
        nfa = glushkov_nfa(parse_regex("a . b* . c"))
        assert len(paths) == 2
        for p in paths:
            assert nfa.accepts(p.labels)
            assert p.vertices[0] == 0 and p.vertices[-1] == 4
            # labels consistent with actual edges
            for (u, v, lab) in zip(p.vertices, p.vertices[1:], p.labels):
                assert (u, v) in g.edges[lab]
        idx.free()

    def test_max_paths_respected(self, cubool_ctx):
        g = LabeledGraph(n=2)
        g.add_edge(0, "a", 0)
        g.add_edge(0, "a", 1)
        idx = rpq_index(g, "a+", cubool_ctx)
        paths = extract_paths(idx, 0, 1, max_paths=3, max_length=10)
        assert len(paths) == 3
        idx.free()

    def test_max_length_respected(self, cubool_ctx):
        from repro.datasets import chain_graph

        g = chain_graph(30)
        idx = rpq_index(g, "a+", cubool_ctx)
        paths = extract_paths(idx, 0, 25, max_paths=10, max_length=20)
        assert paths == []  # only path has 25 edges > 20
        paths = extract_paths(idx, 0, 5, max_paths=10, max_length=20)
        assert len(paths) == 1 and len(paths[0]) == 5
        idx.free()

    def test_no_path(self, cubool_ctx):
        g = LabeledGraph(n=3)
        g.add_edge(0, "a", 1)
        idx = rpq_index(g, "a", cubool_ctx)
        assert extract_paths(idx, 1, 0) == []
        idx.free()

    def test_epsilon_path(self, cubool_ctx):
        g = LabeledGraph(n=2)
        g.add_edge(0, "a", 1)
        idx = rpq_index(g, "a*", cubool_ctx)
        paths = extract_paths(idx, 1, 1)
        assert any(len(p) == 0 for p in paths)
        idx.free()

    def test_bounds_checked(self, cubool_ctx, small_graph):
        idx = rpq_index(small_graph, "a", cubool_ctx)
        with pytest.raises(InvalidArgumentError):
            extract_paths(idx, -1, 0)
        idx.free()


class TestTemplates:
    def test_all_templates_parse(self):
        symbols = ["s0", "s1", "s2", "s3", "s4", "s5"]
        for name in RPQ_TEMPLATES:
            regex = instantiate_template(name, symbols)
            node = parse_regex(regex)
            glushkov_nfa(node)  # no raise

    def test_template_arity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            instantiate_template("Q14", ["a"])

    def test_unknown_template(self):
        with pytest.raises(InvalidArgumentError):
            instantiate_template("Q99", ["a"])

    def test_generate_queries_deterministic(self, small_graph):
        q1 = generate_rpq_queries(small_graph, per_template=2, seed=5)
        q2 = generate_rpq_queries(small_graph, per_template=2, seed=5)
        assert q1 == q2
        assert len(q1) == 2 * len(RPQ_TEMPLATES)

    def test_generated_queries_use_graph_labels(self, small_graph):
        queries = generate_rpq_queries(small_graph, per_template=1, seed=0)
        labels = set(small_graph.labels)
        for _, regex in queries:
            assert parse_regex(regex).symbols() <= labels

    def test_all_generated_queries_evaluate(self, cubool_ctx, small_graph):
        for name, regex in generate_rpq_queries(
            small_graph, per_template=1, seed=1
        ):
            rpq_pairs(small_graph, regex, cubool_ctx)  # no raise
