"""RPQ query-automaton construction variants."""

import numpy as np
import pytest

import repro
from repro.errors import InvalidArgumentError
from repro.graph import LabeledGraph
from repro.rpq import naive_rpq, rpq_index, rpq_pairs
from repro.utils.pairset import PairSet


@pytest.fixture
def graph(rng):
    g = LabeledGraph(n=12)
    for lab in "abc":
        for _ in range(20):
            g.add_edge(int(rng.integers(12)), lab, int(rng.integers(12)))
    return g


QUERIES = ["a*", "a . b", "(a | b)+ . c?", "(a . b)* | c+"]


class TestAutomatonModes:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("mode", ["glushkov", "thompson", "mindfa"])
    def test_all_modes_agree(self, cubool_ctx, graph, query, mode):
        baseline = rpq_pairs(graph, query, cubool_ctx)
        idx = rpq_index(graph, query, cubool_ctx, automaton=mode)
        assert idx.pairs() == baseline, (query, mode)
        idx.free()

    def test_mindfa_not_larger_than_thompson(self, cubool_ctx, graph):
        for query in QUERIES:
            thompson = rpq_index(graph, query, cubool_ctx, automaton="thompson")
            mindfa = rpq_index(graph, query, cubool_ctx, automaton="mindfa")
            assert mindfa.k <= thompson.k, query
            thompson.free()
            mindfa.free()

    def test_unknown_mode_rejected(self, cubool_ctx, graph):
        with pytest.raises(InvalidArgumentError):
            rpq_index(graph, "a", cubool_ctx, automaton="magic")

    def test_works_on_every_backend(self, ctx, graph):
        pairs = rpq_pairs(graph, "a . b*", ctx)
        assert isinstance(pairs, PairSet)
        assert pairs == naive_rpq(graph, "a . b*")


class TestIndexInternals:
    def test_stats_fields(self, cubool_ctx, graph):
        idx = rpq_index(graph, "a . b", cubool_ctx)
        for key in (
            "product_time_s",
            "closure_time_s",
            "total_time_s",
            "product_nnz",
            "automaton_states",
        ):
            assert key in idx.stats, key
        assert idx.stats["total_time_s"] >= idx.stats["closure_time_s"]
        idx.free()

    def test_graph_matrices_are_host_copies(self, cubool_ctx, graph):
        idx = rpq_index(graph, "a", cubool_ctx)
        rows, cols = idx.graph_matrices["a"]
        assert isinstance(rows, np.ndarray)
        assert rows.size == len(set(graph.edges["a"]))
        idx.free()

    def test_epsilon_flag(self, cubool_ctx, graph):
        assert rpq_index(graph, "a*", cubool_ctx).matches_epsilon
        assert not rpq_index(graph, "a+", cubool_ctx).matches_epsilon
