"""LabeledGraph construction and adjacency tests."""

import pytest

from repro.errors import InvalidArgumentError
from repro.graph import LabeledGraph


class TestLabeledGraph:
    def test_add_edge_bounds(self):
        g = LabeledGraph(n=2)
        with pytest.raises(InvalidArgumentError):
            g.add_edge(0, "a", 5)

    def test_from_triples_infers_n(self):
        g = LabeledGraph.from_triples([(0, "a", 7)])
        assert g.n == 8

    def test_most_frequent_labels(self):
        g = LabeledGraph.from_triples(
            [(0, "a", 1), (0, "a", 2), (1, "b", 2), (0, "c", 1), (1, "c", 0)]
        )
        assert g.most_frequent_labels(2) == ["a", "c"]

    def test_with_inverses_selected(self):
        g = LabeledGraph.from_triples([(0, "a", 1), (1, "b", 0)])
        gi = g.with_inverses(labels=["a"])
        assert "~a" in gi.edges and "~b" not in gi.edges
        assert gi.edges["~a"] == [(1, 0)]

    def test_inverse_label_involutive(self):
        from repro.graph import inverse_label

        assert inverse_label("x") == "~x"
        assert inverse_label("~x") == "x"

    def test_adjacency_matrices(self, cpu_ctx):
        g = LabeledGraph.from_triples([(0, "a", 1), (1, "a", 2), (2, "b", 0)])
        mats = g.adjacency_matrices(cpu_ctx)
        assert mats["a"].nnz == 2 and mats["b"].nnz == 1
        # absent label -> empty matrix
        mats2 = g.adjacency_matrices(cpu_ctx, labels=["zzz"])
        assert mats2["zzz"].nnz == 0

    def test_adjacency_union(self, cpu_ctx):
        g = LabeledGraph.from_triples([(0, "a", 1), (0, "b", 1), (1, "c", 2)])
        u = g.adjacency_union(cpu_ctx)
        assert u.nnz == 2  # (0,1) collapses across labels
