"""Graph-algorithm tests against NetworkX oracles."""

import networkx as nx
import numpy as np
import pytest

import repro
from repro.algorithms import (
    bfs_levels,
    connected_components,
    incremental_transitive_closure,
    reachable_from,
    reachable_pairs,
    transitive_closure,
    triangle_count,
)
from repro.errors import DeviceMemoryError, InvalidArgumentError

from .conftest import FailingAlloc, random_dense


def nx_closure(d: np.ndarray) -> np.ndarray:
    g = nx.from_numpy_array(d, create_using=nx.DiGraph)
    tc = nx.transitive_closure(g, reflexive=False)
    out = np.zeros(d.shape, dtype=bool)
    for u, v in tc.edges():
        out[u, v] = True
    return out


@pytest.fixture
def digraph(rng):
    n = 18
    d = random_dense(rng, (n, n), 0.07)
    np.fill_diagonal(d, False)
    return d


def _seminaive_closure(a):
    """Cold closure as a warm start from nothing: the semi-naive loop
    with the edges themselves as the first frontier."""
    return incremental_transitive_closure(a.context.matrix_empty(a.shape), a)


class TestClosure:
    @pytest.mark.parametrize(
        "closure",
        [transitive_closure, _seminaive_closure],
        ids=["squaring", "seminaive"],
    )
    def test_matches_networkx(self, ctx, rng, digraph, closure):
        a = ctx.matrix_from_dense(digraph)
        c = closure(a)
        assert np.array_equal(c.to_dense(), nx_closure(digraph))

    def test_reflexive(self, ctx, digraph):
        a = ctx.matrix_from_dense(digraph)
        c = transitive_closure(a, reflexive=True)
        ref = nx_closure(digraph) | np.eye(len(digraph), dtype=bool)
        assert np.array_equal(c.to_dense(), ref)

    def test_empty_graph(self, ctx):
        c = transitive_closure(ctx.matrix_empty((5, 5)))
        assert c.nnz == 0

    def test_non_square_rejected(self, ctx):
        with pytest.raises(InvalidArgumentError):
            transitive_closure(ctx.matrix_empty((2, 3)))

    def test_method_knob_removed(self, ctx):
        # Squaring is the one cold strategy; the semi-naive loop is
        # reached through incremental_transitive_closure.
        with pytest.raises(TypeError):
            transitive_closure(ctx.identity(2), method="naive")

    def test_chain_closure_size(self, ctx):
        from repro.datasets import chain_graph

        g = chain_graph(20)
        a = g.adjacency_union(ctx)
        c = transitive_closure(a)
        assert c.nnz == 20 * 19 // 2  # all (i, j) with i < j


    @pytest.mark.parametrize("reflexive", [False, True], ids=["strict", "reflexive"])
    def test_failed_allocation_frees_its_matrices(self, rng, reflexive):
        """Whichever arena allocation fails, the error leaves nothing
        charged while its traceback is still held."""
        # Pure sparse whatever REPRO_HYBRID says: every injected failure
        # must raise (the hybrid route may absorb one by falling back).
        ctx = repro.Context(backend="cubool", hybrid=False)
        a = ctx.matrix_from_dense(random_dense(rng, (30, 30), 0.05))
        arena = ctx.device.arena
        alloc = arena.alloc
        arena.alloc = counting = FailingAlloc(alloc, 0)
        transitive_closure(a, reflexive=reflexive).free()
        baseline = arena.live_bytes
        try:
            for k in range(1, counting.calls + 1):
                arena.alloc = FailingAlloc(alloc, k)
                with pytest.raises(DeviceMemoryError) as info:
                    transitive_closure(a, reflexive=reflexive)
                assert arena.live_bytes == baseline, (k, info.value)
        finally:
            arena.alloc = alloc
        a.free()
        ctx.finalize()


class TestIncrementalClosure:
    def test_matches_full_recompute(self, ctx, rng):
        for _ in range(5):
            n = 14
            d1 = random_dense(rng, (n, n), 0.06)
            d2 = random_dense(rng, (n, n), 0.04)
            np.fill_diagonal(d1, False)
            np.fill_diagonal(d2, False)
            base = transitive_closure(ctx.matrix_from_dense(d1))
            inc = incremental_transitive_closure(base, ctx.matrix_from_dense(d2))
            assert np.array_equal(inc.to_dense(), nx_closure(d1 | d2))

    def test_empty_delta_is_noop(self, ctx, rng, digraph):
        base = transitive_closure(ctx.matrix_from_dense(digraph))
        inc = incremental_transitive_closure(base, ctx.matrix_empty(base.shape))
        assert inc.to_dense().tolist() == base.to_dense().tolist()

    def test_shape_mismatch(self, ctx):
        base = ctx.identity(3)
        with pytest.raises(InvalidArgumentError):
            incremental_transitive_closure(base, ctx.matrix_empty((4, 4)))


class TestBfs:
    def test_matches_networkx(self, ctx, digraph):
        a = ctx.matrix_from_dense(digraph)
        levels = bfs_levels(a, 0)
        g = nx.from_numpy_array(digraph, create_using=nx.DiGraph)
        sp = nx.single_source_shortest_path_length(g, 0)
        for v in range(len(digraph)):
            assert levels[v] == sp.get(v, -1)

    def test_isolated_source(self, ctx):
        a = ctx.matrix_empty((4, 4))
        levels = bfs_levels(a, 2)
        assert levels.tolist() == [-1, -1, 0, -1]

    def test_bad_source(self, ctx):
        with pytest.raises(InvalidArgumentError):
            bfs_levels(ctx.identity(3), 3)


class TestReachability:
    def test_reachable_from_multi_source(self, ctx, digraph):
        a = ctx.matrix_from_dense(digraph)
        got = set(reachable_from(a, [0, 1]).tolist())
        ref = nx_closure(digraph)
        expected = {v for v in range(len(digraph)) if ref[0, v] or ref[1, v]}
        assert got == expected

    def test_reachable_pairs_counts_closure(self, ctx, digraph):
        a = ctx.matrix_from_dense(digraph)
        assert reachable_pairs(a) == int(nx_closure(digraph).sum())

    def test_bad_source(self, ctx):
        with pytest.raises(InvalidArgumentError):
            reachable_from(ctx.identity(2), [5])


class TestComponents:
    def test_matches_networkx(self, ctx, rng):
        n = 25
        d = random_dense(rng, (n, n), 0.04)
        np.fill_diagonal(d, False)
        a = ctx.matrix_from_dense(d)
        comp = connected_components(a)
        g = nx.from_numpy_array(d, create_using=nx.DiGraph)
        for cc in nx.weakly_connected_components(g):
            ids = {comp[v] for v in cc}
            assert len(ids) == 1
            assert min(cc) in ids

    def test_all_isolated(self, ctx):
        comp = connected_components(ctx.matrix_empty((4, 4)))
        assert comp.tolist() == [0, 1, 2, 3]


class TestTriangles:
    def test_matches_networkx_undirected(self, ctx, rng):
        n = 16
        d = random_dense(rng, (n, n), 0.25)
        np.fill_diagonal(d, False)
        a = ctx.matrix_from_dense(d)
        und = nx.Graph((d | d.T))
        und.remove_edges_from(nx.selfloop_edges(und))
        ref = sum(nx.triangles(und).values()) // 3
        assert triangle_count(a) == ref

    def test_directed_cycle(self, ctx):
        a = ctx.matrix_from_lists((3, 3), [0, 1, 2], [1, 2, 0])
        assert triangle_count(a, directed=True) == 1
        # as undirected it is also one triangle
        assert triangle_count(a) == 1

    def test_no_triangles(self, ctx):
        a = ctx.matrix_from_lists((4, 4), [0, 1, 2], [1, 2, 3])
        assert triangle_count(a) == 0

    def test_empty(self, ctx):
        assert triangle_count(ctx.matrix_empty((3, 3))) == 0

    def test_complete_graph(self, ctx):
        n = 7
        d = ~np.eye(n, dtype=bool)
        a = ctx.matrix_from_dense(d)
        from math import comb

        assert triangle_count(a) == comb(n, 3)
