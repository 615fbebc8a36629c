"""RPQ engine tests: Kronecker index and single-source reach vs. the
product-BFS oracle."""

import numpy as np
import pytest

import repro
from repro.algorithms.closure import incremental_transitive_closure
from repro.automata import glushkov_nfa, parse_regex
from repro.datasets import RPQ_TEMPLATES, generate_rpq_queries, instantiate_template
from repro.errors import DeviceMemoryError, InvalidArgumentError, QueryCancelledError
from repro.graph import LabeledGraph
from repro.rpq import engine, extract_paths, rpq_index, rpq_pairs
from repro.rpq.naive import naive_rpq
from repro.service.kinds import PAIRS

from .conftest import FailingAlloc


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


#: Values of ``PRODUCT_WALK_MAX_NNZ`` that force each reach walk: every
#: product has at least 0 entries, and none has 2**62.
WALKS = {"frontier": -1, "product": 1 << 62}


def _random_graph(rng, n, labels="abc", degree=2.0):
    g = LabeledGraph(n=n)
    for label in labels:
        for _ in range(int(degree * n)):
            g.add_edge(int(rng.integers(n)), label, int(rng.integers(n)))
    return g


def _targets(graph, query, source):
    return {v for _, v in naive_rpq(graph, query, [source])}


def _reach_case(name, rng):
    """``(graph, nfas, sources, extra adjacency labels, queries for the
    oracle)`` for one differential case."""
    g = _random_graph(rng, int(rng.integers(8, 40)))
    n = g.n
    if name == "epsilon":
        queries = ["a*", "(a | b)* . c?"]
    elif name == "missing-label":
        queries = ["a . zz", "zz | b+", "(a | zz)+"]
    elif name == "empty-adjacency":
        # "e" has an adjacency matrix with no entries.
        queries = ["(a | e)+ . b", "e*", "e"]
    elif name == "two-targets":
        # Glushkov: the start row moves to two states on the same "a".
        queries = ["a . b | a . c", "a . (b | c) | a . a+"]
    elif name == "repeated-nfa":
        queries = ["(a | b)+ . c"]
    else:
        raise AssertionError(name)
    nfas = [glushkov_nfa(parse_regex(q)) for q in queries]
    sources = [int(rng.integers(n)) for _ in queries]
    if name == "repeated-nfa":
        # One NFA object three times, one source twice, plus another query.
        other = glushkov_nfa(parse_regex("a . b*"))
        nfas = [nfas[0], nfas[0], other, nfas[0]]
        queries = ["(a | b)+ . c", "(a | b)+ . c", "a . b*", "(a | b)+ . c"]
        sources = [sources[0], sources[0], sources[0], int(rng.integers(n))]
    extra = ["e"] if name == "empty-adjacency" else []
    return g, nfas, sources, extra, queries


def _adjacency(ctx, graph, extra):
    adjacency = graph.adjacency_matrices(ctx)
    adjacency.update((label, ctx.matrix_empty((graph.n, graph.n))) for label in extra)
    return adjacency


class TestReachWalks:
    """Both ``_reach`` walks against the host product BFS, which shares
    no product code with either."""

    CASES = ["epsilon", "missing-label", "empty-adjacency", "two-targets", "repeated-nfa"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_matches_oracle(self, ctx, walk, case, monkeypatch):
        monkeypatch.setattr(engine, "PRODUCT_WALK_MAX_NNZ", WALKS[walk])
        rng = np.random.default_rng(self.CASES.index(case))
        for _ in range(4):
            g, nfas, sources, extra, queries = _reach_case(case, rng)
            adjacency = _adjacency(ctx, g, extra)
            members, rounds = engine._reach(nfas, sources, g.n, ctx, adjacency)
            assert rounds >= 1
            for (targets, state, warm), q, src, nfa in zip(members, queries, sources, nfas):
                assert targets == _targets(g, q, src), (q, src)
                assert not warm
                assert state.shape == (1, nfa.n * g.n)
            for mat in adjacency.values():
                mat.free()

    @pytest.mark.parametrize(
        "cold_walk, warm_walk",
        [(cold, warm) for cold in sorted(WALKS) for warm in sorted(WALKS)],
        ids=lambda walk: walk,
    )
    def test_warm_state_crosses_walks(self, ctx, cold_walk, warm_walk, monkeypatch):
        """A state one walk left seeds the other: after an adds-only
        delta the warm answer and state equal a cold run's."""
        rng = np.random.default_rng(7)
        queries = ["(a | b)+ . c", "a . b*", "a*"]
        nfas = [glushkov_nfa(parse_regex(q)) for q in queries]
        for _ in range(3):
            g = _random_graph(rng, int(rng.integers(10, 40)), degree=1.0)
            sources = [int(rng.integers(g.n)) for _ in queries]
            adjacency = g.adjacency_matrices(ctx)
            monkeypatch.setattr(engine, "PRODUCT_WALK_MAX_NNZ", WALKS[cold_walk])
            before, _ = engine._reach(nfas, sources, g.n, ctx, adjacency)
            for mat in adjacency.values():
                mat.free()
            for _ in range(g.n):
                g.add_edge(int(rng.integers(g.n)), "abc"[int(rng.integers(3))], int(rng.integers(g.n)))
            adjacency = g.adjacency_matrices(ctx)
            monkeypatch.setattr(engine, "PRODUCT_WALK_MAX_NNZ", WALKS[warm_walk])
            states = [state for _, state, _ in before]
            warm, _ = engine._reach(nfas, sources, g.n, ctx, adjacency, states)
            cold, _ = engine._reach(nfas, sources, g.n, ctx, adjacency)
            for mat in adjacency.values():
                mat.free()
            for q, src, (w_targets, w_state, used), (c_targets, c_state, _) in zip(
                queries, sources, warm, cold
            ):
                assert used
                assert w_targets == c_targets == _targets(g, q, src), (q, src)
                assert np.array_equal(w_state.keys["frontier"], c_state.keys["frontier"])

    def test_selection_is_the_product_size(self, cubool_ctx, monkeypatch):
        """The product walk runs up to and including a product of
        ``PRODUCT_WALK_MAX_NNZ`` entries, the frontier walk above it."""
        g = _random_graph(np.random.default_rng(3), 20)
        adjacency = g.adjacency_matrices(cubool_ctx)
        nfa = glushkov_nfa(parse_regex("(a | b)+ . c"))
        size = sum(
            len(pairs) * adjacency[label].nnz for label, pairs in nfa.transitions.items()
        )
        ran = []
        for name in ("_product_walk", "_frontier_walk"):
            walk = getattr(engine, name)
            monkeypatch.setattr(
                engine, name, lambda *a, _walk=walk, _name=name: ran.append(_name) or _walk(*a)
            )
        for limit in (size, size - 1):
            monkeypatch.setattr(engine, "PRODUCT_WALK_MAX_NNZ", limit)
            # One NFA object twice: the size counts distinct automata.
            engine._reach([nfa, nfa], [0, 1], g.n, cubool_ctx, adjacency)
        assert ran == ["_product_walk", "_frontier_walk"]
        for mat in adjacency.values():
            mat.free()


class TestFixpointRelease:
    """A fixpoint that raises between or inside its rounds gives back
    every matrix it owned, even while the exception is still held (a
    service ticket keeps its error, and so the error's frames)."""

    @pytest.mark.parametrize("hybrid", [False, True])
    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_cancelled_reach_frees_its_matrices(self, walk, hybrid, monkeypatch):
        monkeypatch.setattr(engine, "PRODUCT_WALK_MAX_NNZ", WALKS[walk])
        ctx = repro.Context(backend="cubool", hybrid="auto" if hybrid else False)
        g = _random_graph(np.random.default_rng(5), 200, labels="ab", degree=0.5)
        for v in range(199):  # a chain keeps the fixpoint going past round 3
            g.add_edge(v, "ab"[v % 2], v + 1)
        adjacency = g.adjacency_matrices(ctx)
        nfa = glushkov_nfa(parse_regex("(a | b)+"))
        arena = ctx.device.arena
        # A full run first: the hybrid backend may keep other-format
        # views of the borrowed adjacency, and those stay with it.
        engine._reach([nfa], [0], g.n, ctx, adjacency)
        baseline = arena.live_bytes
        rounds = []

        def cancel():
            rounds.append(None)
            if len(rounds) == 3:
                raise QueryCancelledError("cancelled at round 3")

        with pytest.raises(QueryCancelledError) as info:
            engine._reach([nfa], [0], g.n, ctx, adjacency, cancel=cancel)
        assert info.value.__traceback__ is not None
        assert arena.live_bytes == baseline
        del info
        for mat in adjacency.values():
            mat.free()
        ctx.finalize()

    @pytest.mark.parametrize("engine_name", ["frontier", "product", "incremental-closure"])
    def test_failed_allocation_frees_its_matrices(self, engine_name, rng, monkeypatch):
        """Whichever arena allocation fails — inside a round or around
        the loop — the error leaves nothing charged."""
        # Pure sparse whatever REPRO_HYBRID says: every injected failure
        # must raise (the hybrid route may absorb one by falling back).
        ctx = repro.Context(backend="cubool", hybrid=False)
        if engine_name == "incremental-closure":
            base = ctx.matrix_from_dense(rng.random((40, 40)) < 0.03)
            delta = ctx.matrix_from_dense(rng.random((40, 40)) < 0.03)
            operands = [base, delta]

            def run():
                return incremental_transitive_closure(base, delta).free()
        else:
            monkeypatch.setattr(engine, "PRODUCT_WALK_MAX_NNZ", WALKS[engine_name])
            g = _random_graph(rng, 24, labels="ab", degree=0.5)
            for v in range(23):
                g.add_edge(v, "ab"[v % 2], v + 1)
            adjacency = g.adjacency_matrices(ctx)
            operands = list(adjacency.values())
            nfa = glushkov_nfa(parse_regex("(a | b)+ . b"))

            def run():
                engine._reach([nfa, nfa], [0, 5], g.n, ctx, adjacency)

        arena = ctx.device.arena
        alloc = arena.alloc
        arena.alloc = counting = FailingAlloc(alloc, 0)
        run()
        baseline = arena.live_bytes
        try:
            for k in range(1, counting.calls + 1):
                arena.alloc = FailingAlloc(alloc, k)
                with pytest.raises(DeviceMemoryError) as info:
                    run()
                assert arena.live_bytes == baseline, (k, info.value)
        finally:
            arena.alloc = alloc
        for mat in operands:
            mat.free()
        ctx.finalize()
