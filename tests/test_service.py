"""Tests for the concurrent query service tier (repro.service)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro
from repro.datasets.random_graphs import uniform_random_graph
from repro.errors import (
    DeadlineExceededError,
    InvalidArgumentError,
    QueryCancelledError,
    ServiceOverloadedError,
    UnknownGraphError,
)
from repro.rpq import rpq_reach_batch
from repro.service import (
    GraphStore,
    LatencySummary,
    PlanCache,
    QueryService,
)
from repro.service import scheduler
from repro.service.kinds import DIST, KINDS, REACH

QUERIES = ("a b* c", "(a | b)+", "a (b c)*", "(a | c) b? c")


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(48, 200, labels=("a", "b", "c"), seed=7)


GRAMMAR = "S -> a S b | a b"
SOURCE = 5

#: One query per table row, as ``submit`` takes it; the row's own
#: ``oracle`` is the reference answer.
KIND_CASES = {
    "reach": QUERIES[1],
    "pairs": QUERIES[1],
    "cfpq": GRAMMAR,
    "dist": ("min-plus", None),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestQueryKinds:
    """Every row of the kind table, through the one generic path."""

    def _submit(self, service, kind):
        source = SOURCE if KINDS[kind].needs_source else None
        return service.submit(kind, "g", KIND_CASES[kind], source=source).result(timeout=60.0)

    @staticmethod
    def _oracle(kind, graph):
        row = KINDS[kind]
        return row.oracle(graph, KIND_CASES[kind], SOURCE if row.needs_source else None)

    def test_submit_matches_direct_engine(self, kind, graph):
        with QueryService(workers=1) as service:
            service.register_graph("g", graph)
            got = self._submit(service, kind)
        assert got == self._oracle(kind, graph)

    def test_repeat_is_result_cache_hit(self, kind, graph):
        with QueryService(workers=1) as service:
            service.register_graph("g", graph)
            assert self._submit(service, kind) == self._submit(service, kind)
            snap = service.stats()
        assert snap.counters["result_cache_hits"] == 1
        assert snap.counters["full_evals"] == 1
        assert (snap.plan_cache["misses"], snap.plan_cache["hits"]) == (1, 1)

    def test_answers_are_immutable_and_hits_share_them(self, kind, graph):
        from repro.graph import LabeledGraph
        from repro.utils.pairset import PairSet

        answer_type = PairSet if kind in ("pairs", "cfpq") else frozenset
        with QueryService(workers=1) as service:
            service.register_graph("g", LabeledGraph.from_triples(graph.triples(), n=graph.n))
            cold = self._submit(service, kind)
            assert self._submit(service, kind) is cold
            service.add_edges("g", "a", [(0, 9)])
            warm = self._submit(service, kind)
        assert type(cold) is answer_type and type(warm) is answer_type

    def test_adds_only_delta_warm_starts_where_supported(self, kind, graph):
        from repro.graph import LabeledGraph

        delta = [(0, 9), (4, 17)]
        with QueryService(workers=1) as service:
            service.register_graph(
                "g", LabeledGraph.from_triples(graph.triples(), n=graph.n)
            )
            self._submit(service, kind)
            service.add_edges("g", "a", delta)
            got = self._submit(service, kind)
            counters = service.stats().counters
        mutated = LabeledGraph.from_triples(graph.triples(), n=graph.n)
        for u, v in delta:
            mutated.add_edge(u, "a", v)
        assert got == self._oracle(kind, mutated)
        warm = 1 if KINDS[kind].warm_starts else 0
        assert counters.get("incremental_evals", 0) == warm
        assert counters["full_evals"] == 2 - warm


def test_wire_round_trip_keeps_answer_type():
    """A routed answer has the type of a local one."""
    import json

    from repro.utils.pairset import PairSet

    pairs = PairSet.from_coo([2, 0, 2], [1, 5, 0])
    wire = KINDS["pairs"].encode(pairs)
    assert wire == [[0, 5], [2, 0], [2, 1]]
    back = KINDS["pairs"].decode(json.loads(json.dumps(wire)))
    assert isinstance(back, PairSet) and back == pairs
    assert KINDS["cfpq"].decode([]) == set()
    reach = KINDS["reach"].decode(KINDS["reach"].encode(frozenset({3, 1})))
    assert type(reach) is frozenset and reach == {1, 3}


def test_every_kind_has_a_case():
    assert set(KIND_CASES) == set(KINDS)


def test_generic_modules_name_no_kind():
    """The property the kind table exists to establish: outside
    ``kinds.py`` (and the plan-kind table), no service or cluster
    module spells a query kind."""
    import ast
    from pathlib import Path

    import repro.cluster.follower
    import repro.cluster.router
    import repro.service.core
    import repro.service.plan_cache
    import repro.service.result_cache
    import repro.service.scheduler

    names = set(KINDS) | {row.plan_kind for row in KINDS.values()}
    names |= {"rpq-reach", "rpq-pairs"}

    def literals(node):
        return {
            n.value
            for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }

    def tree(module):
        return ast.parse(Path(module.__file__).read_text())

    for module in (
        repro.service.scheduler,
        repro.service.result_cache,
        repro.service.core,
        repro.cluster.router,
        repro.cluster.follower,
    ):
        assert not literals(tree(module)) & names, module.__name__
        # The oracle column is the tests' reference, never a serving path.
        assert not any(
            isinstance(n, ast.Attribute) and n.attr == "oracle" for n in ast.walk(tree(module))
        ), module.__name__
    (plan_cache_class,) = (
        node
        for node in tree(repro.service.plan_cache).body
        if isinstance(node, ast.ClassDef) and node.name == "PlanCache"
    )
    assert not literals(plan_cache_class) & names


class TestBatchEvaluator:
    """rpq_reach_batch — the kernel behind multi-query coalescing."""

    def test_batch_matches_sequential(self, graph, cubool_ctx):
        queries, sources = [], []
        for i in range(10):
            queries.append(QUERIES[i % len(QUERIES)])
            sources.append((5 * i) % graph.n)
        got = rpq_reach_batch(graph, queries, sources, cubool_ctx)
        for q, src, result in zip(queries, sources, got):
            assert result == REACH.oracle(graph, q, src), (q, src)

    def test_batch_of_one(self, graph, cubool_ctx):
        from repro.rpq import rpq_reach

        got = rpq_reach(graph, QUERIES[0], 3, cubool_ctx)
        assert got == REACH.oracle(graph, QUERIES[0], 3)

    def test_batch_shared_plan_dedup(self, graph, cubool_ctx):
        # The same NFA object used by several batch members must be
        # stacked once, not per member.
        from repro.service.plan_cache import compile_rpq_plan

        plan = compile_rpq_plan(QUERIES[1])
        got = rpq_reach_batch(
            graph, [plan.nfa] * 4, [0, 7, 7, 21], cubool_ctx
        )
        for src, result in zip([0, 7, 7, 21], got):
            assert result == REACH.oracle(graph, QUERIES[1], src)

    def test_batch_cancel_hook(self, graph, cubool_ctx):
        def cancel():
            raise QueryCancelledError("abort")

        with pytest.raises(QueryCancelledError):
            rpq_reach_batch(graph, [QUERIES[0]], [0], cubool_ctx, cancel=cancel)

    def test_batch_arg_mismatch(self, graph, cubool_ctx):
        with pytest.raises(InvalidArgumentError):
            rpq_reach_batch(graph, [QUERIES[0]], [0, 1], cubool_ctx)

    @pytest.mark.parametrize("source", [4, 5, -1])
    @pytest.mark.parametrize("entry", ["rpq_reach", "rpq_reach_batch", "rpq_reach_incremental"])
    def test_out_of_range_source_rejected(self, entry, source, cubool_ctx):
        # On 0 -> 1 -> 2 -> 3 a seed column s0*n + source with source >= n
        # lands in another automaton state's block: it must be refused,
        # not answered from there.
        from repro.datasets import chain_graph
        from repro.incr.engine import rpq_reach_incremental
        from repro.rpq import rpq_reach
        from repro.rpq.engine import _compile

        chain = chain_graph(4)
        calls = {
            "rpq_reach": lambda: rpq_reach(chain, "a a", source, cubool_ctx),
            "rpq_reach_batch": lambda: rpq_reach_batch(chain, ["a a"], [source], cubool_ctx),
            "rpq_reach_incremental": lambda: rpq_reach_incremental(
                _compile("a a"), chain.n, source, cubool_ctx,
                chain.adjacency_matrices(cubool_ctx),
            ),
        }
        with pytest.raises(InvalidArgumentError):
            calls[entry]()


class TestPlanCache:
    def test_hit_shares_plan_object(self):
        cache = PlanCache(capacity=8)
        p1 = cache.get("rpq", "a b* c")
        p2 = cache.get("rpq", "a b* c")
        assert p1 is p2  # zero recompilation: the very same plan object
        assert cache.hits == 1 and cache.misses == 1

    def test_canonicalization_ignores_formatting(self):
        cache = PlanCache(capacity=8)
        p1 = cache.get("rpq", "a b* c")
        p2 = cache.get("rpq", "a  (b*)  c")
        assert p1 is p2
        assert cache.stats()["hits"] == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        pa = cache.get("rpq", "a")
        cache.get("rpq", "b")
        cache.get("rpq", "a")      # refresh recency: "b" is now LRU
        cache.get("rpq", "c")      # evicts "b"
        assert cache.evictions == 1
        assert cache.get("rpq", "a") is pa          # still cached
        cache.get("rpq", "b")                       # recompiled
        assert cache.misses == 4  # a, b, c, b-again
        assert len(cache) == 2

    def test_lost_compile_race_counts_a_race(self, monkeypatch):
        """Two threads miss the same key and compile at once: the loser
        keeps the incumbent plan and counts a race, so ``misses - races``
        is the number of plans stored."""
        import repro.service.plan_cache as plan_cache

        canonical, compile_fn = plan_cache.PLAN_KINDS["rpq"]
        both_missed = threading.Barrier(2, timeout=10.0)

        def compile_after_both_missed(query, key=None):
            both_missed.wait()
            return compile_fn(query, key=key)

        monkeypatch.setitem(
            plan_cache.PLAN_KINDS, "rpq", (canonical, compile_after_both_missed)
        )
        cache = PlanCache(capacity=8)
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(cache.get("rpq", "a b*")))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 2 and got[0] is got[1]
        stats = cache.stats()
        assert (stats["misses"], stats["races"], stats["entries"]) == (2, 1, 1)

    def test_prebuilt_nfa_bypasses_cache(self):
        from repro.automata.glushkov import glushkov_nfa
        from repro.automata.regex_parse import parse_regex

        cache = PlanCache(capacity=8)
        nfa = glushkov_nfa(parse_regex("a b"))
        p1 = cache.get("rpq", nfa)
        p2 = cache.get("rpq", nfa)
        assert p1 is not p2
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0

    def test_cfpq_plans_cached(self):
        cache = PlanCache(capacity=8)
        p1 = cache.get("cfpq", "S -> a S b | a b")
        p2 = cache.get("cfpq", "S -> a S b | a b")
        assert p1 is p2
        assert p1.rsm is not None and p1.cfg is not None

    def test_rpq_plan_is_minimal(self):
        # (a|b)* and (b|a)* share the same minimal DFA size.
        cache = PlanCache(capacity=8)
        assert cache.get("rpq", "(a | b)*").states == cache.get(
            "rpq", "(b | a)*"
        ).states

    def test_capacity_validation(self):
        with pytest.raises(InvalidArgumentError):
            PlanCache(capacity=0)

    def test_stats_shape(self):
        stats = PlanCache(capacity=4).stats()
        assert set(stats) == {
            "entries", "capacity", "hits", "misses", "evictions", "races",
            "hit_ratio",
        }


class TestGraphStore:
    def test_register_and_get(self, graph):
        # Plain cuBool whatever REPRO_HYBRID says: a hybrid context would
        # pin every label "both".
        ctx = repro.Context(backend="cubool", hybrid=False)
        store = GraphStore(ctx)
        handle = store.register("g", graph)
        assert store.get("g") is handle
        assert "g" in store and "missing" not in store
        assert set(handle.matrices) == set(graph.labels)
        assert handle.formats == {label: "sparse" for label in graph.labels}
        store.clear()
        ctx.finalize()

    def test_unknown_graph(self, cubool_ctx):
        store = GraphStore(cubool_ctx)
        with pytest.raises(UnknownGraphError):
            store.get("nope")
        with pytest.raises(UnknownGraphError):
            store.drop("nope")

    def test_drop_releases_device_memory(self, graph, cubool_ctx):
        arena = cubool_ctx.device.arena
        before = arena.live_bytes
        store = GraphStore(cubool_ctx)
        store.register("g", graph)
        assert arena.live_bytes > before
        store.drop("g")
        assert arena.live_bytes == before

    def test_bit_residency_under_hybrid(self, graph):
        ctx = repro.Context(backend="cubool", hybrid="auto")
        store = GraphStore(ctx)
        handle = store.register("g", graph, residency="bit")
        assert all(fmt == "both" for fmt in handle.formats.values())
        store.clear()
        ctx.finalize()

    def test_auto_residency_follows_crossover(self, graph, monkeypatch):
        # With the crossover pushed above every label's density, auto
        # must leave the graph sparse; pushed below, it must pin bits.
        from repro.backends import hybrid

        monkeypatch.setattr(hybrid, "CROSSOVER_DENSITY", 0.5)
        ctx = repro.Context(backend="cubool", hybrid="auto")
        store = GraphStore(ctx)
        sparse = store.register("g", graph, residency="auto")
        assert all(fmt == "sparse" for fmt in sparse.formats.values())
        store.clear()
        ctx.finalize()

        monkeypatch.setattr(hybrid, "CROSSOVER_DENSITY", 1e-6)
        ctx = repro.Context(backend="cubool", hybrid="auto")
        store = GraphStore(ctx)
        pinned = store.register("g", graph, residency="auto")
        assert all(fmt == "both" for fmt in pinned.formats.values())
        store.clear()
        ctx.finalize()

    def test_invalid_residency(self, graph, cubool_ctx):
        store = GraphStore(cubool_ctx)
        with pytest.raises(InvalidArgumentError):
            store.register("g", graph, residency="dense")

    def test_reregister_replaces(self, graph, cubool_ctx):
        store = GraphStore(cubool_ctx)
        first = store.register("g", graph)
        second = store.register("g", graph)
        assert store.get("g") is second
        assert first.matrices == {}  # old handle was freed
        assert store.stats()["graphs"] == 1
        store.clear()


class TestServiceLifecycle:
    def test_sync_roundtrip_and_stats(self, graph):
        with QueryService(workers=2) as service:
            service.register_graph("g", graph)
            got = service.reach("g", QUERIES[0], source=5)
            assert got == REACH.oracle(graph, QUERIES[0], 5)
            snap = service.stats()
            assert snap.counters["completed"] == 1
            assert snap.latency["total"].count == 1
            assert snap.plan_cache["misses"] == 1
            assert snap.graph_store["graphs"] == 1
            assert "service stats" in snap.render()

    def test_worker_pools_shorten_the_switch_interval(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(0.005)
        try:
            with QueryService(workers=0):
                assert sys.getswitchinterval() == pytest.approx(0.005)
            with QueryService(workers=1):
                assert sys.getswitchinterval() == pytest.approx(scheduler.SWITCH_INTERVAL_S)
                with QueryService(workers=2):
                    pass
                # The outer pool still runs.
                assert sys.getswitchinterval() == pytest.approx(scheduler.SWITCH_INTERVAL_S)
            assert sys.getswitchinterval() == pytest.approx(0.005)
            # An interval already shorter is left as it is.
            sys.setswitchinterval(0.0002)
            with QueryService(workers=1):
                assert sys.getswitchinterval() == pytest.approx(0.0002)
            assert sys.getswitchinterval() == pytest.approx(0.0002)
        finally:
            sys.setswitchinterval(old)

    def test_submit_validates_before_admission(self, graph):
        with QueryService(workers=0) as service:
            service.register_graph("g", graph)
            with pytest.raises(UnknownGraphError):
                service.submit_reach("missing", QUERIES[0], source=0)
            with pytest.raises(InvalidArgumentError):
                service.submit("no-such-kind", "g", QUERIES[0])
            for row in KINDS.values():
                query = KIND_CASES[row.name]
                # A source where one is required, and only there.
                for bad in (None, graph.n) if row.needs_source else (0,):
                    with pytest.raises(InvalidArgumentError):
                        service.submit(row.name, "g", query, source=bad)
            assert service.stats().counters.get("submitted", 0) == 0

    def test_distances_reject_other_algebras_before_admission(self, graph):
        with QueryService(workers=0) as service:
            service.register_graph("g", graph)
            for semiring in ("plus-times", "no-such-algebra"):
                with pytest.raises(InvalidArgumentError):
                    service.distances("g", source=SOURCE, semiring=semiring)
            assert service.stats().counters.get("submitted", 0) == 0

    def test_dist_and_reach_answers_never_shadow(self, graph):
        # Same graph, version and source: the result cache keeps the
        # min-plus and the boolean answer apart, on miss and on hit.
        weights = {"a": 1.0, "b": 2.5}
        dist_query = ("min-plus", tuple(sorted(weights.items())))
        with QueryService(workers=1) as service:
            service.register_graph("g", graph)
            for _ in range(2):
                dist = service.distances("g", source=SOURCE, weights=weights)
                reach = service.reach("g", QUERIES[1], source=SOURCE)
                assert dist == DIST.oracle(graph, dist_query, SOURCE)
                assert reach == REACH.oracle(graph, QUERIES[1], SOURCE)
            counters = service.stats().counters
        assert all(isinstance(v, int) for v in reach)
        assert (counters["result_cache_hits"], counters["full_evals"]) == (2, 2)

    def test_submit_after_close_raises(self, graph):
        from repro.service.scheduler import QueryTicket

        service = QueryService(workers=0)
        service.register_graph("g", graph)
        service.close()
        # close() also drops the graphs, so the facade fails the graph
        # lookup; the scheduler itself must reject admission too.
        with pytest.raises(UnknownGraphError):
            service.submit_reach("g", QUERIES[0], source=0)
        with pytest.raises(QueryCancelledError):
            service.scheduler.submit(
                QueryTicket(kind=REACH.name, graph="g", query=QUERIES[0], source=0)
            )

    def test_close_cancels_queued(self, graph):
        service = QueryService(workers=0, queue_limit=8)
        service.register_graph("g", graph)
        ticket = service.submit_reach("g", QUERIES[0], source=0)
        service.close()
        assert isinstance(ticket.exception(), QueryCancelledError)

    def test_overload_sheds_at_admission(self, graph):
        with QueryService(workers=0, queue_limit=2) as service:
            service.register_graph("g", graph)
            service.submit_reach("g", QUERIES[0], source=0)
            service.submit_reach("g", QUERIES[0], source=1)
            with pytest.raises(ServiceOverloadedError):
                service.submit_reach("g", QUERIES[0], source=2)
            assert service.stats().counters["rejected"] == 1


class TestDeadlinesAndCancellation:
    def test_expired_in_queue(self, graph):
        with QueryService(workers=0) as service:
            service.register_graph("g", graph)
            ticket = service.submit_reach("g", QUERIES[0], source=0, timeout=0.0)
            time.sleep(0.002)
            service.scheduler._run_group([ticket])
            assert isinstance(ticket.exception(), DeadlineExceededError)
            assert service.stats().counters["expired"] == 1

    def test_cancelled_before_run(self, graph):
        with QueryService(workers=0) as service:
            service.register_graph("g", graph)
            ticket = service.submit_reach("g", QUERIES[0], source=0)
            ticket.cancel()
            assert ticket.cancelled
            service.scheduler._run_group([ticket])
            exc = ticket.exception()
            assert isinstance(exc, QueryCancelledError)
            assert not isinstance(exc, DeadlineExceededError)

    def test_expired_end_to_end(self, graph):
        # A real worker must report the deadline, not a wrong answer.
        with QueryService(workers=1) as service:
            service.register_graph("g", graph)
            ticket = service.submit_reach("g", QUERIES[0], source=0, timeout=0.0)
            with pytest.raises(DeadlineExceededError):
                ticket.result(timeout=30.0)

    def test_cancel_hook_spares_live_members(self, graph):
        from repro.service.scheduler import QueryTicket

        def mk():
            return QueryTicket(
                kind=REACH.name, graph="g", query=QUERIES[0], source=0
            )

        with QueryService(workers=0) as service:
            doomed, live = mk(), mk()
            hook = service.scheduler._make_cancel_hook([doomed, live])
            doomed.cancel()
            hook()  # one live member -> evaluation continues
            live.cancel()
            with pytest.raises(QueryCancelledError):
                hook()  # nobody wants the answer -> abort

    def test_result_timeout_pending(self, graph):
        with QueryService(workers=0) as service:
            service.register_graph("g", graph)
            ticket = service.submit_reach("g", QUERIES[0], source=0)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01)
            ticket.cancel()


class TestStats:
    def test_latency_summary_percentiles(self):
        s = LatencySummary.of([i / 100 for i in range(100)])
        assert s.count == 100
        assert (s.p50, s.p90, s.p99, s.max) == (0.50, 0.90, 0.99, 0.99)

    def test_empty_summary(self):
        s = LatencySummary.of([])
        assert s.count == 0 and s.max == 0.0


class TestConcurrentStress:
    def test_threaded_clients_match_sequential(self, graph):
        """N client threads x M queries: identical to the oracle."""
        n_clients, per_client = 4, 12
        failures: list[str] = []
        lock = threading.Lock()

        with QueryService(workers=3, max_batch=8, queue_limit=256) as service:
            service.register_graph("g", graph)

            def client(cid: int) -> None:
                jobs = [
                    (QUERIES[(cid + i) % len(QUERIES)], (cid * 11 + 5 * i) % graph.n)
                    for i in range(per_client)
                ]
                tickets = [
                    service.submit_reach("g", q, source=src, timeout=60.0)
                    for q, src in jobs
                ]
                for (q, src), ticket in zip(jobs, tickets):
                    got = ticket.result(timeout=60.0)
                    if got != REACH.oracle(graph, q, src):
                        with lock:
                            failures.append(f"{q!r} from {src}")

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not failures
            snap = service.stats()
            assert snap.counters["completed"] == n_clients * per_client
            assert snap.counters["submitted"] == n_clients * per_client
            # The repeating templates must be served from the plan cache:
            # one stored plan per template.  Two workers may compile the
            # same template at once; the loser counts a miss and a race
            # and reuses the incumbent, so only misses net of races are
            # exact.
            plans = snap.plan_cache
            assert plans["entries"] == len(QUERIES)
            assert plans["misses"] - plans["races"] == len(QUERIES)
            assert plans["hits"] + plans["misses"] == n_clients * per_client

    def test_batching_actually_coalesces(self, graph):
        """Concurrent same-graph queries ride shared evaluations, and
        each member keeps its own warm-start lineage."""
        from repro.graph import LabeledGraph

        with QueryService(workers=1, max_batch=8, queue_limit=64) as service:
            service.register_graph(
                "g", LabeledGraph.from_triples(graph.triples(), n=graph.n)
            )
            jobs = [
                (QUERIES[i % len(QUERIES)], (3 * i) % graph.n) for i in range(16)
            ]
            tickets = [
                service.submit_reach("g", q, source=src) for q, src in jobs
            ]
            for (q, src), ticket in zip(jobs, tickets):
                assert ticket.result(timeout=60.0) == REACH.oracle(graph, q, src)
            snap = service.stats()
            # A single worker draining a pre-filled queue must have
            # grouped queries: strictly fewer evaluations than queries.
            assert snap.batch_sizes["count"] < len(jobs)
            assert snap.batch_sizes["max"] >= 2
            assert max(t.batch_size for t in tickets) >= 2

            # An adds-only delta: the coalesced re-run warm-starts every
            # member from the state it published above.
            delta = [(0, 9), (4, 17)]
            service.add_edges("g", "a", delta)
            tickets = [
                service.submit_reach("g", q, source=src) for q, src in jobs
            ]
            answers = [ticket.result(timeout=60.0) for ticket in tickets]
            counters = service.stats().counters
        assert max(t.batch_size for t in tickets) >= 2
        assert counters["incremental_evals"] == len(jobs)
        mutated = LabeledGraph.from_triples(graph.triples(), n=graph.n)
        for u, v in delta:
            mutated.add_edge(u, "a", v)
        for (q, src), got in zip(jobs, answers):
            assert got == REACH.oracle(mutated, q, src), (q, src)
