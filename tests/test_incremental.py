"""Incremental evaluation (repro.incr): journal, state, warm starts.

Covers the delta subsystem end to end: the :class:`DeltaJournal`
arbitration, the deferred label rebuilds of ``GraphStore.apply_batch``
(conversion-count regressions), the
resumable :class:`FixpointState` + ``ResultCache.get_ancestor`` lineage, the scheduler's incremental-vs-
recompute arbitration, and the remove_edges crash/recovery story
through the persistent store.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.datasets.random_graphs import uniform_random_graph
from repro.graph import LabeledGraph
from repro.incr.journal import DeltaJournal, DeltaSummary
from repro.incr.state import FixpointState, matrix_keys
from repro.service import QueryService
from repro.service.graph_store import GraphStore
from repro.service.kinds import CFPQ, PAIRS, REACH
from repro.service.result_cache import ResultCache


@pytest.fixture(scope="module")
def mctx():
    context = repro.Context(backend="cpu")
    yield context
    context.finalize()


def _to_set(matrix):
    rows, cols = matrix.to_arrays()
    return set(zip(rows.tolist(), cols.tolist()))


def _graph(n=24, edges=90, labels=("a", "b"), seed=3):
    return uniform_random_graph(n, edges, labels=labels, seed=seed)


# -- DeltaJournal ------------------------------------------------------------


class TestDeltaOverlay:
    def test_delta_since_arbitration(self):
        journal = DeltaJournal(0)
        journal.record("add", "a", np.asarray([(0, 1), (1, 2)], np.int64), 1)
        journal.record("add", "b", np.asarray([(2, 3)], np.int64), 2)
        summary = journal.delta_since(0)
        assert isinstance(summary, DeltaSummary)
        assert summary.adds_only and summary.count == 3
        assert set(summary.adds) == {"a", "b"}
        rows, cols = summary.adds["a"]
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 2)]
        # Mid-stream version: only the suffix.
        assert journal.delta_since(1).count == 1
        # Nothing after the current version.
        empty = journal.delta_since(2)
        assert empty.adds_only and empty.count == 0 and not empty.adds
        # A removal anywhere in the span kills adds_only (and adds).
        journal.record("remove", "a", np.asarray([(0, 1)], np.int64), 3)
        tainted = journal.delta_since(0)
        assert not tainted.adds_only and tainted.count == 4 and not tainted.adds

    def test_journal_prune_raises_floor(self):
        journal = DeltaJournal(0, journal_limit=2)
        for version in (1, 2, 3):
            journal.record(
                "add", "a", np.asarray([(0, version)], np.int64), version
            )
        # Version 1 was pruned: spans reaching below the floor are
        # unknowable and must force a recompute.
        assert journal.delta_since(0) is None
        assert journal.delta_since(1).count == 2


# -- GraphStore batching (conversion-count regressions) ----------------------


class TestApplyBatch:
    @staticmethod
    def _count_conversions(monkeypatch, ctx):
        calls = []
        original = ctx.matrix_from_lists

        def counting(shape, rows, cols):
            calls.append(shape)
            return original(shape, rows, cols)

        monkeypatch.setattr(ctx, "matrix_from_lists", counting)
        return calls

    def test_overlay_path_defers_all_rebuilds(self, mctx, monkeypatch):
        store = GraphStore(mctx)
        handle = store.register("g", _graph())
        calls = self._count_conversions(monkeypatch, mctx)
        store.apply_batch(
            "g",
            [
                ("add", "a", [(0, 1)]),
                ("remove", "b", [(3, 4)]),
                ("add", "a", [(1, 2)]),
            ],
        )
        assert calls == []  # O(delta) acknowledge: no matrix touched
        assert handle.stale == {"a", "b"}
        # The first read rebuilds each touched label once ...
        operands = handle.query_matrices()
        assert len(calls) == 2 and handle.stale == set()
        for label in ("a", "b"):
            assert _to_set(operands[label]) == set(handle.graph.edges[label])
        assert {(0, 1), (1, 2)} <= _to_set(operands["a"])
        # ... and installs it: the second read rebuilds nothing.
        again = handle.query_matrices()
        assert len(calls) == 2
        assert all(again[label] is operands[label] for label in operands)
        store.clear()

    def test_commit_during_rebuild_keeps_label_stale(self, mctx, monkeypatch):
        store = GraphStore(mctx)
        handle = store.register("g", _graph())
        store.add_edges("g", "a", [(0, 1)])
        lower = handle.lower

        def racing(graph, residency, labels):
            built = lower(graph, residency, labels)
            monkeypatch.setattr(handle, "lower", lower)
            store.add_edges("g", "a", [(1, 2)])  # lands mid-build
            return built

        monkeypatch.setattr(handle, "lower", racing)
        operands = handle.query_matrices()
        assert (0, 1) in _to_set(operands["a"])
        # Built across a commit: returned, but not installed.
        assert handle.stale == {"a"}
        assert handle.matrices["a"] is not operands["a"]
        fresh = handle.query_matrices()
        assert {(0, 1), (1, 2)} <= _to_set(fresh["a"])
        assert handle.stale == set() and handle.matrices["a"] is fresh["a"]
        store.clear()

    @pytest.mark.parametrize(
        "empty",
        [[], (), np.empty(0), np.empty((0, 2))],
        ids=["list", "tuple", "flat", "zero-by-two"],
    )
    def test_empty_batch_changes_nothing(self, empty):
        query = "(a | b)+"
        with QueryService(backend="cpu", workers=1) as svc:
            svc.register_graph("g", _graph())
            seen = []
            svc.graphs.on_mutate = lambda name, version: seen.append(version)
            first = svc.pairs("g", query)
            assert svc.add_edges("g", "a", empty) == 0
            assert svc.apply_batch("g", [("remove", "b", empty), ("add", "a", empty)]) == 0
            assert svc.pairs("g", query) is first  # a result-cache hit
            handle = svc.graphs.get("g")
            assert seen == [] and handle.stale == set()
            assert handle.journal.stats()["journal_entries"] == 0

    def test_rejects_unknown_op(self, mctx):
        store = GraphStore(mctx)
        store.register("g", _graph())
        with pytest.raises(repro.errors.InvalidArgumentError):
            store.apply_batch("g", [("upsert", "a", [(0, 1)])])
        store.clear()


# -- FixpointState / ResultCache lineage -------------------------------------


class TestFixpointState:
    def test_round_trip(self, mctx):
        m = mctx.matrix_from_lists((6, 6), [0, 1, 5], [1, 2, 0])
        state = FixpointState(
            "closure", (6, 6), {"closure": matrix_keys(m)}, {"n": 6, "k": 1}
        )
        back = state.matrix(mctx, "closure")
        assert _to_set(back) == _to_set(m)
        assert state.nnz("closure") == 3
        assert state.compatible("closure", (6, 6), n=6, k=1)
        assert not state.compatible("closure", (6, 6), n=6, k=2)
        assert not state.compatible("reach", (6, 6), n=6, k=1)
        assert not state.compatible("closure", (7, 7), n=6, k=1)
        back.free()
        m.free()


class TestAncestorLookup:
    def test_get_ancestor_prefers_newest_at_or_below(self):
        cache = ResultCache(8)
        key_v0 = ("pairs", "g", 0, "regex", "a+", None)
        key_v2 = ("pairs", "g", 2, "regex", "a+", None)
        key_v5 = ("pairs", "g", 5, "regex", "a+", None)
        cache.put(key_v0, {(0, 1)}, state="s0")
        cache.put(key_v2, {(0, 1), (1, 2)}, state="s2")
        version, value, state = cache.get_ancestor(key_v5)
        assert (version, state) == (2, "s2")
        assert value == {(0, 1), (1, 2)}
        # Exact version counts as its own ancestor.
        assert cache.get_ancestor(key_v2)[0] == 2
        # Different plan / graph / source never matches.
        assert cache.get_ancestor(("pairs", "h", 5, "regex", "a+", None)) is None
        assert (
            cache.get_ancestor(("pairs", "g", 5, "regex", "b+", None)) is None
        )
        assert cache.get_ancestor(None) is None
        assert cache.stats()["ancestor_hits"] == 2

    def test_ancestor_does_not_refresh_lru(self):
        cache = ResultCache(2)
        old = ("pairs", "g", 0, "regex", "a+", None)
        cache.put(old, {(0, 0)}, state="s")
        cache.get_ancestor(("pairs", "g", 9, "regex", "a+", None))
        cache.put(("pairs", "g", 1, "regex", "b+", None), set())
        cache.put(("pairs", "g", 2, "regex", "c+", None), set())
        # The lineage lookup must not have kept the stale entry alive.
        assert cache.get(old) == (False, None)


# -- service arbitration -----------------------------------------------------


class TestServiceArbitration:
    QUERY = "(a | b)+"

    def _mirror(self, graph):
        return LabeledGraph.from_triples(graph.triples(), n=graph.n)

    def test_small_adds_warm_start_all_engines(self):
        graph = _graph(n=32, edges=120)
        current = self._mirror(graph)
        grammar = "S -> a S b | a b"
        with QueryService(backend="cpu", workers=1) as svc:
            svc.register_graph("g", graph)
            svc.pairs("g", self.QUERY)
            svc.reach("g", self.QUERY, source=3)
            svc.cfpq("g", grammar)
            delta = [(0, 9), (4, 17)]
            svc.add_edges("g", "a", delta)
            for u, v in delta:
                current.add_edge(u, "a", v)
            got_pairs = svc.pairs("g", self.QUERY)
            got_reach = svc.reach("g", self.QUERY, source=3)
            got_cfpq = svc.cfpq("g", grammar)
            counters = svc.stats().counters
            assert counters.get("incremental_evals", 0) == 3
            assert counters.get("incremental_declined", 0) == 0
        assert got_pairs == PAIRS.oracle(current, self.QUERY, None)
        assert got_reach == REACH.oracle(current, self.QUERY, 3)
        assert got_cfpq == CFPQ.oracle(current, grammar, None)

    def test_removal_declines_warm_start(self):
        graph = _graph(n=24, edges=90)
        with QueryService(backend="cpu", workers=1) as svc:
            svc.register_graph("g", graph)
            svc.pairs("g", self.QUERY)
            u, v = graph.edges["a"][0]
            svc.remove_edges("g", "a", [(u, v)])
            svc.pairs("g", self.QUERY)
            counters = svc.stats().counters
            assert counters.get("incremental_evals", 0) == 0
            assert counters.get("full_evals", 0) == 2

    def test_journal_keeps_one_entry_per_batch(self):
        graph = _graph(n=24, edges=90)
        with QueryService(backend="cpu", workers=1) as svc:
            svc.register_graph("g", graph)
            for edge in [(0, 1), (1, 2), (2, 3)]:
                svc.add_edges("g", "a", [edge])
            svc.remove_edges("g", "a", [graph.edges["a"][0]])
            journal = svc.stats().graph_store["per_graph"]["g"]["journal"]
        assert journal["journal_entries"] == 4

    def test_oversized_delta_declined(self):
        graph = _graph(n=24, edges=40)
        with QueryService(backend="cpu", workers=1) as svc:
            svc.register_graph("g", graph)
            svc.pairs("g", self.QUERY)
            rng = np.random.default_rng(1)
            # Budget is max(64, edges // 8): exceed it.
            svc.add_edges("g", "a", rng.integers(0, 24, (80, 2)))
            svc.pairs("g", self.QUERY)
            counters = svc.stats().counters
            assert counters.get("incremental_evals", 0) == 0
            assert counters.get("incremental_declined", 0) == 1


# -- remove_edges through the persistent store -------------------------------


class TestRemoveEdgesRecovery:
    def test_removal_survives_crash_restore(self, tmp_path):
        n = 24
        graph = _graph(n=n, edges=90)
        query = "a"
        # A removable edge that visibly changes single-label answers.
        probe = graph.edges["a"][0]
        with QueryService(backend="cpu", workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            before = svc.reach("g", query, source=probe[0])
            assert probe[1] in before
            svc.add_edges("g", "b", [(0, n - 1)])
            version = svc.remove_edges("g", "a", [probe])
            # The version bump invalidated the cached answer: the
            # re-query must see the removal, not the cached target set.
            after = svc.reach("g", query, source=probe[0])
            assert probe[1] not in after
            handle = svc.graphs.get("g")
            summary = handle.journal.delta_since(0)
            assert not summary.adds_only and summary.count == 2

        # Crash simulation: a torn, uncommitted record at the WAL tail.
        wal = tmp_path / "volumes" / "g" / "wal.log"
        assert wal.exists()
        with open(wal, "ab") as f:
            f.write(b"RWAL\x01\x01\x00\x00torn-tail-garbage")

        with QueryService(backend="cpu", workers=1, store_root=tmp_path) as svc:
            svc.restore_graph("g")
            handle = svc.graphs.get("g")
            assert handle.current_version() == version
            assert probe not in handle.graph.edges["a"]
            assert svc.reach("g", query, source=probe[0]) == after
            # Oracle over an independently mutated host graph.
            mirror = LabeledGraph.from_triples(
                (
                    (u, label, v)
                    for u, label, v in graph.triples()
                    if not (label == "a" and (u, v) == probe)
                ),
                n=n,
            )
            mirror.add_edge(0, "b", n - 1)
            assert after == REACH.oracle(mirror, query, probe[0])

    def test_persist_folds_overlay(self, tmp_path, monkeypatch):
        graph = _graph()
        query = "a+"
        with QueryService(backend="cpu", workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.add_edges("g", "a", [(0, 1), (1, 2)])
            handle = svc.graphs.get("g")
            want = PAIRS.oracle(handle.graph, query, None)
            calls = TestApplyBatch._count_conversions(monkeypatch, svc.ctx)
            svc.persist_graph("g")
            assert calls == []  # the snapshot reads the host edge list
            assert handle.stale == {"a"}
            monkeypatch.undo()
            assert svc.pairs("g", query) == want
        with QueryService(backend="cpu", workers=1, store_root=tmp_path) as svc:
            svc.restore_graph("g")
            assert svc.pairs("g", query) == want
