"""Service-tier persistence: persist/restore, deltas, caches, CLI."""

from __future__ import annotations

import errno
import json
import os

import numpy as np
import pytest

import repro
from repro.backends.hybrid import HybridPolicy
from repro.datasets.random_graphs import uniform_random_graph
from repro.errors import (
    IndexOutOfBoundsError,
    InvalidArgumentError,
    StoreError,
    UnknownGraphError,
)
from repro.incr.state import FixpointState
from repro.service import QueryService
from repro.service.graph_store import GraphStore
from repro.service.kinds import REACH
from repro.service.result_cache import ResultCache
from repro.store.cli import main as store_main
from repro.utils.pairset import PairSet

QUERY = "a b* c"


def fresh_graph():
    return uniform_random_graph(40, 170, labels=("a", "b", "c"), seed=11)


@pytest.fixture(scope="module")
def graph():
    return fresh_graph()


class TestPersistRestore:
    def test_round_trip_preserves_answers(self, tmp_path, graph):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            before = svc.reach("g", QUERY, source=0)
            assert svc.persist_graph("g") == 1
            assert svc.stats().graph_store["per_graph"]["g"]["persistent"]
        with QueryService(workers=1, store_root=tmp_path) as svc:
            assert svc.restore_all() == ["g"]
            assert svc.reach("g", QUERY, source=0) == before
            assert svc.graphs.get("g").current_version() == 0

    def test_restore_replays_wal_deltas(self, tmp_path, graph):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            v = svc.add_edges("g", "a", [(0, graph.n - 1)])
            assert v == 1
            after = svc.reach("g", QUERY, source=0)
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.restore_graph("g")
            handle = svc.graphs.get("g")
            assert handle.current_version() == 1
            assert (0, graph.n - 1) in handle.graph.edges["a"]
            assert svc.reach("g", QUERY, source=0) == after

    def test_mutations_match_in_memory_oracle(self, tmp_path, graph):
        added = [(1, 5), (2, 9)]
        removed = [graph.edges["b"][0]]
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            svc.add_edges("g", "a", added)
            svc.remove_edges("g", "b", removed)
            got = svc.reach("g", QUERY, source=1)
        mutated = repro.graph.LabeledGraph(n=graph.n)
        for label, pairs in graph.edges.items():
            mutated.edges[label].extend(pairs)
        for u, v in added:
            mutated.add_edge(u, "a", v)
        mutated.edges["b"] = [e for e in mutated.edges["b"] if e not in removed]
        assert got == REACH.oracle(mutated, QUERY, 1)

    def test_mutation_without_volume_is_in_memory_only(self, graph):
        with QueryService(workers=1, store_root=None) as svc:
            svc.register_graph("g", graph)
            v = svc.add_edges("g", "a", [(0, 1)])
            assert v == 1
            with pytest.raises(StoreError, match="no store attached"):
                svc.persist_graph("g")

    def test_mutation_validation(self, tmp_path, graph):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            with pytest.raises(IndexOutOfBoundsError):
                svc.add_edges("g", "a", [(0, graph.n)])
            with pytest.raises(InvalidArgumentError):
                svc.add_edges("g", "a", [(0, 1, 2)])
            with pytest.raises(UnknownGraphError):
                svc.add_edges("nope", "a", [(0, 1)])
            # The error names the axis the offending value came from.
            with pytest.raises(IndexOutOfBoundsError) as exc:
                svc.add_edges("g", "a", [(0, -1)])
            assert exc.value.what == "column" and exc.value.index == -1
            with pytest.raises(IndexOutOfBoundsError) as exc:
                svc.add_edges("g", "a", [(-3, 1)])
            assert exc.value.what == "row" and exc.value.index == -3
            assert svc.graphs.get("g").current_version() == 0

    def test_restore_over_live_handle_reuses_volume(self, tmp_path, graph):
        """Same-process restore hands the volume writer lease from the
        old handle to the new one instead of re-opening (which would
        collide with our own advisory lock)."""
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            svc.add_edges("g", "a", [(0, graph.n - 1)])
            svc.restore_graph("g")
            handle = svc.graphs.get("g")
            assert handle.current_version() == 1
            assert (0, graph.n - 1) in handle.graph.edges["a"]
            # The handed-off volume keeps accepting mutations.
            assert svc.add_edges("g", "a", [(1, 0)]) == 2

    def test_restore_unknown_volume_raises(self, tmp_path):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            with pytest.raises(StoreError):
                svc.restore_graph("ghost")


class TestInstall:
    """``register`` / ``restore`` / ``restore_replica`` differ in where
    the graph comes from; what makes it resident is one ``_install``."""

    # entry -> (version the handle lands at, whether it holds the
    #           volume's writer lease)
    ENTRIES = {
        "register": (0, False),
        # snapshot at v1 + the one WAL delta behind it
        "restore": (2, True),
        # the snapshot only: a replica is shipped the WAL suffix
        "restore_replica": (1, False),
    }

    @staticmethod
    def call(store, entry, residency):
        """Invoke ``entry`` for graph "g"; returns the installed handle."""
        args = (fresh_graph(),) if entry == "register" else ()
        got = getattr(store, entry)("g", *args, residency=residency)
        return got[0] if entry == "restore_replica" else got

    @pytest.fixture()
    def seeded(self, tmp_path):
        """A volume holding a v1 snapshot with bit containers and one
        WAL delta (v2) behind it."""
        with QueryService(workers=0, store_root=tmp_path, hybrid="auto") as svc:
            svc.register_graph("g", fresh_graph(), residency="bit")
            svc.add_edges("g", "a", [(0, 39)])
            svc.persist_graph("g")
            svc.add_edges("g", "b", [(1, 38)])
        return tmp_path

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_entry_point(self, seeded, entry):
        version, holds_lease = self.ENTRIES[entry]
        with QueryService(workers=0, store_root=seeded, hybrid="auto") as svc:
            store = svc.graphs
            old = store.register("g", fresh_graph())
            handle = self.call(store, entry, "bit")
            assert store.get("g") is handle
            assert old.matrices == {}  # the replaced handle was freed
            assert handle.current_version() == version
            assert (handle.volume is not None) == holds_lease
            assert sorted(handle.matrices) == ["a", "b", "c"]
            assert handle.formats == {
                label: m.handle.resident for label, m in handle.matrices.items()
            }
            assert set(handle.formats.values()) <= {"bit", "both"}
            assert handle.journal.stats() == {"journal_entries": 0, "floor_version": version}
            assert handle.stale == set()
            assert ((0, 39) in handle.graph.edges["a"]) == (version >= 1)
            assert ((1, 38) in handle.graph.edges["b"]) == (version >= 2)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_bad_residency_installs_nothing(self, seeded, entry):
        with QueryService(workers=0, store_root=seeded) as svc:
            with pytest.raises(InvalidArgumentError, match="residency"):
                self.call(svc.graphs, entry, "dense")
            assert "g" not in svc.graphs

    def test_restore_hands_the_lease_back_when_loading_fails(
        self, tmp_path, monkeypatch
    ):
        with QueryService(workers=0, store_root=tmp_path) as svc:
            svc.register_graph("g", fresh_graph())
            svc.persist_graph("g")
            handle = svc.graphs.get("g")
            volume = handle.volume

            def boom(matrices, bit_paths):
                raise StoreError("injected load failure")

            monkeypatch.setattr(svc.graphs, "_adopt_bit_views", boom)
            with pytest.raises(StoreError, match="injected"):
                svc.restore_graph("g")
            assert svc.graphs.get("g") is handle and handle.volume is volume
            # The lease still works: the next mutation is WAL-logged.
            assert svc.add_edges("g", "a", [(1, 0)]) == 1
            assert [d.version for d in volume.wal.replay()[0]] == [1]

    def test_removed_overlay_options_are_rejected(self):
        # The eager-rebuild mode is gone, not silently accepted.
        with pytest.raises(TypeError):
            QueryService(overlay=False)
        ctx = repro.Context(backend="cpu")
        try:
            with pytest.raises(TypeError):
                GraphStore(ctx, overlay_fold_limit=4)
            store = GraphStore(ctx)
            assert not hasattr(store, "use_overlay")
            assert not hasattr(store, "overlay_fold_limit")
        finally:
            ctx.finalize()


class TestTornBatch:
    """A WAL append that fails mid-batch must leave one consistent
    history: the logged prefix committed, the failed triple gone from
    both state and log, and the next batch minted after the prefix."""

    BATCH = [("add", "a", [(2, 3)]), ("add", "a", [(3, 4)])]

    @staticmethod
    def fail_append_delta(monkeypatch, volume):
        """Fault before ``write``: the second append never reaches the log."""
        real, calls = volume.append_delta, []

        def failing(op, label, edges, *, version):
            calls.append(version)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            real(op, label, edges, version=version)

        monkeypatch.setattr(volume, "append_delta", failing)

    @staticmethod
    def fail_fsync(monkeypatch, volume):
        """Fault at ``os.fsync``: the second transaction's bytes are in
        the file but were never made durable."""
        real, calls = os.fsync, []

        def failing(fd):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError(errno.EIO, "Input/output error")
            real(fd)

        monkeypatch.setattr(os, "fsync", failing)

    @pytest.mark.parametrize("fault", ["fail_append_delta", "fail_fsync"])
    def test_failed_append_commits_the_logged_prefix(
        self, tmp_path, monkeypatch, fault
    ):
        graph = fresh_graph()
        edges = set(graph.edges["a"])
        assert not edges & {(2, 3), (3, 4), (4, 5)}
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            handle = svc.graphs.get("g")
            seen = []
            svc.graphs.on_mutate = lambda name, version: seen.append(version)
            getattr(self, fault)(monkeypatch, handle.volume)
            with pytest.raises(StoreError, match="version 2") as exc:
                svc.apply_batch("g", self.BATCH)
            assert isinstance(exc.value.__cause__, OSError)
            monkeypatch.undo()
            assert handle.current_version() == 1
            assert seen == [1]  # the committed prefix was announced
            assert (2, 3) in handle.graph.edges["a"]
            assert (3, 4) not in handle.graph.edges["a"]
            assert handle.journal.stats()["journal_entries"] == 1
            # The failed transaction left no bytes behind ...
            assert [d.version for d in handle.volume.wal.replay()[0]] == [1]
            # ... so the next batch is version 2, logged exactly once.
            assert svc.apply_batch("g", [("add", "a", [(4, 5)])]) == 2
            deltas, last = handle.volume.wal.replay()
            assert [d.version for d in deltas] == [1, 2] and last == 2
            assert [tuple(d.edges[0]) for d in deltas] == [(2, 3), (4, 5)]
            want = svc.reach("g", "a+", source=2)
        with QueryService(workers=1, store_root=tmp_path) as svc:
            restored = svc.graphs.restore("g")
            assert restored.current_version() == 2
            assert set(restored.graph.edges["a"]) == edges | {(2, 3), (4, 5)}
            assert svc.reach("g", "a+", source=2) == want


class TestResultCache:
    def test_exact_repeat_hits(self, tmp_path, graph):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            first = svc.reach("g", QUERY, source=3)
            second = svc.reach("g", QUERY, source=3)
            assert first == second
            rc = svc.stats().result_cache
            assert rc["hits"] == 1

    def test_version_bump_invalidates(self, tmp_path, graph):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.reach("g", QUERY, source=0)
            svc.add_edges("g", "a", [(0, graph.n - 1)])
            svc.reach("g", QUERY, source=0)
            # Different version -> different key -> no stale hit.
            assert svc.stats().result_cache["hits"] == 0

    def test_reregister_invalidates(self, graph):
        with QueryService(workers=1) as svc:
            svc.register_graph("g", graph)
            svc.reach("g", QUERY, source=0)
            svc.register_graph("g", graph)
            assert svc.stats().result_cache["invalidations"] >= 1

    def test_lru_eviction_and_hit_identity(self):
        # Answers are immutable, so a hit is the object that was put.
        cache = ResultCache(capacity=2)
        answers = [frozenset({1}), frozenset({2}), PairSet.from_coo([0, 3], [1, 0])]
        for i, answer in enumerate(answers):
            cache.put(("reach", "g", 0, f"q{i}", f"k{i}", 0), answer)
        hit, _ = cache.get(("reach", "g", 0, "q0", "k0", 0))
        assert not hit  # evicted
        hit, val = cache.get(("reach", "g", 0, "q2", "k2", 0))
        assert hit and val is answers[2]
        assert val == {(0, 1), (3, 0)}
        with pytest.raises(ValueError):
            val.keys[0] = 7

    def test_key_bytes_counts_shared_arrays_once(self):
        cache = ResultCache(capacity=4)
        answer = PairSet.from_coo([0, 1, 2], [1, 2, 0])
        state = FixpointState(
            "tensor", (3, 3), {"fact:S": answer.keys, "closure": np.arange(5, dtype=np.uint64)}
        )
        cache.put(("cfpq", "g", 0, "cfg", "S", None), answer, state=state)
        cache.put(("reach", "g", 0, "rpq", "a", 0), frozenset({1, 2}))
        assert cache.stats()["key_bytes"] == 3 * 8 + 5 * 8

    def test_disabled_cache(self, graph):
        with QueryService(workers=1, result_capacity=0) as svc:
            assert svc.results is None
            svc.register_graph("g", graph)
            assert svc.reach("g", QUERY, source=0) == svc.reach(
                "g", QUERY, source=0
            )


#: Byte-for-byte what the releases that still measured wrote under
#: ``<root>/metadata/autotune.json`` (format_version 1, indent 2, sorted
#: keys) — including fields of the worker pool removed before them.
LEGACY_AUTOTUNE_JSON = (
    "{\n"
    '  "entries": {\n'
    '    "clbool@clbool-dev": {\n'
    '      "crossover": 0.04,\n'
    '      "probe_n": 192\n'
    "    },\n"
    '    "cubool@cubool-dev": {\n'
    '      "crossover": 0.0132,\n'
    '      "four_russians_min_rows": 64,\n'
    '      "fr_probe_k": 512,\n'
    '      "probe_n": 192,\n'
    '      "tiled_parallel_min_words": 4611686018427387904,\n'
    '      "tiled_probe_n": 768\n'
    "    }\n"
    "  },\n"
    '  "format_version": 1\n'
    "}\n"
)


class TestAutotuneMetadata:
    """The autotuners are gone; what they left in a store root is never
    read, never rewritten, and never in the way."""

    def check_ignored(self, tmp_path, graph, monkeypatch, payload):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            before = svc.reach("g", QUERY, source=0)
            svc.persist_graph("g")
        path = tmp_path / "metadata" / "autotune.json"
        path.parent.mkdir()
        path.write_text(payload)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        with QueryService(workers=1, hybrid="auto") as svc:
            assert svc.restore_all() == ["g"]
            assert svc.reach("g", QUERY, source=0) == before
            # A crossover read back from the file would show up here.
            assert svc.ctx.backend.policy == HybridPolicy()
        root = ["--root", str(tmp_path)]
        assert store_main(root + ["ls"]) == 0
        assert store_main(root + ["verify"]) == 0
        assert path.read_text() == payload

    def test_file_written_before_the_pool_was_removed_still_loads(
        self, tmp_path, graph, monkeypatch
    ):
        self.check_ignored(tmp_path, graph, monkeypatch, LEGACY_AUTOTUNE_JSON)

    def test_corrupt_metadata_is_ignored(self, tmp_path, graph, monkeypatch):
        self.check_ignored(tmp_path, graph, monkeypatch, "{not json")


class TestStoreCli:
    def run(self, *argv, capsys=None):
        code = store_main(list(argv))
        out = capsys.readouterr().out if capsys else ""
        return code, out

    def seed(self, tmp_path, graph):
        with QueryService(workers=0, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            svc.add_edges("g", "a", [(0, 1)])

    def test_ls_info_verify_compact(self, tmp_path, graph, capsys):
        self.seed(tmp_path, graph)
        root = str(tmp_path)
        code, out = self.run("--root", root, "ls", capsys=capsys)
        assert code == 0 and "g" in out
        code, out = self.run("--root", root, "--json", "info", "g", capsys=capsys)
        assert code == 0
        info = json.loads(out)
        assert info["version"] == 1 and info["wal_deltas"] == 1
        code, out = self.run("--root", root, "verify", capsys=capsys)
        assert code == 0
        code, out = self.run("--root", root, "compact", "g", capsys=capsys)
        assert code == 0
        code, out = self.run("--root", root, "--json", "info", "g", capsys=capsys)
        assert json.loads(out)["wal_deltas"] == 0

    def test_verify_fails_on_corruption(self, tmp_path, graph, capsys):
        self.seed(tmp_path, graph)
        target = next((tmp_path / "volumes" / "g" / "snapshots").rglob("*.rpc"))
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF
        target.write_bytes(bytes(data))
        assert store_main(["--root", str(tmp_path), "verify"]) == 1
        capsys.readouterr()

    def test_unknown_volume_errors(self, tmp_path, capsys):
        assert store_main(["--root", str(tmp_path), "info", "ghost"]) == 1
        capsys.readouterr()

    def test_compact_refuses_live_volume(self, tmp_path, graph, capsys):
        """compact against a volume a live service holds must fail fast
        — a WAL reset under the service's open append handle would drop
        committed deltas out from under the running writer."""
        with QueryService(workers=0, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            svc.add_edges("g", "a", [(0, 1)])
            assert store_main(["--root", str(tmp_path), "compact", "g"]) == 1
            assert "locked by another writer" in capsys.readouterr().err
            # Read-only maintenance stays available against a live volume.
            assert store_main(["--root", str(tmp_path), "verify", "g"]) == 0
            capsys.readouterr()
        # Service quiesced: the lock is released and compaction proceeds.
        assert store_main(["--root", str(tmp_path), "compact", "g"]) == 0
        capsys.readouterr()


class TestMappedRestore:
    """Hybrid-only: bit snapshots must come back as mmap views."""

    def test_mmap_restore_accounting(self, tmp_path, graph):
        with QueryService(
            workers=1, store_root=tmp_path, hybrid="auto"
        ) as svc:
            from repro.backends.hybrid import HybridBackend

            if not isinstance(svc.ctx.backend, HybridBackend):
                pytest.skip("hybrid backend unavailable")
            svc.register_graph("g", graph, residency="bit")
            svc.persist_graph("g")
            before = svc.reach("g", QUERY, source=0)
        with QueryService(
            workers=1, store_root=tmp_path, hybrid="auto"
        ) as svc:
            arena = svc.ctx.device.arena
            base = arena.stats().mapped_bytes
            svc.restore_graph("g")
            assert arena.stats().mapped_bytes > base
            handle = svc.graphs.get("g")
            for label in ("a", "b", "c"):
                m = handle.matrices[label].handle
                assert m.bit is not None
                words = m.bit.storage.words
                assert not words.flags["WRITEABLE"]
                assert not words.flags["OWNDATA"]
            assert svc.reach("g", QUERY, source=0) == before
        # Arena balanced after close: mapped buffers were released.
        arena.check_balanced()

    def test_heap_restore_when_mmap_disabled(self, tmp_path, graph):
        with QueryService(
            workers=1, store_root=tmp_path, hybrid="auto"
        ) as svc:
            from repro.backends.hybrid import HybridBackend

            if not isinstance(svc.ctx.backend, HybridBackend):
                pytest.skip("hybrid backend unavailable")
            svc.register_graph("g", graph, residency="bit")
            svc.persist_graph("g")
        with QueryService(
            workers=1, store_root=tmp_path, hybrid="auto"
        ) as svc:
            base = svc.ctx.device.arena.stats().mapped_bytes
            svc.restore_graph("g", mmap=False)
            assert svc.ctx.device.arena.stats().mapped_bytes == base
