"""Service-tier persistence: persist/restore, deltas, caches, CLI."""

from __future__ import annotations

import json

import pytest

import repro
from repro.datasets.random_graphs import uniform_random_graph
from repro.errors import (
    IndexOutOfBoundsError,
    InvalidArgumentError,
    StoreError,
    UnknownGraphError,
)
from repro.rpq import rpq_pairs
from repro.service import QueryService
from repro.service.result_cache import ResultCache
from repro.store import load_autotune, save_autotune
from repro.store.cli import main as store_main

QUERY = "a b* c"


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(40, 170, labels=("a", "b", "c"), seed=11)


def reach_oracle(graph, query, src, ctx):
    return {v for u, v in rpq_pairs(graph, query, ctx) if u == src}


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
        ctx = repro.Context(backend="cubool")
        want = reach_oracle(mutated, QUERY, 1, ctx)
        ctx.finalize()
        assert got == want

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

    def test_lru_eviction_and_copy_out(self):
        cache = ResultCache(capacity=2)
        cache.put(("reach", "g", 0, "q1", "k1", 0), {1})
        cache.put(("reach", "g", 0, "q2", "k2", 0), {2})
        cache.put(("reach", "g", 0, "q3", "k3", 0), {3})
        hit, _ = cache.get(("reach", "g", 0, "q1", "k1", 0))
        assert not hit  # evicted
        hit, val = cache.get(("reach", "g", 0, "q3", "k3", 0))
        assert hit and val == {3}
        val.add(99)  # mutating the copy must not poison the cache
        assert cache.get(("reach", "g", 0, "q3", "k3", 0))[1] == {3}

    def test_disabled_cache(self, graph):
        with QueryService(workers=1, result_capacity=0) as svc:
            assert svc.results is None
            svc.register_graph("g", graph)
            assert svc.reach("g", QUERY, source=0) == svc.reach(
                "g", QUERY, source=0
            )


class TestAutotuneMetadata:
    def test_save_load_round_trip(self, tmp_path):
        assert load_autotune(tmp_path, "hybrid", "sim", "crossover") is None
        save_autotune(tmp_path, "hybrid", "sim", crossover=0.031, probe_n=256)
        assert load_autotune(
            tmp_path, "hybrid", "sim", "crossover"
        ) == pytest.approx(0.031)
        assert load_autotune(tmp_path, "hybrid", "other", "crossover") is None
        assert load_autotune(
            tmp_path, "hybrid", "sim", "four_russians_min_rows"
        ) is None
        payload = json.loads(
            (tmp_path / "metadata" / "autotune.json").read_text()
        )
        assert payload["entries"]["hybrid@sim"]["probe_n"] == 256

    def test_corrupt_metadata_is_ignored(self, tmp_path):
        path = tmp_path / "metadata" / "autotune.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert load_autotune(tmp_path, "hybrid", "sim", "crossover") is None
        save_autotune(tmp_path, "hybrid", "sim", crossover=0.5)
        assert load_autotune(tmp_path, "hybrid", "sim", "crossover") == 0.5

    def test_unknown_or_out_of_range_fields_are_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            load_autotune(tmp_path, "hybrid", "sim", "tiled_parallel_min_words")
        with pytest.raises(InvalidArgumentError):
            save_autotune(tmp_path, "hybrid", "sim", crosover=0.5)
        with pytest.raises(InvalidArgumentError):
            save_autotune(tmp_path, "hybrid", "sim", crossover=1.5)
        assert not (tmp_path / "metadata" / "autotune.json").exists()
        # A damaged value on disk reads as "not measured".
        path = tmp_path / "metadata" / "autotune.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "format_version": 1,
            "entries": {"hybrid@sim": {"crossover": "0.5",
                                       "four_russians_min_rows": -4}},
        }))
        assert load_autotune(tmp_path, "hybrid", "sim", "crossover") is None
        assert load_autotune(
            tmp_path, "hybrid", "sim", "four_russians_min_rows"
        ) is None

    def test_file_written_before_the_pool_was_removed_still_loads(self, tmp_path):
        # Byte-for-byte what the previous release's three savers wrote
        # (format_version 1, indent 2, sorted keys).
        path = tmp_path / "metadata" / "autotune.json"
        path.parent.mkdir(parents=True)
        path.write_text(
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
        key = ("cubool", "cubool-dev")
        assert load_autotune(tmp_path, *key, "crossover") == 0.0132
        assert load_autotune(tmp_path, *key, "four_russians_min_rows") == 64
        save_autotune(tmp_path, *key, four_russians_min_rows=128, fr_probe_k=256)
        entries = json.loads(path.read_text())["entries"]
        assert entries["cubool@cubool-dev"] == {
            "crossover": 0.0132,
            "four_russians_min_rows": 128,
            "fr_probe_k": 256,
            "probe_n": 192,
            "tiled_parallel_min_words": 4611686018427387904,
            "tiled_probe_n": 768,
        }
        assert entries["clbool@clbool-dev"] == {"crossover": 0.04, "probe_n": 192}


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
