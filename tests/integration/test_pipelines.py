"""End-to-end pipelines across modules: load → query → extract → verify."""

import networkx as nx
import pytest

import repro
from repro.algorithms import transitive_closure
from repro.cfpq import extract_paths, matrix_cfpq, tensor_cfpq
from repro.datasets import (
    lubm_like_graph,
    memory_alias_graph,
    rdf_like_graph,
)
from repro.datasets.queries_cfpq import query_g1, query_ma_cfg, query_ma_rsm
from repro.rpq import extract_paths as rpq_extract_paths
from repro.rpq import rpq_index


class TestFileToQueryPipeline:
    def test_rpq_index_to_paths(self, cubool_ctx):
        graph = lubm_like_graph("LUBM1k", scale=0.1, seed=2)
        index = rpq_index(graph, "advisor . memberOf*", cubool_ctx)
        pairs = index.pairs()
        assert pairs, "query should match something on the schema"
        checked = 0
        for (u, v) in sorted(pairs)[:5]:
            paths = rpq_extract_paths(index, u, v, max_paths=3, max_length=8)
            assert paths, (u, v)
            for p in paths:
                assert p.vertices[0] == u and p.vertices[-1] == v
                for x, y, lab in zip(p.vertices, p.vertices[1:], p.labels):
                    assert (x, y) in graph.edges[lab]
            checked += 1
        assert checked == 5
        index.free()

    def test_cfpq_both_engines_and_both_path_semantics(self, cubool_ctx):
        graph = memory_alias_graph("fs", scale=0.001, cluster_size=8, seed=3)
        tns = tensor_cfpq(graph, query_ma_rsm(), cubool_ctx)
        mtx = matrix_cfpq(
            graph, query_ma_cfg(), cubool_ctx, record_witnesses=True
        )
        assert tns.pairs("S") == mtx.pairs("S")
        for (u, v) in sorted(tns.pairs("S"))[:5]:
            all_paths = extract_paths(tns, u, v, max_paths=5, max_length=12)
            single = mtx.extract_single_path(u, v)
            assert single.vertices[0] == u and single.vertices[-1] == v
            if all_paths:
                assert all(
                    p.vertices[0] == u and p.vertices[-1] == v for p in all_paths
                )
        tns.free()
        mtx.free()


class TestCrossBackendPipelines:
    @pytest.mark.parametrize("backend", ["cpu", "cubool", "clbool", "generic"])
    def test_full_algorithm_stack_per_backend(self, backend, rng):
        ctx = repro.Context(backend=backend)
        graph = lubm_like_graph("LUBM1k", scale=0.05, seed=4)
        adj = graph.adjacency_union(ctx)
        closure = transitive_closure(adj)
        # The whole closure must equal the host graph's: every (u, v)
        # joined by a path of length >= 1.
        host = nx.DiGraph()
        host.add_nodes_from(range(graph.n))
        host.add_edges_from(e for edges in graph.edges.values() for e in edges)
        expected = set(nx.transitive_closure(host, reflexive=False).edges())
        assert set(zip(*(a.tolist() for a in closure.to_arrays()))) == expected
        assert expected
        ctx.finalize()

    def test_same_answers_across_backends(self, rng):
        graph = rdf_like_graph("pathways", scale=1.0, seed=5).with_inverses(
            labels=["subClassOf", "type"]
        )
        q = query_g1()
        answers = {}
        for backend in ("cpu", "cubool", "clbool", "generic"):
            ctx = repro.Context(backend=backend)
            idx = tensor_cfpq(graph, q, ctx)
            answers[backend] = idx.pairs()
            idx.free()
            ctx.finalize()
        baseline = answers["cpu"]
        for backend, got in answers.items():
            assert got == baseline, backend


class TestMemoryInvariants:
    def test_no_leaks_across_pipeline(self):
        ctx = repro.Context(backend="cubool")
        dev = ctx.device
        graph = rdf_like_graph("enzyme", scale=0.15, seed=6).with_inverses(
            labels=["subClassOf", "type"]
        )
        idx = tensor_cfpq(graph, query_g1(), ctx)
        idx.pairs()
        idx.free()
        ctx.finalize()
        assert dev.arena.live_bytes == 0
        dev.arena.check_balanced()

    def test_peak_monotone_and_bounded(self):
        ctx = repro.Context(backend="clbool")
        dev = ctx.device
        m = ctx.matrix_random((300, 300), 0.05, seed=7)
        live_before = dev.arena.live_bytes
        dev.arena.reset_peak()
        out = m.mxm(m)
        peak = dev.arena.peak_bytes
        assert peak >= dev.arena.live_bytes  # peak never below live
        assert peak >= live_before + out.memory_bytes() - 1024
        ctx.finalize()
