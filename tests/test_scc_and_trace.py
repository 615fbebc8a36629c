"""SCC / condensation tests (vs NetworkX) and kernel-trace export."""

import io
import json

import networkx as nx
import numpy as np
import pytest

import repro
from repro.algorithms import condensation, strongly_connected_components
from repro.errors import InvalidArgumentError
from repro.gpu import device_trace, write_trace

from .conftest import random_dense


class TestScc:
    def test_matches_networkx(self, ctx, rng):
        for _ in range(6):
            n = int(rng.integers(2, 28))
            d = random_dense(rng, (n, n), 0.09)
            np.fill_diagonal(d, False)
            a = ctx.matrix_from_dense(d)
            comp = strongly_connected_components(a)
            g = nx.from_numpy_array(d, create_using=nx.DiGraph)
            for scc in nx.strongly_connected_components(g):
                ids = {comp[v] for v in scc}
                assert len(ids) == 1
                assert min(scc) in ids

    def test_cycle_is_one_component(self, cubool_ctx):
        from repro.datasets import cycle_graph

        a = cycle_graph(7).adjacency_union(cubool_ctx)
        comp = strongly_connected_components(a)
        assert set(comp.tolist()) == {0}

    def test_dag_is_all_singletons(self, cubool_ctx):
        from repro.datasets import chain_graph

        a = chain_graph(6).adjacency_union(cubool_ctx)
        comp = strongly_connected_components(a)
        assert comp.tolist() == list(range(6))

    def test_empty_graph(self, cubool_ctx):
        comp = strongly_connected_components(cubool_ctx.matrix_empty((4, 4)))
        assert comp.tolist() == [0, 1, 2, 3]

    def test_non_square_rejected(self, cubool_ctx):
        with pytest.raises(InvalidArgumentError):
            strongly_connected_components(cubool_ctx.matrix_empty((2, 3)))

    def test_condensation_is_dag(self, cubool_ctx, rng):
        d = random_dense(rng, (20, 20), 0.12)
        np.fill_diagonal(d, False)
        a = cubool_ctx.matrix_from_dense(d)
        relabeled, dag = condensation(a)
        g = nx.from_numpy_array(dag.to_dense(), create_using=nx.DiGraph)
        assert nx.is_directed_acyclic_graph(g)
        # Component count equals the DAG's vertex count.
        assert dag.nrows == len(set(relabeled.tolist()))
        # Edges of the condensation correspond to cross-component edges.
        rows, cols = a.to_arrays()
        for u, v in zip(rows.tolist(), cols.tolist()):
            if relabeled[u] != relabeled[v]:
                assert (relabeled[u], relabeled[v]) in dag


class TestTrace:
    def test_events_cover_launches(self, rng):
        # Plain cuBool whatever REPRO_HYBRID says: the hybrid dispatcher
        # would route the dense product to the bit kernels.
        ctx = repro.Context(backend="cubool", hybrid=False)
        m = ctx.matrix_from_dense(random_dense(rng, (30, 30), 0.2))
        m.mxm(m).free()
        m.ewise_add(m).free()
        doc = device_trace(ctx.device)
        kernel_events = [e for e in doc["traceEvents"] if e.get("cat") == "kernel"]
        assert len(kernel_events) == ctx.device.counters.kernel_launches
        names = {e["name"] for e in kernel_events}
        assert any("spgemm" in n for n in names)
        assert any("merge_path" in n for n in names)
        ctx.finalize()

    def test_event_fields(self, cubool_ctx, rng):
        m = cubool_ctx.matrix_from_dense(random_dense(rng, (10, 10), 0.3))
        m.mxm(m).free()
        doc = device_trace(cubool_ctx.device)
        for e in doc["traceEvents"]:
            if e.get("cat") != "kernel":
                continue
            assert e["ph"] == "X"
            assert e["dur"] >= 0
            assert e["args"]["grid"] >= 1
            assert 0.0 <= e["args"]["occupancy"] <= 1.0

    def test_json_serializable(self, clbool_ctx, rng):
        m = clbool_ctx.matrix_from_dense(random_dense(rng, (15, 15), 0.2))
        m.mxm(m).free()
        buf = io.StringIO()
        write_trace(clbool_ctx.device, buf)
        parsed = json.loads(buf.getvalue())
        assert parsed["otherData"]["device"] == clbool_ctx.device.name

    def test_write_to_path(self, cubool_ctx, tmp_path, rng):
        m = cubool_ctx.matrix_from_dense(random_dense(rng, (8, 8), 0.3))
        m.mxm(m).free()
        path = tmp_path / "trace.json"
        write_trace(cubool_ctx.device, path)
        assert json.loads(path.read_text())["traceEvents"]
