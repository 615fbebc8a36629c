"""The three library workloads: ``ops_sparse``, ``ops_dense``, ``index_build``."""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.algorithms.closure import transitive_closure
from repro.cfpq import cfpq
from repro.datasets import query_g1, query_ma_rsm
from repro.datasets.queries_cfpq import query_ma_cfg
from repro.rpq import rpq_index

from . import inputs, probes
from .common import bool_closure, bool_mxm, coo_signature, dense_signature
from .workload import Recorder, Workload


def _matrix_signature(m) -> tuple[int, str]:
    rows, cols = m.to_arrays()
    return coo_signature(rows, cols, m.shape)


class _LibraryWorkload(Workload):
    """Closed loop of one caller: the pass is a fixed script of op calls."""

    def __init__(self, seed, *, smoke=False):
        super().__init__(seed, smoke=smoke)
        self._contexts: dict = {}

    def contexts(self):
        return list(self._contexts.values())

    def close(self):
        for ctx in self._contexts.values():
            ctx.finalize()
        self._contexts.clear()


# ---------------------------------------------------------------------------
# ops_sparse
# ---------------------------------------------------------------------------


class OpsSparse(_LibraryWorkload):
    name = "ops_sparse"
    PASSES = 32
    BACKENDS = ("cubool", "clbool")
    #: 8-cycle plus one chord: the automaton-sized left factor of the kron.
    SMALL = ([0, 1, 2, 3, 4, 5, 6, 7, 0], [1, 2, 3, 4, 5, 6, 7, 0, 4], 8)

    def build(self):
        self.operands = inputs.sparse_operands(self.seed)
        if self.smoke:
            self.operands = {k: self.operands[k] for k in ("grid96", "uniform4096")}
        for backend in self.BACKENDS:
            self._contexts[backend] = repro.Context(backend=backend, hybrid=False)

    def run_script(self, backend: str, ctx, rec: Recorder, keep: dict | None = None):
        """The fixed op script on one context.  ``keep`` (check passes
        only) receives a full signature per result."""
        sr, sc, sn = self.SMALL
        small = ctx.matrix_from_lists((sn, sn), sr, sc)
        for family, (rows, cols, n) in self.operands.items():
            t0 = time.perf_counter()
            a = ctx.matrix_from_lists((n, n), rows, cols)
            t1 = time.perf_counter()
            product = rec.timed("mxm", lambda: a.mxm(a))
            got = product.to_arrays()
            rec.mutate.append(t1 - t0)
            rec.fresh.append(time.perf_counter() - t1)
            results = {
                "mxm": product,
                "ewise_add": rec.timed("ewise_add", lambda: a.ewise_add(product)),
                "transpose": rec.timed("transpose", a.transpose),
            }
            vec = rec.timed("reduce", a.reduce_to_vector)
            if family == "grid96":
                results["kron"] = rec.timed("kron", lambda: small.kron(a))
            for op, m in results.items():
                rec.expect((backend, family, op), m.nnz)
                if keep is not None:
                    keep[(family, op)] = (
                        coo_signature(*got, m.shape) if op == "mxm" else _matrix_signature(m)
                    )
                m.free()
            rec.expect((backend, family, "reduce"), vec.nnz)
            if keep is not None:
                keep[(family, "reduce")] = tuple(vec.to_list())
            vec.free()
            a.free()
        small.free()

    def run_pass(self, k, rec):
        for backend in self.BACKENDS:
            self.run_script(backend, self._contexts[backend], rec)

    def verify(self, rec):
        reference: dict = {}
        with repro.Context(backend="cpu") as cpu:
            self.run_script("cpu", cpu, Recorder(), reference)
        for backend in self.BACKENDS:
            got: dict = {}
            self.run_script(backend, self._contexts[backend], Recorder(), got)
            for key, want in reference.items():
                if got.get(key) != want:
                    rec.fail(f"{backend} {key}: differs from the cpu reference")
        return len(reference) * len(self.BACKENDS)

    def probes(self):
        return probes.paper_ratios(self)


# ---------------------------------------------------------------------------
# ops_dense
# ---------------------------------------------------------------------------


def _dense(rows, cols, n) -> np.ndarray:
    out = np.zeros((n, n), dtype=bool)
    out[rows, cols] = True
    return out


class OpsDense(_LibraryWorkload):
    name = "ops_dense"
    PASSES = 32
    SMALL = ([0, 1, 2, 0], [1, 2, 0, 2], 3)

    def build(self):
        rng = np.random.default_rng(self.seed)
        big, mid = (512, 256) if self.smoke else (2048, 1024)
        self.big, self.mid = big, mid
        self.host = {
            "U": (*inputs.uniform_coo(big, 0.05, rng), big),
            "BD": (*inputs.block_diagonal_coo(big, 8, 0.10, rng), big),
            "C1": (*inputs.uniform_coo(mid, 0.004 * 1024 / mid, rng), mid),
            "C2": (*inputs.uniform_coo(big, 0.002 * 2048 / big, rng), big),
            "CB": (*inputs.block_diagonal_coo(big, 8, 0.02 * 2048 / big, rng), big),
            "G": (*inputs.uniform_coo(mid, 0.05, rng), mid),
        }
        ctx = repro.Context(backend="cubool", hybrid="auto")
        self._contexts["hybrid"] = ctx
        self.mats = {
            key: ctx.matrix_from_lists((n, n), r, c)
            for key, (r, c, n) in self.host.items()
            if key != "C1"
        }
        sr, sc, sn = self.SMALL
        self.mats["K"] = ctx.matrix_from_lists((sn, sn), sr, sc)
        self.mats["ACC"] = ctx.matrix_empty((sn * mid, sn * mid))

    def run_pass(self, k, rec, keep: dict | None = None):
        ctx = self._contexts["hybrid"]
        m = self.mats
        r, c, n = self.host["C1"]
        t0 = time.perf_counter()
        c1 = ctx.matrix_from_lists((n, n), r, c)
        t1 = time.perf_counter()
        first = rec.timed("mxm", lambda: c1.mxm(c1))
        first.to_arrays()
        rec.mutate.append(t1 - t0)
        rec.fresh.append(time.perf_counter() - t1)
        half, quarter = self.big // 2, self.big // 8
        uu = rec.timed("mxm", lambda: m["U"].mxm(m["U"]))
        results = {
            "c1.c1": first,
            "u.u": uu,
            "transpose(u.u)": rec.timed("transpose", uu.transpose),
            "bd.bd": rec.timed("mxm", lambda: m["BD"].mxm(m["BD"])),
            "closure(c1)": rec.timed("closure", lambda: transitive_closure(c1)),
            "closure(c2)": rec.timed("closure", lambda: transitive_closure(m["C2"])),
            "closure(cb)": rec.timed("closure", lambda: transitive_closure(m["CB"])),
            "kron(k,g)+acc": rec.timed(
                "kron", lambda: m["K"].kron(m["G"], accumulate=m["ACC"])
            ),
            "u.u&~u": rec.timed("mxm_masked", lambda: m["U"].mxm(m["U"], mask=m["U"])),
            "u|bd": rec.timed("ewise_add", lambda: m["U"].ewise_add(m["BD"])),
            "extract(u.u)": rec.timed(
                "extract", lambda: uu.extract_submatrix(quarter, quarter, half, half)
            ),
        }
        for key, out in results.items():
            rec.expect(key, out.nnz)
            if keep is not None:
                keep[key] = _matrix_signature(out)
            out.free()
        c1.free()

    def verify(self, rec):
        got: dict = {}
        self.run_pass(0, Recorder(), got)
        d = {key: _dense(r, c, n) for key, (r, c, n) in self.host.items()}
        sr, sc, sn = self.SMALL
        uu = bool_mxm(d["U"], d["U"])
        half, quarter = self.big // 2, self.big // 8
        reference = {
            "c1.c1": bool_mxm(d["C1"], d["C1"]),
            "u.u": uu,
            "transpose(u.u)": uu.T,
            "bd.bd": bool_mxm(d["BD"], d["BD"]),
            "closure(c1)": bool_closure(d["C1"]),
            "closure(c2)": bool_closure(d["C2"]),
            "closure(cb)": bool_closure(d["CB"]),
            "kron(k,g)+acc": np.kron(_dense(sr, sc, sn), d["G"]),
            "u.u&~u": uu & ~d["U"],
            "u|bd": d["U"] | d["BD"],
            "extract(u.u)": uu[quarter : quarter + half, quarter : quarter + half],
        }
        for key, want in reference.items():
            if got.get(key) != dense_signature(want):
                rec.fail(f"{key}: differs from the dense reference")
        return len(reference)

    def probes(self):
        out = probes.format_kernels(self)
        out.update(probes.cold_vs_resident(self))
        out.update(probes.calibration_grid(self.seed))
        out.update(probes.product_ladder(self.seed))
        return out


# ---------------------------------------------------------------------------
# index_build
# ---------------------------------------------------------------------------


class IndexBuild(_LibraryWorkload):
    name = "index_build"
    #: 11-17 s here: a window of 10 s holds only five to seven of these
    #: passes, too few for a steady minimum.
    PASSES = 8
    ALIAS_SCALE = 0.02

    def build(self):
        self.lubm, self.queries, self.students = inputs.lubm_inputs(self.seed)
        if self.smoke:
            self.queries = self.queries[:2]
        self.alias = inputs.alias_graph(self.seed, 0.005 if self.smoke else self.ALIAS_SCALE)
        self.go = inputs.go_hierarchy_graph(self.seed)
        self.ma_rsm, self.ma_cfg, self.g1 = query_ma_rsm(), query_ma_cfg(), query_g1()
        self._contexts["hybrid"] = repro.Context(backend="cubool", hybrid="auto")

    def _rpq_indexes(self, ctx, rec, adjacency, keep):
        for i, query in enumerate(self.queries):
            t0 = time.perf_counter()
            index = rec.timed(
                "rpq_index", lambda: rpq_index(self.lubm, query, ctx, adjacency=adjacency)
            )
            if i == 0:
                rec.fresh.append(time.perf_counter() - t0)
            rec.expect(("rpq", query), index.closure.nnz)
            if keep is not None:
                keep[("rpq", query)] = _matrix_signature(index.closure)
            index.free()

    def run_pass(self, k, rec, keep: dict | None = None):
        ctx = self._contexts["hybrid"]
        t0 = time.perf_counter()
        adjacency = self.lubm.adjacency_matrices(ctx)
        rec.mutate.append(time.perf_counter() - t0)
        self._rpq_indexes(ctx, rec, adjacency, keep)
        for mat in adjacency.values():
            mat.free()
        tns = rec.timed("cfpq_tns", lambda: cfpq(self.alias, self.ma_rsm, ctx, engine="tns"))
        mtx = rec.timed("cfpq_mtx", lambda: cfpq(self.alias, self.ma_cfg, ctx, engine="mtx"))
        g1 = rec.timed("cfpq_tns", lambda: cfpq(self.go, self.g1, ctx, engine="tns"))
        rec.expect("ma.tns", len(tns.fact_pairs["S"][0]))
        rec.expect("ma.mtx", mtx.matrices[mtx.grammar.start].nnz)
        rec.expect("g1.tns", len(g1.fact_pairs["S"][0]))
        if keep is not None:
            keep["ma.tns"], keep["ma.mtx"] = tns.pairs(), mtx.pairs("S")
            keep["g1.tns"] = g1.pairs()
        for index in (tns, mtx, g1):
            index.free()

    def verify(self, rec):
        got: dict = {}
        self.run_pass(0, Recorder(), got)
        checked = 0
        if got["ma.tns"] != got["ma.mtx"]:
            rec.fail("MA: Tns pairs != Mtx pairs")
        with repro.Context(backend="cpu") as cpu:
            g1_mtx = cfpq(self.go, self.g1, cpu, engine="mtx")
            if got["g1.tns"] != g1_mtx.pairs("S"):
                rec.fail("G1: Tns pairs != Mtx pairs (cpu)")
            g1_mtx.free()
            checked += 2
            reference: dict = {}
            adjacency = self.lubm.adjacency_matrices(cpu)
            self._rpq_indexes(cpu, Recorder(), adjacency, reference)
            for key, want in reference.items():
                checked += 1
                if got.get(key) != want:
                    rec.fail(f"{key}: closure differs from the cpu backend")
        # Size guard: the all-pairs CFPQ answers must stay small.
        if len(got["ma.tns"]) > 1024 * 1024 or self.alias.n > 1024:
            rec.fail("CFPQ graph exceeds the n <= 1024 size guard")
        return checked

    def probes(self):
        out = probes.product_ladder(self.seed)
        out.update(probes.reach_probes(self))
        return out
