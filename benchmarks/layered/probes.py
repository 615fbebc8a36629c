"""Per-layer probes: the numbers no counter exposes.

Each probe runs in the traced run of the workload that owns it, after
the traced passes, on operands that workload already built (or on small
fixed ones generated from the seed).  Probes call the layers' public
functions directly, so adjacent rungs of a ladder subtract to one
layer's cost.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.algorithms.closure import incremental_transitive_closure, transitive_closure
from repro.algorithms.shortest_paths import single_source_shortest_paths, weight_matrix
from repro.backends.cubool.spgemm_hash import DEFAULT_BIN_BOUNDS, spgemm_boolean_csr
from repro.formats import convert
from repro.formats.bitmatrix import BitMatrix
from repro.formats.tiled import TiledBitMatrix
from repro.incr.engine import rpq_reach_incremental
from repro.rpq import rpq_reach, rpq_reach_batch
from repro.service.plan_cache import compile_rpq_plan

from . import inputs
from .common import highest_percentile, last_level_cache_bytes, median, percentile
from .workload import Recorder

#: Largest array the OR-peak probe allocates (two of them are live).
OR_PEAK_MAX_BYTES = 256 * 1024**2


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_ms(fn, repeats: int = 5) -> float:
    return median(_timed(fn) for _ in range(repeats)) * 1e3


def _interleaved_ms(rungs: dict, repeats: int) -> dict:
    """Median ms per rung, the rungs called round-robin so drift and
    cache state hit all of them alike."""
    times = {name: [] for name in rungs}
    for _ in range(repeats):
        for name, fn in rungs.items():
            t0 = time.perf_counter()
            out = fn()
            times[name].append(time.perf_counter() - t0)
            if hasattr(out, "free"):
                out.free()
    return {name: median(ts) * 1e3 for name, ts in times.items()}


# -- ops_sparse ----------------------------------------------------------------


def paper_ratios(workload) -> dict:
    """The op script on ``generic``/``generic64`` beside the boolean
    backends: per-op-class ms per pass and the paper's ratios (generic
    over the *best* boolean backend; memory as generic64 over cubool)."""
    per_backend: dict[str, dict[str, float]] = {}
    contexts = dict(workload._contexts)
    extra = {name: repro.Context(backend=name) for name in ("generic", "generic64")}
    contexts.update(extra)
    try:
        for backend, ctx in contexts.items():
            passes = []
            for _ in range(3):
                rec = Recorder()
                workload.run_script(backend, ctx, rec)
                passes.append(
                    {op: sum(rec.latencies(op)) * 1e3 for op in ("mxm", "ewise_add", "kron")}
                )
            per_backend[backend] = {
                op: median(p[op] for p in passes) for op in ("mxm", "ewise_add", "kron")
            }
        # Memory: peak over live of one product on the largest operand.
        rows, cols, n = workload.operands[max(workload.operands, key=lambda k: workload.operands[k][2])]
        peaks = {}
        for backend in ("cubool", "generic64"):
            ctx = contexts[backend]
            a = ctx.matrix_from_lists((n, n), rows, cols)
            live = ctx.device.arena.live_bytes
            ctx.device.arena.reset_peak()
            a.mxm(a).free()
            peaks[backend] = ctx.device.arena.peak_bytes - live
            a.free()
    finally:
        for ctx in extra.values():
            ctx.finalize()
    graph = inputs.community_graph(1024, 8, 0.02, ("a",), workload.seed)
    weights = weight_matrix(graph)
    generic = per_backend["generic"]
    best = {
        op: min(per_backend["cubool"][op], per_backend["clbool"][op])
        for op in generic
    }
    return {
        "generic.mxm_ms": generic["mxm"],
        "generic.ewise_add_ms": generic["ewise_add"],
        "generic.kron_ms": generic["kron"],
        "generic.minplus_sssp_ms": _median_ms(
            lambda: single_source_shortest_paths(weights, 0), 3
        ),
        "paper.bool_speedup_mxm": generic["mxm"] / best["mxm"],
        "paper.bool_speedup_add": generic["ewise_add"] / best["ewise_add"],
        "paper.bool_speedup_kron": generic["kron"] / best["kron"],
        "paper.bool_mem_ratio_mxm": peaks["generic64"] / max(1, peaks["cubool"]),
    }


# -- ops_dense -----------------------------------------------------------------


def or_peak_gwords_s() -> tuple[float, int]:
    """Measured ``np.bitwise_or`` rate (Gwords/s) on two arrays of at least
    4x the last-level cache, capped at :data:`OR_PEAK_MAX_BYTES` each;
    returns the rate and the array size used."""
    nbytes = min(OR_PEAK_MAX_BYTES, max(64 * 1024**2, 4 * last_level_cache_bytes()))
    words = nbytes // 8
    a = np.full(words, 0x5555555555555555, dtype=np.uint64)
    b = np.full(words, 0x3333333333333333, dtype=np.uint64)
    best = min(_timed(lambda: np.bitwise_or(a, b, out=a)) for _ in range(3))
    return words / best / 1e9, nbytes


def format_kernels(workload) -> dict:
    """Raw ``BitMatrix`` / ``TiledBitMatrix`` ``*_into`` kernels and the
    conversions, on the ``ops_dense`` operands."""
    u_csr = workload.mats["U"].handle.sparse.storage
    bd_csr = workload.mats["BD"].handle.sparse.storage
    g_csr = workload.mats["G"].handle.sparse.storage
    k_csr = workload.mats["K"].handle.sparse.storage
    u, bd, g, k = (convert.to_bitmatrix(m) for m in (u_csr, bd_csr, g_csr, k_csr))
    bd_t = convert.bitmatrix_to_tiled(bd)
    n = u.shape[0]

    def into(kernel, *operands, **kwargs):
        def run():
            out = BitMatrix.empty((n, n))
            getattr(out, kernel)(*operands, **kwargs)
        return run

    def tiled(four_russians):
        def run():
            out = TiledBitMatrix(BitMatrix.empty((n, n)), bd_t.tile, scan=False)
            out.mxm_into(bd_t, bd_t, four_russians=four_russians)
        return run

    def kron():
        out = BitMatrix.empty((k.shape[0] * g.shape[0], k.shape[1] * g.shape[1]))
        out.kron_into(k, g)

    bit_mxm_ms = _median_ms(into("mxm_into", u, u), 3)
    peak, peak_bytes = or_peak_gwords_s()
    # Computed, not counted: m * k * ceil(n / 64) word operations.
    word_ops = n * n * ((n + 63) // 64)
    rate = word_ops / (bit_mxm_ms / 1e3) / 1e9
    workload.scaled["or_peak_array_bytes"] = peak_bytes
    workload.scaled["llc_bytes"] = last_level_cache_bytes()
    return {
        "formats.bit_mxm_ms": bit_mxm_ms,
        "formats.fr_mxm_ms": _median_ms(into("mxm_four_russians_into", u, u), 3),
        "formats.tiled_mxm_ms": _median_ms(tiled(False), 3),
        "formats.tiled_fr_mxm_ms": _median_ms(tiled(True), 3),
        "formats.bit_kron_ms": _median_ms(kron, 3),
        "formats.bit_transpose_ms": _median_ms(into("transpose_into", u), 5),
        "formats.pack_ms": _median_ms(lambda: convert.to_bitmatrix(u_csr), 5),
        "formats.unpack_ms": _median_ms(lambda: convert.bitmatrix_to_csr(u), 5),
        "formats.tile_wrap_ms": _median_ms(lambda: convert.bitmatrix_to_tiled(bd), 5),
        "formats.or_peak_gwords_s": peak,
        "formats.bit_mxm_gwords_s": rate,
        "formats.bit_peak_frac": rate / peak,
    }


def cold_vs_resident(workload) -> dict:
    """A bit-routed product on sparse-resident operands minus the same
    product once they are bit-resident: the conversion share."""
    ctx = workload._contexts["hybrid"]
    rows, cols, n = workload.host["U"]
    cold, warm = [], []
    for _ in range(3):
        a = ctx.matrix_from_lists((n, n), rows, cols)
        t0 = time.perf_counter()
        a.mxm(a).free()
        t1 = time.perf_counter()
        a.mxm(a).free()
        warm.append(time.perf_counter() - t1)
        cold.append(t1 - t0)
        a.free()
    return {"hybrid.cold_vs_resident_ms": (median(cold) - median(warm)) * 1e3}


#: Calibration grid: 5 densities x 2 sizes, squared under each forced route.
CALIBRATION_DENSITIES = (0.002, 0.005, 0.01, 0.03, 0.1)
CALIBRATION_SIZES = (256, 512)


def _spearman(xs, ys) -> float:
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def calibration_grid(seed: int) -> dict:
    """Cost-model calibration with the existing forced modes: how often
    ``auto`` picks the slower route, the time that costs, and how well
    ``estimate_costs`` ranks observed times."""
    rng = np.random.default_rng(seed)
    forced = {mode: repro.Context(backend="cubool", hybrid=mode) for mode in ("sparse", "bit")}
    auto = repro.Context(backend="cubool", hybrid="auto")
    misroutes, regret, best_total = 0, 0.0, 0.0
    predicted, observed = [], []
    try:
        for n in CALIBRATION_SIZES:
            for density in CALIBRATION_DENSITIES:
                rows, cols = inputs.uniform_coo(n, density, rng)
                times = {}
                for mode, ctx in forced.items():
                    a = ctx.matrix_from_lists((n, n), rows, cols)
                    a.mxm(a).free()  # conversions happen here, not in the timing
                    times[mode] = _median_ms(lambda: a.mxm(a).free(), 3)
                    a.free()
                a = auto.matrix_from_lists((n, n), rows, cols)
                estimate = auto.backend.estimate_costs("mxm", a.handle, a.handle)
                a.free()
                choice = estimate.winner
                best = min(times, key=times.get)
                misroutes += choice != best
                regret += times[choice] - times[best]
                best_total += times[best]
                for mode in ("sparse", "bit"):
                    predicted.append(getattr(estimate, mode))
                    observed.append(times[mode])
    finally:
        for ctx in (*forced.values(), auto):
            ctx.finalize()
    cells = len(CALIBRATION_SIZES) * len(CALIBRATION_DENSITIES)
    return {
        "hybrid.misroute_rate": misroutes / cells,
        "hybrid.regret_frac": regret / best_total,
        "hybrid.cost_rank_corr": _spearman(predicted, observed),
    }


def product_ladder(seed: int) -> dict:
    """One sparse-routed product, timed at every rung on the same
    operand: raw kernel -> ``Backend.mxm`` -> ``HybridBackend.mxm`` ->
    ``Matrix.mxm``.  A small operand (the many-small-products regime of
    the engines), so microseconds of dispatch are visible."""
    rng = np.random.default_rng(seed)
    n = 512
    rows, cols = inputs.uniform_coo(n, 0.004, rng)
    ctx = repro.Context(backend="cubool", hybrid="auto")
    try:
        a = ctx.matrix_from_lists((n, n), rows, cols)
        hybrid = ctx.backend
        inner = hybrid.inner
        handle = a.handle
        sparse = handle.sparse
        s = sparse.storage
        if hybrid.estimate_costs("mxm", handle, handle).winner != "sparse":
            raise RuntimeError("product ladder operand must route sparse")

        def raw():
            _, _, buffers = spgemm_boolean_csr(
                inner.device, inner.stream, s.shape, s.rowptr, s.cols,
                s.shape, s.rowptr, s.cols,
                bin_bounds=DEFAULT_BIN_BOUNDS, use_binning=True,
            )
            for buf in buffers:
                buf.free()

        rungs = _interleaved_ms(
            {
                "raw": raw,
                "backend": lambda: inner.mxm(sparse, sparse),
                "hybrid": lambda: hybrid.mxm(handle, handle),
                "matrix": lambda: a.mxm(a),
            },
            repeats=150,
        )
        a.free()
    finally:
        ctx.finalize()
    return {
        "ladder.product": rungs,
        "hybrid.dispatch_overhead_us": (rungs["hybrid"] - rungs["backend"]) * 1e3,
        "core.facade_overhead_us": (rungs["matrix"] - rungs["hybrid"]) * 1e3,
    }


# -- index_build / serve_read --------------------------------------------------


def reach_probes(workload) -> dict:
    """Single-source evaluation beside the index builds: one source and a
    batch of eight, on the Q9_2 template."""
    ctx = workload._contexts["hybrid"]
    graph = workload.lubm
    query = workload.queries[min(4, len(workload.queries) - 1)]
    sources = workload.students[:8].tolist()
    adjacency = graph.adjacency_matrices(ctx)
    try:
        one = _median_ms(
            lambda: rpq_reach(graph, query, sources[0], ctx, adjacency=adjacency), 5
        )
        batch = _median_ms(
            lambda: rpq_reach_batch(
                graph, [query] * len(sources), sources, ctx, adjacency=adjacency
            ),
            5,
        )
    finally:
        for mat in adjacency.values():
            mat.free()
    return {"rpq.reach_ms": one, "rpq.reach_batch8_ms": batch}


def query_ladder(workload) -> dict:
    """One query, timed at every rung on the same graph, query and
    sources: the frontier engine the scheduler calls for a single source
    (``rpq_reach_incremental``, minimized DFA) -> ``svc.reach`` miss on the
    primary -> primary hit -> routed hit.  ``rpq_reach`` with the same
    automaton is timed beside them."""
    svc = workload.svc
    graph = workload.lubm
    query = workload.queries[min(4, len(workload.queries) - 1)]
    nfa = compile_rpq_plan(query).nfa
    # Sources no pass has requested: the tail of the cold stream.
    sources = workload.cold[0]["reach"][-workload.LADDER_SOURCES:]
    times: dict[str, list] = {name: [] for name in (
        "rpq_reach", "frontier engine", "svc.reach miss", "svc.reach hit", "routed hit")}
    # All rungs of one source before the next source, so that a phase of
    # the host hits every rung alike.
    with repro.Context(backend="cubool", hybrid="auto") as ctx:
        adjacency = graph.adjacency_matrices(ctx)
        for source in sources:
            def local():
                return svc.reach("lubm", query, source=source, route="primary")

            def routed():
                return svc.reach("lubm", query, source=source)

            times["rpq_reach"].append(_timed(lambda: rpq_reach(
                graph, query, source, ctx, automaton="mindfa", adjacency=adjacency)))
            times["frontier engine"].append(_timed(lambda: rpq_reach_incremental(
                nfa, graph.n, source, ctx, adjacency)))
            times["svc.reach miss"].append(_timed(local))
            times["svc.reach hit"].append(_timed(local))
            routed()  # fills the follower's cache
            times["routed hit"].append(_timed(routed))
    rungs = {name: median(ts) * 1e3 for name, ts in times.items()}
    return {
        "ladder.query": rungs,
        "rpq.reach_ms": rungs["rpq_reach"],
        # Paired per source: the sources differ in how much they reach.
        "service.overhead_ms": median(
            (miss - engine) * 1e3
            for miss, engine in zip(times["svc.reach miss"], times["frontier engine"])
        ),
    }


# -- serve_mutate --------------------------------------------------------------


def incremental_closure(workload) -> dict:
    """Direct ``incremental_transitive_closure`` against a from-scratch
    ``transitive_closure`` for a one-edge delta on the workload's graph."""
    graph = workload.base
    with repro.Context(backend="cubool", hybrid="auto") as ctx:
        base = graph.adjacency_union(ctx)
        closed = transitive_closure(base)
        # Two vertices of the first structural community.
        u, v = int(workload.place[1]), int(workload.place[workload.active - 2])
        delta = ctx.matrix_from_lists(base.shape, [u], [v])
        grown = base.ewise_add(delta)
        warm = _median_ms(lambda: incremental_transitive_closure(closed, delta).free(), 5)
        cold = _median_ms(lambda: transitive_closure(grown).free(), 3)
    return {"incr.warm_ms": warm, "incr.cold_ms": cold}


#: Acknowledged writes whose lag is timed: the fewest for which the 95th
#: percentile still has ten samples beyond it (``highest_percentile``).
LAG_SAMPLES = 200


def replication(workload) -> dict:
    """Replication lag (acknowledged write -> applied on the follower) and
    catch-up rate of a second follower that bootstraps behind a backlog."""
    svc, follower = workload.svc, workload.follower
    rng = np.random.default_rng([workload.seed, 3])
    lags = []
    for i in range(LAG_SAMPLES):
        edge = [(int(rng.integers(0, 8)), int(rng.integers(0, 8)))]
        version = svc.apply_batch("block", [("add", "a", edge)])
        t0 = time.perf_counter()
        if not follower.wait_applied("block", version, timeout=10.0):
            raise RuntimeError("follower did not apply an acknowledged write in 10 s")
        lags.append(time.perf_counter() - t0)
    top = svc.graphs.get("block").current_version()
    t0 = time.perf_counter()
    late = workload.start_follower()
    try:
        if not late.wait_applied("block", top, timeout=60.0):
            raise RuntimeError("late follower did not catch up in 60 s")
        elapsed = time.perf_counter() - t0
    finally:
        late.close()
    lags_ms = [x * 1e3 for x in lags]
    return {
        "cluster.repl_lag_p50_ms": median(lags_ms),
        "cluster.repl_lag_p95_ms": percentile(lags_ms, highest_percentile(len(lags_ms))),
        # The only snapshot is version 0, so the backlog is every version.
        "cluster.catchup_versions_s": top / elapsed,
    }
