"""The metric registry: every name the benchmark prints, with unit,
direction, the layer it belongs to, and — for per-layer metrics — which
end-to-end metric on which workload it is expected to move.

``BENCHMARK.json`` at the repo root is a rendering of this module
(:func:`benchmark_json`); the smoke test checks the two agree.
"""

from __future__ import annotations

import json

from .common import REPO_ROOT

RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/layered/run.py"]
PATHS = ["benchmarks/layered"]

WORKLOADS = ("ops_sparse", "ops_dense", "index_build", "serve_read", "serve_mutate")

LIBRARY = ("ops_sparse", "ops_dense", "index_build")
SERVE = ("serve_read", "serve_mutate")

#: name -> (unit, better, regression bound, the workloads ISSUE 11 gates
#: it on, definition).  Every workload reports every one of them, because
#: the ``BENCHMARK.json`` contract wants that (README, "End-to-end
#: metrics"); ``compare`` counts a verdict only inside the scope.  Bounds
#: are max(the issue's floor, 2 x the worst same-code spread), capped at
#: the contract's 0.25 (README, "Bounds and the A/A spread"): the two
#: memory figures repeat and sit on their floors, every timing spreads by
#: 0.13-0.23 on this host and sits on the cap.
END_TO_END: dict[str, tuple[str, str, float, tuple[str, ...], str]] = {
    "setup_s": ("s", "lower", 0.25, WORKLOADS,
                "generation, context/service/cluster start, persist, follower "
                "bootstrap and one warm-up pass; median of three set-ups"),
    "pass_s": ("s", "lower", 0.25, LIBRARY,
               "seconds per pass of the fixed script / request block"),
    "peak_arena_mib": ("MiB", "lower", 0.01, WORKLOADS,
                       "largest per-pass sum of arena peak bytes over the workload's devices"),
    "peak_rss_mib": ("MiB", "lower", 0.10, WORKLOADS,
                     "process ru_maxrss when the third timed pass ends"),
    "qps": ("1/s", "higher", 0.25, SERVE,
            "completed operations (library op calls, index builds, service reads) per second"),
    "read_p50_ms": ("ms", "lower", 0.25, SERVE,
                    "caller-observed latency of one operation / read, median"),
    "read_p95_ms": ("ms", "lower", 0.25, SERVE, "same, 95th percentile"),
    "mutate_p50_ms": ("ms", "lower", 0.25, ("serve_mutate",),
                      "a change accepted: apply_batch ack (serve_mutate), register_graph "
                      "(serve_read), operand build / adjacency lowering (library)"),
    "fresh_p50_ms": ("ms", "lower", 0.25, ("serve_mutate",),
                     "accepted change to the first answer that reflects it"),
}

#: name -> (unit, better, layer, end-to-end metric it should move, on
#: which workload, how it is measured).  ``source`` is one of
#: span / counter / stats / probe / client / harness.
PER_LAYER: dict[str, tuple[str, str, str, str, str, str]] = {}


def _add(names, unit, better, layer, moves, workload, source):
    for name in names.split():
        PER_LAYER[name] = (unit, better, layer, moves, workload, source)


_add("formats.bit_mxm_ms formats.fr_mxm_ms formats.tiled_mxm_ms formats.tiled_fr_mxm_ms "
     "formats.bit_kron_ms formats.bit_transpose_ms formats.pack_ms formats.unpack_ms "
     "formats.tile_wrap_ms", "ms", "lower", "formats", "pass_s", "ops_dense", "probe")
_add("formats.or_peak_gwords_s formats.bit_mxm_gwords_s", "Gwords/s", "higher",
     "formats", "pass_s", "ops_dense", "probe")
_add("formats.bit_peak_frac", "ratio", "higher", "formats", "pass_s", "ops_dense", "probe")
_add("cubool.spgemm_ms cubool.mxm_ms cubool.ewise_add_ms cubool.kron_ms",
     "ms", "lower", "backends.cubool", "pass_s", "ops_sparse", "span")
_add("clbool.spgemm_ms clbool.mxm_ms clbool.ewise_add_ms clbool.kron_ms",
     "ms", "lower", "backends.clbool", "pass_s", "ops_sparse", "span")
_add("generic.mxm_ms generic.ewise_add_ms generic.kron_ms generic.minplus_sssp_ms",
     "ms", "lower", "backends.generic", "pass_s", "ops_sparse", "span")
_add("paper.bool_speedup_mxm paper.bool_speedup_add paper.bool_speedup_kron "
     "paper.bool_mem_ratio_mxm", "ratio", "higher", "backends.generic", "pass_s",
     "ops_sparse", "probe")
_add("gpu.kernel_launches gpu.alloc_count", "count", "lower", "gpu", "pass_s",
     "ops_sparse", "counter")
_add("gpu.alloc_mib", "MiB", "lower", "gpu", "peak_arena_mib", "ops_sparse", "counter")
_add("gpu.kernel_time_frac", "ratio", "higher", "gpu", "pass_s", "ops_sparse", "counter")
_add("hybrid.route_sparse hybrid.route_bit hybrid.route_value hybrid.kernel_four_russians "
     "hybrid.kernel_tiled hybrid.kernel_masked", "count", "lower", "backends.hybrid",
     "pass_s", "ops_dense", "counter")
_add("hybrid.dispatch_overhead_us", "us", "lower", "backends.hybrid", "pass_s",
     "index_build", "probe")
_add("hybrid.cold_vs_resident_ms", "ms", "lower", "backends.hybrid", "pass_s",
     "ops_dense", "probe")
_add("hybrid.misroute_rate hybrid.regret_frac", "ratio", "lower", "backends.hybrid",
     "pass_s", "ops_dense", "probe")
_add("hybrid.cost_rank_corr", "ratio", "higher", "backends.hybrid", "pass_s",
     "ops_dense", "probe")
_add("core.facade_overhead_us", "us", "lower", "core", "pass_s", "index_build", "probe")
_add("automata.compile_ms", "ms", "lower", "automata", "pass_s", "index_build", "span")
_add("grammar.rsm_build_ms", "ms", "lower", "grammar", "pass_s", "index_build", "span")
_add("rpq.index_ms", "ms", "lower", "rpq", "pass_s", "index_build", "span")
_add("rpq.reach_ms rpq.reach_batch8_ms", "ms", "lower", "rpq", "read_p95_ms",
     "serve_read", "probe")
_add("cfpq.tns_ms cfpq.mtx_ms", "ms", "lower", "cfpq", "pass_s", "index_build", "span")
_add("algorithms.closure_ms", "ms", "lower", "algorithms", "pass_s", "index_build", "span")
_add("algorithms.closure_products", "count", "lower", "algorithms", "pass_s",
     "index_build", "span")
_add("incr.warm_ms incr.cold_ms", "ms", "lower", "incr", "fresh_p50_ms", "serve_mutate",
     "probe")
_add("incr.evals_incremental incr.evals_full incr.evals_declined incr.ancestor_hits",
     "count", "higher", "incr", "fresh_p50_ms", "serve_mutate", "stats")
_add("incr.warm_frac", "ratio", "higher", "incr", "fresh_p50_ms", "serve_mutate", "stats")
_add("service.queue_wait_p50_ms service.compile_p50_ms service.evaluate_p50_ms "
     "service.total_p50_ms", "ms", "lower", "service", "read_p50_ms", "serve_read", "stats")
_add("service.queue_depth_max", "count", "lower", "service", "qps", "serve_read", "stats")
_add("service.batch_mean", "count", "higher", "service", "qps", "serve_read", "stats")
_add("service.plan_hit_ratio service.result_hit_ratio", "ratio", "higher", "service",
     "read_p50_ms", "serve_read", "stats")
_add("service.hit_p50_ms service.miss_p50_ms", "ms", "lower", "service", "read_p50_ms",
     "serve_read", "client")
_add("service.overhead_ms", "ms", "lower", "service", "read_p95_ms", "serve_read", "probe")
_add("store.persist_ms store.restore_ms", "ms", "lower", "store", "setup_s",
     "serve_mutate", "span")
_add("store.wal_append_ms", "ms", "lower", "store", "mutate_p50_ms", "serve_mutate", "span")
_add("store.wal_bytes_per_edge", "B", "lower", "store", "mutate_p50_ms", "serve_mutate",
     "counter")
_add("store.snapshot_mib", "MiB", "lower", "store", "setup_s", "serve_mutate", "counter")
_add("cluster.wire_tax_ms", "ms", "lower", "cluster", "read_p50_ms", "serve_read", "client")
_add("cluster.routed_frac", "ratio", "higher", "cluster", "read_p50_ms", "serve_read",
     "stats")
_add("cluster.primary_fallbacks", "count", "lower", "cluster", "read_p50_ms",
     "serve_read", "stats")
_add("cluster.repl_lag_p50_ms cluster.repl_lag_p95_ms", "ms", "lower", "cluster",
     "read_p95_ms", "serve_mutate", "probe")
_add("cluster.catchup_versions_s", "1/s", "higher", "cluster", "setup_s",
     "serve_mutate", "probe")
_add("cluster.ship_bytes_per_version", "B", "lower", "cluster", "mutate_p50_ms",
     "serve_mutate", "stats")
_add("trace_overhead_frac", "ratio", "lower", "harness", "pass_s", "ops_sparse", "harness")

#: Why each workload exists (one line; rendered into BENCHMARK.json).
WORKLOAD_WHY = {
    "ops_sparse": "paper surface on hyper-sparse operands, pure cubool+clbool; sparse "
                  "kernels and per-bin dispatch do the work, bit/hybrid/service/cluster none",
    "ops_dense": "hybrid=auto on dense and block operands; bit, tiled and Four-Russians "
                 "kernels, conversion and residency do the work, sparse kernels almost none",
    "index_build": "RPQ/CFPQ index construction under hybrid=auto; compile, Kronecker, "
                   "closure and fixpoints of many small mixed-route products",
    "serve_read": "read-only mix via router and follower; median on the cache-hit path "
                  "(wire, queue, caches), tail on engine evaluation; incremental paths idle",
    "serve_mutate": "writes beside reads on one graph; WAL append, overlay merge, warm vs "
                    "cold arbitration, cache invalidation and WAL shipping carry the cost",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, *_rest) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, *_rest) in PER_LAYER.items()
        ],
    }


def load_benchmark_json() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
