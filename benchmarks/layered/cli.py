"""Run one workload and print its result line (the driver's contract)."""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

from repro.errors import SpblaError

from . import metrics as registry
from .common import (
    OUT_DIR,
    fingerprint,
    median,
    peak_rss_mib,
    percentile,
    summarize,
)
from .lib_workloads import IndexBuild, OpsDense, OpsSparse
from .serve_workloads import ServeMutate, ServeRead
from .tracing import Tracer
from .workload import Recorder

WORKLOAD_CLASSES = {
    cls.name: cls for cls in (OpsSparse, OpsDense, IndexBuild, ServeRead, ServeMutate)
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``peak_rss_mib`` is read when this many timed passes are done, so it
#: measures a fixed amount of work however many passes fit the window.
RSS_AFTER_PASSES = 3

#: per-layer metric -> span name whose inclusive ms per pass it reports.
SPAN_METRICS = {
    "cubool.spgemm_ms": "cubool.spgemm",
    "cubool.mxm_ms": "cubool.mxm",
    "cubool.ewise_add_ms": "cubool.ewise_add",
    "cubool.kron_ms": "cubool.kron",
    "clbool.spgemm_ms": "clbool.spgemm",
    "clbool.mxm_ms": "clbool.mxm",
    "clbool.ewise_add_ms": "clbool.ewise_add",
    "clbool.kron_ms": "clbool.kron",
    "generic.mxm_ms": "generic.mxm",
    "generic.ewise_add_ms": "generic.ewise_add",
    "generic.kron_ms": "generic.kron",
    "generic.minplus_sssp_ms": "algorithms.sssp",
    "automata.compile_ms": "automata.compile",
    "grammar.rsm_build_ms": "grammar.rsm_build",
    "rpq.index_ms": "rpq.index",
    "cfpq.tns_ms": "cfpq.tns",
    "cfpq.mtx_ms": "cfpq.mtx",
    "algorithms.closure_ms": "algorithms.closure",
}


def p95(samples) -> float:
    return percentile(samples, 95)


def build_and_warm(cls, seed: int, smoke: bool, tracer=None):
    t0 = time.perf_counter()
    workload = cls(seed, smoke=smoke)
    workload.tracer = tracer
    workload.build()
    workload.warm()
    return workload, time.perf_counter() - t0


def timed_passes(workload, rec: Recorder, *, seconds: float, min_passes: int,
                 first_pass: int = 0) -> dict:
    """Repeat ``run_pass`` until ``seconds`` have gone by and at least
    ``min_passes`` ran, or the workload's inputs are used up; returns one
    record per completed pass."""
    passes, rss = [], None
    tracer = workload.tracer
    started = time.perf_counter()
    k = first_pass
    while (len(passes) < min_passes or time.perf_counter() - started < seconds) and (
        workload.max_passes is None or k < workload.max_passes
    ):
        for device in workload.devices():
            device.arena.reset_peak()
        marks = (len(rec.ops), len(rec.mutate), len(rec.fresh))
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("harness.pass"):
                    workload.run_pass(k, rec)
            else:
                workload.run_pass(k, rec)
            t1 = time.perf_counter()
            arena = sum(d.arena.peak_bytes for d in workload.devices())
            if tracer is None:
                # Traced runs count what a pass does, nothing beside it.
                workload.between_passes(k, rec)
        except SpblaError as exc:
            rec.attempted += 1
            rec.fail(f"pass {k}: {type(exc).__name__}: {exc}")
        else:
            passes.append(
                {
                    "window": (t0, t1),
                    "seconds": t1 - t0,
                    "arena": arena,
                    "latencies": [s for _, s in rec.ops[marks[0]:]],
                    "mutate": rec.mutate[marks[1]:],
                    "fresh": rec.fresh[marks[2]:],
                }
            )
        k += 1
        if len(passes) == RSS_AFTER_PASSES and rss is None:
            rss = peak_rss_mib()
        if k - first_pass >= 4 * max(min_passes, 1) and not passes:
            raise RuntimeError("no pass completed")
    if not passes:
        raise RuntimeError("no pass completed")
    return {
        "passes": passes,
        "times": [p["seconds"] for p in passes],
        "windows": [p["window"] for p in passes],
        "rss": rss if rss is not None else peak_rss_mib(),
        "next_pass": k,
    }


def typical(values, *, concurrent: bool, better: str = "lower") -> float:
    """The figure of a run from its per-pass figures.

    One caller thread (library workloads): the *best* pass.  This host
    alternates, in phases of seconds to minutes, between speed modes
    15-30 % apart (README, "Which pass is reported"); interference only
    ever slows a pass down, so the best one is the least disturbed.  The
    caller hands in the figures of the workload's first ``PASSES`` passes,
    so the minimum is over the same count in every run.

    Concurrent clients (serve workloads): the *median* pass.  There the
    passes differ mostly by how the clients' requests interleave with the
    services' threads, which is noise in both directions, and an extreme
    value is the noisiest statistic of it (over ten seeds: spread of the
    best pass 10-30 %, of the median pass 3-11 %)."""
    xs = [v for v in values if v is not None]
    if not xs:
        return 0.0
    if concurrent:
        return median(xs)
    return min(xs) if better == "lower" else max(xs)


def latency_figures(cls, passes) -> dict:
    """``read_*``, ``mutate_*`` and ``fresh_*`` of a run, in ms.

    One caller: per-pass quantiles, best of the first ``PASSES`` passes
    (see :func:`typical`).  Concurrent clients: quantiles over every sample
    of the run — a pass holds some 50-200 reads there, too few for a steady
    95th percentile."""
    def figure(key, stat, concurrent):
        groups = [p[key] for p in passes[: None if concurrent else cls.PASSES]]
        if concurrent:
            groups = [[s for xs in groups for s in xs]]
        per_group = (stat(xs) * 1e3 for xs in groups if xs)
        return typical(per_group, concurrent=concurrent)

    writes_concurrent = cls.concurrent and not cls.quiet_writes
    return {
        "read_p50_ms": figure("latencies", median, cls.concurrent),
        "read_p95_ms": figure("latencies", p95, cls.concurrent),
        "mutate_p50_ms": figure("mutate", median, writes_concurrent),
        "fresh_p50_ms": figure("fresh", median, writes_concurrent),
    }


def run_untraced(cls, seed: int, seconds: float, smoke: bool):
    workload, took = build_and_warm(cls, seed, smoke)
    setups = [took]
    rec = Recorder()
    try:
        run = timed_passes(
            workload, rec, seconds=0.0 if smoke else seconds,
            min_passes=1 if smoke else cls.PASSES,
        )
        passes = run["passes"]
        arena = max(p["arena"] for p in passes[: cls.PASSES])
        # An even pass number: serve_read's primary misses alternate between
        # two sets of templates from pass to pass.
        k = run["next_pass"] + run["next_pass"] % 2
        if cls.serial_arena and (workload.max_passes is None or k < workload.max_passes):
            for device in workload.devices():
                device.arena.reset_peak()
            workload.run_pass(k, rec, serial=True)
            arena = sum(d.arena.peak_bytes for d in workload.devices())
        checked = workload.verify(rec)
    finally:
        workload.close()
    # The other set-ups come last: memory of a closed stack is not all
    # returned, and ``peak_rss_mib`` is to hold one set-up, not three.
    for _ in range(0 if smoke else SETUP_REPEATS - 1):
        again, took = build_and_warm(cls, seed, smoke)
        again.close()
        setups.append(took)

    def ms(samples, stat):
        return stat(samples) * 1e3 if samples else None

    reported = passes if cls.concurrent else passes[: cls.PASSES]
    values = {
        "setup_s": median(setups),
        "pass_s": typical((p["seconds"] for p in reported), concurrent=cls.concurrent),
        "peak_arena_mib": arena / 2**20,
        "peak_rss_mib": run["rss"],
        "qps": typical((len(p["latencies"]) / p["seconds"] for p in reported),
                       concurrent=cls.concurrent, better="higher"),
        **latency_figures(cls, passes),
    }
    lat_ms = [s * 1e3 for p in passes for s in p["latencies"]]
    detail = {
        "passes": len(passes),
        "checked": checked,
        "setups_s": setups,
        "pass_s": summarize(run["times"]),
        "read_ms": summarize(lat_ms),
        "mutate_ms": summarize(s * 1e3 for p in passes for s in p["mutate"]),
        "fresh_ms": summarize(s * 1e3 for p in passes for s in p["fresh"]),
        "arena_peak_bytes": [p["arena"] for p in passes],
        # Per pass, so that another statistic than the reported one can be
        # evaluated without a new run.
        "per_pass": [
            {
                "seconds": p["seconds"],
                "reads": len(p["latencies"]),
                "read_p50_ms": ms(p["latencies"], median),
                "read_p95_ms": ms(p["latencies"], p95),
                "mutate_p50_ms": ms(p["mutate"], median),
                "fresh_p50_ms": ms(p["fresh"], median),
            }
            for p in passes
        ],
        "notes": rec.notes,
        "scaled": {"passes": len(passes), "reads": len(lat_ms), **workload.scaled},
    }
    return values, rec, detail


# -- traced run ----------------------------------------------------------------


def _layer_counters(workload) -> Counter:
    """Monotone counters the layers already expose, summed over the
    workload's devices, hybrid backends and services."""
    c: Counter = Counter()
    for device in workload.devices():
        stats = device.arena.stats()
        c["gpu.kernel_launches"] += device.counters.kernel_launches
        c["gpu.kernel_time_s"] += device.counters.kernel_time_s
        c["gpu.alloc_count"] += stats.alloc_count
        c["gpu.alloc_bytes"] += stats.total_allocated_bytes
    for backend in workload.hybrid_backends():
        for routes in backend.dispatch_counts.values():
            for route, n in routes.items():
                c[f"hybrid.route_{route}"] += n
        for kernel, n in backend.kernel_counts.get("mxm", {}).items():
            if "four_russians" in kernel:
                c["hybrid.kernel_four_russians"] += n
            if kernel.startswith("tiled"):
                c["hybrid.kernel_tiled"] += n
            if kernel.endswith("_masked"):
                c["hybrid.kernel_masked"] += n
    for service in workload.services():
        snap = service.stats()
        for name in ("incremental_evals", "full_evals", "incremental_declined"):
            c[f"svc.{name}"] += snap.counters.get(name, 0)
        for cache, data in (("plan", snap.plan_cache), ("result", snap.result_cache)):
            c[f"svc.{cache}_hits"] += data.get("hits", 0)
            c[f"svc.{cache}_misses"] += data.get("misses", 0)
        c["svc.ancestor_hits"] += snap.result_cache.get("ancestor_hits", 0)
    if workload.services():
        rep = workload.router.stats()
        for name in ("routed_replica", "routed_primary"):
            c[f"cluster.{name}"] += rep["counters"].get(name, 0)
        for name in ("shipped_txns", "shipped_bytes"):
            c[f"cluster.{name}"] += rep["shipper"].get(name, 0)
    c.update(workload.layer_counters())
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _service_stage_metrics(workload) -> dict:
    """Stage p50s over the workload's service instances, weighted by how
    many requests each instance timed."""
    out = {}
    snaps = [s.stats() for s in workload.services()]
    for stage in ("queue_wait", "compile", "evaluate", "total"):
        weighted = total = 0.0
        for snap in snaps:
            summary = snap.latency.get(stage)
            if summary is not None and summary.count:
                weighted += summary.p50 * summary.count
                total += summary.count
        out[f"service.{stage}_p50_ms"] = _ratio(weighted, total) * 1e3
    out["service.queue_depth_max"] = max((s.queue_depth_max for s in snaps), default=0)
    batches = sum(s.batch_sizes["count"] for s in snaps)
    out["service.batch_mean"] = _ratio(
        sum(s.batch_sizes["mean"] * s.batch_sizes["count"] for s in snaps), batches
    )
    return out


def per_layer_values(workload, tracer, run, baseline, delta, after, rec,
                     setup_window, probe_values) -> tuple[dict, dict]:
    """Every per-layer metric of the registry (0 where this workload never
    exercises the layer), plus the extras the results file keeps.
    ``delta`` holds the layer counters summed over the traced passes,
    ``after`` their absolute values at the end."""
    windows = run["windows"]
    passes = max(1, len(windows))
    totals = tracer.per_window_totals(windows)
    values = dict.fromkeys(registry.PER_LAYER, 0.0)

    for metric, span in SPAN_METRICS.items():
        values[metric] = median(t.get(span, {}).get("ms", 0.0) for t in totals)
    values["algorithms.closure_products"] = median(
        tracer.count_nested("core.mxm", "algorithms.closure", windows)
    )
    setup_totals = tracer.per_window_totals([setup_window])[0]
    values["store.persist_ms"] = setup_totals.get("store.persist", {}).get("ms", 0.0)
    values["store.restore_ms"] = setup_totals.get("store.restore", {}).get("ms", 0.0)
    wal = [t.get("store.wal_append", {"ms": 0.0, "calls": 0}) for t in totals]
    values["store.wal_append_ms"] = _ratio(
        sum(w["ms"] for w in wal), sum(w["calls"] for w in wal)
    )

    for name in ("gpu.kernel_launches", "gpu.alloc_count", "hybrid.route_sparse",
                 "hybrid.route_bit", "hybrid.route_value", "hybrid.kernel_four_russians",
                 "hybrid.kernel_tiled", "hybrid.kernel_masked"):
        values[name] = delta[name] / passes
    values["gpu.alloc_mib"] = delta["gpu.alloc_bytes"] / 2**20 / passes
    values["gpu.kernel_time_frac"] = _ratio(delta["gpu.kernel_time_s"], sum(run["times"]))
    values["incr.evals_incremental"] = delta["svc.incremental_evals"] / passes
    values["incr.evals_full"] = delta["svc.full_evals"] / passes
    values["incr.evals_declined"] = delta["svc.incremental_declined"] / passes
    values["incr.ancestor_hits"] = delta["svc.ancestor_hits"] / passes
    values["incr.warm_frac"] = _ratio(
        delta["svc.incremental_evals"],
        delta["svc.incremental_evals"] + delta["svc.full_evals"],
    )
    for cache in ("plan", "result"):
        hits, misses = delta[f"svc.{cache}_hits"], delta[f"svc.{cache}_misses"]
        values[f"service.{cache}_hit_ratio"] = _ratio(hits, hits + misses)
    routed, fallback = delta["cluster.routed_replica"], delta["cluster.routed_primary"]
    values["cluster.routed_frac"] = _ratio(routed, routed + fallback)
    values["cluster.primary_fallbacks"] = fallback / passes
    values["cluster.ship_bytes_per_version"] = _ratio(
        delta["cluster.shipped_bytes"], delta["cluster.shipped_txns"]
    )
    values["store.wal_bytes_per_edge"] = _ratio(
        delta["store.wal_bytes"], delta["store.wal_edges"]
    )
    values["store.snapshot_mib"] = after.get("store.snapshot_bytes", 0) / 2**20
    if workload.services():
        values.update(_service_stage_metrics(workload))

    def class_p50(*suffixes):
        xs = [s for tag, s in rec.ops if tag.endswith(suffixes)]
        return (median(xs) * 1e3, len(xs))

    values["service.hit_p50_ms"] = class_p50(".hit")[0]
    values["service.miss_p50_ms"] = class_p50(".miss")[0]
    routed_hit, n_routed = class_p50("reach.routed.hit")
    local_hit, n_local = class_p50("reach.primary.hit")
    if min(n_routed, n_local) >= 5:
        values["cluster.wire_tax_ms"] = routed_hit - local_hit
    values["trace_overhead_frac"] = _ratio(
        typical(run["times"], concurrent=workload.concurrent),
        typical(baseline, concurrent=workload.concurrent),
    ) - 1.0

    extras = {k: v for k, v in probe_values.items() if k not in registry.PER_LAYER}
    values.update({k: v for k, v in probe_values.items() if k in registry.PER_LAYER})

    # Where a pass's time goes: self time per span name, median over passes.
    names = sorted({name for t in totals for name in t})
    self_ms = {n: median(t.get(n, {}).get("self_ms", 0.0) for t in totals) for n in names}
    pass_ms = median(run["times"]) * 1e3
    extras["self_ms_per_pass"] = self_ms
    if not workload.services():
        # One caller thread: whatever is not the harness's own self time
        # sits inside some layer's span.
        extras["span_coverage"] = 1.0 - _ratio(self_ms.get("harness.pass", 0.0), pass_ms)
    extras["spans_per_pass"] = sum(
        sum(c["calls"] for c in t.values()) for t in totals
    ) / passes
    return {k: float(v) for k, v in values.items()}, extras


def run_traced(cls, seed: int, seconds: float, smoke: bool, trace_path):
    tracer = Tracer()
    tracer.install()
    workload = None
    try:
        tracer.enabled = True
        t0 = time.perf_counter()
        workload, _ = build_and_warm(cls, seed, smoke, tracer)
        setup_window = (t0, time.perf_counter())
        # Traced and untraced passes alternate (and swap order from pair to
        # pair), so drift over the run hits both alike and their medians
        # differ by the tracing overhead only.
        rec = Recorder()
        run = {"times": [], "windows": []}
        plain_times: list[float] = []
        delta: Counter = Counter()
        started, k = time.perf_counter(), 0
        budget = 0.0 if smoke else seconds * 0.7
        while (
            len(run["times"]) < (1 if smoke else 2) or time.perf_counter() - started < budget
        ) and (workload.max_passes is None or k + 2 <= workload.max_passes):
            for traced in (False, True) if k % 4 < 2 else (True, False):
                tracer.enabled = traced
                before = _layer_counters(workload) if traced else None
                one = timed_passes(
                    workload, rec if traced else Recorder(), seconds=0.0,
                    min_passes=1, first_pass=k,
                )
                k = one["next_pass"]
                if traced:
                    delta.update(_layer_counters(workload))
                    delta.subtract(before)
                    run["times"] += one["times"]
                    run["windows"] += one["windows"]
                else:
                    plain_times += one["times"]
        tracer.enabled = False
        totals_now = _layer_counters(workload)
        checked = workload.verify(rec)
        probe_values = {} if smoke else workload.probes()
        values, extras = per_layer_values(
            workload, tracer, run, plain_times, delta, totals_now, rec,
            setup_window, probe_values,
        )
        extras["scaled"] = {"passes": len(run["times"]), **workload.scaled}
    finally:
        tracer.uninstall()
        if workload is not None:
            workload.close()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    written = tracer.write_chrome_trace(
        trace_path, workload=cls.name, meta={"seed": seed, "passes": len(run["times"])}
    )
    extras.update({"checked": checked, "trace_file": str(trace_path),
                   "trace_spans_written": written, "notes": rec.notes})
    return values, rec, extras


# -- entry ---------------------------------------------------------------------


def _units(trace: bool) -> dict:
    table = registry.PER_LAYER if trace else registry.END_TO_END
    return {name: spec[0] for name, spec in table.items()}


def run_one(argv=None, scrubbed=()) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/layered/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small operands, one pass, correctness only")
    parser.add_argument("--detail", help="also write quartiles, counts and extras here")
    parser.add_argument("--trace-out", help="Chrome-trace path (default: out/<workload>.trace.json)")
    args = parser.parse_args(argv)

    cls = WORKLOAD_CLASSES[args.workload]
    if args.trace:
        trace_path = Path(args.trace_out) if args.trace_out else (
            OUT_DIR / f"{args.workload}.trace.json"
        )
        values, rec, detail = run_traced(cls, args.seed, args.seconds, args.smoke, trace_path)
    else:
        values, rec, detail = run_untraced(cls, args.seed, args.seconds, args.smoke)

    units = _units(bool(args.trace))
    for name, value in values.items():
        print(f"{args.workload:13s} {name:32s} {value:14.6g} {units[name]}")
    for note in rec.notes:
        print(f"{args.workload}: FAILED {note}")
    result = {
        "correct": rec.failed == 0,
        "attempted": max(1, rec.attempted),
        "failed": rec.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    if args.detail:
        with open(args.detail, "w") as f:
            json.dump(
                {
                    "workload": args.workload,
                    "trace": bool(args.trace),
                    "result": result,
                    "detail": detail,
                    "fingerprint": fingerprint(args.seed, detail.get("scaled"), scrubbed),
                },
                f, indent=1, default=str,
            )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
