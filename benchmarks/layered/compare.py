"""Compare two results files, or measure the run-to-run spread.

``python -m benchmarks.layered.compare A.json B.json`` prints one row per
workload x end-to-end metric: each side's median and quartiles over its
runs, the ratio B/A (base A), and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median differs from A's by more than the bound;
* ``flat`` — within the bound;
* ``unresolved`` — the spread of a side's own runs is wider than the
  bound, unless every run of one side beats every run of the other.

Exits non-zero on any ``worse`` or when B's failure share is higher.

``python -m benchmarks.layered.compare --aa N`` runs N sets of the same
code (seeds ``seed .. seed+N-1``), prints each metric's spread — the
distance between the quartiles as a share of the median, which is what
the driver gates on — and the bound that spread supports.  Exits non-zero
when any spread, ``setup_s`` included, is wider than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from . import metrics as registry
from .suite import run_all
from .common import OUT_DIR, relative_iqr

#: ISSUE 11: bound = max(floor, 2 x the observed A/A spread), and the
#: contract caps a bound at 0.25.
SPREAD_HEADROOM = 2.0
MAX_BOUND = 0.25
FLOORS = {
    "setup_s": 0.25, "pass_s": 0.10, "peak_arena_mib": 0.01, "peak_rss_mib": 0.10,
    "qps": 0.10, "read_p50_ms": 0.10, "read_p95_ms": 0.15, "mutate_p50_ms": 0.15,
    "fresh_p50_ms": 0.10,
}


def _runs(doc: dict, workload: str, metric: str) -> list[float]:
    return [r[metric] for r in doc["workloads"].get(workload, {}).get("runs", []) if metric in r]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) >= 2:
        return tuple(statistics.quantiles(values, n=4))
    return (values[0],) * 3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(relative_iqr(a), relative_iqr(b)) > bound:
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "better"
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "flat"


def compare(doc_a: dict, doc_b: dict, bounds: dict) -> int:
    worse = 0
    print(f"{'workload':13s} {'metric':15s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s}  verdict")
    for workload in registry.WORKLOADS:
        for metric, (unit, better, _, scope, _) in registry.END_TO_END.items():
            a, b = _runs(doc_a, workload, metric), _runs(doc_b, workload, metric)
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            what = verdict(a, b, better, bounds[metric])
            if workload in scope:
                worse += what == "worse"
            else:
                what += ", not gated here"
            print(
                f"{workload:13s} {metric:15s} "
                f"{qa[1]:12.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                f"{qb[1]:12.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                f"{qb[1] / qa[1] if qa[1] else 0.0:7.3f}  {what} ({unit}, {better} is better)"
            )
        ea, eb = doc_a["workloads"].get(workload), doc_b["workloads"].get(workload)
        if ea and eb:
            share_a = ea["failed"] / max(1, ea["attempted"])
            share_b = eb["failed"] / max(1, eb["attempted"])
            if share_b > share_a:
                print(f"{workload:13s} failure share rose: {share_a:.4f} -> {share_b:.4f}")
                worse += 1
    return 1 if worse else 0


def aa(n: int, seed: int, seconds: float, bounds: dict) -> int:
    out_dir = OUT_DIR / "aa"
    results = run_all(seed=seed, seconds=seconds, repeat=n, trace=False, smoke=False,
                      out_dir=out_dir)
    (out_dir / "aa.json").write_text(json.dumps({"workloads": results}, indent=1, default=str))
    return spread_report(results, bounds)


def spread_report(results: dict, bounds: dict) -> int:
    """Spread of every workload x metric pair over the runs of one set, and
    the bound it supports; non-zero when a spread is wider than its bound."""
    over = 0
    worst: dict[str, float] = {}
    worst_in_scope: dict[str, float] = {}
    print(f"\n{'workload':13s} {'metric':15s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, entry in results.items():
        for metric, spec in registry.END_TO_END.items():
            values = [r[metric] for r in entry["runs"]]
            if len(values) < 2:
                continue
            spread = relative_iqr(values)
            worst[metric] = max(worst.get(metric, 0.0), spread)
            if workload in spec[3]:
                worst_in_scope[metric] = max(worst_in_scope.get(metric, 0.0), spread)
            over += spread > bounds[metric]
            flag = "  > bound" if spread > bounds[metric] else (
                "  > bound/3" if spread > bounds[metric] / 3 else "")
            print(f"{workload:13s} {metric:15s} {statistics.median(values):12.5g} "
                  f"{spread:8.4f} {bounds[metric]:6.2f}{flag}")

    def fitted(metric, spread):
        return min(MAX_BOUND, max(FLOORS[metric], SPREAD_HEADROOM * spread))

    print(f"\nfitted bound = max(floor, {SPREAD_HEADROOM:g} x worst spread), at most "
          f"{MAX_BOUND}; the driver checks every pair, so BENCHMARK.json needs the last fit:")
    print(f"  {'metric':15s} {'floor':>6s} {'gated pairs':>18s} {'all pairs':>18s} "
          f"{'BENCHMARK.json':>15s}")
    for metric, spread in worst.items():
        inside = worst_in_scope.get(metric, 0.0)
        print(f"  {metric:15s} {FLOORS[metric]:6.2f} "
              f"{inside:8.3f} -> {fitted(metric, inside):5.3f} "
              f"{spread:9.3f} -> {fitted(metric, spread):5.3f} {bounds[metric]:15.2f}")
    return 1 if over else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layered.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--aa", type=int, metavar="N", help="run N sets of the same code")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in registry.load_benchmark_json()["end_to_end"]}
    if args.aa:
        return aa(args.aa, args.seed, args.seconds, bounds)
    if len(args.files) != 2:
        parser.error("give two results files, or --aa N")
    doc_a, doc_b = (json.loads(Path(f).read_text()) for f in args.files)
    return compare(doc_a, doc_b, bounds)


if __name__ == "__main__":
    sys.exit(main())
