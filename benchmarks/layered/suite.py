"""Run all five workloads, each in its own subprocess, and write one
results file.

``PYTHONPATH=src python -m benchmarks.layered --seed 11 --out results.json``

Every workload runs untraced (the nine end-to-end metrics) and then
traced (the per-layer metrics and one Chrome-trace file); ``--repeat N``
makes N untraced runs with seeds ``seed .. seed+N-1`` so that
``benchmarks.layered.compare`` has quartiles to work with.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from . import metrics as registry
from .common import HERE, OUT_DIR, fingerprint, median

#: A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 180


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
              out_dir: Path) -> dict | None:
    """One ``run.py`` subprocess; echoes its metric lines, returns the
    parsed detail file (None when the child failed)."""
    detail = out_dir / f"{workload}.seed{seed}.{'traced' if trace else 'plain'}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--detail", str(detail),
        "--trace-out", str(out_dir / f"{workload}.trace.json"),
    ]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exit {proc.returncode}\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(detail.read_text())


def run_all(*, seed: int, seconds: float, repeat: int, trace: bool, smoke: bool,
            out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict = {}
    for workload in registry.WORKLOADS:
        entry = {"runs": [], "attempted": 0, "failed": 0, "correct": True}
        for i in range(repeat):
            doc = run_child(workload, seed + i, seconds, False, smoke, out_dir)
            if doc is None:
                entry["correct"] = False
                entry["failed"] += 1
                continue
            result = doc["result"]
            entry["runs"].append(
                {name: m["value"] for name, m in result["metrics"].items()}
            )
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["correct"] &= result["correct"]
            entry["detail"] = doc["detail"]
            entry["fingerprint"] = doc["fingerprint"]
        entry["end_to_end"] = {
            name: {"median": median(r[name] for r in entry["runs"]), "unit": spec[0]}
            for name, spec in registry.END_TO_END.items()
            if entry["runs"]
        }
        if trace:
            doc = run_child(workload, seed, seconds, True, smoke, out_dir)
            if doc is None:
                entry["correct"] = False
                entry["failed"] += 1
            else:
                result = doc["result"]
                entry["per_layer"] = {
                    name: m["value"] for name, m in result["metrics"].items()
                }
                entry["traced"] = doc["detail"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["correct"] &= result["correct"]
        print(
            f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}, "
            f"{'ok' if entry['correct'] else 'WRONG'}"
        )
        results[workload] = entry
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.layered", description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    parser.add_argument("--out", default=str(OUT_DIR / "results.json"))
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="small operands, one pass each, correctness only")
    args = parser.parse_args(argv)

    started = time.time()
    out = Path(args.out)
    results = run_all(
        seed=args.seed, seconds=args.seconds, repeat=args.repeat, trace=True,
        smoke=args.smoke, out_dir=out.parent,
    )
    doc = {
        "schema": "benchmarks.layered/1",
        "fingerprint": fingerprint(args.seed),
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "wall_s": time.time() - started,
        "workloads": results,
    }
    out.write_text(json.dumps(doc, indent=1, default=str))
    print(f"wrote {out} ({doc['wall_s']:.0f} s)")
    return 0 if all(e["correct"] for e in results.values()) else 1
