"""A/B one benchmark workload: a parent revision against the working tree.

Usage::

    python tools/ab.py WORKLOAD [--parent REV] [--pairs N] [--seed S]

Run from inside the repository.  The parent revision (default ``HEAD``)
is exported with ``git archive`` into a temporary directory; then the
``BENCHMARK.json`` command runs untraced, at the file's ``run_seconds``,
once in the parent tree and once in the working tree per pair, the side
that goes first swapping from pair to pair so drift hits both alike.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the working tree won (ties count
for neither side) and a verdict:

* ``unsteady`` — the working tree's interquartile range is wider than
  the metric's ``bound`` (a fraction of the parent's median) and the
  parent's is not: the working tree's runs spread too widely for any
  other verdict to hold;
* ``better`` — the working tree won at least nine tenths of the pairs
  and the medians differ, its way, by more than the parent's
  interquartile range (the rule a claimed gain must meet);
* ``worse`` — the working tree's median is worse than the parent's by
  more than the metric's ``bound`` (a fraction of the parent's median);
* ``unresolved`` — neither, and the parent's own interquartile range is
  wider than the bound, so a regression within it could not be seen;
* ``flat`` — neither, within a bound the spread can resolve.

Each run's values go to stderr as it finishes.  The exit status is 1
when a run failed or reported failed operations, or a metric is
``worse`` or ``unsteady``; else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

#: A gain must win at least this share of the pairs.
WIN_SHARE = 0.9


def repo_root() -> Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        check=True, capture_output=True, text=True,
    )
    return Path(out.stdout.strip())


def export_tree(root: Path, rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` (``git archive``)."""
    tar = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced run in ``tree``: its JSON result line, or a result
    marked ``{"error": ...}`` when the command failed."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"no result line: {lines[-1][:200]}"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, str]:
    """Per-pair wins of the change and the metric's verdict (module doc)."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    spread = bound * abs(p_med)
    if c_q3 - c_q1 > spread >= p_q3 - p_q1:
        return wins, "unsteady"
    if wins >= math.ceil(WIN_SHARE * len(parent)) and gain > p_q3 - p_q1:
        return wins, "better"
    if -gain > spread:
        return wins, "worse"
    if p_q3 - p_q1 > spread:
        return wins, "unresolved"
    return wins, "flat"


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def report(spec: dict, results: dict[str, list[dict]]) -> tuple[list[list[str]], bool]:
    """The table rows and whether any metric is ``worse`` or ``unsteady``."""
    rows = [["metric", "parent q1/med/q3", "change q1/med/q3", "delta", "wins", "verdict"]]
    worse = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        paired = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(results["parent"], results["change"])
            if name in p.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not paired:
            continue
        parent, change = [p for p, _ in paired], [c for _, c in paired]
        wins, word = verdict(parent, change, metric["better"], metric["bound"])
        worse |= word in ("worse", "unsteady")
        p_q, c_q = quartiles(parent), quartiles(change)
        delta = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0
        rows.append([
            name, "/".join(map(_fmt, p_q)), "/".join(map(_fmt, c_q)),
            f"{delta:+.1%}", f"{wins}/{len(paired)}", word,
        ])
    return rows, worse


def render(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = repo_root()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent_tree = Path(tmp)
        export_tree(root, args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": root}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], command, args.workload, args.seed, seconds)
                results[side].append(result)
                if "error" in result or result.get("failed"):
                    failed = True
                values = " ".join(
                    f"{name}={_fmt(m['value'])}"
                    for name, m in result.get("metrics", {}).items()
                )
                print(f"pair {pair + 1} {side}: {result.get('error') or values}",
                      file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.parent} vs working tree, seed {args.seed}, "
          f"{args.pairs} pairs, {seconds} s per run")
    rows, worse = report(spec, results)
    print(render(rows))
    for side in ("parent", "change"):
        ops = sum(r.get("attempted", 0) for r in results[side])
        bad = sum(r.get("failed", 0) for r in results[side])
        errors = sum("error" in r for r in results[side])
        print(f"{side}: {bad} of {ops} ops failed, {errors} runs without a result")
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
