"""Print one benchmark metric across the committed ``BENCH_*.json`` files.

Usage::

    python tools/bench_series.py METRIC

``METRIC`` is an end-to-end metric (``peak_arena_mib``, ``pass_s``, ...;
the median over a file's runs is printed) or a per-layer one
(``gpu.kernel_launches``, ``cubool.kron_ms``, ...; read from the traced
run).  One row per workload, one column per file, files in PR order
(the number in ``BENCH_<pr>.json``); ``-`` marks a workload or metric a
file does not carry.  Read-only, standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_NAME = re.compile(r"BENCH_(\d+)\.json$")
#: Where the committed ``BENCH_*.json`` files live.
REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_files(directory: Path) -> list[tuple[int, Path]]:
    """``(pr, path)`` of every ``BENCH_<pr>.json`` in ``directory``, in
    PR order."""
    found = []
    for path in directory.glob("BENCH_*.json"):
        match = _NAME.search(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def metric_value(workload: dict, metric: str) -> float | None:
    """The metric's median on one workload entry, or ``None``."""
    end_to_end = workload.get("end_to_end", {}).get(metric)
    if isinstance(end_to_end, dict):
        return end_to_end.get("median")
    value = workload.get("per_layer", {}).get(metric)
    return value if isinstance(value, (int, float)) else None


def series(directory: Path, metric: str) -> tuple[list[str], dict[str, list]]:
    """Column headers and, per workload, one value (or ``None``) per file."""
    headers: list[str] = []
    rows: dict[str, list] = {}
    files = bench_files(directory)
    for column, (pr, path) in enumerate(files):
        headers.append(f"BENCH_{pr}")
        for name, workload in json.loads(path.read_text())["workloads"].items():
            rows.setdefault(name, [None] * len(files))[column] = metric_value(
                workload, metric
            )
    return headers, rows


def _cell(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(directory: Path, metric: str) -> str:
    """The table: one row per workload, one column per file."""
    headers, rows = series(directory, metric)
    table = [[metric, *headers]]
    table += [[name, *map(_cell, values)] for name, values in rows.items()]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("metric")
    args = parser.parse_args(argv)
    if not bench_files(REPO_ROOT):
        print(f"no BENCH_*.json files in {REPO_ROOT}", file=sys.stderr)
        return 1
    print(render(REPO_ROOT, args.metric))
    return 0


if __name__ == "__main__":
    sys.exit(main())
