"""Shared harness pieces: paths, statistics, signatures, host fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
#: Everything a run leaves behind (traces, result files, store roots)
#: lands here; the directory is git-ignored.
OUT_DIR = HERE / "out"

#: Candidate tail percentiles, highest first; a run reports the highest
#: one that still has at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in 0..100)."""
    xs = sorted(samples)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, int(p / 100.0 * len(xs)))]


def highest_percentile(count: int) -> float:
    """Highest tail percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def summarize(samples) -> dict:
    """Median, quartiles and supported tail of one timing sample set."""
    xs = [float(x) for x in samples]
    if not xs:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0, "tail_p": 50.0, "tail": 0.0}
    if len(xs) >= 2:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    tail_p = highest_percentile(len(xs))
    return {
        "n": len(xs),
        "median": med,
        "q1": q1,
        "q3": q3,
        "tail_p": tail_p,
        "tail": percentile(xs, tail_p),
    }


def median(samples) -> float:
    xs = list(samples)
    return float(statistics.median(xs)) if xs else 0.0


def relative_iqr(values) -> float:
    """(Q3 - Q1) / median of ``values`` — the spread the driver gates on."""
    xs = [float(v) for v in values]
    if len(xs) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def peak_rss_mib() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def coo_signature(rows, cols, shape) -> tuple[int, str]:
    """``(nnz, hash of the sorted linear keys)`` of a boolean pattern."""
    keys = np.sort(
        np.asarray(rows, dtype=np.int64) * int(shape[1])
        + np.asarray(cols, dtype=np.int64)
    )
    return int(keys.size), hashlib.sha1(keys.tobytes()).hexdigest()[:16]


def dense_signature(dense: np.ndarray) -> tuple[int, str]:
    rows, cols = np.nonzero(dense)
    return coo_signature(rows, cols, dense.shape)


def bool_mxm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense boolean product through one float32 matmul.  (The library's
    ``Semiring.mxm_dense`` broadcasts an m x k x n tensor — 8 GB at the
    n = 2048 operands checked here.)"""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def bool_closure(a: np.ndarray) -> np.ndarray:
    """Dense transitive closure by repeated squaring."""
    cur = a
    while True:
        nxt = cur | bool_mxm(cur, cur)
        if int(nxt.sum()) == int(cur.sum()):
            return cur
        cur = nxt


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def last_level_cache_bytes() -> int:
    """Largest cache sysfs lists for cpu0 (0 when it lists none)."""
    best = 0
    for size_file in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        try:
            text = size_file.read_text().strip()
        except OSError:
            continue
        unit = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            best = max(best, int(digits) * unit)
    return best


def fingerprint(seed: int, scaled: dict | None = None, scrubbed=()) -> dict:
    """Host description stored in every results file."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "np_bitwise_count": hasattr(np, "bitwise_count"),
        "machine": platform.machine(),
        "llc_bytes": last_level_cache_bytes(),
        "git_sha": _git_sha(),
        "seed": int(seed),
        "scaled_counts": dict(scaled or {}),
        "scrubbed_env": list(scrubbed),
        "argv": list(sys.argv),
    }
