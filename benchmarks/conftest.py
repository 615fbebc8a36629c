"""Shared benchmark infrastructure.

Every experiment file registers paper-style report tables through
:func:`add_report`; a session-finish hook writes them to
``benchmarks/reports/<experiment>.txt`` and echoes them to the terminal,
so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
captures both the pytest-benchmark timing table and the reproduced
paper tables.

Scale: ``REPRO_BENCH_SCALE`` (default 1.0) multiplies the dataset
scales; the defaults run the whole suite in minutes on one CPU core
(the simulated device is a vectorized-NumPy executor, so absolute
numbers are CPU times — shapes and ratios are the reproduction target).
The committed reports are full-scale: at any other scale the reports
are only echoed, never written, so a scaled smoke run leaves
``benchmarks/reports/`` untouched.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro

REPORTS_DIR = Path(__file__).parent / "reports"

#: experiment id -> list of text blocks
_REPORTS: dict[str, list[str]] = {}

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def add_report(experiment: str, block: str) -> None:
    """Queue a report block for ``experiment`` (written at session end)."""
    _REPORTS.setdefault(experiment, []).append(block)


#: Deferred report builders, invoked at session end — after all
#: benchmark tests ran — so reports see the full result dictionaries
#: even under ``--benchmark-only`` (which skips non-benchmark tests).
_DEFERRED: list = []


def defer_report(builder) -> None:
    """Register a zero-arg callable that emits reports via add_report."""
    _DEFERRED.append(builder)


def timed_runs(fn, *, runs: int = 5) -> tuple[float, float]:
    """(mean, best) wall-clock seconds over ``runs`` calls — the paper
    averages index-creation time over 5 runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.mean(times)), float(min(times))


def measure_op_memory(ctx: repro.Context, fn):
    """Run ``fn`` once and return (result, peak_bytes_over_live)."""
    live = ctx.device.arena.live_bytes
    ctx.device.arena.reset_peak()
    result = fn()
    peak = ctx.device.arena.peak_bytes - live
    return result, peak


def pytest_sessionfinish(session, exitstatus):
    for builder in _DEFERRED:
        try:
            builder()
        except Exception as exc:  # pragma: no cover - report best-effort  # reprolint: disable=R4
            add_report("errors", f"report builder failed: {exc!r}")
    if not _REPORTS:
        return
    write = BENCH_SCALE == 1.0
    if write:
        REPORTS_DIR.mkdir(exist_ok=True)
    tw = None
    try:
        tw = session.config.get_terminal_writer()
    except Exception:  # pytest internals, not the repro taxonomy  # reprolint: disable=R4
        pass
    for experiment, blocks in sorted(_REPORTS.items()):
        text = "\n\n".join(blocks) + "\n"
        banner = f"\n{'=' * 78}\nREPORT {experiment}\n{'=' * 78}\n"
        if write:
            (REPORTS_DIR / f"{experiment}.txt").write_text(text)
        else:
            banner += f"(REPRO_BENCH_SCALE={BENCH_SCALE:g}: not written)\n"
        if tw is not None:
            tw.write(banner + text)
        else:  # pragma: no cover - fallback
            print(banner + text)


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE
