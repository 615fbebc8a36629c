"""E15 — incremental evaluation: answer freshness after a k-edge delta.

The tentpole claim of the `repro.incr` subsystem: after a small edge
delta, restarting the fixpoint from the previous fixed point (masked
semi-naive `incremental_transitive_closure`) re-establishes a fresh
answer in time proportional to the *delta's consequences*, not the
graph.  The contrast is the pre-incremental service behavior: the
version bump invalidates the cache and the next query re-runs
`transitive_closure` from scratch.

Sweep: k ∈ {1, 16, 256} new edges at n ∈ {512, 2048} plus a k = 1 cell
at n = 4096, hybrid auto (the shipped configuration).  Both paths are
verified to produce identical closures before timing.  Acceptance:
≥ 10× lower refresh latency for a single-edge delta on the n ≥ 1024
closure.  Larger deltas are *expected* to cross over — k random edges
bridge up to k block pairs and the "consequences of the delta"
approach the whole matrix, which is exactly why the service tier's
arbitration budget (``max(64, |E|/8)``) routes big deltas to a cold
run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.closure import (
    incremental_transitive_closure,
    transitive_closure,
)

from .conftest import BENCH_SCALE, add_report, defer_report, timed_runs

SPEEDUP_FLOOR = 10.0
#: (n, k) sweep cells.  The big-n cell only runs the single-edge delta
#: (the acceptance case); its larger-k cells are closure-of-everything
#: workloads that add minutes of runtime without adding information
#: beyond the n = 2048 crossover rows.
CELLS = (
    (512, 1),
    (512, 16),
    (512, 256),
    (2048, 1),
    (2048, 16),
    (2048, 256),
    (4096, 1),
)

_RESULTS: dict[tuple[int, int], dict] = {}


def _scaled(n: int) -> int:
    return max(128, int(n * BENCH_SCALE))


def _graph_matrix(ctx, n: int, rng, blocks: int = 8, density: float = 0.04):
    """Block-diagonal random adjacency: 8 communities, 4 % intra-block
    density.  The closure then has persistent structure at every sweep
    size — a uniform out-degree-8 graph closes to the full matrix, at
    which point every delta is a no-op and the benchmark measures
    nothing.  Block structure is also the regime the tiled bit kernels
    (E14) target, so both refresh paths run the shipped fast path."""
    bs = n // blocks
    per_block = int(density * bs * bs)
    rows, cols = [], []
    for i in range(blocks):
        rows.append(rng.integers(0, bs, per_block) + i * bs)
        cols.append(rng.integers(0, bs, per_block) + i * bs)
    return ctx.matrix_from_lists(
        (n, n), np.concatenate(rows), np.concatenate(cols)
    )


def _delta_matrix(ctx, n: int, k: int, rng):
    return ctx.matrix_from_lists(
        (n, n), rng.integers(0, n, k), rng.integers(0, n, k)
    )


class TestIncrementalRefresh:
    @pytest.mark.parametrize(("n_nominal", "k"), CELLS)
    def test_refresh_latency(self, benchmark, n_nominal, k):
        n = _scaled(n_nominal)
        rng = np.random.default_rng(0xE15 + n_nominal + k)
        ctx = repro.Context(backend="cubool", hybrid="auto")
        base = _graph_matrix(ctx, n, rng)
        closure = transitive_closure(base)
        delta = _delta_matrix(ctx, n, k, rng)
        merged = base.ewise_add(delta)

        # Both paths must agree before either is timed.
        warm = incremental_transitive_closure(closure, delta)
        cold = transitive_closure(merged)
        assert warm.nnz == cold.nnz
        warm.free()
        cold.free()

        _, inc_best = timed_runs(
            lambda: incremental_transitive_closure(closure, delta).free(),
            runs=3,
        )
        _, full_best = timed_runs(
            lambda: transitive_closure(merged).free(), runs=3
        )
        _RESULTS[(n_nominal, k)] = {
            "n": n,
            "k": k,
            "incremental": inc_best,
            "full": full_best,
            "closure_nnz": closure.nnz,
        }
        benchmark(
            lambda: incremental_transitive_closure(closure, delta).free()
        )
        for m in (base, closure, delta, merged):
            m.free()
        ctx.finalize()

    def test_single_edge_speedup_gate(self):
        """Acceptance: ≥ 10× for k=1 on the n ≥ 1024 closure (measured
        on the largest swept size; vacuous under a BENCH_SCALE that
        shrinks every cell below n = 1024)."""
        rows = [
            row
            for key, row in _RESULTS.items()
            if isinstance(key, tuple) and key[1] == 1 and row["n"] >= 1024
        ]
        if not rows:
            pytest.skip("no k=1 cell at n >= 1024 (scaled down?)")
        row = max(rows, key=lambda r: r["n"])
        speedup = row["full"] / max(row["incremental"], 1e-9)
        assert speedup >= SPEEDUP_FLOOR, (
            f"single-edge incremental refresh only {speedup:.1f}x "
            f"over full recompute at n={row['n']}"
        )


class TestServiceFreshness:
    """End-to-end: mutation-to-fresh-answer through the service tier,
    warm start from the cached fixpoint state vs a service that keeps
    none (``result_capacity=0``: every re-query is cold, on the same
    refreshed label matrices)."""

    @staticmethod
    def _labeled_block_graph(n, blocks=8, density=0.04, seed=0xE15):
        """Two-label block-diagonal graph (same regime as the closure
        sweep — a saturating uniform graph makes even the cold eval
        minutes long and measures nothing about freshness)."""
        from repro.graph import LabeledGraph

        rng = np.random.default_rng(seed)
        bs = n // blocks
        per_block = int(density * bs * bs)
        triples = []
        for i in range(blocks):
            rows = rng.integers(0, bs, per_block) + i * bs
            cols = rng.integers(0, bs, per_block) + i * bs
            labels = rng.choice(("a", "b"), per_block)
            triples.extend(
                zip(rows.tolist(), labels.tolist(), cols.tolist())
            )
        return LabeledGraph.from_triples(triples, n=n)

    def test_service_refresh(self, benchmark):
        from repro.service import QueryService

        n = _scaled(512)
        graph = self._labeled_block_graph(n)
        query = "(a | b)+"
        rows = {}
        for mode, options in (
            ("incremental", {}),
            ("recompute", {"result_capacity": 0}),
        ):
            with QueryService(workers=1, **options) as svc:
                svc.register_graph("g", graph)
                svc.pairs("g", query)  # populate cache + fixpoint state
                rng = np.random.default_rng(7)

                def refresh():
                    svc.add_edges("g", "a", [tuple(rng.integers(0, n, 2))])
                    svc.pairs("g", query)

                mean, best = timed_runs(refresh, runs=5)
                counters = svc.stats().counters
                rows[mode] = {
                    "best": best,
                    "mean": mean,
                    "incremental_evals": counters.get("incremental_evals", 0),
                    "full_evals": counters.get("full_evals", 0),
                }
        assert rows["incremental"]["incremental_evals"] >= 5
        assert rows["recompute"]["incremental_evals"] == 0
        _RESULTS["service"] = {"n": n, "rows": rows}
        with QueryService(workers=1) as svc:
            svc.register_graph("g", graph)
            svc.pairs("g", query)
            rng = np.random.default_rng(7)

            def refresh():
                svc.add_edges("g", "a", [tuple(rng.integers(0, n, 2))])
                svc.pairs("g", query)

            benchmark(refresh)


def _report() -> None:
    sweep = {key: row for key, row in _RESULTS.items() if isinstance(key, tuple)}
    if sweep:
        any_row = next(iter(sweep.values()))
        lines = [
            "E15 — incremental refresh latency after a k-edge delta "
            "(masked semi-naive closure restart vs full recompute, "
            "hybrid auto, 8-community block-diagonal graphs at 4% "
            "intra-block density)",
            "",
            f"{'n':>6} {'k':>5} {'incremental ms':>15} {'full ms':>10} "
            f"{'speedup':>9}",
        ]
        for (n_nominal, k), row in sorted(sweep.items()):
            speedup = row["full"] / max(row["incremental"], 1e-9)
            lines.append(
                f"{row['n']:>6} {k:>5} {row['incremental'] * 1e3:>15.2f} "
                f"{row['full'] * 1e3:>10.2f} {speedup:>8.1f}x"
            )
        lines.append("")
        lines.append(
            f"acceptance: k=1 at n>=1024 must be >= {SPEEDUP_FLOOR:.0f}x "
            "(asserted in test_single_edge_speedup_gate)"
        )
        lines.append(
            "large-k cells cross over by design: k random edges bridge "
            "up to k block pairs, the delta's consequences approach the "
            "whole matrix, and the service arbitration budget "
            "(max(64, |E|/8)) routes such deltas to a cold run instead"
        )
        add_report("E15_incremental", "\n".join(lines) + "\n")
    service = _RESULTS.get("service")
    if service:
        rows = service["rows"]
        lines = [
            "E15 — service tier: mutation-to-fresh-answer "
            f"(1-edge delta + all-pairs re-query, n={service['n']}, "
            "warm start vs no cached state / cold recompute)",
            "",
            f"{'mode':<14} {'best ms':>9} {'mean ms':>9} "
            f"{'incremental':>12} {'full':>6}",
        ]
        for mode, row in rows.items():
            lines.append(
                f"{mode:<14} {row['best'] * 1e3:>9.2f} "
                f"{row['mean'] * 1e3:>9.2f} {row['incremental_evals']:>12} "
                f"{row['full_evals']:>6}"
            )
        if all(m in rows for m in ("incremental", "recompute")):
            ratio = rows["recompute"]["best"] / max(
                rows["incremental"]["best"], 1e-9
            )
            lines.append("")
            lines.append(f"end-to-end freshness speedup: {ratio:.1f}x")
        add_report("E15_incremental", "\n".join(lines) + "\n")


defer_report(_report)
