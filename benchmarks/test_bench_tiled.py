"""E14 — tiled bit kernels: zero-tile skipping.

The tentpole claim: viewing the flat bit matrix as a grid of 256-bit
tiles with a presence bitmap lets the multiply skip empty tile pairs,
so block-structured operands (the shape closure fixpoints settle into)
pay for their occupied tiles, not the dense grid.

**Density sweep** — block-diagonal operands at n≥2048, four kernels
(flat blocked, flat Four-Russians, tiled blocked, tiled Four-Russians),
measured at the format level so each row is one kernel, not a routing
decision.  A side column records which kernel the hybrid cost model
actually picks at each density.

Acceptance: tiled ≥ 2x over flat blocked at the sweep's low densities.
(The worker-scaling axis went with the worker pool; EXPERIMENTS.md E14
records the 2-core measurement that retired it.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import get_backend
from repro.backends.hybrid import HybridBackend, HybridPolicy
from repro.formats.bitmatrix import BitMatrix
from repro.formats.tiled import TiledBitMatrix

from .conftest import BENCH_SCALE, add_report, defer_report, timed_runs

TILED_SPEEDUP_FLOOR = 2.0
BLOCKS = 8
DENSITIES = (0.01, 0.05, 0.15, 0.4)  # in-block density; overall is /BLOCKS

_RESULTS: dict[str, dict] = {}


def _n() -> int:
    return max(512, int(2048 * BENCH_SCALE))


def _block_diag(n: int, block_density: float, seed: int = 14):
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n), dtype=bool)
    bs = n // BLOCKS
    for b in range(BLOCKS):
        lo = b * bs
        dense[lo:lo + bs, lo:lo + bs] = rng.random((bs, bs)) < block_density
    return dense


def _kernels(dense):
    """kernel name -> zero-arg runner producing the product words."""
    flat_a = BitMatrix.from_dense(dense)
    tiled_a = TiledBitMatrix(flat_a)
    n = dense.shape[0]

    def flat_blocked():
        out = BitMatrix.empty((n, n))
        out.mxm_into(flat_a, flat_a)
        return out.words

    def flat_fr():
        out = BitMatrix.empty((n, n))
        out.mxm_four_russians_into(flat_a, flat_a)
        return out.words

    def tiled(four_russians=False):
        def run():
            out = TiledBitMatrix(BitMatrix.empty((n, n)), scan=False)
            out.mxm_into(tiled_a, tiled_a, four_russians=four_russians)
            return out.flat.words

        return run

    return {
        "flat blocked": flat_blocked,
        "flat 4-russians": flat_fr,
        "tiled blocked": tiled(),
        "tiled 4-russians": tiled(four_russians=True),
    }


class TestDensitySweep:
    @pytest.mark.parametrize("density", DENSITIES)
    def test_kernels_agree_and_time(self, benchmark, density):
        dense = _block_diag(_n(), density)
        runners = _kernels(dense)
        reference = None
        row: dict = {"occupancy": None}
        for name, run in runners.items():
            words = run()
            if reference is None:
                reference = words.copy()
            else:
                assert np.array_equal(words, reference), name
            mean, best = timed_runs(run, runs=3)
            row[name] = {"mean": mean, "best": best}
        row["occupancy"] = TiledBitMatrix(BitMatrix.from_dense(dense)).occupancy
        # Which kernel does the hybrid cost model pick here?
        policy = HybridPolicy(mode="bit")
        hb = HybridBackend(inner=get_backend("cubool"), policy=policy)
        rows, cols = np.nonzero(dense)
        a = hb.matrix_from_coo(rows, cols, dense.shape)
        hb._ensure_bit(a)
        row["routed"] = hb.estimate_costs("mxm", a, a).kernel
        _RESULTS.setdefault("sweep", {})[density] = row
        benchmark(runners["tiled blocked"])

    def test_tiled_beats_flat_at_low_density(self):
        """Acceptance gate: zero-tile skipping pays ≥ 2x where the grid
        is mostly empty (block-diagonal: 8 of 64 tile pairs present)."""
        sweep = _RESULTS.get("sweep", {})
        if len(sweep) < len(DENSITIES):
            pytest.skip("run the full density sweep first")
        for density in DENSITIES[:2]:
            row = sweep[density]
            best_tiled = min(
                row["tiled blocked"]["best"], row["tiled 4-russians"]["best"]
            )
            speedup = row["flat blocked"]["best"] / max(best_tiled, 1e-9)
            assert speedup >= TILED_SPEEDUP_FLOOR, (
                f"tiled {speedup:.2f}x over flat at block density {density}"
            )


def _report():
    n = _n()
    sweep = _RESULTS.get("sweep", {})
    if sweep:
        kernels = (
            "flat blocked", "flat 4-russians",
            "tiled blocked", "tiled 4-russians",
        )
        lines = [
            f"E14 — tiled vs flat bit mxm: block-diagonal n={n}, "
            f"{BLOCKS} blocks (64 tile pairs in the grid, {BLOCKS} present)",
            "",
            f"{'block d':>8} {'occ':>5} "
            + " ".join(f"{k + ' ms':>19}" for k in kernels)
            + f" {'tiled/flat':>11} {'routed':>18}",
        ]
        for density, row in sorted(sweep.items()):
            best_tiled = min(
                row["tiled blocked"]["best"], row["tiled 4-russians"]["best"]
            )
            speedup = row["flat blocked"]["best"] / max(best_tiled, 1e-9)
            lines.append(
                f"{density:>8.2f} {row['occupancy']:>5.2f} "
                + " ".join(
                    f"{row[k]['best'] * 1e3:>19.2f}" for k in kernels
                )
                + f" {speedup:>10.2f}x {row['routed']:>18}"
            )
        lines.append("")
        lines.append(
            "tiled/flat = flat blocked best / best tiled kernel; 'routed' "
            "is the hybrid cost model's pick at that density."
        )
        add_report("E14_tiled", "\n".join(lines) + "\n")


defer_report(_report)
