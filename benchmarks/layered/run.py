"""Entry point of the ``BENCHMARK.json`` command: one workload per call.

``python3 benchmarks/layered/run.py --workload W --seed N --seconds S --trace 0|1``
prints every metric by name and unit, then one JSON result line.  The
program under test is imported from ``src/`` next to this directory;
without it the script exits non-zero and prints no result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmarks/layered: no program to measure under {src}", file=sys.stderr)
        return 2
    # Configuration is passed explicitly; nothing may leak in through the
    # environment.  Must happen before repro is imported.
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    sys.path[:0] = [str(src), str(ROOT)]
    from benchmarks.layered.cli import run_one

    return run_one(argv, scrubbed)


if __name__ == "__main__":
    sys.exit(main())
