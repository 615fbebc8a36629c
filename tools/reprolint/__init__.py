"""Standalone launcher for reprolint (``python -m tools.reprolint``).

The implementation lives in :mod:`repro.analysis` (entry point
:mod:`repro.analysis.cli`) so the library can lint itself (``python -m repro lint``) and tests can import the rules;
this package exists so the gate also runs in checkouts where ``repro``
is not installed — it prepends ``src/`` to ``sys.path`` before
delegating.
"""

from __future__ import annotations

import sys
from pathlib import Path


def _ensure_repro_on_path() -> None:
    try:
        import repro.analysis.cli  # noqa: F401
        return
    except ImportError:
        pass
    src = Path(__file__).resolve().parents[2] / "src"
    if src.is_dir():
        sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    _ensure_repro_on_path()
    from repro.analysis.cli import main as cli_main

    return cli_main(argv)
