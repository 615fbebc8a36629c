"""Command-line front end for reprolint.

Reached three ways, all the same gate:

* ``python -m repro lint src/`` — the contributor entry;
* ``python -m tools.reprolint src/`` — the standalone tool;
* the CI job steps (``--json`` mode, ``--baseline`` against the
  committed ``metadata/lint_baseline.json`` snapshot).

Exit status: 0 when clean (or every finding is baselined), 1 when any
non-suppressed, non-baselined finding remains, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.engine import lint_paths
from repro.analysis.rules import default_rules, rule_registry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Contract-checking static analysis for the SPbLA "
        "reproduction (rules R1-R6; see docs/ANALYSIS.md).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/"], help="files or directories to lint"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable findings for CI"
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-suppress",
        action="store_true",
        help="report findings even on `# reprolint: disable=` lines",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="known-findings snapshot; only findings absent from it fail",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="snapshot the current findings to PATH and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    registry = rule_registry()
    if args.list_rules:
        for rule_id, rule in sorted(registry.items()):
            print(f"{rule_id}  {rule.name:28s} {rule.rationale}")
        return 0

    select = None
    if args.select:
        select = {tok.strip().upper() for tok in args.select.split(",") if tok.strip()}
        unknown = select - registry.keys()
        if unknown:
            print(f"unknown rule ids: {sorted(unknown)}", file=sys.stderr)
            return 2

    findings = lint_paths(
        args.paths,
        default_rules(select),
        respect_suppressions=not args.no_suppress,
    )

    if args.write_baseline:
        from repro.analysis.baseline import write_baseline

        entries = write_baseline(args.write_baseline, findings)
        print(
            f"reprolint: wrote {entries} baseline entr"
            f"{'y' if entries == 1 else 'ies'} "
            f"({len(findings)} findings) to {args.write_baseline}"
        )
        return 0

    baselined = 0
    if args.baseline:
        from repro.analysis.baseline import apply_baseline, load_baseline

        try:
            known = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"baseline not found: {args.baseline}", file=sys.stderr)
            return 2
        findings, baselined = apply_baseline(findings, known)

    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.to_json() for f in findings],
                    "count": len(findings),
                    "baselined": baselined,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        suffix = f" ({baselined} baselined)" if baselined else ""
        print(f"reprolint: {len(findings)} {noun}{suffix}")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m entries
    sys.exit(main())
