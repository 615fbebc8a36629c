"""reprolint engine: walk files, run rules, filter suppressions.

The engine is deliberately small — all domain knowledge lives in the
rule classes (:mod:`repro.analysis.rules`).  It provides rules with a
:class:`ModuleContext` carrying the parsed AST, the raw source lines
(for trailing-comment conventions like ``# guarded-by:``), and a
package-relative path, then drops findings whose line carries a
matching ``# reprolint: disable=`` marker.

Path normalization: rules match on paths *relative to the repro
package root* (``formats/bitmatrix.py``, ``service/scheduler.py``).
When a scanned file lives under a directory named ``repro`` the prefix
up to and including it is stripped; otherwise the path relative to the
scan root is used as-is — which is how the fixture corpus under
``tests/analysis_fixtures/`` mimics package layout without being
importable.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, is_suppressed, parse_suppressions

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis"}


class ModuleContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        #: Package-relative posix path rules match on (see module doc).
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = parse_suppressions(self.lines)
        self._qualnames: dict[int, str] | None = None

    # -- path helpers ------------------------------------------------------

    def in_dirs(self, *prefixes: str) -> bool:
        return any(self.relpath.startswith(p) for p in prefixes)

    @property
    def basename(self) -> str:
        return self.relpath.rsplit("/", 1)[-1]

    # -- AST helpers -------------------------------------------------------

    def qualname_at(self, node: ast.AST) -> str:
        """Dotted class/function scope containing ``node`` ('' at module level)."""
        if self._qualnames is None:
            self._qualnames = {}
            self._index_scopes(self.tree, ())
        best = ""
        lineno = getattr(node, "lineno", 0)
        for start, (end, name) in self._scope_spans.items():
            if start <= lineno <= end and len(name) > len(best):
                best = name
        return best

    def _index_scopes(self, node: ast.AST, stack: tuple) -> None:
        if not hasattr(self, "_scope_spans"):
            self._scope_spans: dict[int, tuple[int, str]] = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = ".".join(stack + (child.name,))
                end = getattr(child, "end_lineno", child.lineno)
                self._scope_spans[child.lineno] = (end, qual)
                self._index_scopes(child, stack + (child.name,))
            else:
                self._index_scopes(child, stack)

    def site(self, node: ast.AST) -> str:
        """'relpath::Qual.name' key used by rule allowlists."""
        qual = self.qualname_at(node)
        return f"{self.relpath}::{qual}" if qual else self.relpath

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        context = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(
            path=str(self.path),
            line=line,
            col=col,
            rule=rule,
            message=message,
            context=context,
        )


def iter_python_files(roots: Iterable[str | Path]) -> Iterator[tuple[Path, str]]:
    """Yield (path, scan-relative posix path) for every .py under roots."""
    for root in roots:
        root = Path(root)
        if root.is_file():
            # Keep the full path so package_relpath can locate 'repro'.
            yield root, root.as_posix()
            continue
        for path in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            yield path, path.relative_to(root).as_posix()


def package_relpath(rel: str) -> str:
    """Strip everything up to and including the last 'repro' directory."""
    parts = rel.split("/")
    if "repro" in parts[:-1]:
        idx = max(i for i, part in enumerate(parts[:-1]) if part == "repro")
        return "/".join(parts[idx + 1 :])
    return rel


def load_module(path: Path, rel: str) -> ModuleContext:
    source = path.read_text(encoding="utf-8")
    return ModuleContext(path, package_relpath(rel), source)


def lint_paths(
    roots: Iterable[str | Path],
    rules: Iterable | None = None,
    *,
    respect_suppressions: bool = True,
) -> list[Finding]:
    """Run ``rules`` (default: every registered rule) over every file.

    Files are parsed and linted one after another on the calling thread
    (the work is pure Python under the GIL, and concurrent
    ``ast.parse`` trips CPython gh-106905); output is in Finding sort
    order.
    """
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    rules = list(rules)

    findings: list[Finding] = []
    for path, rel in iter_python_files(roots):
        try:
            module = load_module(path, rel)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="R0",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        for rule in rules:
            for finding in rule.check(module):
                if respect_suppressions and is_suppressed(
                    finding, module.suppressions
                ):
                    continue
                findings.append(finding)

    findings.sort()
    return findings
