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
    program_rules: Iterable | None = None,
) -> list[Finding]:
    """Run per-module ``rules`` plus whole-program ``program_rules``.

    With both arguments left at ``None`` the full registries run: every
    per-module rule over every file, then every whole-program rule over the
    :class:`~repro.analysis.dataflow.Program` built from the same
    modules.  Passing an explicit ``rules`` iterable scopes the run to
    exactly those per-module rules and skips the whole-program pass
    unless ``program_rules`` is also given — a rule-selection call
    means *those rules and nothing else*.  Files are parsed and linted
    one after another on the calling thread (the work is pure Python
    under the GIL, and concurrent ``ast.parse`` trips CPython
    gh-106905); output is in Finding sort order.
    """
    explicit_rules = rules is not None
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    rules = list(rules)
    if program_rules is None and not explicit_rules:
        from repro.analysis.dataflow import default_program_rules

        program_rules = default_program_rules()
    program_rules = list(program_rules or ())

    files = list(iter_python_files(roots))

    def lint_one(
        path: Path, rel: str
    ) -> tuple[list[Finding], ModuleContext | None]:
        try:
            module = load_module(path, rel)
        except SyntaxError as exc:
            return (
                [
                    Finding(
                        path=str(path),
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        rule="R0",
                        message=f"syntax error: {exc.msg}",
                    )
                ],
                None,
            )
        out = []
        for rule in rules:
            for finding in rule.check(module):
                if respect_suppressions and is_suppressed(
                    finding, module.suppressions
                ):
                    continue
                out.append(finding)
        return out, module

    findings: list[Finding] = []
    modules: list[ModuleContext] = []
    for path, rel in files:
        module_findings, module = lint_one(path, rel)
        findings.extend(module_findings)
        if module is not None:
            modules.append(module)

    if program_rules and modules:
        from repro.analysis.dataflow import Program

        program = Program.build(modules)
        suppressions = {str(m.path): m.suppressions for m in modules}
        for rule in program_rules:
            for finding in rule.check(program):
                if respect_suppressions and is_suppressed(
                    finding, suppressions.get(finding.path, {})
                ):
                    continue
                findings.append(finding)

    findings.sort()
    return findings
