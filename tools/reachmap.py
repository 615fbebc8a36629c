"""Which consumers reach each function of ``src/repro``: the reach map.

Usage::

    python tools/reachmap.py              # run every consumer, write the map
    python tools/reachmap.py --summary    # print the per-module table of a map

A consumer is one of four classes:

* ``workload`` — each ``BENCHMARK.json`` workload at full scale, one
  traced pass pair (``--seconds 0 --trace 1``), so its ``verify`` and
  probes run too;
* ``bench`` — each paper-table bench ``benchmarks/test_bench_*.py`` at
  ``REPRO_BENCH_SCALE=0.25``;
* ``entry`` — the entry points as CI runs them: ``python -m repro``,
  ``serve --selftest`` (plain, and hybrid under the lock sentinel),
  ``cluster selftest`` (lock sentinel on), ``store``, ``lint`` (plain
  and against the baseline), ``scripts/crash_recovery_check.py`` and
  every ``examples/*.py``;
* ``tests`` — the Tier-1 suite.

Each consumer runs in a child process with a function-level profile
hook (``sys.setprofile`` and ``threading.setprofile``).  The hook is a
``sitecustomize.py`` put first on ``PYTHONPATH``, so the processes a
consumer starts (cluster followers, example subprocesses) are covered
too.  A process appends a function the first time it runs it, so a
killed follower keeps what it reached.

Every function is then *reached* (by a workload, bench or entry point),
*tests-only*, or reached by *nothing*.  The map is written as JSON
(``metadata/reachmap.json``); standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Where this repository lives.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The consumer classes, in reporting order; ``tests`` comes last
#: because it only decides between *tests-only* and *nothing*.
CLASSES = ("workload", "bench", "entry", "tests")

#: Put first on ``PYTHONPATH``; records ``file<TAB>line<TAB>name`` of
#: every code object under ``REACHMAP_SRC`` the first time a process
#: runs it, into ``REACHMAP_OUT/<pid>.hits``.
SITECUSTOMIZE = '''\
import os as _os

_out = _os.environ.get("REACHMAP_OUT")
_src = _os.environ.get("REACHMAP_SRC")
if _out and _src:
    import sys as _sys
    import threading as _threading

    _log = open(_os.path.join(_out, "%d.hits" % _os.getpid()), "a", buffering=1)
    # id -> code: holding the code object keeps its id from being reused.
    _seen = {}

    def _reachmap_hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code
                if code.co_filename.startswith(_src):
                    _log.write("%s\\t%d\\t%s\\n" % (
                        code.co_filename, code.co_firstlineno, code.co_name))

    _sys.setprofile(_reachmap_hook)
    _threading.setprofile(_reachmap_hook)
'''


@dataclass(frozen=True)
class Consumer:
    """One consumer: its name, class, and the commands it runs (in the
    repository root, one after another) with extra environment."""

    name: str
    cls: str
    commands: tuple[tuple[str, ...], ...]
    env: dict = field(default_factory=dict, hash=False)


# -- the functions -------------------------------------------------------------


def list_functions(src: Path, package: str) -> dict[str, dict]:
    """Every ``def`` under ``src/<package>``, keyed ``module:qualname``.

    ``first`` is the line a code object reports (the first decorator's),
    ``line`` / ``end`` the span of the definition.
    """
    found: dict[str, dict] = {}
    for path in sorted((src / package).rglob("*.py")):
        rel = path.relative_to(src)
        module = ".".join(rel.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    key = f"{module}:{qual}"
                    if key in found:  # a property setter, a conditional redefinition
                        key += f"@{child.lineno}"
                    found[key] = {
                        "file": rel.as_posix(),
                        "name": child.name,
                        "first": min([child.lineno] + [d.lineno for d in child.decorator_list]),
                        "line": child.lineno,
                        "end": child.end_lineno,
                    }
                    visit(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


# -- the consumers -------------------------------------------------------------


def default_consumers(repo: Path) -> list[Consumer]:
    """The four classes of consumer of this repository."""
    py = sys.executable
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    consumers = [
        Consumer(
            f"workload:{w['name']}", "workload",
            ((py, *spec["command"][1:], "--workload", w["name"], "--seconds", "0",
              "--trace", "1", "--trace-out", "{tmp}/trace.json"),),
        )
        for w in spec["workloads"]
    ]
    consumers += [
        Consumer(
            f"bench:{path.stem}", "bench",
            ((py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
              path.relative_to(repo).as_posix()),),
            {"REPRO_BENCH_SCALE": "0.25"},
        )
        for path in sorted((repo / "benchmarks").glob("test_bench_*.py"))
    ]
    store_setup = (
        "from repro.datasets.random_graphs import uniform_random_graph\n"
        "from repro.service import QueryService\n"
        "g = uniform_random_graph(32, 120, labels=('a', 'b'), seed=1)\n"
        "with QueryService(workers=0) as svc:\n"
        "    svc.register_graph('smoke', g)\n"
        "    svc.persist_graph('smoke')\n"
        "    svc.add_edges('smoke', 'a', [(0, 31)])\n"
    )
    consumers += [
        Consumer("entry:selfcheck", "entry", ((py, "-m", "repro"),)),
        Consumer("entry:serve", "entry", ((py, "-m", "repro", "serve", "--selftest"),)),
        # As CI runs them: the selftests under the lock sentinel too.
        Consumer("entry:serve-checked", "entry", ((py, "-m", "repro", "serve", "--selftest"),),
                 {"REPRO_HYBRID": "1", "REPRO_CHECK_LOCKS": "1"}),
        Consumer("entry:cluster", "entry",
                 ((py, "-m", "repro", "cluster", "selftest", "--followers", "2"),),
                 {"REPRO_CHECK_LOCKS": "1"}),
        Consumer(
            "entry:store", "entry",
            ((py, "-c", store_setup), (py, "-m", "repro", "store", "ls"),
             (py, "-m", "repro", "store", "info", "smoke"),
             (py, "-m", "repro", "store", "verify"),
             (py, "-m", "repro", "store", "compact", "smoke")),
            {"REPRO_STORE": "{tmp}/store"},
        ),
        Consumer("entry:lint", "entry",
                 ((py, "-m", "repro", "lint", "src/", "tools/", "benchmarks/"),
                  (py, "-m", "repro", "lint", "--json", "--baseline",
                   "metadata/lint_baseline.json", "src/", "tools/", "benchmarks/"))),
        Consumer("entry:crash_recovery", "entry",
                 ((py, "scripts/crash_recovery_check.py"),)),
    ]
    consumers += [
        Consumer(f"entry:examples/{path.name}", "entry",
                 ((py, path.relative_to(repo).as_posix()),))
        for path in sorted((repo / "examples").glob("*.py"))
    ]
    consumers.append(
        Consumer("tests", "tests", ((py, "-m", "pytest", "-q", "-p", "no:cacheprovider"),))
    )
    return consumers


def run_consumer(consumer: Consumer, repo: Path, src: Path, hook: Path,
                 timeout: float = 3600.0) -> tuple[set[tuple[str, int, str]], dict, float]:
    """Run one consumer under the hook; its hits ``(file relative to
    src, first line, name)``, a record of how it ran, and its wall time
    in seconds (kept out of the record so that regenerating an
    unchanged map leaves the file unchanged)."""
    with tempfile.TemporaryDirectory(prefix="reachmap-") as tmp:
        hits_dir = Path(tmp) / "hits"
        hits_dir.mkdir()
        # Only the consumer's own REPRO_* settings: the map must not
        # depend on the caller's dispatch axis.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update({k: v.replace("{tmp}", tmp) for k, v in consumer.env.items()})
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        env["REACHMAP_OUT"] = str(hits_dir)
        env["REACHMAP_SRC"] = str(src) + os.sep
        started, exits = time.perf_counter(), []
        for command in consumer.commands:
            argv = [arg.replace("{tmp}", tmp) for arg in command]
            try:
                done = subprocess.run(argv, cwd=repo, env=env, timeout=timeout,
                                      stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
                exits.append(done.returncode)
                if done.returncode:
                    sys.stderr.write(done.stdout.decode(errors="replace")[-2000:])
            except subprocess.TimeoutExpired:
                exits.append("timeout")
        hits = set()
        for path in hits_dir.glob("*.hits"):
            for line in path.read_text().splitlines():
                filename, first, name = line.split("\t")
                rel = Path(filename).resolve().relative_to(src.resolve())
                hits.add((rel.as_posix(), int(first), name))
    record = {
        "class": consumer.cls,
        "commands": [" ".join(("python", *c[1:])) for c in consumer.commands],
        "exit": exits,
    }
    return hits, record, time.perf_counter() - started


# -- the map -------------------------------------------------------------------


def build_map(functions: dict[str, dict], reached: dict[str, set],
              consumers: dict[str, dict], src: Path) -> dict:
    """The reach map: per function its status, consumer classes and
    the non-test consumers that ran it; per module the counts; the
    consumers and their exits."""
    by_code = {(f["file"], f["first"], f["name"]): key for key, f in functions.items()}
    names: dict[str, set] = {key: set() for key in functions}
    for name, hits in reached.items():
        for hit in hits:
            key = by_code.get(hit)
            if key is not None:
                names[key].add(name)
    table, modules = {}, {}
    for key, f in functions.items():
        got = {consumers[name]["class"] for name in names[key]}
        status = "nothing" if not got else "tests-only" if got == {"tests"} else "reached"
        row = {"line": f["line"], "end": f["end"],
               "by": [c for c in CLASSES if c in got], "status": status}
        if status == "reached":
            row["consumers"] = sorted(n for n in names[key] if consumers[n]["class"] != "tests")
        table[key] = row
        module = key.split(":", 1)[0]
        counts = modules.setdefault(module, {
            "file": f["file"], "lines": 0, "functions": 0, "reached": 0,
            "tests-only": 0, "nothing": 0,
        })
        counts["functions"] += 1
        counts[status] += 1
    for counts in modules.values():
        counts["lines"] = len((src / counts["file"]).read_text().splitlines())
    total = {s: sum(m[s] for m in modules.values())
             for s in ("functions", "reached", "tests-only", "nothing")}
    return {
        "generated_by": "python tools/reachmap.py",
        "statuses": {
            "reached": "run by a workload, a paper-table bench or an entry point",
            "tests-only": "run by the Tier-1 suite only",
            "nothing": "run by no consumer",
        },
        "consumers": consumers,
        "summary": total,
        "modules": dict(sorted(modules.items())),
        "functions": dict(sorted(table.items())),
    }


def dump_map(doc: dict) -> str:
    """The map as JSON with one line per module and per function, so
    two maps diff row by row."""
    parts = []
    for key, value in doc.items():
        if key in ("modules", "functions"):
            rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            parts.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: " + json.dumps(value, indent=1).replace("\n", "\n "))
    return "{\n" + ",\n".join(parts) + "\n}\n"


def render_summary(doc: dict) -> str:
    """A Markdown table, one row per module with a function the
    non-test consumers do not reach, plus a total row."""
    rows = ["| module | lines | functions | reached | tests-only | nothing |",
            "|---|---:|---:|---:|---:|---:|"]
    for module, m in doc["modules"].items():
        if m["reached"] == m["functions"]:
            continue
        rows.append(f"| `{module}` | {m['lines']} | {m['functions']} | {m['reached']} | "
                    f"{m['tests-only']} | {m['nothing']} |")
    s = doc["summary"]
    lines = sum(m["lines"] for m in doc["modules"].values())
    rows.append(f"| **all {len(doc['modules'])} modules with a function** | {lines} | "
                f"{s['functions']} | {s['reached']} | {s['tests-only']} | {s['nothing']} |")
    return "\n".join(rows)


def collect(consumers: list[Consumer], repo: Path, src: Path, package: str) -> dict:
    """Run every consumer under the hook and build the map."""
    hook = Path(tempfile.mkdtemp(prefix="reachmap-hook-"))
    try:
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        reached, records = {}, {}
        for consumer in consumers:
            print(f"reachmap: {consumer.name} ...", file=sys.stderr, flush=True)
            reached[consumer.name], records[consumer.name], seconds = run_consumer(
                consumer, repo, src, hook
            )
            print(f"reachmap: {consumer.name} exit {records[consumer.name]['exit']} "
                  f"in {seconds:.1f} s", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(hook, ignore_errors=True)
    return build_map(list_functions(src, package), reached, records, src)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "metadata" / "reachmap.json"))
    parser.add_argument("--summary", action="store_true",
                        help="print the per-module table of the map at --out and exit")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.summary:
        print(render_summary(json.loads(out.read_text())))
        return 0
    doc = collect(default_consumers(REPO_ROOT), REPO_ROOT, REPO_ROOT / "src", "repro")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dump_map(doc))
    s = doc["summary"]
    print(f"{out}: {s['functions']} functions, {s['reached']} reached, "
          f"{s['tests-only']} tests-only, {s['nothing']} nothing")
    failed = [n for n, r in doc["consumers"].items() if any(e != 0 for e in r["exit"])]
    if failed:
        print(f"consumers that did not exit 0: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
