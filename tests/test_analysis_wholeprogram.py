"""reprolint v2: call graph, interprocedural rules, baseline workflow.

The per-rule firing counts over the fixture corpus live in
test_analysis_lint.py; this file covers what is *specific* to the
whole-program pass — the static lock graph matching the runtime
sentinel's roles, the caller-holds escape, interprocedural aliasing
shapes the fixtures keep minimal, the baseline gate semantics CI
relies on, and a property smoke test that the pass never raises over
any subset of the real tree.
"""

import json
import shutil
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_paths
from repro.analysis.cli import main as lint_main
from repro.analysis.dataflow import (
    Program,
    default_program_rules,
    static_lock_graph,
)
from repro.analysis.engine import iter_python_files, load_module

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURES = REPO / "tests" / "analysis_fixtures"

MODULES = [load_module(path, rel) for path, rel in iter_python_files([SRC])]


def corpus(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "corpus"
    for rel, source in files.items():
        target = root / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


# -- static lock graph --------------------------------------------------------


def test_static_lock_graph_derives_the_overlay_edge():
    # The one real nesting in the service tier: persist/apply_batch
    # hold the handle lock while folding the delta overlay.  This edge
    # is exactly what the selftest's runtime cross-check relies on the
    # static side knowing about.
    graph = static_lock_graph([SRC])
    assert graph == {"GraphHandle._lock": {"DeltaOverlay._lock"}}


def test_transitive_acquisition_spans_call_frames(tmp_path):
    root = corpus(
        tmp_path,
        {
            "service/nested.py": (
                "import threading\n"
                "class A:\n"
                "    def __init__(self):\n"
                "        self._outer = threading.Lock()\n"
                "        self._inner = threading.Lock()\n"
                "    def deep(self):\n"
                "        with self._inner:\n"
                "            return 1\n"
                "    def top(self):\n"
                "        with self._outer:\n"
                "            return self.deep()\n"
            )
        },
    )
    graph = static_lock_graph([root])
    assert graph == {"A._outer": {"A._inner"}}


# -- R8 caller-holds escape ---------------------------------------------------

_GAUGE = (
    "import threading\n"
    "class Gauge:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.count = 0  # guarded-by: _lock\n"
    "def read_count(g: Gauge):\n"
    "    return g.count\n"
    "def locked_caller(g: Gauge):\n"
    "    with g._lock:\n"
    "        return read_count(g)\n"
)


def test_guarded_access_clean_when_every_caller_holds(tmp_path):
    root = corpus(tmp_path, {"service/gauge.py": _GAUGE})
    assert lint_paths([root]) == []


def test_guarded_access_fires_on_one_lock_free_caller(tmp_path):
    racy = _GAUGE + "def racy_caller(g: Gauge):\n    return read_count(g)\n"
    root = corpus(tmp_path, {"service/gauge.py": racy})
    findings = lint_paths([root])
    assert [f.rule for f in findings] == ["R8"]
    assert "racy" not in findings[0].message  # anchored at the access
    assert "lock-free call path" in findings[0].message


# -- interprocedural R5: retention/escape -------------------------------------


def test_out_param_escape_to_self_state_fires(tmp_path):
    root = corpus(
        tmp_path,
        {
            "backends/cachey.py": (
                "class B:\n"
                "    def apply(self, a, mask=None):\n"
                "        self._keep = mask\n"
                "        return a\n"
            )
        },
    )
    findings = lint_paths([root])
    assert [f.rule for f in findings] == ["R5"]
    assert "escapes" in findings[0].message


def test_out_param_escape_outside_covered_dirs_is_ignored(tmp_path):
    root = corpus(
        tmp_path,
        {
            "service/holder.py": (
                "class H:\n"
                "    def keep(self, mask=None):\n"
                "        self._keep = mask\n"
            )
        },
    )
    assert lint_paths([root]) == []


# -- R9: interprocedural forwarding -------------------------------------------


def test_mapped_container_forwarded_to_mutating_callee_fires(tmp_path):
    root = corpus(
        tmp_path,
        {
            "store/fwd.py": (
                "def load_matrix(path):\n"
                "    return path\n"
                "def scrub(buf):\n"
                "    buf[0] = 0\n"
                "def bad(path):\n"
                "    words = load_matrix(path)\n"
                "    scrub(words)\n"
                "    return words\n"
            )
        },
    )
    findings = lint_paths([root])
    assert [f.rule for f in findings] == ["R9"]
    assert "mutates parameter 'buf'" in findings[0].message


# -- engine: serial + deterministic ------------------------------------------


def test_lint_runs_on_the_calling_thread_and_sorts(monkeypatch):
    import concurrent.futures

    def no_pools(*args, **kwargs):
        raise AssertionError("the linter must not start a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pools)
    findings = lint_paths([FIXTURES])
    assert findings and findings == sorted(findings)


# -- CLI: selection and baseline gate -----------------------------------------


def test_cli_select_scopes_to_a_program_rule(capsys):
    assert lint_main(["--select", "R7", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "R7" in out and "R8" not in out and "R1" not in out


def test_cli_list_rules_spans_both_registries(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R1", "R5", "R7", "R8", "R9"):
        assert rule_id in out
    assert "[module " in out and "[program]" in out


def test_cli_baseline_gate_passes_then_fails_on_regression(tmp_path, capsys):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    baseline = tmp_path / "lint_baseline.json"

    assert lint_main(["--write-baseline", str(baseline), str(root)]) == 0
    capsys.readouterr()

    # Everything known: the gate passes and says how much it absorbed.
    assert lint_main(["--json", "--baseline", str(baseline), str(root)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0
    # The whole seeded corpus: one live violation per rule plus the
    # extra R2/R5/R8/R9 seeds (see PER_RULE in test_analysis_lint.py).
    assert payload["baselined"] == 19

    # Seed a regression: a fresh R9 violation the baseline never saw.
    seeded = root / "repro" / "store" / "seeded.py"
    seeded.write_text(
        "def load_matrix(path):\n"
        "    return path\n"
        "def regress(path):\n"
        "    words = load_matrix(path)\n"
        "    words[0] = 1\n"
        "    return words\n"
    )
    assert lint_main(["--json", "--baseline", str(baseline), str(root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "R9"
    assert payload["findings"][0]["path"].endswith("seeded.py")


def test_cli_missing_baseline_is_usage_error(tmp_path, capsys):
    code = lint_main(
        ["--baseline", str(tmp_path / "nope.json"), str(FIXTURES)]
    )
    assert code == 2


def test_committed_baseline_matches_ci_invocation():
    # CI lints src/ tools/ benchmarks/ against the committed snapshot;
    # the tree is clean, so the snapshot must stay empty.
    payload = json.loads(
        (REPO / "metadata" / "lint_baseline.json").read_text()
    )
    assert payload["entries"] == []


# -- whole-program smoke ------------------------------------------------------


def test_program_pass_runs_over_the_full_tree():
    program = Program.build(MODULES)
    assert len(program.facts) > 200  # the whole tree, not a shard
    for rule in default_program_rules():
        list(rule.check(program))


@settings(max_examples=12, deadline=None)
@given(
    st.sets(
        st.sampled_from(range(len(MODULES))), min_size=1, max_size=12
    )
)
def test_program_pass_never_raises_on_any_module_subset(idxs):
    # Resolution must degrade conservatively, not crash, when callees
    # or base classes fall outside the analyzed module set.
    program = Program.build([MODULES[i] for i in sorted(idxs)])
    for rule in default_program_rules():
        list(rule.check(program))
