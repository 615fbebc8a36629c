"""reprolint: rule firing, suppression, CLI, and the repo's own cleanliness."""

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.engine import lint_paths, package_relpath
from repro.analysis.findings import Finding, parse_suppressions
from repro.analysis.rules import default_rules, rule_registry

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "analysis_fixtures"
RULES = ("R1", "R2", "R3", "R4", "R5", "R6")


# -- fixture corpus -----------------------------------------------------------


# R2 has two fixtures: the arena-flow one (bitmatrix.py) and the
# memmap-flow one (store/container.py, which plants two violations: a
# mapped uint64 word view and a mapped uint32 index view — the rule
# audits every memmap in a covered module).  R5 plants two violations
# in r5_impure.py (hidden nondeterminism, undeclared parameter
# mutation), one in r5_tiled_into.py (undeclared presence-grid write
# among legal tiled ``_into`` kernels that must not fire), one in
# r5_masked_into.py (mask mutation inside a declared ``_into`` kernel —
# the mask is read-only by the masked-accumulate contract), and one in
# r5_semiring_into.py (semiring mutation inside a declared
# ``_into`` kernel — shared registry state is read-only everywhere).
# R6 has two fixtures: the shape-check half (r6_shapes.py) and the
# semiring-resolution half (r6_semiring.py).
PER_RULE = {rule: {"R2": 3, "R5": 5, "R6": 2}.get(rule, 1) for rule in RULES}


def test_every_seeded_violation_fires_on_corpus():
    findings = lint_paths([str(FIXTURES)])
    by_rule = Counter(f.rule for f in findings)
    assert by_rule == PER_RULE


def test_seeded_violations_land_in_the_expected_files():
    findings = lint_paths([str(FIXTURES)])
    hits = {(f.rule, Path(f.path).name) for f in findings}
    assert hits == {
        ("R1", "r1_densify.py"),
        ("R2", "bitmatrix.py"),
        ("R2", "container.py"),
        ("R3", "r3_guarded.py"),
        ("R4", "r4_except.py"),
        ("R5", "r5_impure.py"),
        ("R5", "r5_masked_into.py"),
        ("R5", "r5_semiring_into.py"),
        ("R5", "r5_tiled_into.py"),
        ("R6", "r6_semiring.py"),
        ("R6", "r6_shapes.py"),
    }


def test_suppressed_twins_surface_without_suppressions():
    findings = lint_paths([str(FIXTURES)], respect_suppressions=False)
    by_rule = Counter(f.rule for f in findings)
    # Each fixture plants one live violation plus one suppressed twin.
    assert by_rule == {rule: 2 * n for rule, n in PER_RULE.items()}


def test_rule_selection_scopes_the_run():
    findings = lint_paths([str(FIXTURES)], default_rules({"R4"}))
    assert [f.rule for f in findings] == ["R4"]


def test_single_file_root_resolves_package_paths():
    target = FIXTURES / "repro" / "backends" / "r5_impure.py"
    findings = lint_paths([str(target)])
    # r5_impure.py alone carries two of R5's five seeded violations.
    assert [f.rule for f in findings] == ["R5"] * 2


# -- the repo itself ----------------------------------------------------------


def test_repo_source_tree_is_clean():
    assert lint_paths([str(REPO / "src" / "repro")]) == []


# -- engine / findings plumbing ----------------------------------------------


def test_package_relpath_strips_to_last_repro_component():
    assert package_relpath("src/repro/backends/hybrid.py") == "backends/hybrid.py"
    assert (
        package_relpath("tests/analysis_fixtures/repro/formats/x.py")
        == "formats/x.py"
    )
    # No package dir at all: path passes through untouched.
    assert package_relpath("scripts/tool.py") == "scripts/tool.py"


def test_parse_suppressions_handles_lists_and_wildcard():
    sup = parse_suppressions(
        [
            "x = 1  # reprolint: disable=R1,R3",
            "y = 2",
            "z = 3  # reprolint: disable=*",
        ]
    )
    assert sup == {1: {"R1", "R3"}, 3: {"*"}}


def test_syntax_error_becomes_r0_finding(tmp_path):
    bad = tmp_path / "repro" / "formats" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n")
    findings = lint_paths([str(tmp_path)])
    assert [f.rule for f in findings] == ["R0"]


def test_registries_cover_all_rules():
    assert set(rule_registry()) == set(RULES)


def test_lint_runs_on_the_calling_thread_and_sorts(monkeypatch):
    import concurrent.futures

    def no_pools(*args, **kwargs):
        raise AssertionError("the linter must not start a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pools)
    findings = lint_paths([FIXTURES])
    assert findings and findings == sorted(findings)


def test_finding_render_and_json_shape():
    f = Finding(path="a.py", line=3, col=1, rule="R1", message="m")
    assert f.render() == "a.py:3:1: R1 m"
    assert f.to_json() == {
        "path": "a.py",
        "line": 3,
        "col": 1,
        "rule": "R1",
        "message": "m",
        "context": "",
    }


# -- CLI ----------------------------------------------------------------------


def test_cli_json_mode(capsys):
    code = lint_main(["--json", str(FIXTURES)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == sum(PER_RULE.values())
    assert Counter(f["rule"] for f in payload["findings"]) == PER_RULE


def test_cli_clean_run_exits_zero(capsys):
    code = lint_main([str(REPO / "src" / "repro" / "analysis")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 findings" in out


def test_cli_select_unknown_rule_is_usage_error(capsys):
    # R7-R9 were the deleted whole-program rules; they are unknown ids now.
    for rule_id in ("R99", "R7", "R8", "R9"):
        assert lint_main(["--select", rule_id, str(FIXTURES)]) == 2


def test_cli_list_rules_shows_every_rule(capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(RULES)


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
    assert payload["baselined"] == sum(PER_RULE.values())

    # Seed a regression the baseline never saw: a swallowing handler.
    seeded = root / "repro" / "store" / "seeded.py"
    seeded.write_text(
        "def regress(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except Exception:\n"
        "        return None\n"
    )
    assert lint_main(["--json", "--baseline", str(baseline), str(root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "R4"
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


@pytest.mark.parametrize("entry", ["repro.__main__", "tools.reprolint"])
def test_lint_entry_points_agree(entry):
    if entry == "repro.__main__":
        from repro.__main__ import lint as entry_main
    else:
        from tools.reprolint import main as entry_main
    assert entry_main([str(FIXTURES / "repro" / "service" / "r4_except.py")]) == 1
