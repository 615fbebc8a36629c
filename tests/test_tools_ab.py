"""``tools/ab.py``: alternating parent/working-tree runs and the verdict."""

import json
import shutil
import subprocess

import pytest

from tools.ab import main, verdict

#: A stand-in benchmark: reads its figures from ``speed.json`` in the
#: tree it runs in, logs its tree and arguments, prints one result line.
BENCH = '''
import argparse, json, os, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
here = pathlib.Path.cwd()
speed = json.loads((here / "speed.json").read_text())
with open(os.environ["AB_TEST_LOG"], "a") as log:
    log.write(json.dumps([speed["side"], vars(args)]) + "\\n")
metrics = {k: {"value": v, "unit": "s"} for k, v in speed["metrics"].items()}
print("pass_s ...")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
'''

SPEC = {
    "command": ["python3", "bench.py"],
    "paths": ["bench.py"],
    "run_seconds": 7,
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_arena_mib", "unit": "MiB", "better": "lower", "bound": 0.01},
        {"name": "absent_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}


def _git(tree, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=tree, check=True, capture_output=True,
    )


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_alternating_pairs_on_a_tiny_tree(tmp_path, monkeypatch, capsys):
    tree = tmp_path / "repo"
    tree.mkdir()
    (tree / "bench.py").write_text(BENCH)
    (tree / "BENCHMARK.json").write_text(json.dumps(SPEC))
    speed = {"side": "parent", "metrics": {"pass_s": 2.0, "qps": 10.0, "peak_arena_mib": 1.0}}
    (tree / "speed.json").write_text(json.dumps(speed))
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "parent")
    # The working tree: faster passes, same throughput, more memory.
    speed = {"side": "change", "metrics": {"pass_s": 1.0, "qps": 10.0, "peak_arena_mib": 1.5}}
    (tree / "speed.json").write_text(json.dumps(speed))

    log = tmp_path / "runs.log"
    monkeypatch.setenv("AB_TEST_LOG", str(log))
    monkeypatch.chdir(tree)
    status = main(["w", "--pairs", "3", "--seed", "5"])

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [side for side, _ in runs] == [
        "parent", "change", "change", "parent", "parent", "change",
    ]
    assert all(
        argv == {"workload": "w", "seed": "5", "seconds": "7", "trace": "0"}
        for _, argv in runs
    )
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split() for line in out[2:5]}
    assert rows["pass_s"][1:] == ["2/2/2", "1/1/1", "-50.0%", "3/3", "better"]
    assert rows["qps"][-2:] == ["0/3", "flat"]
    assert rows["peak_arena_mib"][-2:] == ["0/3", "worse"]
    assert "absent_ms" not in rows
    assert "parent: 0 of 9 ops failed, 0 runs without a result" in out
    assert status == 1  # a metric is worse


def test_verdict_rules():
    # Nine of ten wins and a gap wider than the parent's spread.
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [p - 1.0 for p in parent[:9]] + [10.5]
    assert verdict(parent, change, "lower", 0.25) == (9, "better")
    # Eight of ten is not a gain, and within the bound it is flat.
    change = [p - 1.0 for p in parent[:8]] + [10.5, 10.5]
    assert verdict(parent, change, "lower", 0.25) == (8, "flat")
    # A spread wider than the bound cannot show a small regression.
    noisy = [1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, [1.6, 1.6, 1.6, 1.6], "lower", 0.1)[1] == "unresolved"
    assert verdict([5.0, 5.0], [4.0, 4.0], "higher", 0.1) == (0, "worse")
    # The change's runs spread past the bound while the parent's do not,
    # even when its median reads better.
    steady = [1.0, 1.01, 0.99, 1.0]
    assert verdict(steady, [0.7, 1.0, 0.7, 1.0], "lower", 0.1) == (3, "unsteady")
    assert verdict(noisy, [1.0, 2.0, 1.0, 2.0], "lower", 0.1)[1] == "unresolved"
