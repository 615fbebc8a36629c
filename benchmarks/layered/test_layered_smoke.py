"""Smoke test of the layered benchmark and its ``BENCHMARK.json``.

Not collected by tier-1 (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/layered -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from . import metrics as registry
from .common import HERE, REPO_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DOC = registry.load_benchmark_json()


def test_benchmark_json_is_the_registry_rendered():
    assert DOC == registry.benchmark_json()


def test_contract_shape():
    assert set(DOC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DOC["paths"] == ["benchmarks/layered"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60
    assert 2 <= len(DOC["workloads"]) <= 8
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    assert len(json.dumps(DOC)) < 64 * 1024
    for arg in DOC["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DOC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in DOC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in DOC["end_to_end"])
    # 4 + 22 runs per workload, every one with its set-ups, inside 3420 s.
    assert (4 + 22 * len(DOC["workloads"])) * 28 <= 3420


def test_names_and_units():
    names = (
        [w["name"] for w in DOC["workloads"]]
        + [m["name"] for m in DOC["end_to_end"]]
        + [m["name"] for m in DOC["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in DOC["end_to_end"] + DOC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_every_per_layer_metric_names_its_target():
    for name, (_, _, layer, moves, workload, source) in registry.PER_LAYER.items():
        assert moves in registry.END_TO_END, name
        assert workload in registry.END_TO_END[moves][3], name  # a gated pair
        assert layer and source in (
            "span", "counter", "stats", "probe", "client", "harness"
        ), name


def test_smoke_runs_all_five_workloads(tmp_path):
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.layered", "--smoke", "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == set(registry.WORKLOADS)
    for workload, entry in doc["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, workload
        assert entry["attempted"] >= 1
        run = entry["runs"][0]
        assert set(run) == set(registry.END_TO_END), workload
        assert all(v > 0 for v in run.values()), (workload, run)
        assert set(entry["per_layer"]) == set(registry.PER_LAYER), workload
        assert (tmp_path / f"{workload}.trace.json").stat().st_size > 0
        assert entry["fingerprint"]["seed"] == 11


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "layered",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        DOC["command"] + ["--workload", "ops_sparse", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_files_pass_the_linter():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "benchmarks/"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
