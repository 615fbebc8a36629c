"""``tools/bench_series.py``: one metric across BENCH files, in PR order."""

import json

from tools.bench_series import main, render, series


def _write(path, workloads):
    path.write_text(json.dumps({"workloads": workloads}))


def test_series_in_pr_order_with_gaps(tmp_path):
    _write(
        tmp_path / "BENCH_9.json",
        {"w": {"end_to_end": {"pass_s": {"median": 2.0}}, "per_layer": {"gpu.n": 7.0}}},
    )
    _write(
        tmp_path / "BENCH_10.json",
        {
            "w": {"end_to_end": {"pass_s": {"median": 1.5}}, "per_layer": {}},
            "v": {"end_to_end": {"pass_s": {"median": 3.0}}},
        },
    )
    (tmp_path / "BENCH_notes.json").write_text("not a bench file")

    headers, rows = series(tmp_path, "pass_s")
    assert headers == ["BENCH_9", "BENCH_10"]
    assert rows == {"w": [2.0, 1.5], "v": [None, 3.0]}
    assert series(tmp_path, "gpu.n")[1] == {"w": [7.0, None], "v": [None, None]}

    lines = render(tmp_path, "pass_s").splitlines()
    assert lines[0].split() == ["pass_s", "BENCH_9", "BENCH_10"]
    assert lines[1].split() == ["w", "2", "1.5"]
    assert lines[2].split() == ["v", "-", "3"]


def test_committed_files_render(capsys):
    assert main(["peak_arena_mib"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[0] == "peak_arena_mib"
    assert any(line.startswith("index_build") for line in out)
