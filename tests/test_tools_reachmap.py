"""``tools/reachmap.py``: the collector on a tiny package."""

import json
import sys
import textwrap

from tools.reachmap import Consumer, collect, dump_map, list_functions, render_summary

MODULE = textwrap.dedent(
    """\
    import threading


    def used():
        worker = threading.Thread(target=_in_thread)
        worker.start()
        worker.join()


    def _in_thread():
        pass


    def tests_only():
        pass


    def unreached():
        pass


    class Box:
        @property
        def value(self):
            return 1

        @value.setter
        def value(self, new):
            pass
    """
)


def _package(tmp_path):
    src = tmp_path / "src"
    (src / "tiny").mkdir(parents=True)
    (src / "tiny" / "__init__.py").write_text("")
    (src / "tiny" / "mod.py").write_text(MODULE)
    return src


def test_list_functions_keys_every_def(tmp_path):
    functions = list_functions(_package(tmp_path), "tiny")
    assert sorted(functions) == [
        "tiny.mod:Box.value", "tiny.mod:Box.value@28", "tiny.mod:_in_thread",
        "tiny.mod:tests_only", "tiny.mod:unreached", "tiny.mod:used",
    ]
    # A decorated function's code object starts at its first decorator.
    assert functions["tiny.mod:Box.value"]["first"] == 23


def test_one_reached_one_tests_only_one_nothing(tmp_path):
    src = _package(tmp_path)
    consumers = [
        # A workload reaching used() runs a grandchild process: the hook
        # follows it through PYTHONPATH.
        Consumer("workload:w", "workload", ((
            sys.executable, "-c",
            "import subprocess, sys; subprocess.run([sys.executable, '-c', "
            "'import tiny.mod; tiny.mod.used()'], check=True)",
        ),)),
        Consumer("tests", "tests", ((
            sys.executable, "-c", "import tiny.mod; tiny.mod.tests_only(); tiny.mod.used()",
        ),)),
    ]
    doc = collect(consumers, tmp_path, src, "tiny")
    rows = doc["functions"]
    assert rows["tiny.mod:used"]["status"] == "reached"
    assert rows["tiny.mod:used"]["by"] == ["workload", "tests"]
    assert rows["tiny.mod:used"]["consumers"] == ["workload:w"]
    assert rows["tiny.mod:_in_thread"]["status"] == "reached"  # threading.setprofile
    assert rows["tiny.mod:tests_only"]["status"] == "tests-only"
    assert rows["tiny.mod:unreached"]["status"] == "nothing"
    # No wall time in the record: an unchanged map regenerates unchanged.
    assert sorted(doc["consumers"]["workload:w"]) == ["class", "commands", "exit"]
    assert doc["consumers"]["workload:w"]["exit"] == [0]
    assert doc["modules"]["tiny.mod"] == {
        "file": "tiny/mod.py", "lines": MODULE.count("\n"), "functions": 6,
        "reached": 2, "tests-only": 1, "nothing": 3,
    }
    assert "| `tiny.mod` |" in render_summary(doc)
    assert json.loads(dump_map(doc)) == doc
