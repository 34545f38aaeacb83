"""The mutation list ``tools/mutants.json`` cannot rot silently: every
entry's old text occurs exactly once in its file, and every test it names
is defined.  Running the mutants is ``python tools/mutants.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _runner():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_once_and_names_defined_tests():
    runner = _runner()
    entries = runner.load()
    assert entries
    assert runner.problems(entries) == []


def test_problems_are_reported(tmp_path):
    runner = _runner()
    (tmp_path / "m.py").write_text("x = 1\nx = 1\n")
    (tmp_path / "test_m.py").write_text("def test_a():\n    pass\n")
    entry = {"id": "m", "file": "m.py", "old": "x = 1", "new": "x = 2",
             "tests": ["test_m.py::test_a[1]"], "target": "x"}
    assert runner.problems([entry], tmp_path) == [
        "m: old text occurs 2 times in m.py"]
    gone = dict(entry, old="x = 1\nx", tests=["test_m.py::test_b"],
                equivalent="")
    assert runner.problems([gone, gone], tmp_path) == [
        "m: equivalent needs a one-line reason",
        "m: test_m.py defines no test_b",
        "m: repeated id",
        "m: equivalent needs a one-line reason",
        "m: test_m.py defines no test_b"]
