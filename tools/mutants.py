"""Mutation gate: every load-bearing check has a test that fails without it.

Each entry of ``mutants.json`` names a file, an old text that occurs in it
exactly once, the new text that replaces it, the tests that should fail
on the result and the check it targets.  An entry whose mutant cannot be
told apart from the original by any test carries ``equivalent``, a
one-line reason.

For each mutant the runner copies ``src``, ``tests`` and
``pyproject.toml`` to a fresh temporary directory, leaving out every
``__pycache__``, applies the one replacement there and runs the entry's
tests with ``pytest -x``; the working tree is never written.  A mutant
is killed when a test fails, and survived when all pass; a survivor
marked equivalent is reported as equivalent.  Before any mutant, the
tests of every entry run once on an unmutated copy, so a kill means
the mutant and not a test that already fails.

Exit status: 0 when every mutant is killed or marked equivalent; 1 when
one survives unmarked; 2 when the list is malformed, the unmutated tests
fail, or a run cannot be judged (a collection error, an unknown test).

    python tools/mutants.py
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "pyproject.toml")
KEYS = {"id", "file", "old", "new", "tests", "target"}
TIMEOUT_S = 600


def load() -> list[dict]:
    return json.loads(LIST.read_text())


def _test_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def problems(entries: list[dict], root: Path = ROOT) -> list[str]:
    """What is wrong with the list: missing keys, repeated ids, an old
    text that does not occur exactly once in its file, a test that its
    file does not define.  Parametrized ids are left to pytest."""
    out = []
    seen = set()
    for e in entries:
        name = e.get("id", "?")
        if set(e) - {"equivalent"} != KEYS:
            out.append(f"{name}: keys {sorted(e)}, want {sorted(KEYS)}")
            continue
        if name in seen:
            out.append(f"{name}: repeated id")
        seen.add(name)
        path = root / e["file"]
        if not path.is_file():
            out.append(f"{name}: no file {e['file']}")
        else:
            n = path.read_text().count(e["old"])
            if n != 1:
                out.append(f"{name}: old text occurs {n} times in "
                           f"{e['file']}")
        if e["old"] == e["new"]:
            out.append(f"{name}: new text equals the old")
        reason = e.get("equivalent")
        if reason is not None and (not reason.strip() or "\n" in reason):
            out.append(f"{name}: equivalent needs a one-line reason")
        if not e["tests"]:
            out.append(f"{name}: no tests")
        for test in e["tests"]:
            file, _, func = test.partition("::")
            func = func.split("[")[0]
            if not (root / file).is_file():
                out.append(f"{name}: no test file {file}")
            elif func not in _test_names(root / file):
                out.append(f"{name}: {file} defines no {func}")
    return out


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                  ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, tests: list[str]) -> tuple[int, str]:
    """pytest's exit code on the tests in the copy at tree, and the first
    failing test it names (-1 on a timeout)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rf",
             "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    return proc.returncode, failed[0] if failed else tail[0]


def run(entry: dict) -> tuple[str, str]:
    """(status, detail) of one mutant, on a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        path = tree / entry["file"]
        path.write_text(path.read_text().replace(entry["old"], entry["new"]))
        code, detail = _pytest(tree, entry["tests"])
    if code in (1, -1):
        return "killed", detail
    if code == 0:
        if entry.get("equivalent"):
            return "equivalent", entry["equivalent"]
        return "survived", "every test passed"
    return "error", f"pytest exit {code}: {detail}"


def main() -> int:
    entries = load()
    bad = problems(entries)
    if bad:
        print("\n".join(bad))
        return 2
    start = time.perf_counter()
    tests = list(dict.fromkeys(t for e in entries for t in e["tests"]))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        code, detail = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"unmutated tests do not pass (pytest exit {code}): {detail}")
        return 2
    print(f"unmutated: {len(tests)} tests pass "
          f"({time.perf_counter() - start:.1f} s)")
    counts: dict[str, int] = {}
    for e in entries:
        t0 = time.perf_counter()
        status, detail = run(e)
        counts[status] = counts.get(status, 0) + 1
        print(f"{status:10} {e['id']:34} {time.perf_counter() - t0:6.1f} s  "
              f"{detail}", flush=True)
    print(f"{len(entries)} mutants: "
          + ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
          + f"; {time.perf_counter() - start:.1f} s")
    if counts.get("error"):
        return 2
    return 1 if counts.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())
