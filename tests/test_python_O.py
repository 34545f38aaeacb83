"""Companion run under ``python -O``, and a guard on the modules that
no longer assert.

No module of the package asserts: every check, from the cyclotomic
kernel, the Gauss sums, primes and Smith forms to the rank certificate,
the curve model, the valuation engine, the field tables, the point
counts, the class groups and proof replay, raises a typed error, so
their tests must pass with asserts stripped;
test_curves checks that a wrong expansion fails its residual check, and
test_gf that a generator of the wrong order fails the table build.
pytest rewrites the asserts of test modules, which therefore still fire
under ``-O``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superjac

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(superjac.__file__).resolve().parent

# every module of the package, read from disk, so a new one is guarded too
ASSERT_FREE = sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_cyclo_and_characters_pass_under_python_O():
    src = str(PACKAGE.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_cyclo.py", "tests/test_characters.py",
         "tests/test_rank.py", "tests/test_curves.py", "tests/test_gf.py",
         "tests/test_zeta.py", "tests/test_picard.py", "tests/test_delta.py",
         "tests/test_primes.py", "tests/test_snf.py"],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("module", ASSERT_FREE)
def test_module_has_no_assert(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {node.lineno}: "
             + ("assert" if isinstance(node, ast.Assert) else "__debug__")
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "__debug__")]
    assert not found, f"{module}.py: {found}"
