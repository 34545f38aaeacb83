"""Companion run under ``python -O``, and a guard on the modules that
no longer assert.

The cyclotomic kernel, the Gauss-sum self-checks, the rank
certificate's checks, the curve model's and valuation engine's checks,
the field-table checks, the point-count and L-polynomial checks, and the
class-group and proof-replay checks raise typed errors instead of
asserting, so their tests must pass with asserts stripped;
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

# modules whose every check raises a typed error; a module joins the list
# once its last assert is gone
ASSERT_FREE = ["gf", "zeta", "curves", "picard", "delta", "cache", "cli",
               "errors", "__init__", "__main__"]


def test_cyclo_and_characters_pass_under_python_O():
    src = str(PACKAGE.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_cyclo.py", "tests/test_characters.py",
         "tests/test_rank.py", "tests/test_curves.py", "tests/test_gf.py",
         "tests/test_zeta.py", "tests/test_picard.py", "tests/test_delta.py"],
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
