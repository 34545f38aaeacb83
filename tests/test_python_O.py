"""Companion run under ``python -O``.

The cyclotomic kernel, the Gauss-sum self-checks, the rank
certificate's checks and the valuation engine's checks raise typed
errors instead of asserting, so their tests must pass with asserts
stripped; test_curves checks that a wrong expansion fails its residual
check.
pytest rewrites the asserts of test modules, which therefore still fire
under ``-O``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import superjac

ROOT = Path(__file__).resolve().parents[1]


def test_cyclo_and_characters_pass_under_python_O():
    src = str(Path(superjac.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_cyclo.py", "tests/test_characters.py",
         "tests/test_rank.py", "tests/test_curves.py"],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stdout + proc.stderr
