"""Smith normal form oracles and invariants."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from superjac.errors import SuperjacError
from superjac.snf import cokernel_factors, smith_normal_form


def test_diag_2_3_gives_1_6():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_rank_deficient():
    assert smith_normal_form([[1, 0], [0, 0]]) == [1, 0]
    assert smith_normal_form([[2, 4], [1, 2]]) == [1, 0]


def test_known_3x3():
    # classic example: diag(2, 6, 12) -> (2, 6, 12); permuted entries sort out
    assert smith_normal_form([[6, 0, 0], [0, 2, 0], [0, 0, 12]]) == [2, 6, 12]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_relation_matrix_m3_r4():
    # ramification-divisor relation lattice for m=3, r=4 (see delta module)
    rows = [
        [3, 0, 0, 3],
        [0, 3, 0, 3],
        [0, 0, 3, 3],
        [0, 0, 0, 3],
        [1, 1, 1, 4],
    ]
    assert smith_normal_form(rows) == [1, 3, 3, 3]
    assert cokernel_factors(rows, 4) == [3, 3, 3]


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(sub)
    return total


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_square_matrix_invariants(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    mat = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
    diag = smith_normal_form(mat)
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    d = _det(mat)
    prod = math.prod(diag)
    assert abs(d) == prod


def _determinantal_divisors(mat):
    """gcd of the k x k minors for k = 1..min(m, n): d_1 ... d_k, an
    oracle that takes no elimination step."""
    m, n = len(mat), len(mat[0])
    return [math.gcd(*(_det([[mat[i][j] for j in cols] for i in rows])
                       for rows in itertools.combinations(range(m), k)
                       for cols in itertools.combinations(range(n), k)))
            for k in range(1, min(m, n) + 1)]


def test_diagonal_products_are_gcds_of_minors():
    # 400 random shapes up to 4 x 4, small entries so that pivots share
    # factors; every third matrix with three rows or more is made rank
    # deficient by setting a row to a combination of two others
    rng = random.Random(5)
    deficient = 0
    for k in range(400):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.choice((0, 1, -1, rng.randrange(-30, 31)))
                for _ in range(n)] for _ in range(m)]
        if k % 3 == 0 and m >= 3:
            x, y = rng.randrange(-3, 4), rng.randrange(-3, 4)
            mat[2] = [x * a + y * b for a, b in zip(mat[0], mat[1])]
        diag = smith_normal_form(mat)
        assert len(diag) == min(m, n)
        assert all(d >= 0 for d in diag)
        assert all(b % a == 0 if a else b == 0
                   for a, b in zip(diag, diag[1:])), mat
        assert list(itertools.accumulate(diag, lambda a, b: a * b)) == \
            _determinantal_divisors(mat), mat
        deficient += 0 in diag
    assert deficient > 50


def test_malformed_matrices_are_usage_errors():
    # typed, so the refusal survives python -O
    with pytest.raises(SuperjacError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(SuperjacError):
        cokernel_factors([[1, 2], [3, 4]], 3)
    assert cokernel_factors([], 2) == [0, 0]
