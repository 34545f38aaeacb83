"""Primality, factorization and multiplicative order helpers."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from superjac import primes
from superjac.errors import SuperjacError


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert primes.is_prime(n) == (n in known)


def test_is_prime_larger():
    assert primes.is_prime(2 ** 31 - 1)
    assert not primes.is_prime(2 ** 32 + 1)
    assert primes.is_prime(10 ** 18 + 9)


def test_factorize_known():
    assert primes.factorize(1) == {}
    assert primes.factorize(2 ** 10) == {2: 10}
    assert primes.factorize(531440) == {2: 4, 5: 1, 7: 1, 13: 1, 73: 1}
    assert primes.factorize(3 ** 12 - 1) == {2: 4, 5: 1, 7: 1, 13: 1, 73: 1}


@given(st.integers(min_value=2, max_value=10 ** 12))
@settings(max_examples=60, deadline=None)
def test_factorize_roundtrip(n):
    fac = primes.factorize(n)
    prod = 1
    for p, e in fac.items():
        assert primes.is_prime(p)
        prod *= p ** e
    assert prod == n


def test_primitive_root():
    assert primes.primitive_root(2) == 1
    assert primes.primitive_root(3) == 2
    assert primes.primitive_root(7) == 3
    assert primes.primitive_root(13) == 2
    assert primes.primitive_root(191) == 19


def test_multiplicative_order_table():
    # ord_q(p) values used throughout the torsion criterion work
    assert primes.multiplicative_order(3, 2) == 1
    assert primes.multiplicative_order(2, 5) == 4
    assert primes.multiplicative_order(2, 7) == 3
    assert primes.multiplicative_order(2, 3) == 2
    assert primes.multiplicative_order(2, 11) == 10
    assert primes.multiplicative_order(2, 13) == 12
    assert primes.multiplicative_order(3, 7) == 6
    assert primes.multiplicative_order(3, 13) == 3
    assert primes.multiplicative_order(5, 11) == 5
    assert primes.multiplicative_order(4, 15) == 2


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_order_divides_and_is_minimal(seed):
    rng = random.Random(seed)
    m = rng.randrange(3, 2000)
    a = rng.randrange(2, m)
    if math.gcd(a, m) != 1:
        return
    k = primes.multiplicative_order(a, m)
    assert pow(a, k, m) == 1
    for q in primes.factorize(k):
        assert pow(a, k // q, m) != 1


@pytest.mark.parametrize("call", [
    lambda: primes.factorize(0),
    lambda: primes.factorize(-6),
    lambda: primes.primitive_root(9),
    lambda: primes.multiplicative_order(2, 1),
    lambda: primes.multiplicative_order(2, 6),
])
def test_bad_arguments_are_usage_errors(call):
    # typed, so the refusal survives python -O
    with pytest.raises(SuperjacError):
        call()
