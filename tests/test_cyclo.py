"""Cyclotomic integer ring oracles and the complex-embedding cross-check.

The schoolbook product ``_zmul_schoolbook`` and the dense long division
``_zdivmod_monic`` below are the reference implementations that the
Kronecker-substituted multiply and the fold-and-divide reduction of
``superjac.cyclo`` are checked against.  The complex embedding
``_embed_complex`` is the floating sanity check; the package itself has
no float code.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from superjac import cyclo as cyclo_mod
from superjac.cyclo import CycloInt, _zmul, cyclo, cyclotomic_polynomial
from superjac.errors import SuperjacError


def _embed_complex(x: CycloInt) -> complex:
    """Image of x under zeta_N -> exp(2 pi i / N)."""
    z = cmath.exp(2j * cmath.pi / x.ctx.N)
    acc = 0j
    for c in reversed(x.coeffs):
        acc = acc * z + c
    return acc


def _zmul_schoolbook(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _zdivmod_monic(a: list[int], f: list[int]) -> tuple[list[int], list[int]]:
    """Exact division by a monic integer polynomial, dense."""
    assert f and f[-1] == 1
    r = list(a)
    n = len(f) - 1
    q = [0] * max(0, len(r) - n)
    for d in range(len(r) - 1, n - 1, -1):
        c = r[d]
        if c:
            q[d - n] = c
            for t in range(n + 1):
                r[d - n + t] -= c * f[t]
    while r and r[-1] == 0:
        r.pop()
    while len(r) < n:
        r.append(0)
    return q, r[:n]


@lru_cache(maxsize=None)
def _oracle_phi(N: int) -> tuple[int, ...]:
    """Phi_N by dense division of x^N - 1 by every lower-order Phi_d."""
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            num, r = _zdivmod_monic(num, _oracle_phi(d))
            assert not any(r)
    return tuple(num)


def _oracle_reduce(N: int, v: list[int]) -> tuple[int, ...]:
    return tuple(_zdivmod_monic(v, _oracle_phi(N))[1])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # x^8 - x^7 + x^5 - x^4 + x^3 - x + 1
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    assert cyclotomic_polynomial(35) == tuple(
        int(c) for c in _phi35_coeffs())
    # Phi_105 is the first cyclotomic polynomial with a coefficient -2
    assert -2 in cyclotomic_polynomial(105)
    assert all(abs(c) <= 1 for n in range(1, 105)
               for c in cyclotomic_polynomial(n))


def _phi35_coeffs():
    # Phi_35 has degree 24; reconstruct it independently from roots of unity
    # counting: (x^35-1)(x-1) / ((x^5-1)(x^7-1)) expanded by hand is overkill,
    # so check the defining product property instead.
    acc = [1]
    for d in (1, 5, 7, 35):
        acc = _zmul_schoolbook(acc, list(cyclotomic_polynomial(d)))
    want = [-1] + [0] * 34 + [1]
    assert acc == want
    return cyclotomic_polynomial(35)


_ORACLE_N = (1, 2, 3, 4, 6, 8, 9, 12, 15, 21, 25, 27, 38, 55, 57, 100, 105,
             143)


def test_cyclotomic_polynomials_match_dense_oracle():
    for N in _ORACLE_N:
        assert cyclotomic_polynomial(N) == _oracle_phi(N), N


_COEFF = st.one_of(st.sampled_from([0, 1, -1]),
                   st.integers(-2 ** 8, 2 ** 8),
                   st.integers(-2 ** 200, 2 ** 200),
                   st.sampled_from([2 ** 200, -2 ** 200]))


@st.composite
def _vectors(draw, n: int) -> list[int]:
    kind = draw(st.sampled_from(["mixed", "zero", "negative"]))
    if kind == "zero":
        return [0] * n
    if kind == "negative":
        return draw(st.lists(st.integers(-2 ** 200, -1), min_size=n,
                             max_size=n))
    return draw(st.lists(_COEFF, min_size=n, max_size=n))


def _check_against_oracle(N, a, b, e, weights, t):
    R = cyclo(N)
    x, y = CycloInt(R, tuple(a)), CycloInt(R, tuple(b))

    assert (x * y).coeffs == _oracle_reduce(N, _zmul_schoolbook(a, b))

    want = _oracle_reduce(N, [1])
    for _ in range(e):
        want = _oracle_reduce(N, _zmul_schoolbook(list(want), a))
    assert (x ** e).coeffs == want

    dense = [0] * N
    for k, w in weights.items():
        dense[k % N] += w
    assert R.from_zeta_exponents(weights).coeffs == _oracle_reduce(N, dense)

    image = [0] * N
    for i, c in enumerate(a):
        image[i * t % N] += c
    assert x.galois(t).coeffs == _oracle_reduce(N, image)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_schoolbook_and_dense_division(data):
    N = data.draw(st.sampled_from(_ORACLE_N))
    phi = len(_oracle_phi(N)) - 1
    # reduce on its own, at every length from 0 to 3N: a fold that moved
    # the terms past 2N only once would leave them above N
    v = data.draw(_vectors(3 * N))
    for n in range(3 * N + 1):
        assert cyclo(N).reduce(v[:n]) == _oracle_reduce(N, v[:n]), n
    _check_against_oracle(
        N, data.draw(_vectors(phi)), data.draw(_vectors(phi)),
        data.draw(st.integers(0, 6)),
        data.draw(st.dictionaries(st.integers(0, 3 * N), _COEFF,
                                  max_size=2 * N)),
        data.draw(st.sampled_from(
            [t for t in range(1, N + 1) if math.gcd(t, N) == 1])))


def test_kernel_extremes_match_oracle():
    for N in _ORACLE_N:
        phi = len(_oracle_phi(N)) - 1
        top = {N - 1: -2 ** 200, 0: 2 ** 200}
        _check_against_oracle(N, [-2 ** 200] * phi, [-1] * phi, 3, top, N - 1)
        _check_against_oracle(N, [0] * phi, [2 ** 200] * phi, 2, {}, 1)
        _check_against_oracle(N, [2 ** 200] * phi, [-2 ** 200] * phi, 1,
                              {}, 1)
        # product coefficients just below the slot's sign bit (N = 55, 105)
        _check_against_oracle(N, [2 ** 201 - 1] * phi, [2 ** 201 - 1] * phi,
                              1, {}, 1)


def _signed_bits(c: int) -> int:
    """Bits of the shortest two's complement that holds c."""
    return (c if c >= 0 else ~c).bit_length() + 1


def _operands_needing(t: int) -> list[tuple[list[int], list[int]]]:
    """Operand pairs whose product needs exactly t signed bits: length 1,
    unequal lengths, mixed and all-negative signs, and all-zero operands
    beside them."""
    A = math.isqrt(2 ** (t - 1) - 1)   # 2^(t-2) <= A^2 < 2^(t-1)
    return [([A], [A]), ([-A], [A]),
            ([A, 1, 0, -1], [A, -1, 1]), ([-A, 2], [A, 0, 0, 1, -1, 1]),
            ([-A, -1, -1], [-A, -1]), ([-1, -A], [-1, -1, -A, -1]),
            ([0, 0, 0], [A, -A]), ([0], [0, 0])]


# slot bytes of the length-1 product A * A: each array width, then wider
_SLOT_OF_BITS = {7: 1, 8: 2, 15: 2, 16: 4, 31: 4, 32: 8, 63: 8, 64: 9, 65: 9}


@pytest.mark.parametrize("t", sorted(_SLOT_OF_BITS))
def test_zmul_slot_widths_match_schoolbook(t, monkeypatch):
    widths = []
    pack = cyclo_mod._packed

    def spy(v, width, code, half):
        widths.append(width)
        return pack(v, width, code, half)

    monkeypatch.setattr(cyclo_mod, "_packed", spy)
    pairs = _operands_needing(t)
    for a, b in pairs:
        assert _zmul(a, b) == _zmul_schoolbook(a, b), (a, b)
        assert _zmul(b, a) == _zmul_schoolbook(b, a), (a, b)
    assert widths[0] == _SLOT_OF_BITS[t]
    assert max(_signed_bits(c) for a, b in pairs
               for c in _zmul_schoolbook(a, b)) == t


def test_zmul_empty_operand():
    assert _zmul([], [1, 2]) == _zmul([3], []) == []


def test_powers_of_x_reduce_like_the_oracle():
    # x^k mod Phi_N for every index a fold, the block step and the sparse
    # division can see, below 3N
    for N in _ORACLE_N:
        R = cyclo(N)
        for k in range(3 * N):
            assert R.reduce([0] * k + [1]) == _oracle_reduce(
                N, [0] * k + [1]), (N, k)


def test_zeta_one_is_the_integers():
    # Z[zeta_1] = Z: reduction mod Phi_1 = x - 1 is the coefficient sum
    R = cyclo(1)
    assert R.phi == 1
    assert R.reduce([3, -5, 7, 2 ** 200]) == (5 + 2 ** 200,)
    assert R.from_zeta_exponents({0: 4, 1: 6, 5: -1}).coeffs == (9,)
    assert (R.from_int(-6) * R.from_int(7)).rational_value() == -42


def test_pow_multiplies_only_as_often_as_needed():
    R = cyclo(7)
    z = R.from_zeta_exponents({1: 1})
    calls = []

    class Counted(CycloInt):
        __slots__ = ()

        def __mul__(self, other):
            calls.append(1)
            return Counted(self.ctx, super().__mul__(other).coeffs)

    a = Counted(R, (2 + z + z ** 4).coeffs)
    assert a ** 6 == (2 + z + z ** 4) ** 6
    assert len(calls) == 3        # a^2, a^3, a^6
    calls.clear()
    assert a ** 1 == a and a ** 0 == R.one()
    assert not calls


def test_minimal_relation_of_zeta3():
    R = cyclo(3)
    z = R.from_zeta_exponents({1: 1})
    assert (1 + z + z * z).is_zero()


def test_norm_of_one_minus_zeta3():
    R = cyclo(3)
    z = R.from_zeta_exponents({1: 1})
    a = -z + 1
    b = -(z * z) + 1
    assert (a * b).rational_value() == 3
    # (1 - zeta3)^2 = -3 * zeta3
    assert (a * a) == -3 * z


def test_zeta_pq_contains_both_roots():
    R = cyclo(15)
    z5 = R.from_zeta_exponents({3: 1})   # zeta_15^3 has order 5
    z3 = R.from_zeta_exponents({5: 1})
    assert (z5 ** 5).rational_value() == 1
    assert (z3 ** 3).rational_value() == 1
    assert not (z5 ** 2 - 1).is_zero()
    # full sums of the roots of unity vanish
    total5 = R.from_int(0)
    for k in range(5):
        total5 = total5 + z5 ** k
    assert total5.is_zero()


def test_galois_and_conjugate():
    R = cyclo(7)
    z = R.from_zeta_exponents({1: 1})
    a = 2 + 3 * z + z ** 5
    c = a.conjugate()
    # conjugation maps zeta^k -> zeta^(-k)
    want = R.from_zeta_exponents({0: 2, 6: 3, 2: 1})
    assert c == want
    assert a.conjugate().conjugate() == a
    # norm-like full orbit product is a rational integer
    prod = R.one()
    for t in range(1, 7):
        prod = prod * a.galois(t)
    assert prod.is_rational()


# N = p*m and N = p*d, d | m, for every (p, m) of the trace-route oracle
# cases in test_zeta
TRACE_LEVELS = sorted(
    {p * m for p in (2, 3, 5, 7, 11, 13) for m in (2, 3, 5, 7, 11, 13)
     if p != m}
    | {p * d for p, m in [(3, 4), (5, 4), (3, 8), (5, 8), (2, 9), (7, 9)]
       for d in range(2, m + 1) if m % d == 0})


@pytest.mark.parametrize("N", TRACE_LEVELS)
def test_trace_is_the_sum_of_conjugates(N):
    rng = random.Random(N)
    R = cyclo(N)
    units = [t for t in range(1, N) if math.gcd(t, N) == 1]
    for x in (R.from_zeta_exponents({1: 1}),
              R.from_zeta_exponents({rng.randrange(N): rng.randrange(-99, 99)
                                     for _ in range(6)})):
        total = R.from_int(0)
        for t in units:
            total = total + x.galois(t)
        assert total == x.trace()
    # Ramanujan sums: Tr(zeta_N) = mu(N), Tr(1) = phi(N)
    assert R.one().trace() == len(units) == R.phi


def test_rational_detection():
    R = cyclo(12)
    assert R.from_int(-7).is_rational()
    assert R.from_int(-7).rational_value() == -7
    assert not R.from_zeta_exponents({1: 1}).is_rational()
    assert (R.from_zeta_exponents({1: 1}) ** 12).rational_value() == 1


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=50, deadline=None)
def test_mul_matches_complex_embedding(seed):
    rng = random.Random(seed)
    N = rng.choice([3, 4, 5, 6, 7, 12, 15, 21])
    R = cyclo(N)
    a = R.from_zeta_exponents(
        {rng.randrange(N): rng.randrange(-10 ** 6, 10 ** 6) for _ in range(4)})
    b = R.from_zeta_exponents(
        {rng.randrange(N): rng.randrange(-10 ** 6, 10 ** 6) for _ in range(4)})
    lhs = _embed_complex(a * b)
    rhs = _embed_complex(a) * _embed_complex(b)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale < 1e-9


def test_from_zeta_exponents_reduces_once():
    R = cyclo(6)
    # zeta_6^3 = -1, zeta_6^2 = zeta_6 - 1
    v = R.from_zeta_exponents({3: 1, 0: 1})
    assert v.is_zero()
    w = R.from_zeta_exponents({2: 1})
    assert w == R.from_zeta_exponents({1: 1}) - 1


def test_bad_arguments_are_usage_errors():
    # typed, so the refusal survives python -O
    R = cyclo(5)
    with pytest.raises(SuperjacError):
        cyclotomic_polynomial(0)
    with pytest.raises(SuperjacError):
        cyclo(0)
    with pytest.raises(SuperjacError):
        CycloInt(R, (1, 2))
    with pytest.raises(SuperjacError):
        R.from_zeta_exponents({1: 1}) ** -1
    with pytest.raises(SuperjacError):
        R.from_zeta_exponents({1: 1}).galois(5)


def _block_stepped(N: int, a: list[int], b: list[int]) -> list[int]:
    """The schoolbook product folded mod x^N - 1 and block-stepped once
    mod T_l, as lists: the slots that ``CycloCtx.mul`` unpacks."""
    f = [0] * N
    for k, c in enumerate(_zmul_schoolbook(a, b)):
        f[k % N] += c
    m = N // min((d for d in range(2, N + 1) if N % d == 0), default=N)
    if m == N:
        return f
    return [f[i] - f[N - m + i % m] for i in range(N - m)]


_PACKED_N = (1, 2, 9, 10, 15, 34, 55, 57, 77, 105)


@pytest.mark.parametrize("N", _PACKED_N)
def test_packed_product_matches_zmul_and_dense_oracle(N):
    rng = random.Random(N)
    R = cyclo(N)
    lengths = sorted({1, R.phi, N, rng.randint(1, N)})
    for bits in (1, 7, 8, 15, 16, 31, 32, 63, 64, 65, 200):
        for la in lengths:
            for lb in (R.phi, N):
                a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(la)]
                b = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(lb)]
                want = _oracle_reduce(N, _zmul_schoolbook(a, b))
                assert R.mul(a, b) == R.reduce(_zmul(a, b)) == want, \
                    (bits, la, lb)
                assert R.mul(b, a) == want
                # all-negative, and zero beside a nonzero operand
                neg = [-abs(c) - 1 for c in a]
                assert R.mul(neg, b) == _oracle_reduce(
                    N, _zmul_schoolbook(neg, b))
                assert R.mul([0] * la, b) == R.mul(a, [0] * lb) \
                    == (0,) * R.phi


def _operands_stepping_to(t: int, tight: bool) -> tuple[list[int], ...]:
    """Operands over N = 21 (l = 3, m = 7) whose block-stepped slots
    reach +-14 A B, which needs exactly t signed bits: seven terms A B
    in slot 13 of the fold and seven terms -A B in its top slot 20.
    ``tight`` takes A = B = 2^((t-5)/2) - 1, where the slot bound of
    ``mul`` is t bits as well."""
    if tight:
        A = B = 2 ** ((t - 5) // 2) - 1
    else:
        A, B = -(-2 ** (t - 2) // 14), 1
    b = [0] * 7 + [B] * 7 + [-B] * 7
    return [A] * 7, b, [-c for c in b]


# t = 8k + 1: the slot bound is t bits and the block-stepped slots fill
# them, so packing one bit narrower would overflow a slot
_TIGHT_SLOT_BYTES = {17: 4, 33: 8, 65: 9}


@pytest.mark.parametrize("t", sorted(set(_SLOT_OF_BITS) | {17, 33}))
def test_packed_product_slot_widths(t, monkeypatch):
    widths = []
    slots = cyclo_mod._slots

    def spy(v, n, width, code, half, off):
        widths.append(width)
        return slots(v, n, width, code, half, off)

    monkeypatch.setattr(cyclo_mod, "_slots", spy)
    R = cyclo(21)
    tight = t in _TIGHT_SLOT_BYTES
    a, b, nb = _operands_stepping_to(t, tight)
    stepped = _block_stepped(21, a, b) + _block_stepped(21, a, nb)
    assert max(_signed_bits(c) for c in stepped) == t
    assert max(stepped) == -min(stepped)
    for x, y in [(a, b), (b, a), (a, nb), (nb, a)]:
        assert R.mul(x, y) == _oracle_reduce(21, _zmul_schoolbook(x, y))
    if tight:
        assert set(widths) == {_TIGHT_SLOT_BYTES[t]}
    assert all(8 * w >= t for w in widths)


@pytest.mark.parametrize("N", _PACKED_N)
def test_times_conjugate_is_the_product_with_the_conjugate(N):
    rng = random.Random(-N)
    R = cyclo(N)
    for bits in (0, 7, 8, 64, 200):
        x = CycloInt(R, tuple(rng.randint(-2 ** bits, 2 ** bits)
                              for _ in range(R.phi)))
        assert x.times_conjugate() == x * x.conjugate()
        # the conjugate over the dense oracle: zeta^i -> zeta^(N-i)
        image = [0] * N
        for i, c in enumerate(x.coeffs):
            image[-i % N] += c
        assert x.times_conjugate().coeffs == _oracle_reduce(
            N, _zmul_schoolbook(list(x.coeffs), image))
    g = cyclo(15).from_zeta_exponents({1: 1, 6: -2})
    # |zeta - 2 zeta^6|^2 = 5 - 2 (zeta^5 + zeta^-5) = 5 + 2 = 7
    assert g.times_conjugate() == 7
