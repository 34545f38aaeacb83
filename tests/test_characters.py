"""Character sum oracles over small prime fields.

The quadratic sum over GF(3) with a = 1 is hand-computed:
G = chi(1) psi(0) + chi(2) psi(1) = 1 - zeta_3, with norm 3; squaring
the negated sum gives the level-2 value 3 zeta_3.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superjac
from superjac import characters, gf, primes
from superjac.characters import (
    gauss_norm_ok,
    hasse_davenport_ok,
    modified_gauss_sum,
    nontrivial_pairs,
    semiprimitive,
)
from superjac.cyclo import CycloCtx, cyclo
from superjac.errors import (BudgetExceeded, CharacterUnavailable,
                             InvariantViolation, SuperjacError)


def test_quadratic_sum_over_gf3_is_one_minus_zeta3():
    g = modified_gauss_sum(3, 2, 1, 1, 1)
    ctx = cyclo(6)  # zeta_3 = zeta_6^2
    assert g == ctx.from_zeta_exponents({0: 1, 2: -1})


def test_conjugate_additive_character():
    # c = 2 is the Galois twist zeta_3 -> zeta_3^2 of c = 1 (chi fixed)
    g1 = modified_gauss_sum(3, 2, 1, 1, 1)
    g2 = modified_gauss_sum(3, 2, 2, 1, 1)
    # t = 5 satisfies t = 2 mod 3 and t = 1 mod 2
    assert g1.galois(5) == g2


def test_norm_is_p():
    assert gauss_norm_ok(3, 2, 1, 1, 1)
    assert gauss_norm_ok(3, 2, 2, 1, 1)
    assert gauss_norm_ok(5, 2, 1, 1, 2)
    assert gauss_norm_ok(5, 4, 3, 3, 1)
    assert gauss_norm_ok(3, 2, 1, 1, 1, n=2)


def test_level_two_value_is_three_zeta3():
    g2 = modified_gauss_sum(3, 2, 1, 1, 1, n=2)
    ctx = cyclo(6)
    assert g2 == ctx.from_zeta_exponents({2: 3})


def test_hasse_davenport_relation():
    assert hasse_davenport_ok(3, 2, 1, 1, 1, 2)
    assert hasse_davenport_ok(3, 2, 1, 1, 1, 3)
    assert hasse_davenport_ok(3, 2, 2, 1, 2, 2)
    assert hasse_davenport_ok(5, 2, 1, 1, 1, 2)
    assert hasse_davenport_ok(5, 4, 1, 1, 1, 2)
    assert hasse_davenport_ok(5, 4, 2, 3, 4, 3)
    assert hasse_davenport_ok(11, 5, 1, 2, 1, 2)


def test_trivial_character_closed_forms():
    # asserted internally on every call; the return values match too
    assert modified_gauss_sum(3, 2, 0, 0, 1) == 3
    assert modified_gauss_sum(3, 2, 0, 0, 1, n=2) == 9
    assert modified_gauss_sum(5, 4, 0, 0, 2, n=3) == 125
    assert modified_gauss_sum(3, 2, 1, 0, 1).is_zero()
    assert modified_gauss_sum(3, 2, 0, 1, 1).is_zero()
    assert modified_gauss_sum(5, 4, 0, 3, 1, n=2).is_zero()


def test_character_order_must_divide_p_minus_one():
    with pytest.raises(CharacterUnavailable):
        modified_gauss_sum(5, 3, 1, 1, 1)
    with pytest.raises(CharacterUnavailable):
        modified_gauss_sum(2, 5, 1, 1, 1)


@pytest.mark.parametrize("q_order", [0, -3])
def test_character_order_must_be_positive(q_order):
    # the identities refuse it as the sum does, before u mod q_order
    for call in (lambda: modified_gauss_sum(7, q_order, 1, 1, 1),
                 lambda: gauss_norm_ok(7, q_order, 1, 1, 1),
                 lambda: hasse_davenport_ok(7, q_order, 1, 1, 1, 2)):
        with pytest.raises(SuperjacError, match="at least 1"):
            call()


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_characteristic_must_be_prime(p):
    # refused before any reduction mod p, which divides by zero at p = 0
    for call in (lambda: modified_gauss_sum(p, 1, 1, 1, 1),
                 lambda: gauss_norm_ok(p, 1, 1, 1, 1),
                 lambda: hasse_davenport_ok(p, 1, 1, 1, 1, 2)):
        with pytest.raises(SuperjacError, match="must be prime"):
            call()


def test_level_caps():
    # only the field-table cap bounds the level: GF(3^7) and GF(31^4)
    # answer, and GF(3^14) is refused, naming the field and the cap
    assert gauss_norm_ok(3, 2, 1, 1, 1, n=7)
    assert gauss_norm_ok(31, 2, 1, 1, 1, n=4)
    with pytest.raises(BudgetExceeded,
                       match=r"GF\(3\^14\) exceeds the table cap 4194304"):
        modified_gauss_sum(3, 2, 1, 1, 1, n=14)


def test_pair_count_matches_twice_genus():
    # genus of y^q = x^p - x + a is (p-1)(q-1)/2
    assert len(nontrivial_pairs(3, 2)) == 2
    assert len(nontrivial_pairs(5, 2)) == 4
    assert len(nontrivial_pairs(2, 1)) == 0
    assert len(nontrivial_pairs(11, 5)) == 40


def test_a_shift_is_additive_twist():
    # G_a = psi(-a) G_0: shifting a multiplies by zeta_p^(-c a)
    g0 = modified_gauss_sum(5, 2, 1, 1, 0)
    g2 = modified_gauss_sum(5, 2, 1, 1, 2)
    ctx = cyclo(10)  # zeta_5 = zeta_10^2
    tw = ctx.from_zeta_exponents({(2 * ((-2) % 5)) % 10: 1})
    assert g0 * tw == g2


def test_closed_form_self_checks_are_typed_under_python_O():
    # a poisoned histogram must trip both closed-form checks, with asserts
    # stripped
    code = ("from superjac import characters\n"
            "from superjac.errors import InvariantViolation\n"
            "hist = characters._histogram(3, 1, 2)\n"
            "hist[next(iter(hist))] += 1\n"
            "for args in ((3, 2, 0, 0, 1), (3, 2, 1, 0, 1)):\n"
            "    try:\n"
            "        characters.modified_gauss_sum(*args)\n"
            "    except InvariantViolation as exc:\n"
            "        print(str(exc))\n")
    src = str(Path(superjac.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["trivial/trivial sum must be p^n",
                                        "half-trivial sum must vanish"]


def _semiprimitive_pairs():
    # d | p^s + 1 <= 2^8 + 1 whenever GF(p^(2s)) has at most 2^16 elements
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(3, 2 ** 8 + 2):
            s = semiprimitive(p, d) if d % p else None
            if s is not None and p ** (2 * s) <= 2 ** 16:
                yield p, d, s


SEMIPRIMITIVE = list(_semiprimitive_pairs())


@pytest.mark.parametrize("p,d,s", SEMIPRIMITIVE,
                         ids=[f"{p}-{d}" for p, d, _ in SEMIPRIMITIVE])
def test_closed_form_matches_histogram(p, d, s):
    # eps p^s zeta_p^(-c k a), with eps p^s = t / 2 read off closed_form,
    # against the histogram sum for every u of order d at c = a = 1, and
    # for every c != 0 and every a at u = 1
    k = 2 * s
    assert primes.multiplicative_order(p, d) == k
    assert pow(p, s, d) == d - 1
    cf = characters.closed_form(p, d)
    assert (cf.kind, cf.k) == ("semiprimitive", k)
    cases = {(1, u, 1) for u in range(1, d) if math.gcd(u, d) == 1}
    cases |= {(c, 1, a) for c in range(1, p) for a in range(p)}
    ring = cyclo(p * d)
    for c, u, a in sorted(cases):
        want = ring.from_zeta_exponents({d * (-c * k * a % p): cf.t // 2})
        assert characters._gauss_sum(p, k, d, c, u, a) == want, (c, u, a)


def _histogram_by_dlog(p, n, L):
    """Counts of (Tr(w), log(w) mod L), one discrete log per unit: the
    oracle for characters._histogram's walk of the exp table."""
    ctx = gf.field(p, n)
    tr = ctx.trace_table()
    hist = {}
    for w in ctx.units():
        k = (tr[w], ctx.dlog(w) % L)
        hist[k] = hist.get(k, 0) + 1
    return hist


@pytest.mark.parametrize("p,n", [(7, 1), (19, 1), (2, 4), (3, 7), (5, 5),
                                 (11, 3), (2, 12)])
def test_histogram_matches_per_unit_dlog(p, n, fresh_sum_caches):
    q1 = p ** n - 1
    # divisors of q - 1, and an L that divides nothing in sight
    for L in sorted({1, 2, q1 // math.gcd(q1, 4), q1, 7} - {0}):
        got = characters._histogram(p, n, L)
        assert got == _histogram_by_dlog(p, n, L), L
        assert sum(got.values()) == q1


def test_semiprimitive_pairs():
    assert len(SEMIPRIMITIVE) == 54
    assert [semiprimitive(p, q) for p, q in
            [(7, 11), (7, 13), (11, 13), (13, 11), (2, 13)]] == [5, 6, 6, 5, 6]
    # odd orders have no closed form, nor do d <= 2
    assert semiprimitive(3, 11) is None and semiprimitive(2, 7) is None
    assert semiprimitive(3, 2) is None and semiprimitive(3, 1) is None
    # ord_15(2) = 4 is even, but 2^2 = 4 is not -1 mod 15
    assert semiprimitive(2, 15) is None


def test_closed_form_builds_no_table(monkeypatch, fresh_sum_caches):
    # (7, 11): a sum over GF(7^10), past the table cap's reach of 7^7
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    traces = characters.orbit_traces(7, 11, 1, 7)
    # G = eps 7^5 zeta_7^(-k a), eps = (-1)^((7^5 + 1)/11) = 1, k = 10:
    # Tr(G^j) = phi(11) 7^(5j) Tr(zeta_7^(-10 j)), and 7 | 10 j at j = 7
    assert traces == [10 * 7 ** (5 * j) * (6 if j == 7 else -1)
                      for j in range(1, 8)]
    assert not gf._CTX_CACHE
    assert characters._histogram.cache_info().currsize == 0


def test_trivial_characters_are_usage_errors():
    # both identities need nontrivial characters; typed, so the refusal
    # survives python -O
    with pytest.raises(SuperjacError):
        gauss_norm_ok(5, 4, 5, 1, 1)
    with pytest.raises(SuperjacError):
        hasse_davenport_ok(5, 4, 1, 4, 1, 2)


def _identity_grid(p, q):
    """Criterion 03's calls at one (p, q): every a, nontrivial pair and
    level, then the shift identity."""
    n_max = 6 if p ** 6 <= 100_000 else 3
    for a in range(1, p):
        for c, u in nontrivial_pairs(p, q):
            characters.modified_gauss_sum(p, q, c, u, 0)
            for n in range(1, n_max + 1):
                assert gauss_norm_ok(p, q, c, u, a, n)
                assert hasse_davenport_ok(p, q, c, u, a, n)
            characters.modified_gauss_sum(p, q, c, u, a)
    return n_max


def _kept():
    """Entries held by the sum and the power memo."""
    return (characters._lifted_sum.cache_info().currsize,
            characters._hd_power.cache_info().currsize)


@pytest.mark.parametrize("p,q", [(5, 2), (7, 3)])
def test_memo_keeps_one_character(p, q, monkeypatch, fresh_sum_caches):
    # the memos hold at most 8 keys, enough for the 7 that one character
    # takes on the grid, so each (character, level) run is computed once
    assert characters._lifted_sum.cache_info().maxsize == 8
    assert characters._hd_power.cache_info().maxsize == 8
    calls, evaluated, held = [], [], []
    real_sum, real_eval = modified_gauss_sum, characters._gauss_sum

    def spy(p, q_order, c, u, a, n=1):
        got = real_sum(p, q_order, c, u, a, n)
        calls.append(((p, q_order, c % p, u % q_order, a % p), n))
        held.append(_kept())
        return got

    def count(*args):
        evaluated.append(args)
        return real_eval(*args)

    monkeypatch.setattr(characters, "modified_gauss_sum", spy)
    monkeypatch.setattr(characters, "_gauss_sum", count)
    n_max = _identity_grid(p, q)
    assert max(held) == (8, 8)
    assert all(sums <= 8 and powers <= 8 for sums, powers in held)
    # one evaluation per level within each run of calls for one character
    runs = []
    for key, n in calls:
        if not runs or runs[-1][0] != key:
            runs.append((key, set()))
        runs[-1][1].add(n)
    assert len(evaluated) == sum(len(levels) for _, levels in runs)
    # the a = 0 sum, then levels 1..n_max of the shifted character
    assert len(evaluated) == (p - 1) * len(nontrivial_pairs(p, q)) \
        * (1 + n_max) < len(calls)


def test_refused_calls_leave_the_memo(monkeypatch, fresh_sum_caches):
    g = modified_gauss_sum(5, 2, 1, 1, 1, 2)
    before = _kept()
    evaluated = []
    real_eval = characters._gauss_sum

    def count(*args):
        evaluated.append(args)
        return real_eval(*args)

    monkeypatch.setattr(characters, "_gauss_sum", count)
    for call, exc in [
            (lambda: modified_gauss_sum(5, 3, 1, 1, 1), CharacterUnavailable),
            (lambda: modified_gauss_sum(5, 0, 1, 1, 1), SuperjacError),
            (lambda: gauss_norm_ok(5, 0, 1, 1, 1), SuperjacError),
            (lambda: hasse_davenport_ok(5, -2, 1, 1, 1, 2), SuperjacError),
            (lambda: modified_gauss_sum(3, 2, 1, 1, 1, 14), BudgetExceeded)]:
        with pytest.raises(exc):
            call()
        assert _kept() == before
    # the kept sum is served as it was, with no new evaluation
    assert modified_gauss_sum(5, 2, 1, 1, 1, 2) is g
    assert not evaluated


@pytest.mark.parametrize("first", ["norm", "hasse_davenport"])
def test_memo_does_not_make_identities_hold(first, fresh_sum_caches):
    # a poisoned level-2 histogram makes G_2 wrong; with no sum kept from
    # before, both identities at n = 2 must see it, in either order
    hist = characters._histogram(5, 2, 2)
    hist[next(iter(hist))] += 1
    checks = [lambda: gauss_norm_ok(5, 2, 1, 1, 1, 2),
              lambda: hasse_davenport_ok(5, 2, 1, 1, 1, 2)]
    if first != "norm":
        checks.reverse()
    assert [check() for check in checks] == [False, False]
    # the level-1 sum is untouched
    assert gauss_norm_ok(5, 2, 1, 1, 1, 1)


def _hd_by_powering(p, q, c, u, a, n):
    """The Hasse-Davenport identity with (-G_1)^n raised from scratch."""
    g1 = modified_gauss_sum(p, q, c, u, a, 1)
    return (-g1) ** n == -modified_gauss_sum(p, q, c, u, a, n)


@pytest.mark.parametrize("levels", [(1, 2, 3, 4), (3, 2), (2, 2),
                                    (1, 3, 3, 2, 4), (4, 1, 2)])
@pytest.mark.parametrize("poisoned", [False, True])
def test_power_memo_in_any_order(levels, poisoned, fresh_sum_caches):
    # a poisoned level-1 histogram makes G_1, and so every (-G_1)^n with
    # n >= 2, wrong; memo or not, the answers are those of powering from
    # scratch
    if poisoned:
        hist = characters._histogram(5, 1, 2)
        hist[next(iter(hist))] += 1
    got = [hasse_davenport_ok(5, 2, 1, 1, 1, n) for n in levels]
    # a level asked cold keeps every level below it
    top = max(levels)
    assert _kept()[1] == top
    g1 = modified_gauss_sum(5, 2, 1, 1, 1)
    misses = characters._hd_power.cache_info().misses
    assert [characters._hd_power(5, 2, 1, 1, 1, n)
            for n in range(1, top + 1)] == \
        [(-g1) ** n for n in range(1, top + 1)]
    assert characters._hd_power.cache_info().misses == misses
    assert got == [_hd_by_powering(5, 2, 1, 1, 1, n) for n in levels] \
        == [n == 1 or not poisoned for n in levels]
    assert gauss_norm_ok(5, 2, 1, 1, 1, 1) is not poisoned


def test_each_level_costs_one_product(monkeypatch, fresh_sum_caches):
    products = []
    real_mul = CycloCtx.mul

    def spy(self, a, b):
        products.append(len(b))
        return real_mul(self, a, b)

    monkeypatch.setattr(CycloCtx, "mul", spy)
    for n in range(1, 5):
        g = modified_gauss_sum(7, 3, 1, 1, 2, n)
        products.clear()
        assert gauss_norm_ok(7, 3, 1, 1, 2, n)
        # G times its unreduced conjugate, 21 long
        assert products == [21]
        products.clear()
        assert hasse_davenport_ok(7, 3, 1, 1, 2, n)
        assert len(products) == (n > 1)
        assert characters._hd_power(7, 3, 1, 1, 2, n) == -g
    # a repeated level costs none
    products.clear()
    assert hasse_davenport_ok(7, 3, 1, 1, 2, 3)
    assert not products
    # a level asked cold costs n - 1: ((-G_1) (-G_1)) (-G_1)
    characters._hd_power.cache_clear()
    assert hasse_davenport_ok(7, 3, 1, 1, 2, 3)
    assert len(products) == 2


def test_refused_calls_leave_the_power_memo(fresh_sum_caches):
    assert hasse_davenport_ok(5, 2, 1, 1, 1, 2)
    held = characters._hd_power(5, 2, 1, 1, 1, 2)
    before = _kept()
    for call, exc in [
            (lambda: hasse_davenport_ok(5, -2, 1, 1, 1, 3), SuperjacError),
            (lambda: hasse_davenport_ok(5, 2, 5, 1, 1, 3), SuperjacError),
            (lambda: hasse_davenport_ok(5, 2, 1, 1, 1, 10), BudgetExceeded),
            (lambda: modified_gauss_sum(5, 2, 1, 1, 1, 10), BudgetExceeded),
            (lambda: gauss_norm_ok(5, 2, 1, 1, 1, 10), BudgetExceeded)]:
        with pytest.raises(exc):
            call()
        assert _kept() == before
        assert characters._hd_power(5, 2, 1, 1, 1, 2) is held
    # another character's powers are kept beside it, up to 8 keys
    assert hasse_davenport_ok(5, 2, 2, 1, 1, 2)
    assert _kept()[1] == 4
    assert characters._hd_power(5, 2, 1, 1, 1, 2) is held


def test_histogram_builds_no_zech_table(monkeypatch, fresh_sum_caches):
    # the trace table sums Frobenius conjugates digit by digit, and the
    # histogram walks exp: neither adds through the Zech table
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    characters._histogram(5, 6, 7)
    assert gf.field(5, 6)._zech is None


def _trace_by_add(ctx):
    """Tr(w) for every w as the sum of its n Frobenius conjugates through
    the field's own addition: the oracle for trace_table."""
    out = []
    for w in ctx.elements():
        acc = 0
        for k in range(ctx.n):
            acc = ctx.add(acc, ctx.frob(w, k))
        out.append(acc)
    return out


@pytest.mark.parametrize("p,n", [(7, 1), (19, 1), (2, 4), (3, 7), (5, 5),
                                 (11, 3), (2, 12)])
def test_trace_table_matches_the_sum_of_conjugates(p, n):
    # the fields of test_histogram_matches_per_unit_dlog
    ctx = gf.field(p, n)
    assert list(ctx.trace_table()) == _trace_by_add(ctx)


# h(-d) for the primes d = 3 mod 4 below 100 (Cohen, A Course in
# Computational Algebraic Number Theory, Appendix B.4)
CLASS_NUMBERS = {7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 59: 3,
                 67: 1, 71: 7, 79: 5, 83: 3}


def test_class_numbers():
    assert {d: characters._class_number(d) for d in CLASS_NUMBERS} == \
        CLASS_NUMBERS


def _representations(d, p, h):
    """Every (A, B), A, B >= 0, with A^2 + d B^2 = 4 p^h and p prime to
    B, by a scan over B."""
    N, out = p ** h, set()
    for B in range(math.isqrt(4 * N // d) + 1):
        A = math.isqrt(4 * N - d * B * B)
        if A * A == 4 * N - d * B * B and B % p:
            out.add((A, B))
    return out


def _split_primes(d, bound):
    """The primes p < bound, p != d, split in Q(sqrt(-d))."""
    return [p for p in range(2, bound) if primes.is_prime(p) and p != d
            and (d % 8 == 7 if p == 2 else pow(-d, (p - 1) // 2, p) == 1)]


@pytest.mark.parametrize("d", sorted(CLASS_NUMBERS))
def test_cornacchia_matches_a_scan(d):
    # 4 p^h with h = h(-d) has one representation with p prime to B up
    # to sign, found by Cornacchia's method; some have A and B even, e.g.
    # 44 = 4^2 + 7 2^2, and some have others with p | B, e.g.
    # 4 59^3 = 396^2 + 23 170^2 = 708^2 + 23 118^2, where 118 = 2 59
    h = CLASS_NUMBERS[d]
    split = [p for p in _split_primes(d, 200) if 4 * p ** h <= 10 ** 9]
    assert len(split) >= 3
    for p in split:
        assert {characters._cornacchia(d, p, h)} == \
            _representations(d, p, h), p


def test_cornacchia_refuses_powers_with_no_representation():
    # below the class number, P^e is principal only when the order of P
    # divides e: 4 2^e = A^2 + 23 B^2 has no solution with B odd at
    # e = 1 or 2; (4, 0) at e = 2 is the element 2 = P conj(P)
    for d in (23, 31, 47, 71):
        h = CLASS_NUMBERS[d]
        p = _split_primes(d, 100)[0]
        for e in range(1, h):
            if _representations(d, p, e):
                assert {characters._cornacchia(d, p, e)} == \
                    _representations(d, p, e)
            else:
                with pytest.raises(InvariantViolation,
                                   match=f"4 \\* {p}\\^{e} is not"):
                    characters._cornacchia(d, p, e)


def test_cornacchia_finds_even_solutions():
    assert characters._cornacchia(7, 11, 1) == (4, 2)


def test_closed_form_kinds():
    cf = characters.closed_form
    assert cf(3, 2) == ("quadratic", 1, -3)
    assert cf(13, 2) == ("quadratic", 1, 13)
    # (5, 3) is semiprimitive: z = eps p^s = -5... with t = 2 z
    assert cf(5, 3).kind == "semiprimitive" and cf(5, 3).k == 2
    # ord_11(3) = 5: index 2, h(-11) = 1, A^2 + 11 B^2 = 12 at A = 1
    assert cf(3, 11) == ("index-2", 5, 3 ** 2 * 1)
    # no closed form: d = 3 with p = 1 mod 3, index 6, index 4, and a
    # composite d that is not semiprimitive
    assert [cf(p, d) for p, d in [(7, 3), (2, 31), (3, 13), (5, 12)]] == \
        [None] * 4
