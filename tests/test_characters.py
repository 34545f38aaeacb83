"""Character sum oracles over small prime fields.

The quadratic sum over GF(3) with a = 1 is hand-computed:
G = chi(1) psi(0) + chi(2) psi(1) = 1 - zeta_3, with norm 3; squaring
the negated sum gives the level-2 value 3 zeta_3.
"""

import math
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
    orbit_gauss_sum,
    semiprimitive,
)
from superjac.cyclo import cyclo
from superjac.errors import (BudgetExceeded, CharacterUnavailable,
                             SuperjacError)


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
                          env={"PYTHONPATH": src})
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
    # every u of order d at c = a = 1, and every (c, a) at u = 1
    k = 2 * s
    assert primes.multiplicative_order(p, d) == k
    assert pow(p, s, d) == d - 1
    cases = {(1, u, 1) for u in range(1, d) if math.gcd(u, d) == 1}
    cases |= {(c, 1, a) for c in range(p) for a in range(p)}
    for c, u, a in sorted(cases):
        assert orbit_gauss_sum(p, d, c, u, a) == \
            characters._gauss_sum(p, k, d, c, u, a), (c, u, a)


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
def test_histogram_matches_per_unit_dlog(p, n, monkeypatch):
    monkeypatch.setattr(characters, "_HIST_CACHE", {})
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


def test_closed_form_builds_no_table(monkeypatch):
    # (7, 11): a sum over GF(7^10), past the table cap's reach of 7^7
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    monkeypatch.setattr(characters, "_HIST_CACHE", {})
    monkeypatch.setattr(characters, "_SUMS", {})
    g = orbit_gauss_sum(7, 11, 1, 1, 1)
    assert g * g.conjugate() == 7 ** 10
    # eps = (-1)^((7^5 + 1)/11), zeta_7^(-k a) with k = 10, a = 1
    assert g == cyclo(77).from_zeta_exponents({11 * (-10 % 7): 7 ** 5})
    assert not gf._CTX_CACHE and not characters._HIST_CACHE


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


@pytest.mark.parametrize("p,q", [(5, 2), (7, 3)])
def test_memo_keeps_one_character(p, q, monkeypatch):
    monkeypatch.setattr(characters, "_SUMS", {})
    calls, evaluated, held = [], [], []
    real_sum, real_eval = modified_gauss_sum, characters._gauss_sum

    def spy(p, q_order, c, u, a, n=1):
        got = real_sum(p, q_order, c, u, a, n)
        calls.append(((p, q_order, c % p, u % q_order, a % p), n))
        held.append({key: len(sums)
                     for key, sums in characters._SUMS.items()})
        return got

    def count(*args):
        evaluated.append(args)
        return real_eval(*args)

    monkeypatch.setattr(characters, "modified_gauss_sum", spy)
    monkeypatch.setattr(characters, "_gauss_sum", count)
    n_max = _identity_grid(p, q)
    assert all(len(h) == 1 and max(h.values()) <= n_max for h in held)
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


def test_refused_calls_leave_the_memo(monkeypatch):
    monkeypatch.setattr(characters, "_SUMS", {})
    g = modified_gauss_sum(5, 2, 1, 1, 1, 2)
    before = {key: dict(sums) for key, sums in characters._SUMS.items()}
    for call, exc in [
            (lambda: modified_gauss_sum(5, 3, 1, 1, 1), CharacterUnavailable),
            (lambda: modified_gauss_sum(5, 0, 1, 1, 1), SuperjacError),
            (lambda: gauss_norm_ok(5, 0, 1, 1, 1), SuperjacError),
            (lambda: hasse_davenport_ok(5, -2, 1, 1, 1, 2), SuperjacError),
            (lambda: modified_gauss_sum(3, 2, 1, 1, 1, 14), BudgetExceeded)]:
        with pytest.raises(exc):
            call()
        assert characters._SUMS == before
    assert characters._SUMS[(5, 2, 1, 1, 1)][2] is g


@pytest.mark.parametrize("first", ["norm", "hasse_davenport"])
def test_memo_does_not_make_identities_hold(first, monkeypatch):
    # a poisoned level-2 histogram makes G_2 wrong; with no sum kept from
    # before, both identities at n = 2 must see it, in either order
    monkeypatch.setattr(characters, "_HIST_CACHE", {})
    monkeypatch.setattr(characters, "_SUMS", {})
    hist = characters._histogram(5, 2, 2)
    hist[next(iter(hist))] += 1
    checks = [lambda: gauss_norm_ok(5, 2, 1, 1, 1, 2),
              lambda: hasse_davenport_ok(5, 2, 1, 1, 1, 2)]
    if first != "norm":
        checks.reverse()
    assert [check() for check in checks] == [False, False]
    # the level-1 sum is untouched
    assert gauss_norm_ok(5, 2, 1, 1, 1, 1)
