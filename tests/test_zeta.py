"""Counting and L-polynomial oracles.

Anchor values, all hand-checked:
  y^2 = x^3 - x + 1 / GF(3):  N_1 = 7,  P = 1 + 3T + 3T^2,  |J| = 7
  y^3 = x^2 + x + 1 / GF(2):  N_1 = 3,  P = 1 + 2T^2,       |J| = 3
  y^5 = x^2 + x + 1 / GF(2):  N_1 = 3, N_2 = 5, P = 1 + 4T^4, |J| = 5,
                              |J(GF(4))| = 25, |J(GF(16))| = 625
"""

import collections
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superjac

from superjac import characters, gf, primes
from superjac import zeta as zeta_module
from superjac.cyclo import cyclo
from superjac.errors import (
    BudgetExceeded,
    EvidenceFailed,
    InvariantViolation,
    RequiresD1,
    SuperjacError,
    UnsupportedBase,
)
from superjac.curves import make_curve
from superjac.zeta import (
    COUNT_BUDGET,
    _from_power_sums,
    _power_law_report,
    LPolynomial,
    artin_schreier_curve,
    artin_schreier_lpoly,
    count_points,
    counts_by_charsum,
    lpoly,
    lpoly_from_counts,
    power_law_check,
    torsion_criterion,
    zeta_numerator_charsum,
)


def test_count_anchor_gf3():
    c = artin_schreier_curve(3, 2, 1)
    assert count_points(c, 1) == 7


def test_count_anchor_gf2_cubic():
    c = artin_schreier_curve(2, 3, 1)
    assert count_points(c, 1) == 3


def test_count_anchor_gf2_quintic():
    c = artin_schreier_curve(2, 5, 1)
    assert count_points(c, 1) == 3
    assert count_points(c, 2) == 5


def test_charsum_counts_match_enumeration():
    # the last five have m not dividing p - 1: their Gauss sums live over
    # GF(p^k), k = ord_m(p) = 3, 2, 4, 2, 4
    for p, m, a, upto in [(3, 2, 1, 4), (3, 2, 2, 3), (5, 2, 1, 3),
                          (5, 4, 2, 2), (7, 2, 3, 2), (7, 3, 1, 2),
                          (2, 7, 1, 3), (2, 3, 1, 4), (3, 5, 1, 3),
                          (5, 3, 2, 3), (7, 5, 3, 2)]:
        curve = artin_schreier_curve(p, m, a)
        naive = [count_points(curve, n) for n in range(1, upto + 1)]
        assert counts_by_charsum(p, m, a, upto) == naive


def test_zeta_numerator_anchor_gf3():
    P = zeta_numerator_charsum(3, 2, 1)
    assert P.coeffs == (1, 3, 3)
    assert P.evaluate(1) == 7
    assert P.jacobian_order(1) == 7


def test_lpoly_from_counts_anchors():
    assert lpoly_from_counts(3, [7]).coeffs == (1, 3, 3)
    assert lpoly_from_counts(2, [3], 1).coeffs == (1, 0, 2)
    P = lpoly_from_counts(2, [3, 5], 2)
    assert P.coeffs == (1, 0, 0, 0, 4)
    assert P.evaluate(1) == 5
    assert P.jacobian_order(2) == 25
    assert P.jacobian_order(4) == 625
    assert P.point_count(3) == 9


def test_lpoly_extra_counts_are_verified():
    c = artin_schreier_curve(2, 5, 1)
    counts = [count_points(c, n) for n in range(1, 5)]
    P = lpoly_from_counts(2, counts, 2)
    assert P.coeffs == (1, 0, 0, 0, 4)
    with pytest.raises(InvariantViolation):
        lpoly_from_counts(2, counts[:3] + [counts[3] + 5], 2)


def test_lpoly_validation():
    with pytest.raises(InvariantViolation):
        lpoly(3, 1, (1, 3, 4))  # functional equation broken
    with pytest.raises(InvariantViolation):
        lpoly(2, 1, (1, -3, 2))  # P(1) = 0


def test_charsum_and_naive_numerators_agree():
    for p, m, a in [(3, 2, 1), (3, 2, 2), (5, 2, 3), (5, 4, 1)]:
        curve = artin_schreier_curve(p, m, a)
        counts = [count_points(curve, n) for n in range(1, curve.genus + 1)]
        assert lpoly_from_counts(p, counts).coeffs == \
            zeta_numerator_charsum(p, m, a).coeffs


def test_torsion_criterion_positives():
    # (p, q) with p dividing ord_q(p): torsion exists
    for p, q in [(2, 3), (2, 5), (2, 11), (2, 13), (3, 7)]:
        res = torsion_criterion(p, q)
        assert res.has_torsion, (p, q)
        assert res.k % p == 0
        assert res.evidence_route == "point-count"
        assert res.q_valuation >= 1 and res.evidence_ok


def test_torsion_criterion_negatives():
    res = torsion_criterion(3, 2)  # q | p - 1: character-sum evidence
    assert not res.has_torsion
    assert res.evidence_route == "character-sum"
    assert res.jacobian_order == 7 and res.q_valuation == 0

    res = torsion_criterion(5, 2)
    assert not res.has_torsion and res.evidence_ok

    res = torsion_criterion(2, 7)  # ord_7(2) = 3, 2 does not divide 3
    assert not res.has_torsion
    assert res.evidence_route == "point-count" and res.evidence_ok


def test_torsion_criterion_higher_level():
    # y^4 = x^5 - x + 1 over GF(5): order-4 characters exist, no 2-torsion
    res = torsion_criterion(5, 2, level=2)
    assert not res.has_torsion
    assert res.evidence_route == "character-sum" and res.evidence_ok
    # y^9 = x^2 + x + 1 over GF(2): ord_3(2) = 2 is even, torsion exists
    res = torsion_criterion(2, 3, level=2)
    assert res.has_torsion
    assert res.evidence_route == "point-count"
    assert res.q_valuation >= 1 and res.evidence_ok


def test_torsion_iff_refuses_contradicting_evidence(monkeypatch):
    # P(1) = 3 is prime to q = 5 although ord_5(2) = 4 is even: only the
    # iff check stands between this P and a wrong evidence_ok
    monkeypatch.setattr(zeta_module, "artin_schreier_lpoly",
                        lambda *args, **kw: ("character-sum",
                                             LPolynomial(2, 1, (1, 0, 2))))
    with pytest.raises(EvidenceFailed):
        torsion_criterion(2, 5)


def test_torsion_budget_leaves_verdict():
    # ord_31(2) = 5 is odd and <2> has index 6 in (Z/31)^*, so no Gauss
    # sum of order 31 has a closed form, and GF(2^5) is past the budget
    assert characters.closed_form(2, 31) is None
    res = torsion_criterion(2, 31, budget=10)
    assert res.k == 5 and not res.has_torsion  # pure arithmetic
    assert res.evidence_route is None and res.jacobian_order is None


def test_power_law_family():
    rep = power_law_check(2, 5)
    assert rep.ok and rep.k == 4
    assert rep.checked_divisors == (1, 2, 4)
    assert rep.base_order == 5
    rep2 = power_law_check(3, 2)
    assert rep2.ok and rep2.k == 1
    assert rep2.trivial_levels == ()


def power_law_check_curve(curve, budget=COUNT_BUDGET):
    """The power-law checks for any y^q = F(x) over GF(p) with prime q
    not dividing deg F, on the L-polynomial from enumerated counts."""
    assert curve.base is not None and curve.base.n == 1
    q = curve.m
    assert primes.is_prime(q) and curve.r % q != 0
    p = curve.base.p
    counts = [count_points(curve, n, budget)
              for n in range(1, curve.genus + 1)]
    P = lpoly_from_counts(p, counts, curve.genus)
    return _power_law_report(P, p, q, None)


def test_power_law_general_curve():
    ctx = gf.field(5)
    c = make_curve(3, [1, 0, 0, 0, 1], ctx)  # y^3 = x^4 + 1
    rep = power_law_check_curve(c)
    assert rep.ok and rep.k == 2
    assert rep.checked_divisors == (1, 2)


def test_count_requires_d_one():
    ctx = gf.field(11)
    c = make_curve(2, gf.pfrom_roots(ctx, [0, 1, 2, 3, 4, 5]), ctx)
    with pytest.raises(RequiresD1):
        count_points(c, 1)


def test_count_budget():
    c = artin_schreier_curve(2, 5, 1)
    with pytest.raises(BudgetExceeded):
        count_points(c, 30)


def _count_points_horner(curve, n=1):
    """Projective count by Horner evaluation of F at every element and a
    discrete log of every nonzero value; kept as the oracle for the
    log-domain loop of count_points."""
    base = curve.base
    ext = gf.field(base.p, base.n * n)
    cs = list(curve.ext_coeffs(ext))
    t = math.gcd(curve.m, ext.order - 1)
    cnt = 1  # the point at infinity
    for x in ext.elements():
        z = gf.peval(ext, cs, x)
        if z == 0:
            cnt += 1
        elif ext.dlog(z) % t == 0:
            cnt += t
    return cnt


def _horner_cases():
    # Artin-Schreier curves y^m = x^p - x + a for p <= 7, n <= 4
    for p, ms in [(2, (3, 5)), (3, (2, 4, 5)), (5, (2, 3, 4)),
                  (7, (2, 3, 4, 5))]:
        for m in ms:
            for a in sorted({1, p - 1}):
                for n in range(1, 5):
                    yield f"as-{p}-{m}-{a}-{n}", \
                        artin_schreier_curve(p, m, a), n
    # F(0) = 0, so x = 0 lies under a ramification point
    yield "f0-5", make_curve(2, [0, 4, 0, 1], gf.field(5)), 2
    yield "f0-7", make_curve(2, [0, 1, 0, 0, 0, 1], gf.field(7)), 2
    yield "as0-3", artin_schreier_curve(3, 2, 0), 3
    # bases GF(4) and GF(9), with coefficients outside the prime field
    K4 = gf.field(2, 2)
    w4 = gf.FieldElem(K4, 2)
    for n in (1, 2, 3):
        yield f"gf4-{n}", make_curve(3, [w4, 1, 1], K4), n
        yield f"gf4-5-{n}", make_curve(5, [1, w4, 0, 1], K4), n
    K9 = gf.field(3, 2)
    w9 = gf.FieldElem(K9, 4)
    for n in (1, 2):
        yield f"gf9-{n}", make_curve(2, [w9, 2, 0, 1], K9), n
        yield f"gf9-4-{n}", make_curve(4, [1, 0, w9, 0, 0, 1], K9), n


HORNER_CASES = list(_horner_cases())


@pytest.mark.parametrize("name,curve,n", HORNER_CASES,
                         ids=[c[0] for c in HORNER_CASES])
def test_count_points_matches_horner(name, curve, n):
    assert count_points(curve, n) == _count_points_horner(curve, n)


def test_horner_cases_cover_the_shapes():
    ts = set()
    for _, curve, n in HORNER_CASES:
        order = curve.base.order ** n
        ts.add(math.gcd(curve.m, order - 1) > 1)
    assert ts == {False, True}
    assert any(c.coeffs[0] == 0 for _, c, _ in HORNER_CASES)
    assert {c.base.name() for _, c, _ in HORNER_CASES} >= \
        {"GF(2^2)", "GF(3^2)", "GF(2)", "GF(7)"}
    assert any(n == 1 and c.base.n == 1 for _, c, n in HORNER_CASES)


def _t1_levels(p, m):
    """Every n with p^n <= 3^8 and t = gcd(m, p^n - 1) = 1."""
    return [n for n in range(1, 13)
            if p ** n <= 3 ** 8 and math.gcd(m, p ** n - 1) == 1]


T1_CASES = [(p, m) for p, m in itertools.permutations((2, 3, 5, 7, 11, 13), 2)
            if _t1_levels(p, m)]


@pytest.mark.parametrize("p,m", T1_CASES,
                         ids=[f"{p}-{m}" for p, m in T1_CASES])
def test_count_points_without_mth_powers(p, m, monkeypatch, fresh_sum_caches):
    # t = 1: the count p^n + 1 builds no table; the enumeration agrees
    curve = artin_schreier_curve(p, m, 1)
    levels = _t1_levels(p, m)
    want = {n: _count_points_horner(curve, n) for n in levels}
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    assert {n: count_points(curve, n) for n in levels} == \
        {n: p ** n + 1 for n in levels} == want
    assert not gf._CTX_CACHE


def test_count_points_refusals():
    # d = gcd(6, 3) = 3 and an enumeration past the budget refuse as
    # before; a curve over Q has nothing to enumerate
    ctx = gf.field(7)
    with pytest.raises(RequiresD1):
        count_points(make_curve(6, gf.pfrom_roots(ctx, [0, 1, 2]), ctx), 1)
    c = artin_schreier_curve(3, 2, 1)
    with pytest.raises(BudgetExceeded,
                       match=r"GF\(3\^4\) exceeds the budget 80"):
        count_points(c, 4, budget=80)
    assert count_points(c, 4, budget=81) == _count_points_horner(c, 4)
    # a count known without a table still refuses past the budget
    c = artin_schreier_curve(2, 3, 1)
    with pytest.raises(BudgetExceeded,
                       match=r"GF\(2\^3\) exceeds the budget 7"):
        count_points(c, 3, budget=7)
    with pytest.raises(UnsupportedBase):
        count_points(make_curve(2, [1, 0, 0, 1]), 1)


def test_count_points_clips_the_budget_to_the_table_cap():
    # t = gcd(3, 2^23 - 1) = 1 would give 2^23 + 1 without a table, but
    # a budget past the table cap is clipped to it, as on every route
    c = make_curve(3, [1, 1, 1], gf.field(2))
    with pytest.raises(BudgetExceeded,
                       match=r"GF\(2\^23\) exceeds the table cap 4194304"):
        count_points(c, 23, budget=2 ** 30)


def _count_points_scan(curve, n=1, logs=None):
    """Projective count by a full per-element scan: log F(x) at x = 0 and
    at every unit g^k through the Zech table, -1 where F(x) = 0.  This is
    the count's rule before it went once per Frobenius orbit, kept as the
    oracle for the orbit count.  A dict passed as logs keeps the scan of
    each F and level, which curves y^m = F(x) with any m share."""
    base = curve.base
    ext = gf.field(base.p, base.n * n)
    key = (base.p, base.n, tuple(curve.coeffs), n)
    got = None if logs is None else logs.get(key)
    if got is None:
        q1, _, log, zech, _ = ext.log_tables()
        cs = curve.ext_coeffs(ext)
        terms = [(log[c], i) for i, c in enumerate(cs) if c]
        got = [log[cs[0]]]
        for k in range(q1):
            acc = -1
            for lc, i in terms:
                e = lc + i * k
                if acc < 0:
                    acc = e
                else:
                    z = zech[(e - acc) % q1]
                    acc = acc + z if z >= 0 else -1
            got.append(acc)
        if logs is not None:
            logs[key] = got
    t = math.gcd(curve.m, ext.order - 1)
    return 1 + sum(1 if v < 0 else t if v % t == 0 else 0 for v in got)


GRID_PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("p", GRID_PRIMES)
def test_orbit_count_matches_the_scan_on_the_torsion_grid(p):
    # every level n <= g with p^n <= 200000 of the torsion grid's pairs
    # (p, q), on y^q = x^p - x + 1: one scan per level serves every q
    logs = {}
    seen = set()
    for q in GRID_PRIMES:
        if q == p:
            continue
        curve = artin_schreier_curve(p, q, 1)
        for n in range(1, curve.genus + 1):
            if p ** n > 200_000:
                break
            assert count_points(curve, n) == \
                _count_points_scan(curve, n, logs), (p, q, n)
            seen.add((q, n, math.gcd(q, p ** n - 1) > 1))
    # both kinds of level: t = 1, where the count is p^n + 1 at once,
    # and t > 1, where F is evaluated once per orbit
    assert {t for _, _, t in seen} == {False, True}
    if p == 3:
        assert {(11, 5, True), (11, 10, True)} <= seen


def _orbit_cases():
    K3 = gf.field(3)
    # F = (x^2 + 1)(x^3 - x + 1) over GF(3): its roots lie in GF(9) and
    # GF(27), proper subfields of GF(3^6), on orbits shorter than n
    F = gf.pmul(K3, [1, 0, 1], [1, 2, 0, 1])
    for m in (2, 4, 7):
        for n in range(1, 7):
            yield f"subfield-roots-{m}-{n}", make_curve(m, F, K3), n
    # bases GF(4) and GF(9), with coefficients outside the prime field:
    # the orbits are those of x -> x^4 and x -> x^9, not of x -> x^p
    K4 = gf.field(2, 2)
    w4 = gf.FieldElem(K4, 2)
    for n in range(1, 7):
        yield f"gf4-{n}", make_curve(3, [w4, 1, 1], K4), n
        yield f"gf4-5-{n}", make_curve(5, [1, w4, 0, 1], K4), n
    K9 = gf.field(3, 2)
    w9 = gf.FieldElem(K9, 4)
    for n in range(1, 5):
        yield f"gf9-{n}", make_curve(2, [w9, 2, 0, 1], K9), n
        yield f"gf9-4-{n}", make_curve(4, [1, 0, w9, 0, 0, 1], K9), n


ORBIT_CASES = list(_orbit_cases())


@pytest.mark.parametrize("name,curve,n", ORBIT_CASES,
                         ids=[c[0] for c in ORBIT_CASES])
def test_orbit_count_matches_the_scan(name, curve, n):
    assert count_points(curve, n) == _count_points_scan(curve, n)


def test_orbit_cases_cover_the_shapes():
    roots = {}
    for name, curve, n in ORBIT_CASES:
        if name.startswith("subfield-roots"):
            # no root of F in GF(3), some in GF(3^n) for n = 2, 3, 6
            ext = gf.field(3, n)
            roots[n] = sum(curve.eval_F(ext, x) == 0 for x in ext.elements())
    assert roots == {1: 0, 2: 2, 3: 3, 4: 2, 5: 0, 6: 5}
    bases = {c.base.name() for _, c, _ in ORBIT_CASES}
    assert bases == {"GF(3)", "GF(2^2)", "GF(3^2)"}
    for _, curve, _ in ORBIT_CASES:
        if curve.base.n > 1:
            assert max(curve.coeffs) >= curve.base.p


@pytest.mark.parametrize("r,n", [(2, 1), (2, 6), (2, 12), (3, 1), (3, 5),
                                 (3, 10), (4, 3), (5, 4), (9, 2), (13, 3)])
def test_necklaces_are_the_frobenius_orbits(r, n):
    q1 = r ** n - 1
    got = list(zeta_module._necklaces(r, n))
    assert sum(size for _, size in got) == q1
    seen = set()
    for k, size in got:
        # the leader is the least rotation of its n base-r digits ...
        digits = [k // r ** i % r for i in range(n)]
        words = [digits[j:] + digits[:j] for j in range(n)]
        values = {sum(d * r ** i for i, d in enumerate(w)) for w in words}
        assert k == min(values) and len(values) == size
        # ... and those rotations are its orbit under k -> r * k
        orbit = {k * r ** j % q1 for j in range(n)}
        assert orbit == values
        seen |= orbit
    assert seen == set(range(q1))
    assert [k for k, _ in got] == sorted({k for k, _ in got})


def test_count_points_builds_no_zech_table(monkeypatch):
    # the orbit count reads exp and log only; the Horner oracle's first
    # add builds the Zech table
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    curve = artin_schreier_curve(3, 11, 1)
    got = count_points(curve, 5)
    K = gf.field(3, 5)
    assert K._zech is None
    assert got == _count_points_horner(curve, 5)
    assert K._zech is not None


def test_bad_lpoly_shapes_are_typed():
    with pytest.raises(InvariantViolation, match="2g"):
        lpoly(3, 1, (1, 3))
    with pytest.raises(InvariantViolation, match="P\\(0\\)"):
        lpoly(3, 1, (2, 3, 6))
    with pytest.raises(SuperjacError, match="counts"):
        lpoly_from_counts(3, [7], 2)
    with pytest.raises(SuperjacError, match="counts"):
        lpoly_from_counts(3, [])


def _frobenius_orbits(p, M):
    """(u, k) for every orbit of u -> p*u on the nonzero residues mod M:
    its least member u and its size k."""
    seen, out = set(), []
    for u in range(1, M):
        if u in seen:
            continue
        v, k = u, 0
        while True:
            seen.add(v)
            k += 1
            v = v * p % M
            if v == u:
                break
        out.append((u, k))
    return out


def _orbit_product(p, m, a):
    """P(T) = prod over c in F_p^* and Frobenius orbits O of u -> p*u on
    Z/m - 0 of (1 + G_(c,O) T^k_O), expanded in Z[zeta_pm]; kept as the
    oracle for the one-sum trace route of zeta_numerator_charsum.  Every
    G_(c,O) is read off the histogram of GF(p^k_O), and no closed form is
    asked, so the oracle shares nothing with the route but the histogram."""
    ring = cyclo(p * m)
    poly = [ring.from_int(1)]
    for u, k in _frobenius_orbits(p, m):
        for c in range(1, p):
            g = characters._gauss_sum(p, k, m, c, u, a)
            poly.extend([ring.from_int(0)] * k)
            for i in range(len(poly) - k - 1, -1, -1):
                if not poly[i].is_zero():
                    poly[i + k] = poly[i + k] + poly[i] * g
    return tuple(cf.rational_value() for cf in poly)


def _oracle_cases():
    # p and m distinct primes <= 13 whose orbit fields fit 200 000, and
    # composite m over p prime to it
    small = (2, 3, 5, 7, 11, 13)
    for p, m in itertools.permutations(small, 2):
        if p ** primes.multiplicative_order(p, m) <= 200_000:
            yield p, m
    for p, m in [(3, 4), (5, 4), (3, 8), (5, 8), (2, 9), (7, 9)]:
        yield p, m


ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("p,m", ORACLE_CASES,
                         ids=[f"{p}-{m}" for p, m in ORACLE_CASES])
def test_trace_route_matches_orbit_product(p, m):
    for a in range(1, p):
        assert zeta_numerator_charsum(p, m, a).coeffs == \
            _orbit_product(p, m, a), (p, m, a)


def test_oracle_cases_cover_the_shapes():
    # the kind of every order d > 1 of every case, the route orbit_traces
    # takes for it: the oracle checks each of them
    assert len(ORACLE_CASES) == 32
    kinds = collections.Counter(
        getattr(characters.closed_form(p, d), "kind", None)
        for p, m in ORACLE_CASES for d in range(2, m + 1) if m % d == 0)
    assert kinds == {"quadratic": 9, "semiprimitive": 17, "index-2": 4,
                     None: 10}
    # at k = 1, 2 and past 2
    assert {min(primes.multiplicative_order(p, m), 3)
            for p, m in ORACLE_CASES} == {1, 2, 3}
    assert (2, 13) in ORACLE_CASES and (13, 7) in ORACLE_CASES


def test_orbit_product_reads_no_closed_form(monkeypatch):
    # (3, 7) and (5, 13) are semiprimitive and (3, 11) is index 2: the
    # oracle answers with closed_form gone, so it does not share the form
    # that the route reads
    want = {pm: zeta_numerator_charsum(*pm, 1).coeffs
            for pm in [(3, 7), (5, 13), (3, 11)]}

    def gone(*args):
        raise AssertionError("the oracle asked for a closed form")
    monkeypatch.setattr(characters, "closed_form", gone)
    for (p, m), coeffs in want.items():
        assert _orbit_product(p, m, 1) == coeffs, (p, m)


@pytest.mark.parametrize("p,m,spoil,match", [
    # the wrong sign keeps the norm, integral power sums and the middle
    # of the functional equation, but not N_1 on the k = 1 pair (7, 3)
    (7, 3, lambda g: -g, "N_1"),
    (7, 3, lambda g: g * 2, "norm 7\\^1"),
    # times zeta_62 on (2, 31), k = 5: the norm holds, and the trace of G
    # is no longer divisible by k
    (2, 31, lambda g: g * g.ctx.from_zeta_exponents({1: 1}),
     "trace of G\\^1 must be divisible by k = 5"),
], ids=["sign", "norm", "trace"])
def test_trace_route_keeps_its_guards(monkeypatch, p, m, spoil, match):
    # every check is typed, so each holds under python -O too; the order
    # has no closed form, so its sum is built in the ring and spoiled
    assert characters.closed_form(p, m) is None
    real = characters._gauss_sum
    monkeypatch.setattr(characters, "_gauss_sum",
                        lambda *args: spoil(real(*args)))
    with pytest.raises(InvariantViolation, match=match):
        zeta_numerator_charsum(p, m, 1)


def test_trace_route_guard_levels_follow_the_budget(monkeypatch):
    calls = []
    count = zeta_module.count_points

    def recording(curve, n=1, budget=COUNT_BUDGET):
        calls.append((n, budget))
        return count(curve, n, budget)
    monkeypatch.setattr(zeta_module, "count_points", recording)
    zeta_numerator_charsum(5, 2, 1)
    assert calls == [(1, COUNT_BUDGET), (2, COUNT_BUDGET)]
    calls.clear()
    # GF(25) is past a budget of 10: only N_1 is checked, and the
    # character-sum route itself is not refused
    assert artin_schreier_lpoly(5, 2, 1, budget=10)[0] == "character-sum"
    assert calls == [(1, 10)]


def _enumerated_lpoly(p, m, a):
    curve = artin_schreier_curve(p, m, a)
    counts = [count_points(curve, n) for n in range(1, curve.genus + 1)]
    return lpoly_from_counts(p, counts, curve.genus)


def test_orbit_route_matches_enumeration_on_grid():
    # every pair of the criterion-06 grid with q not dividing p - 1 whose
    # enumeration fits its budget; (2, 13) sums over GF(2^12)
    grid = itertools.permutations([2, 3, 5, 7, 11, 13], 2)
    pairs = [(p, q) for p, q in grid
             if (p - 1) % q and p ** ((p - 1) * (q - 1) // 2) <= 200_000]
    assert len(pairs) == 9
    assert max(k for _, k in _frobenius_orbits(2, 13)) == 12
    for p, q in pairs:
        for a in range(1, p):
            assert zeta_numerator_charsum(p, q, a).coeffs == \
                _enumerated_lpoly(p, q, a).coeffs, (p, q, a)


@pytest.mark.parametrize("p,m", [(2, 9), (3, 4), (2, 25), (3, 8), (2, 27)])
def test_orbit_route_matches_enumeration_at_level_two(p, m):
    # orbits of mixed sizes, e.g. m = 8 over GF(3): sizes 2, 2, 1, 2
    assert len({k for _, k in _frobenius_orbits(p, m)}) > 1
    for a in range(1, p):
        assert zeta_numerator_charsum(p, m, a).coeffs == \
            _enumerated_lpoly(p, m, a).coeffs, (p, m, a)


def test_orbit_route_keeps_the_k1_output():
    # sha256 of the canonical JSON {"p/q/a": coefficients} over every
    # p <= 19, q in {2, 3, 5, 7, 11, 13} with q | p - 1 and every a, as
    # computed by the product over nontrivial pairs (1 + G_a T) of
    # lifted Gauss sums, before orbits of size k > 1 existed
    pairs = [(p, q) for p in (3, 5, 7, 11, 13, 17, 19)
             for q in (2, 3, 5, 7, 11, 13) if (p - 1) % q == 0]
    out = {f"{p}/{q}/{a}": list(zeta_numerator_charsum(p, q, a).coeffs)
           for p, q in pairs for a in range(1, p)}
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode())
    assert len(pairs) == 11
    assert digest.hexdigest() == \
        "0e4c983602d804cecbfabb7e5f1000402320498b6feae319dd288d59716cd2f3"


def test_orbit_route_anchor():
    # ord_13(3) = 3: sums over GF(27) where enumerating GF(3^12) is past
    # the budget; the enumeration gives the same |J| at the default budget
    res = torsion_criterion(3, 13, budget=200_000)
    assert res.evidence_route == "character-sum"
    assert res.jacobian_order == 1_054_729
    assert res.has_torsion and res.q_valuation == 2 and res.evidence_ok


def test_route_order():
    assert artin_schreier_lpoly(7, 3, 1)[0] == "character-sum"
    assert artin_schreier_lpoly(2, 5, 1)[0] == "point-count"
    assert artin_schreier_lpoly(3, 13, 1, budget=200_000)[0] == \
        "character-sum"
    # power-law takes character sums only when q | p - 1, so there the
    # enumeration wall refuses
    with pytest.raises(BudgetExceeded, match=r"GF\(3\^12\)"):
        power_law_check(3, 13, budget=200_000)
    # (2, 13) and (2, 47) take their sums in closed form, semiprimitive
    # and index 2, and need no table at all; ord_31(2) = 5 is odd and <2>
    # has index 6, so (2, 31) still needs GF(2^5)
    assert artin_schreier_lpoly(2, 13, 1, budget=10)[0] == "character-sum"
    assert artin_schreier_lpoly(2, 47, 1, budget=10)[0] == "character-sum"
    with pytest.raises(BudgetExceeded, match=r"GF\(2\^5\)"):
        artin_schreier_lpoly(2, 31, 1, budget=10)


@pytest.mark.parametrize("m", [1, 0, -2, 14])
def test_every_route_needs_m_at_least_2_prime_to_p(m):
    for route in (artin_schreier_curve, artin_schreier_lpoly,
                  zeta_numerator_charsum):
        with pytest.raises(SuperjacError, match="m >= 2 prime to p"):
            route(7, m, 1)


def test_refusal_builds_no_table(monkeypatch, fresh_sum_caches):
    # ord_29(7) = 7 is odd, so no closed form, and 7^7 is past the
    # budget: refused before any extension of GF(7) is built
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    res = torsion_criterion(7, 29, budget=200_000)
    assert res.evidence_route is None and res.jacobian_order is None
    assert not [key for key in gf._CTX_CACHE if key[0] == 7 and key[1] >= 2]


# 4194319 is the least prime past the table cap 2^22, and 3 divides
# 4194319 - 1: the Gauss sums of order 3 would read GF(4194319) itself
BIG = 4194319


@pytest.fixture
def no_work(monkeypatch, fresh_sum_caches):
    """A fresh field cache, and a failure at the first ring or trace
    table built: each costs time and memory of the order of p."""
    def built(*args):
        pytest.fail(f"built {args} before refusing")
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    monkeypatch.setattr(characters, "cyclo", built)
    monkeypatch.setattr(gf.FieldCtx, "trace_table", built)


@pytest.mark.parametrize("ask,p,raises", [
    (lambda: zeta_numerator_charsum(BIG, 3, 1), BIG, True),
    (lambda: counts_by_charsum(BIG, 3, 1, 1), BIG, True),
    (lambda: artin_schreier_lpoly(BIG, 3, 1), BIG, True),
    (lambda: torsion_criterion(BIG, 3), BIG, False),
    # 401 is past a budget of 10: m | p - 1 obeys the budget too
    (lambda: torsion_criterion(401, 2, budget=10), 401, False),
], ids=["charsum", "counts", "lpoly", "torsion", "torsion-budget"])
def test_character_sums_refuse_before_work(no_work, ask, p, raises):
    if raises:
        with pytest.raises(BudgetExceeded, match=f"GF\\({p}\\^1\\)"):
            ask()
    else:
        assert ask().evidence_route is None
    assert not [key for key in gf._CTX_CACHE if key[0] == p]


def test_orbit_sum_refuses_before_the_ring(no_work):
    # the histogram's log tables refuse GF(p) itself; the context they
    # were asked of holds no table
    with pytest.raises(BudgetExceeded, match=f"GF\\({BIG}\\)"):
        characters.orbit_traces(BIG, 3, 1, 1)
    assert [key for key in gf._CTX_CACHE if key[0] == BIG] == [(BIG, 1)]
    assert gf._CTX_CACHE[BIG, 1]._exp is None


def test_power_law_refuses_before_counting(monkeypatch, fresh_sum_caches):
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    with pytest.raises(BudgetExceeded):
        power_law_check(3, 13, budget=200_000)
    assert not [key for key in gf._CTX_CACHE if key[0] == 3]


@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                max_size=12), st.integers(min_value=2, max_value=50))
@settings(max_examples=100, deadline=None)
def test_newton_round_trip(tail, q):
    P = LPolynomial(q, len(tail) // 2, (1, *tail))
    assert tuple(_from_power_sums(P.power_sums(len(tail)))) == P.coeffs


def test_non_integral_counts_are_typed_under_python_O():
    # N_1 = 3, N_2 = 4 over GF(2) give 2 c_2 = -1: no integer L-polynomial
    code = ("from superjac.errors import InvariantViolation\n"
            "from superjac.zeta import lpoly_from_counts\n"
            "try:\n"
            "    lpoly_from_counts(2, [3, 4], 2)\n"
            "except InvariantViolation as exc:\n"
            "    print(str(exc))\n")
    src = str(Path(superjac.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert "Newton's identities must stay integral" in proc.stdout


def test_jacobian_order_invariants_are_typed():
    # P(1) = 0 slipped past lpoly(): the order check still raises, also
    # under python -O
    with pytest.raises(InvariantViolation, match="positive"):
        LPolynomial(2, 1, (1, -3, 2)).jacobian_order(1)


def _small_orders():
    """(p, d, k) for p <= 23, d prime to p and p^k <= 2^16, k = ord_d(p):
    d | p^s + 1 <= 2^8 + 1 for a semiprimitive (p, d), and an index-2
    d = 2k + 1 is at most 33."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for d in range(2, 2 ** 8 + 2):
            if d % p:
                k = primes.multiplicative_order(p, d)
                if p ** k <= 2 ** 16:
                    yield p, d, k


def _kind(p, d, k):
    """The closed form that (p, d) should have, by its definition."""
    if d == 2:
        return "quadratic"
    if characters.semiprimitive(p, d) is not None:
        return "semiprimitive"
    if primes.is_prime(d) and d % 4 == 3 and d > 3 and 2 * k == d - 1:
        return "index-2"
    return None


CLOSED_FORM_PAIRS = [(p, d) for p, d, k in _small_orders() if _kind(p, d, k)]


def test_closed_form_pairs_cover_the_kinds():
    kinds = {}
    for p, d, k in _small_orders():
        cf = characters.closed_form(p, d)
        assert (cf and (cf.kind, cf.k)) == (_kind(p, d, k) and
                                            (_kind(p, d, k), k)), (p, d)
        if cf:
            kinds.setdefault(cf.kind, []).append((p, d))
    assert {kind: len(pairs) for kind, pairs in kinds.items()} == \
        {"quadratic": 8, "semiprimitive": 68, "index-2": 6}
    assert kinds["index-2"] == [(2, 7), (2, 23), (3, 11), (5, 11), (11, 7),
                                (23, 7)]


def _ramanujan(N, e):
    """Tr(zeta_N^e) = mu(N/g) phi(N) / phi(N/g), g = gcd(e, N)."""
    r = N // math.gcd(e, N)
    fac = primes.factorize(r)
    mu = 0 if any(v > 1 for v in fac.values()) else (-1) ** len(fac)
    return mu * primes.totient(N) // primes.totient(r)


@pytest.mark.parametrize("p,d", CLOSED_FORM_PAIRS,
                         ids=[f"{p}-{d}" for p, d in CLOSED_FORM_PAIRS])
def test_closed_traces_match_the_histogram(p, d, fresh_sum_caches):
    # Tr(G_d^j) from integers against the traces of the powers of the sum
    # read off the histogram of GF(p^k), for every a and every j that
    # zeta_numerator_charsum asks.  G_a^j = G_0^j zeta_N^(-j k a d), so
    # its trace is sum_i c_i Tr(zeta_N^(i - j k a d)) over the
    # coefficients c_i of G_0^j
    cf = characters.closed_form(p, d)
    n = (p - 1) * primes.totient(d) // cf.k
    h = (n + 1) // 2
    G = characters._gauss_sum(p, cf.k, d, 1, 1, 0)
    assert G * G.ctx.from_zeta_exponents({d * (-cf.k) % (p * d): 1}) == \
        characters._gauss_sum(p, cf.k, d, 1, 1, 1)
    N = G.ctx.N
    traces = {a: [] for a in range(p)}
    g = G
    for j in range(1, h + 1):
        for a in range(p):
            shift = -j * cf.k * a * d
            traces[a].append(sum(c * _ramanujan(N, i + shift)
                                 for i, c in enumerate(g.coeffs) if c))
        g = g * G
    assert traces[0][0] == G.trace()
    for a in range(p):
        assert characters.orbit_traces(p, d, a, h) == traces[a], a


@pytest.mark.parametrize("p,m", [(3, 2), (13, 2), (5, 3), (3, 14), (5, 19),
                                 (2, 47), (7, 31)])
def test_closed_forms_build_no_ring_or_histogram(no_work, p, m):
    # (3, 14) has orders 2, 7 and 14: quadratic and twice semiprimitive;
    # the only fields built are GF(p) and GF(p^2), for N_1 and N_2
    assert all(characters.closed_form(p, d) for d in range(2, m + 1)
               if m % d == 0)
    zeta_numerator_charsum(p, m, 1)
    assert {n for _, n in gf._CTX_CACHE} <= {1, 2}


def test_reach_on_the_primes_below_40(fresh_sum_caches):
    # every ordered pair of distinct primes below 40 at the default budget:
    # only (7, 37) and (23, 29) are refused, whose orders 37 and 29 have
    # no closed form and fields GF(7^9) and GF(23^7) past the table cap;
    # torsion_criterion raises on any pair where the iff fails
    below_40 = [p for p in range(2, 40) if primes.is_prime(p)]
    refused = []
    for p, q in itertools.permutations(below_40, 2):
        res = torsion_criterion(p, q)
        if res.evidence_route is None:
            refused.append((p, q))
        else:
            assert res.evidence_ok, (p, q)
    assert refused == [(7, 37), (23, 29)]
