"""Class group and Riemann-Roch space oracles.

Anchor groups, cross-checked against zeta orders:
  y^3 = x^2 + x + 1 / GF(2):   Pic^0 = Z/3,  over GF(4) (Z/3)^2
  y^5 = x^2 + x + 1 / GF(2):   Pic^0 = Z/5,  over GF(16) (Z/5)^4
"""

import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superjac
from superjac import curves, gf, picard, primes, snf, zeta
from superjac.errors import (InvariantViolation, PrecisionExhausted,
                             RequiresD1)
from superjac.curves import (Divisor, FunctionRep, InfPlace, RamPlace,
                             base_change, closed_place, local_expansion,
                             make_curve, places_above, principal_divisor,
                             s_mul, valuation)
from superjac.picard import (conjecture_check, effective_divisors, ell,
                             enumerate_places, function_space, is_principal,
                             picard_group)


@pytest.fixture(scope="module")
def cubic():
    return make_curve(3, [1, 1, 1], gf.field(2))


@pytest.fixture(scope="module")
def quintic():
    return make_curve(5, [1, 1, 1], gf.field(2))


def test_ell_baseline(cubic):
    assert ell(cubic, Divisor()) == 1
    inf = cubic.inf_place()
    # deg > 2g - 2 pins the dimension exactly
    for k in range(2, 7):
        assert ell(cubic, Divisor.single(inf, k)) == k


def test_function_space_basis_valuations(cubic):
    inf = cubic.inf_place()
    sp = function_space(cubic, Divisor.single(inf, 5))
    assert sp.dim == 5
    for k in range(sp.dim):
        f = sp.function(k)
        assert valuation(sp.curve, f, sp.curve.inf_place()) >= -5
        D = principal_divisor(sp.curve, f)
        aff = [(P, c) for P, c in D.items() if not isinstance(P, InfPlace)]
        assert all(c > 0 for _, c in aff)


def test_enumerate_places(cubic, quintic):
    pls = enumerate_places(cubic, 2)
    assert [(P.label(), P.degree) for P in pls] == [
        ("P1(0,1)", 1), ("P1(1,1)", 1), ("inf", 1),
        ("P2(0,2)", 2), ("P2(1,2)", 2), ("P2(2,0)", 2)]
    degs = [P.degree for P in enumerate_places(quintic, 2)]
    assert degs == [1, 1, 1, 2]


def test_effective_divisors(quintic):
    pls = enumerate_places(quintic, 2)
    effs = effective_divisors(pls, 2)
    assert len(effs) == 7
    assert all(E.degree() == 2 and E.is_effective() for E in effs)
    assert sorted(ell(quintic, E) for E in effs) == [1, 1, 1, 1, 2, 2, 2]


def test_is_principal_anchors(cubic):
    f = FunctionRep(cubic, [(), (1,), ()])  # the function y
    D = principal_divisor(cubic, f)
    assert is_principal(cubic, D)

    inf = cubic.inf_place()
    P = enumerate_places(cubic, 1)[0]
    D1 = Divisor([(P, 1), (inf, -1)])
    assert not is_principal(cubic, D1)
    assert is_principal(cubic, D1.scale(3))

    # nonzero degree is never principal
    assert not is_principal(cubic, Divisor.single(P, 1))


def test_is_principal_pole_support(cubic):
    # poles at an affine place force u-denominator conditions
    P0, P1 = enumerate_places(cubic, 1)[:2]
    D = Divisor([(P0, 3), (P1, -3)])
    assert is_principal(cubic, D)
    assert not is_principal(cubic, Divisor([(P0, 1), (P1, -1)]))


def test_no_rational_point_gives_no_single_pole(quintic):
    # a function with one simple pole would make the curve rational
    inf = quintic.inf_place()
    P = enumerate_places(quintic, 1)[0]
    assert not is_principal(quintic, Divisor([(P, 1), (inf, -1)]))
    assert is_principal(quintic, Divisor([(P, 1), (inf, -1)]).scale(5))


def test_special_divisor_on_split_curve():
    ctx = gf.field(11)
    c = make_curve(2, gf.pfrom_roots(ctx, [0, 1, 2, 3, 4]), ctx)
    E = -Divisor.single(c.inf_place(), 1)
    for i in range(1, c.r):
        E = E + Divisor.single(c.ram_place(i), c.m - 1)
    assert E.degree() == 2 * c.genus - 1
    assert ell(c, E) == c.genus


def test_picard_group_anchors(cubic, quintic):
    G = picard_group(cubic)
    assert (G.order, G.invariant_factors, G.special_classes) == (3, (3,), 0)
    assert G.lpoly_coeffs == (1, 0, 2)

    G = picard_group(quintic)
    assert (G.order, G.invariant_factors, G.special_classes) == (5, (5,), 1)
    assert G.lpoly_coeffs == (1, 0, 0, 0, 4)


def test_picard_group_extension(cubic):
    G = picard_group(base_change(cubic, gf.field(2, 2)))
    assert G.order == 9
    assert G.invariant_factors == (3, 3)


def test_picard_group_large_extension(quintic):
    G = picard_group(base_change(quintic, gf.field(2, 4)))
    assert G.order == 625
    assert G.invariant_factors == (5, 5, 5, 5)
    assert G.lpoly_coeffs == (1, 16, 96, 256, 256)
    assert G.special_classes == 1


def test_conjecture_consistent(cubic, quintic):
    rep = conjecture_check(cubic)
    assert rep.verdict == "consistent"
    assert (rep.k, rep.base_factors, rep.ext_factors) == (2, (3,), (3, 3))

    rep = conjecture_check(quintic)
    assert rep.verdict == "consistent"
    assert rep.ext_factors == (5, 5, 5, 5)
    assert rep.expected_factors == (5, 5, 5, 5)
    assert rep.to_dict()["verdict"] == "consistent"


def test_requires_single_infinite_place():
    ctx = gf.field(11)
    c = make_curve(2, gf.pfrom_roots(ctx, [0, 1, 2, 3, 4, 5]), ctx)
    with pytest.raises(RequiresD1):
        enumerate_places(c, 1)
    with pytest.raises(RequiresD1):
        picard_group(c)


def test_picard_group_with_a_rational_root_of_unsplit_F():
    # x^5 + 2x + 1 over GF(5) has the single rational root 3; its
    # ramification place must be built the same way by the fiber scan
    # and by the fibers of function_space
    c = make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(5))
    assert not c.splits and c.roots == (3,)
    G = picard_group(c)
    assert G.lpoly_coeffs == (1, 0, 0, 0, 25)
    # 26 = P(1) is squarefree, so the group is cyclic
    assert (G.order, G.invariant_factors) == (26, (26,))


def test_picard_group_past_the_old_splitting_field():
    # y^3 = x^5 + 2x + 1 over GF(5) has places of degrees 3 and 4, whose
    # common field GF(5^12) is past the table cap; each residue field
    # is at most GF(5^6)
    c = make_curve(3, [1, 2, 0, 0, 0, 1], gf.field(5))
    G = picard_group(c)
    assert G.lpoly_coeffs == (1, 0, 0, 0, -50, 0, 0, 0, 625)
    assert G.order == sum(G.lpoly_coeffs) == 576
    assert G.invariant_factors == (24, 24)


def test_picard_invariants_are_typed_under_python_O():
    # a wrong exponent list must fail the product check with asserts
    # stripped: here the 3-part of |J| = 3 is reported as (Z/3)^2
    code = ("from superjac import gf, picard\n"
            "from superjac.curves import make_curve\n"
            "from superjac.errors import InvariantViolation\n"
            "picard._prime_exponents = lambda curve, reps, ln, a: [1, 1]\n"
            "try:\n"
            "    picard.picard_group(make_curve(3, [1, 1, 1], gf.field(2)))\n"
            "except InvariantViolation as exc:\n"
            "    print(str(exc))\n")
    src = str(Path(superjac.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "invariant factors (3, 3) multiply to 9, not 3" in proc.stdout


# ---------------------------------------------------------------------------
# kernel scans against the full scan


def _prime_exponents_by_full_scan(curve, reps, ln, a):
    """Every class not yet killed tested at every l^i, each kernel size
    read off the complete count: the scan before the early stop, kept as
    the oracle for picard._prime_exponents."""
    lpart = ln ** a
    killed = [False] * len(reps)
    kernel_logs = []
    i = 1
    while True:
        le = ln ** i
        for idx, D in enumerate(reps):
            if not killed[idx] and is_principal(curve, D.scale(le)):
                killed[idx] = True
        ki = sum(killed)
        v, t = 0, ki
        while t % ln == 0:
            t //= ln
            v += 1
        assert t == 1, f"kernel of {ln}^{i} has size {ki}"
        kernel_logs.append(v)
        if ki == lpart:
            break
        i += 1
        assert i <= a, f"{ln}^{a} fails to kill the {ln}-part"
    counts = [v - w for v, w in zip(kernel_logs, [0] + kernel_logs)]
    assert counts == sorted(counts, reverse=True)
    exps = []
    for i0, c in enumerate(counts):
        nxt = counts[i0 + 1] if i0 + 1 < len(counts) else 0
        exps.extend([i0 + 1] * (c - nxt))
    return exps


SCAN_CURVES = {
    # picard_oracle's curves
    "gf4_441": lambda: make_curve(3, [1, 1, 0, 0, 1], gf.field(2, 2)),
    "gf9_145": lambda: make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(3, 2)),
    "as_2_5_1_gf16": lambda: base_change(zeta.artin_schreier_curve(2, 5, 1),
                                         gf.field(2, 4)),
    # test_picard_group_past_the_old_splitting_field's (24, 24)
    "gf5_576": lambda: make_curve(3, [1, 2, 0, 0, 0, 1], gf.field(5)),
    # a cyclic 3-part, Z/9: the scan at 3 stops from above
    "gf5_9": lambda: make_curve(2, [1, 1, 0, 1], gf.field(5)),
}

# per prime l of |J|: the principality tests its scans run, the l-rank
# and the multiplicity of T = 1 in P(T) mod l that bounds it (l != p on
# every curve here)
SCANS = {
    # 4 classes killed by 3 leave 9 as the only size, 8 killed by 7
    # leave 49
    "gf4_441": {3: (346, 2, 2), 7: (73, 2, 2)},
    "gf9_145": {5: (0, 1, 2), 29: (0, 1, 1)},
    # 126 classes killed by 5 leave 625
    "as_2_5_1_gf16": {5: (126, 4, 4)},
    "gf5_576": {2: (1124, 2, 8), 3: (472, 2, 2)},
    # the scan at 3 runs until 9 classes are out of reach and a second
    # class is found killed; the size at 9 follows from a growth of 1
    "gf5_9": {3: (4, 1, 1)},
}


def _recorded_scans(monkeypatch, curve):
    """picard_group(curve) with every _prime_exponents call recorded as
    (reps, l, a, exponents, is_principal calls inside the scan)."""
    tests = [0]

    def counting(c, D):
        tests[0] += 1
        return is_principal(c, D)

    scan = picard._prime_exponents
    scans = []

    def recording(c, reps, ln, a):
        before = tests[0]
        exps = scan(c, reps, ln, a)
        scans.append((reps, ln, a, exps, tests[0] - before))
        return exps

    monkeypatch.setattr(picard, "is_principal", counting)
    monkeypatch.setattr(picard, "_prime_exponents", recording)
    return picard_group(curve), scans


@pytest.mark.parametrize("name", sorted(SCAN_CURVES))
def test_scans_match_the_full_scan(monkeypatch, name):
    curve = SCAN_CURVES[name]()
    G, scans = _recorded_scans(monkeypatch, curve)
    fac = primes.factorize(G.order)
    assert [(ln, a) for _, ln, a, _, _ in scans] == sorted(fac.items())
    got = {}
    for reps, ln, a, exps, tests in scans:
        assert len(reps) == G.order
        assert exps == _prime_exponents_by_full_scan(curve, reps, ln, a)
        # an l-part of order l is Z/l by Lagrange alone
        if a == 1:
            assert tests == 0
        assert ln != curve.base.p
        got[ln] = (tests, len(exps),
                   picard._root_one_multiplicity(G.lpoly_coeffs, ln))
    assert got == SCANS[name]


_REFUTED_SCAN = (
    "from superjac import gf, picard\n"
    "from superjac.curves import make_curve\n"
    "from superjac.errors import InvariantViolation\n"
    "scan, principal = picard._prime_exponents, picard.is_principal\n"
    "def refuted(curve, reps, ln, a):\n"
    "    picard.is_principal = lambda curve, D: False\n"
    "    return scan(curve, reps, ln, a)\n"
    "picard._prime_exponents = refuted\n"
    "for m, f, n in ((3, [1, 1, 1], 2), (5, [1, 1, 1], 4),\n"
    "                (3, [1, 1, 0, 0, 1], 2)):\n"
    "    picard.is_principal = principal\n"
    "    try:\n"
    "        G = picard.picard_group(make_curve(m, f, gf.field(2, n)))\n"
    "        print('reported', G.invariant_factors)\n"
    "    except InvariantViolation as exc:\n"
    "        print('refused', exc)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python_O"])
def test_a_scan_that_finds_no_kernel_is_refused(flags):
    # is_principal answers False on every class once the classes are
    # enumerated: no scan may read a kernel size off the untested count
    src = str(Path(superjac.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *flags, "-c", _REFUTED_SCAN],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("refused kernel of ") for line in lines), lines


def test_rank_past_the_lpolynomial_bound_is_refused(monkeypatch):
    # Z/9 reported as (Z/3)^2 has the right order, but P(T) = 1 + 3T +
    # 5T^2 has T = 1 as a simple root mod 3
    monkeypatch.setattr(picard, "_prime_exponents",
                        lambda curve, reps, ln, a: [1, 1])
    with pytest.raises(InvariantViolation, match="3-rank 2 exceeds 1"):
        picard_group(SCAN_CURVES["gf5_9"]())


@pytest.mark.parametrize("coeffs, ln, mult", [
    ([1, 0, 2], 3, 1),                  # 1 + 2T^2 = (1 - T)(1 + T) mod 3
    ([1, 16, 96, 256, 256], 5, 4),      # (1 - T)^4 mod 5
    ([1, -1, -1, 1], 3, 2),             # (1 - T)^2 (1 + T)
    ([1, -1, -1, 1], 2, 3),             # (1 + T)^3 mod 2
    ([1, 1], 3, 0),
    ([4, 1, 5], 5, 1),                  # top coefficient 0 mod 5
    ([1, 3, 5], 3, 1),                  # P(T) of the Z/9 curve over GF(5)
    ([1], 7, 0),
])
def test_root_one_multiplicity(coeffs, ln, mult):
    assert picard._root_one_multiplicity(coeffs, ln) == mult


def test_root_one_multiplicity_of_zero_is_refused():
    with pytest.raises(InvariantViolation):
        picard._root_one_multiplicity([5, 10, 0], 5)


@given(st.sampled_from([2, 3, 5, 7, 29]),
       st.lists(st.integers(-50, 50), min_size=1, max_size=6),
       st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_root_one_multiplicity_of_built_products(ln, f, k):
    # f * (T - 1)^k, with f(1) != 0 mod l, has T = 1 as a root of
    # multiplicity exactly k
    f = [f[0] + (1 if sum(f) % ln == 0 else 0)] + f[1:]
    g = f
    for _ in range(k):
        g = [b - c for b, c in zip([0] + g, g + [0])]
    assert picard._root_one_multiplicity(g, ln) == k


def _diagonal_factors(per_prime):
    diag = [ln ** e for ln, exps in sorted(per_prime.items()) for e in exps]
    return snf.cokernel_factors([[d if i == j else 0 for j in range(len(diag))]
                                 for i, d in enumerate(diag)], len(diag))


@given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]),
                       st.lists(st.integers(1, 5), min_size=1, max_size=6),
                       max_size=4))
@settings(max_examples=200, deadline=None)
def test_smith_factors_of_prime_powers(per_prime):
    # the invariant factors picard_group reports: a divisibility chain
    # whose product is the order and whose l-adic valuations give back
    # each l-part's partition
    factors = _diagonal_factors(per_prime)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert math.prod(factors) == math.prod(
        ln ** e for ln, exps in per_prime.items() for e in exps)
    for ln, exps in per_prime.items():
        vals = []
        for d in factors:
            v = 0
            while d % ln == 0:
                d //= ln
                v += 1
            vals.append(v)
        assert sorted(v for v in vals if v) == sorted(exps)


def _effective_divisors_by_recursion(places, deg):
    """The recursive enumeration, kept as the order oracle."""
    pl = sorted(places, key=lambda P: (P.degree, P.sort_key()))
    out = []
    acc = []

    def rec(i, remaining):
        if remaining == 0:
            out.append(Divisor(acc))
            return
        if i == len(pl):
            return
        dp = pl[i].degree
        for k in range(remaining // dp, 0, -1):
            acc.append((pl[i], k))
            rec(i + 1, remaining - k * dp)
            acc.pop()
        rec(i + 1, remaining)

    rec(0, deg)
    return out


@pytest.mark.parametrize("curve", [
    lambda: make_curve(3, [1, 1, 0, 0, 1], gf.field(2, 2)),
    lambda: make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(3, 2)),
    lambda: make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(7)),
], ids=["gf4", "gf9", "gf7"])
def test_effective_divisors_match_the_recursion(curve):
    c = curve()
    pls = enumerate_places(c, c.genus)
    for deg in range(c.genus + 1):
        got = effective_divisors(pls, deg)
        want = _effective_divisors_by_recursion(pls, deg)
        assert [E.items() for E in got] == [E.items() for E in want]


def test_effective_divisors_past_the_recursion_limit():
    # over 1 000 rational places: the recursion went one frame deeper
    # per place
    c = make_curve(2, [2, 1, 0, 1], gf.field(1009))
    pls = enumerate_places(c, 1)
    assert len(pls) > sys.getrecursionlimit()
    effs = effective_divisors(pls, 1)
    assert [E.items() for E in effs] == [[(P, 1)] for P in pls]


def test_class_group_keeps_one_expansion_per_place(monkeypatch):
    # every expansion picard_group asks for, through function_space or
    # the valuation re-check, lands in one cache entry per place, holding
    # the longest precision asked there
    c = make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(5))
    asked = {}
    real = curves.local_expansion

    def recording(curve, place, prec):
        if curve is c:
            asked[place] = max(prec, asked.get(place, 0))
        return real(curve, place, prec)

    monkeypatch.setattr(curves, "local_expansion", recording)
    monkeypatch.setattr(picard, "local_expansion", recording)
    assert picard_group(c).invariant_factors == (26,)
    assert len(asked) > 1 and len({P.degree for P in asked}) > 1
    assert set(c._exp_cache) == set(asked)
    assert {P: le.prec for P, le in c._exp_cache.items()} == asked


def test_precision_refusal_comes_before_any_expansion(monkeypatch):
    # a pole of order 1 030 at R1 asks for a condition past the cap
    ctx = gf.field(11)
    c = make_curve(2, gf.pfrom_roots(ctx, [0, 1, 2, 3, 4]), ctx)
    expanded = []
    real = picard.local_expansion

    def recording(curve, place, prec=None):
        expanded.append((place, prec))
        return real(curve, place, prec)

    monkeypatch.setattr(picard, "local_expansion", recording)
    D = Divisor([(c.ram_place(1), 1030), (c.inf_place(), -1030)])
    with pytest.raises(PrecisionExhausted,
                       match="R1 .* PRECISION_CAP = 1024"):
        is_principal(c, D)
    assert expanded == []
    monkeypatch.setattr(curves, "PRECISION_CAP", 16)
    with pytest.raises(PrecisionExhausted, match="PRECISION_CAP = 16"):
        function_space(c, -Divisor([(c.ram_place(1), 20),
                                    (c.inf_place(), -20)]))
    assert expanded == []


# ---------------------------------------------------------------------------
# condition columns against the product loop


def _columns_by_products(K, le, monomials):
    """x^i y^j mod tau^t as one series product per monomial, kept as
    oracle for the linear-coordinate pass."""
    t = le.prec
    max_i = max(i for _, i in monomials)
    xs_pow = [[0] * t for _ in range(max_i + 1)]
    xs_pow[0][0] = 1
    for i in range(1, max_i + 1):
        xs_pow[i] = s_mul(K, xs_pow[i - 1], le.x_ser, t)
    ys_pow = [[0] * t for _ in range(le.curve.m)]
    ys_pow[0][0] = 1
    for j in range(1, le.curve.m):
        ys_pow[j] = s_mul(K, ys_pow[j - 1], le.y_ser, t)
    return [s_mul(K, xs_pow[i], ys_pow[j], t) for j, i in monomials]


def _multiple_of_place_class(curve, labels, k):
    """k * (sum of the named places - deg * inf)."""
    inf = curve.inf_place()
    pls = {P.label(): P for P in enumerate_places(curve, 1)}
    D = Divisor([(pls[lab], 1) for lab in labels]
                + [(inf, -len(labels))])
    return D.scale(k)


def _gf9():
    return make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(3, 2))


def _gf5():
    return make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(5))


def _cubic4():
    return make_curve(3, [1, 1, 1], gf.field(2, 2))


COLUMN_CASES = {
    # criterion 08's anchors
    "cubic2": lambda: picard_group(make_curve(3, [1, 1, 1], gf.field(2))),
    "hyper3": lambda: picard_group(zeta.artin_schreier_curve(3, 2, 1)),
    "cubic4": lambda: picard_group(_cubic4()),
    "conj_2_3": lambda: conjecture_check(zeta.artin_schreier_curve(2, 3, 1)),
    "conj_3_2": lambda: conjecture_check(zeta.artin_schreier_curve(3, 2, 1)),
    "conj_2_5": lambda: conjecture_check(zeta.artin_schreier_curve(2, 5, 1)),
    # |J| = 145 = 5 * 29 on y^2 = x^5 + 2x + 1 over GF(9): a 58 x 57 system
    "gf9_29D": lambda: is_principal(_gf9(), _multiple_of_place_class(
        _gf9(), ["P1(0,1)", "P1(1,1)"], 29)),
    # long conditions at ramified and unramified places, prime and
    # extension K
    "gf5_group": lambda: picard_group(_gf5()),
    "gf5_29R": lambda: is_principal(_gf5(), _multiple_of_place_class(
        _gf5(), ["R1"], 29)),
    "gf5_29P": lambda: is_principal(_gf5(), _multiple_of_place_class(
        _gf5(), ["P1(0,1)"], 29)),
    "cubic4_29R": lambda: is_principal(_cubic4(), _multiple_of_place_class(
        _cubic4(), ["R1"], 29)),
}


def test_condition_columns_match_products(monkeypatch):
    build = picard._condition_columns
    blocks = []

    def record(K, le, tops):
        cols = build(K, le, tops)
        blocks.append((K, le, tuple(tops), cols))
        return cols

    monkeypatch.setattr(picard, "_condition_columns", record)
    kinds = set()
    shape = None
    for name, run in COLUMN_CASES.items():
        blocks.clear()
        run()
        assert blocks, name
        for K, le, tops, cols in blocks:
            monomials = [(j, i) for j, top in enumerate(tops)
                         for i in range(top + 1)]
            assert cols == _columns_by_products(K, le, monomials), \
                (name, le.place, le.prec, tops)
            # columns live in the residue field of their own place
            assert K is le.ctx
            assert K.n == le.curve.base.n * le.place.degree
            ramified = isinstance(le.place, RamPlace) or \
                le.place.rep()[1] == 0
            assert ramified == (le.y_ser[0] == 0)
            if le.prec == 1 or le.prec >= 29:
                kinds.add((K.n == 1, ramified, le.prec >= 29))
        if name == "gf9_29D":
            shape = (sum(le.prec for _, le, _, _ in blocks),
                     len(blocks[0][3]))
    # every combination of prime/extension residue field,
    # ramified/unramified place and t = 1 / t >= 29 is exercised
    assert kinds == {(a, b, c) for a in (False, True) for b in (False, True)
                     for c in (False, True)}
    assert shape == (58, 57)


# ---------------------------------------------------------------------------
# the splitting-field solve as oracle for the residue-field rows


def _lift_point(ext, K, xK, yK):
    """The degree-one place of the extended curve through a K-point."""
    if yK == 0 and xK in ext.roots:
        return ext.ram_place_at(xK)
    return closed_place(K, 1, [(xK, yK)])


def _splitting_field_space(curve, bound):
    """(K, RREF basis of L(bound) over K): every condition point moved
    into one common field K, of degree the lcm of the degrees of the
    places involved, through base-compatible embeddings."""
    base = curve.base
    m, r = curve.m, curve.r
    c_inf = 0
    aff = {}
    for place, c in bound.items():
        if isinstance(place, InfPlace):
            c_inf = c
        else:
            aff[place] = c

    orbits = {}
    for place in aff:
        if isinstance(place, RamPlace):
            xctx, x0 = base, place.alpha
        else:
            xctx = gf.field(place.base_p, place.base_n * place.b)
            x0 = place.rep()[0]
        fiber = tuple(places_above(curve, xctx, x0))
        ob = orbits.setdefault(fiber, {"bx": len(xctx.frob_orbit(
            x0, base.n)), "supp": []})
        ob["supp"].append(place)

    ext_deg = 1
    for fiber, ob in orbits.items():
        e = 0
        for P in fiber:
            c = aff.get(P, 0)
            if c > 0:
                e = max(e, -(-c // picard._place_mult(curve, P)))
        ob["e"] = e
        for P in fiber:
            if e * picard._place_mult(curve, P) - aff.get(P, 0) > 0:
                ext_deg = math.lcm(ext_deg, P.degree)
        for P in ob["supp"]:
            ext_deg = math.lcm(ext_deg, P.degree)

    K = gf.field(base.p, base.n * ext_deg)
    ext = curve if ext_deg == 1 else base_change(curve, K)
    emb_base = gf.embedding(base, K)
    u_roots = []
    cond = []
    for ob in orbits.values():
        affK = {}
        seed = None
        for P in ob["supp"]:
            if isinstance(P, RamPlace):
                pts, emb = [(P.alpha, 0)], emb_base
            else:
                pts = P.pts
                emb = gf.compatible_embedding(
                    base, gf.field(P.base_p, P.base_n * P.b), K)
            for px, py in pts:
                affK[_lift_point(ext, K, emb.apply(px), emb.apply(py))] = \
                    aff[P]
            if seed is None:
                seed = emb.apply(pts[0][0])
        xs = K.frob_orbit(seed, base.n)
        assert len(xs) == ob["bx"]
        e = ob["e"]
        if e > 0:
            u_roots.extend(xk for xk in sorted(xs) for _ in range(e))
            fiberK = [q for xk in xs for q in places_above(ext, K, xk)]
            assert all(q.degree == 1 for q in fiberK)
            assert set(affK) <= set(fiberK)
            for q in fiberK:
                t = e * picard._place_mult(ext, q) - affK.get(q, 0)
                if t > 0:
                    cond.append((q, t))
        else:
            cond.extend((q, -c) for q, c in affK.items() if c < 0)

    tops = [(m * len(u_roots) + c_inf - r * j) // m for j in range(m)
            if m * len(u_roots) + c_inf - r * j >= 0]
    ncols = sum(t + 1 for t in tops)
    rows = []
    if ncols:
        for q, t in cond:
            rows.extend(zip(*picard._condition_columns(
                K, local_expansion(ext, q, t), tops)))
    return K, gf.nullspace(K, rows, ncols)


def _oracle_mismatches(curve, bounds, zero_divisors):
    """Bounds whose basis, mapped into K, differs from the oracle's, and
    degree-zero divisors whose principality verdict differs."""
    bad = []
    for B in bounds:
        K, want = _splitting_field_space(curve, B)
        emb = gf.embedding(curve.base, K)
        got = [tuple(emb.apply(v) for v in vec)
               for vec in function_space(curve, B).vectors]
        if got != want:
            bad.append(("basis", B))
    for D in zero_divisors:
        assert D.degree() == 0 and not D.is_zero()
        _, want = _splitting_field_space(curve, -D)
        if is_principal(curve, D) != (len(want) == 1):
            bad.append(("principal", D))
    return bad


ORACLE_CURVES = {
    # criterion 08's anchors and the curves of their conjecture checks
    "cubic2": lambda: make_curve(3, [1, 1, 1], gf.field(2)),
    "hyper3": lambda: zeta.artin_schreier_curve(3, 2, 1),
    "hyper3a2": lambda: zeta.artin_schreier_curve(3, 2, 2),
    "cubic4": _cubic4,
    "quintic2": lambda: make_curve(5, [1, 1, 1], gf.field(2)),
    "quintic16": lambda: make_curve(5, [1, 1, 1], gf.field(2, 4)),
    # GF(4), GF(9) and prime-field curves with places of mixed degrees
    "quartic4": lambda: make_curve(3, [1, 1, 0, 0, 1], gf.field(2, 2)),
    "gf9": _gf9,
    "gf5": _gf5,
}


# the curves with places of degrees 2 and 3 and GF(q^6) under 2^16
MIXED_DEGREES = {"cubic2", "hyper3a2", "quintic2", "quartic4", "gf5"}


@pytest.mark.parametrize("name", list(ORACLE_CURVES))
def test_residue_field_rows_match_the_splitting_field(name):
    curve = ORACLE_CURVES[name]()
    g = curve.genus
    inf = curve.inf_place()
    effs = effective_divisors(enumerate_places(curve, g), g)
    step = -(-len(effs) // 24)
    sample = effs[::step]
    bounds = []
    for E in sample:
        bounds += [E, E - Divisor.single(inf, g + 1),
                   E - Divisor.single(inf, g - 1)]
    zero = [E - R for E, R in zip(sample, sample[1:])]
    ln = min(primes.factorize(picard_group(curve).order), default=2)
    zero += [(E - Divisor.single(inf, g)).scale(ln) for E in sample[:6]
             if E != Divisor.single(inf, g)]
    # places of degrees 2 and 3 together need K of degree 6 over the base
    # where each alone needs less
    by_deg = {}
    for P in enumerate_places(curve, 3):
        by_deg.setdefault(P.degree, P)
    mixed = 2 in by_deg and 3 in by_deg and curve.base.order ** 6 <= 1 << 16
    if mixed:
        P2, P3 = by_deg[2], by_deg[3]
        for a, b in ((1, 1), (1, -1), (-1, 1), (2, -1), (-2, 3)):
            both = Divisor([(P2, a), (P3, b)])
            bounds += [both + Divisor.single(inf, k) for k in (-2, 0, 3)]
            zero.append(both - Divisor.single(inf, both.degree()))
    assert mixed == (name in MIXED_DEGREES)
    assert _oracle_mismatches(curve, bounds, zero) == []


# ---------------------------------------------------------------------------
# plain and special divisors through L(K - E)


def _split11():
    ctx = gf.field(11)
    return make_curve(2, gf.pfrom_roots(ctx, [0, 1, 2, 3, 4]), ctx)


SPLIT_CURVES = dict(ORACLE_CURVES, **{
    # the curve of test_special_divisor_on_split_curve
    "split11": _split11,
    "hyper9": lambda: base_change(zeta.artin_schreier_curve(3, 2, 1),
                                  gf.field(3, 2)),
    "y3_gf5": lambda: make_curve(3, [1, 2, 0, 0, 0, 1], gf.field(5)),
})


@pytest.mark.parametrize("name", list(SPLIT_CURVES))
def test_canonical_split_matches_ell(name):
    # K = (2g - 2) inf is canonical, so at deg E = g Riemann-Roch reads
    # l(E) = 1 + l(K - E): the g-column test picard_group runs and the
    # full basis of L(E) split the effective divisors the same way
    curve = SPLIT_CURVES[name]()
    g = curve.genus
    canon = Divisor.single(curve.inf_place(), 2 * g - 2)
    special = 0
    for E in effective_divisors(enumerate_places(curve, g), g):
        plain = ell(curve, canon - E) == 0
        assert plain == (ell(curve, E) == 1), E
        special += not plain
    if name in ("quintic2", "split11"):
        assert special > 0


# ---------------------------------------------------------------------------
# special classes keyed by |K - E| against the pairwise merge


def _special_reps_by_principality(curve):
    """The first special divisor of each class, in enumeration order,
    found by testing each special E against every class found so far:
    the merge before the |K - E| key, kept as the oracle for
    picard._divisor_classes."""
    g = curve.genus
    canon = Divisor.single(curve.inf_place(), 2 * g - 2)
    reps = []
    for E in effective_divisors(enumerate_places(curve, g), g):
        if ell(curve, canon - E) == 0:
            continue
        for R in reps:
            if is_principal(curve, E - R):
                break
        else:
            reps.append(E)
    return reps


def _x9_gf3():
    # g = 4, |J| = 100: 49 special divisors in 10 classes, 13 of them
    # with l(E) = 3, whose |K - E| has q + 1 = 4 members
    return make_curve(2, [0, 1, 0, 0, 0, 0, 0, 0, 0, 1], gf.field(3))


MERGE_CURVES = dict(SPLIT_CURVES, x9_gf3=_x9_gf3)


@pytest.mark.parametrize("name", list(MERGE_CURVES))
def test_special_classes_match_the_pairwise_merge(name):
    curve = MERGE_CURVES[name]()
    g = curve.genus
    plain, reps = picard._divisor_classes(curve, enumerate_places(curve, g))
    assert reps == _special_reps_by_principality(curve)
    G = picard_group(curve)
    assert G.special_classes == len(reps)
    assert len(plain) + len(reps) == G.order


def test_linear_systems_of_the_genus_four_curve(monkeypatch):
    system = picard._linear_system
    seen = []

    def recording(c, E, sp, small):
        key = system(c, E, sp, small)
        seen.append((E, 1 + sp.dim, key))
        return key

    monkeypatch.setattr(picard, "_linear_system", recording)
    curve = _x9_gf3()
    G = picard_group(curve)
    assert (G.order, G.invariant_factors, G.special_classes) == \
        (100, (10, 10), 10)
    assert Counter(k for _, k, _ in seen) == {2: 36, 3: 13}
    assert len({key for _, _, key in seen}) == 10
    canon = Divisor.single(curve.inf_place(), 2 * curve.genus - 2)
    for E, k, key in seen:
        # one member per line of L(K - E), each with E + F ~ K
        assert len(key) == (3 ** (k - 1) - 1) // 2
        for F in key:
            assert F.is_effective() and F.degree() == curve.genus - 2
            assert is_principal(curve, E + F - canon)


def test_special_merge_runs_no_principality_test(monkeypatch):
    # y^3 = x^4 + x + 1 over GF(4): 65 special divisors in 13 classes,
    # which the pairwise merge sorted with 442 principality tests
    scan = picard._prime_exponents
    calls = Counter()
    in_scan = [False]

    def counting(c, D):
        calls[in_scan[0]] += 1
        return is_principal(c, D)

    def scanning(c, reps, ln, a):
        in_scan[0] = True
        try:
            return scan(c, reps, ln, a)
        finally:
            in_scan[0] = False

    monkeypatch.setattr(picard, "is_principal", counting)
    monkeypatch.setattr(picard, "_prime_exponents", scanning)
    G = picard_group(SCAN_CURVES["gf4_441"]())
    assert G.special_classes == 13
    assert calls[False] == 0
    assert calls[True] == sum(t for t, _, _ in SCANS["gf4_441"].values())


def test_lines_are_one_per_projective_point():
    for ctx, dim in ((gf.field(2), 3), (gf.field(3), 2), (gf.field(2, 2), 2),
                     (gf.field(5), 1)):
        q = ctx.order
        lines = list(picard._lines(ctx, dim))
        assert len(lines) == (q ** dim - 1) // (q - 1)
        # no two proportional: scaling by the units gives every nonzero
        # vector exactly once
        scaled = {tuple(ctx.mul(c, v) for v in line)
                  for line in lines for c in ctx.units()}
        assert len(scaled) == q ** dim - 1
        assert all(next(v for v in line if v) == 1 for line in lines)


def test_a_member_missing_a_zero_is_refused(monkeypatch):
    # the member of |K - 3 inf| is inf itself (g = 3): dropping the part
    # at infinity leaves degree 0
    residual = picard._residual

    def no_infinity(curve, E, h, small):
        F = residual(curve, E, h, small)
        return Divisor([(P, c) for P, c in F.items()
                        if not isinstance(P, InfPlace)])

    monkeypatch.setattr(picard, "_residual", no_infinity)
    with pytest.raises(InvariantViolation,
                       match="is not effective of degree g - 2 = 1"):
        picard_group(SCAN_CURVES["gf4_441"]())


def test_a_member_with_a_pole_is_refused(monkeypatch):
    # a member moved by inf - P, P an affine place of degree 1: the
    # degree stays g - 2, but P is a pole wherever the member missed it
    residual = picard._residual

    def moved(curve, E, h, small):
        return residual(curve, E, h, small) + Divisor(
            [(curve.inf_place(), 1), (small[0][0], -1)])

    monkeypatch.setattr(picard, "_residual", moved)
    with pytest.raises(InvariantViolation,
                       match="is not effective of degree g - 2 = 1"):
        picard_group(SCAN_CURVES["gf4_441"]())


def test_a_repeated_line_is_refused(monkeypatch):
    lines = picard._lines
    monkeypatch.setattr(picard, "_lines", lambda ctx, dim: [
        line for line in lines(ctx, dim) for _ in range(2)])
    with pytest.raises(InvariantViolation,
                       match="2 lines of L\\(K - E\\) give 1 divisors"):
        picard_group(SCAN_CURVES["gf4_441"]())


def _merged_keys(monkeypatch, pick):
    """_linear_system with the key of the second class that pick(k)
    accepts replaced by the key of the first."""
    system = picard._linear_system
    keys = []

    def merging(c, E, sp, small):
        key = system(c, E, sp, small)
        if pick(1 + sp.dim) and key not in keys:
            keys.append(key)
        return keys[0] if len(keys) > 1 and key == keys[1] else key

    monkeypatch.setattr(picard, "_linear_system", merging)


def test_a_key_that_merges_two_classes_is_refused(monkeypatch):
    # two classes of l(E) = 2 over GF(4) hold 5 divisors each
    _merged_keys(monkeypatch, lambda k: k == 2)
    with pytest.raises(InvariantViolation, match="holds 10 divisors with "
                       "l\\(E\\) in \\[2\\], expected 5"):
        picard_group(SCAN_CURVES["gf4_441"]())


def test_a_class_of_two_dimensions_is_refused(monkeypatch):
    # the second divisor of the class with l(E) = 3 and the second of a
    # class with l(E) = 2 trade keys: both groups keep their sizes, 13
    # and 4, and only l(E) tells them apart
    curve = _x9_gf3()
    system = picard._linear_system
    firsts = {}
    seconds = {}

    def recording(c, E, sp, small):
        key = system(c, E, sp, small)
        if key in firsts:
            seconds.setdefault(1 + sp.dim, (E, key))
        firsts.setdefault(key, E)
        return key

    monkeypatch.setattr(picard, "_linear_system", recording)
    picard._divisor_classes(curve, enumerate_places(curve, curve.genus))
    (a, key_a), (b, key_b) = seconds[2], seconds[3]
    swapped = {a: key_b, b: key_a}
    monkeypatch.setattr(picard, "_linear_system", lambda c, E, sp, small:
                        swapped.get(E) or system(c, E, sp, small))
    with pytest.raises(InvariantViolation,
                       match="l\\(E\\) in \\[2, 3\\]"):
        picard_group(curve)


def test_a_key_that_splits_a_class_is_refused(monkeypatch):
    system = picard._linear_system
    keys = set()
    split = []

    def splitting(c, E, sp, small):
        key = system(c, E, sp, small)
        if key in keys and not split:
            # the second divisor of the first class that has one
            split.append(E)
            return ("split", key)
        keys.add(key)
        return key

    monkeypatch.setattr(picard, "_linear_system", splitting)
    with pytest.raises(InvariantViolation, match="holds 4 divisors with "
                       "l\\(E\\) in \\[2\\], expected 5"):
        picard_group(SCAN_CURVES["gf4_441"]())
    assert len(split) == 1


# ---------------------------------------------------------------------------
# one condition block per (place, t, tops) per curve


def _fresh_block(curve, place, t, tops):
    le = local_expansion(curve, place, t)
    rows = picard._base_rows(curve.base, le.ctx,
                             picard._condition_columns(le.ctx, le, tops))
    return [v for row in rows for v in row]


@pytest.mark.parametrize("make, run", [
    (_gf5, lambda c: picard_group(c)),
    (_gf5, lambda c: is_principal(c, _multiple_of_place_class(
        c, ["P1(0,1)"], 29))),
    (_gf9, lambda c: is_principal(c, _multiple_of_place_class(
        c, ["P1(0,1)", "P1(1,1)"], 29))),
    (_cubic4, lambda c: picard_group(c)),
    (_cubic4, lambda c: is_principal(c, _multiple_of_place_class(
        c, ["R1"], 29))),
    # a base of more than 256 elements keeps 4-byte entries
    (lambda: make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(263)),
     lambda c: function_space(c, Divisor(
         [(P, -k) for P, k in zip(enumerate_places(c, 1)[::2], (3, 2))]
         + [(c.inf_place(), 8)]))),
], ids=["gf5_group", "gf5_29P", "gf9_29D", "cubic4_group", "cubic4_29R",
        "gf263"])
def test_cached_blocks_match_fresh_ones(make, run):
    c = make()
    run(c)
    assert c._blocks
    for (P, t, tops), blk in c._blocks.items():
        # bytes wherever the base fits in one byte, 4-byte entries past it
        if c.base.order <= 256:
            assert type(blk) is bytes
        else:
            assert blk.itemsize == 4
        assert list(blk) == _fresh_block(c, P, t, list(tops)), (P, t, tops)
        ncols = sum(top + 1 for top in tops)
        assert len(blk) == t * P.degree * ncols


def test_curves_with_equal_coefficients_share_no_blocks():
    first, second = _gf5(), _gf5()
    assert picard_group(first).invariant_factors == (26,)
    assert first._blocks and second._blocks == {}
    assert picard_group(second).invariant_factors == (26,)
    assert set(first._blocks) == set(second._blocks)
    # CPython keeps one bytes object per value of length 0 or 1, so only
    # longer blocks tell a shared block from an equal one
    assert first._blocks is not second._blocks
    assert all(first._blocks[k] is not blk
               for k, blk in second._blocks.items() if len(blk) > 1)
    # a curve made after the others are gone starts with no blocks, even
    # where it takes an address one of them had
    del first, second
    third = _gf5()
    assert third._blocks == {}
    assert picard_group(third).invariant_factors == (26,)


def test_second_class_group_builds_no_block(monkeypatch):
    build = picard._condition_columns
    built = []

    def record(ctx, le, tops):
        built.append((le.curve, le.place, le.prec, tuple(tops)))
        return build(ctx, le, tops)

    monkeypatch.setattr(picard, "_condition_columns", record)
    c = _gf9()
    G = picard_group(c)
    # at most one build per (curve, place, t, tops)
    assert built and len(set(built)) == len(built) == len(c._blocks)
    assert all(curve is c for curve, *_ in built)
    n = len(built)
    assert picard_group(c) == G
    assert len(built) == n
