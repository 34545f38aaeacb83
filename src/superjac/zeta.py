"""Zeta numerators, point counts and torsion tests.

L-polynomials follow the convention P(T) = prod(1 - alpha_i T) with
integer coefficients, P(0) = 1, deg P = 2g, and the functional equation
c_(2g-i) = q^(g-i) c_i.  Point counts are projective; Jacobian orders
come from P by exact power-sum transforms, never floating point.

Two independent routes give P for the family y^m = x^p - x + a over
GF(p), m prime to p: direct enumeration of GF(p^n) for n = 1..g, and
Weil's Frobenius-orbit product of Gauss sums

    P(T) = prod over c in F_p^* and orbits O of u -> p*u on Z/m - 0
           of (1 + G_(c,O) T^k_O),

with G_(c,O) a Gauss sum over GF(p^k_O), k_O the orbit size.  The
enumeration costs p^g, the character sums p^k with k the largest orbit
size (k = 1 when m | p - 1).  ``artin_schreier_lpoly`` is the one entry
point that picks between them, in this order:

1. character sums when m | p - 1;
2. enumeration when p^g <= budget;
3. character sums over the orbit fields when every p^k_O <= budget;
4. otherwise BudgetExceeded.

The budget is also clipped to the field-table cap, and the route and
any refusal are decided from p, m and the budget alone, before any
field table is built.  Keeping both routes is the point; they
cross-check each other in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf, primes
from .characters import frobenius_orbits, orbit_gauss_sum
from .curves import CurveSpec, make_curve
from .cyclo import cyclo
from .errors import (
    BudgetExceeded,
    CharacterUnavailable,
    EvidenceFailed,
    InvariantViolation,
    RequiresD1,
    SuperjacError,
    UnsupportedBase,
)

COUNT_BUDGET = gf.MAX_TABLE_CARD


@dataclass(frozen=True)
class LPolynomial:
    """Weil numerator with exact integer coefficients."""

    q: int
    genus: int
    coeffs: tuple[int, ...]

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def power_sums(self, upto: int) -> list[int]:
        """s_n = sum of alpha_i^n for n = 1..upto."""
        c = self.coeffs
        deg = len(c) - 1
        s: list[int] = []
        for n in range(1, upto + 1):
            acc = n * c[n] if n <= deg else 0
            for k in range(1, n):
                if n - k <= deg:
                    acc += s[k - 1] * c[n - k]
            s.append(-acc)
        return s

    def point_count(self, n: int = 1) -> int:
        s = self.power_sums(n)
        return self.q ** n + 1 - s[n - 1]

    def jacobian_order(self, n: int = 1) -> int:
        """|J| over the degree-n extension: prod(1 - alpha_i^n)."""
        if n < 1:
            raise SuperjacError(f"extension degree must be at least 1, "
                                f"got {n}")
        deg = len(self.coeffs) - 1
        s = self.power_sums(n * deg)
        order = sum(_from_power_sums(s[n - 1::n]))
        if order <= 0:
            raise InvariantViolation("Jacobian order must be positive")
        return order


def _from_power_sums(s) -> list[int]:
    """[1, c_1, ..., c_k] of prod(1 - alpha_i T) from the power sums
    s_j = sum alpha_i^j, j = 1..k, by Newton's identities
    j c_j = -sum_(i <= j) s_i c_(j - i)."""
    c = [1]
    for j in range(1, len(s) + 1):
        acc = sum(s[i - 1] * c[j - i] for i in range(1, j + 1))
        if acc % j:
            raise InvariantViolation("Newton's identities must stay integral")
        c.append(-acc // j)
    return c


def lpoly(q: int, genus: int, coeffs) -> LPolynomial:
    cs = tuple(int(c) for c in coeffs)
    if len(cs) != 2 * genus + 1:
        raise InvariantViolation(f"numerator degree must be 2g = "
                                 f"{2 * genus}, got {len(cs) - 1}")
    if cs[0] != 1:
        raise InvariantViolation("P(0) must be 1")
    for i in range(genus + 1):
        want = q ** (genus - i) * cs[i]
        if cs[2 * genus - i] != want:
            raise InvariantViolation(
                f"functional equation fails at coefficient {2 * genus - i}")
    P = LPolynomial(q, genus, cs)
    if P.evaluate(1) <= 0:
        raise InvariantViolation("P(1) must be a positive integer")
    return P


def lpoly_from_counts(q: int, counts, genus: int | None = None) -> LPolynomial:
    """Reconstruct P from projective counts N_1..N_k (k >= genus).

    Coefficients beyond the middle come from the functional equation;
    any counts past the genus are then consistency-checked against the
    reconstructed polynomial.
    """
    counts = list(counts)
    if genus is None:
        genus = len(counts)
    if genus < 1 or len(counts) < genus:
        raise SuperjacError(f"need at least g = {genus} >= 1 counts, got "
                            f"{len(counts)}")
    c = _from_power_sums([q ** n + 1 - counts[n - 1]
                          for n in range(1, genus + 1)])
    for i in range(genus - 1, -1, -1):
        c.append(q ** (genus - i) * c[i])
    P = lpoly(q, genus, c)
    for n in range(genus + 1, len(counts) + 1):
        if P.point_count(n) != counts[n - 1]:
            raise InvariantViolation(
                f"count at level {n} disagrees with the reconstruction")
    return P


# ---------------------------------------------------------------------------
# counting


def count_points(curve: CurveSpec, n: int = 1,
                 budget: int = COUNT_BUDGET) -> int:
    """Projective point count over the degree-n extension, by enumeration.

    One rational point at infinity, one point over each root of F, and
    t = gcd(m, order - 1) points over each x where F(x) is a nonzero
    t-th power, that is, where its log is divisible by t.  The loop
    stays in the log domain: at x = g^k the term c_i x^i of F has log
    log(c_i) + i*k, and the terms are summed by Zech additions.  Logs
    are reduced only to index the Zech table, as t divides order - 1.
    """
    base = curve.base
    if base is None:
        raise UnsupportedBase("point counts need a finite base field")
    if curve.d != 1:
        raise RequiresD1("naive counts assume one rational point at infinity")
    order = base.order ** n
    if order > budget:
        raise BudgetExceeded(f"enumeration over order {order} exceeds budget")
    ext = gf.field(base.p, base.n * n)
    q1, _, log, zech, _ = ext.log_tables()
    cs = curve.ext_coeffs(ext)
    t = math.gcd(curve.m, q1)
    (l0, i0), *rest = [(log[c], i) for i, c in enumerate(cs) if c]
    c0 = cs[0]
    # the point at infinity, then x = 0
    cnt = 1 + (1 if c0 == 0 else t if log[c0] % t == 0 else 0)
    for k in range(q1):
        acc = l0 + i0 * k
        for lc, i in rest:
            e = lc + i * k
            if acc < 0:
                acc = e
            else:
                z = zech[(e - acc) % q1]
                acc = acc + z if z >= 0 else -1
        if acc < 0:
            cnt += 1
        elif acc % t == 0:
            cnt += t
    return cnt


def artin_schreier_curve(p: int, m: int, a: int) -> CurveSpec:
    """y^m = x^p - x + a over GF(p); always separable since F' = -1."""
    if not (primes.is_prime(p) and m >= 2 and m % p != 0):
        raise SuperjacError(f"y^m = x^p - x + a needs p prime and m >= 2 "
                            f"prime to p, got p = {p}, m = {m}")
    coeffs = [a % p, p - 1] + [0] * (p - 2) + [1]
    return make_curve(m, coeffs, gf.field(p))


def _require_a(p: int, a: int) -> None:
    if a % p == 0:
        raise SuperjacError(f"a must be nonzero mod p = {p}, got {a}")


def counts_by_charsum(p: int, m: int, a: int, upto: int) -> list[int]:
    """N_1..N_upto for y^m = x^p - x + a, read off the character-sum
    numerator P(T) of ``zeta_numerator_charsum``.

    Requires m | p - 1, where every Gauss sum lives over GF(p).
    """
    _require_a(p, a)
    if (p - 1) % m != 0:
        raise CharacterUnavailable(
            f"multiplicative characters of order {m} need {m} | {p - 1}")
    P = zeta_numerator_charsum(p, m, a)
    return [P.point_count(n) for n in range(1, upto + 1)]


def zeta_numerator_charsum(p: int, m: int, a: int) -> LPolynomial:
    """P(T) = prod over c in F_p^* and Frobenius orbits O of u -> p*u
    on Z/m - 0 of (1 + G_(c,O) T^k_O), expanded exactly in Z[zeta_pm].

    Any m prime to p; k_O = 1 for every orbit when m | p - 1.  Every
    coefficient must come out a rational integer.
    """
    _require_a(p, a)
    ring = cyclo(p * m)
    poly = [ring.from_int(1)]
    for u, k in frobenius_orbits(p, m):
        for c in range(1, p):
            g = orbit_gauss_sum(p, m, c, u, a)
            poly.extend([ring.from_int(0)] * k)
            for i in range(len(poly) - k - 1, -1, -1):
                if not poly[i].is_zero():
                    poly[i + k] = poly[i + k] + poly[i] * g
    coeffs = []
    for cf in poly:
        if not cf.is_rational():
            raise InvariantViolation("numerator coefficient must be rational")
        coeffs.append(cf.rational_value())
    genus = (p - 1) * (m - 1) // 2
    return lpoly(p, genus, coeffs)


def artin_schreier_lpoly(p: int, m: int, a: int, budget: int = COUNT_BUDGET,
                         orbit_route: bool = True
                         ) -> tuple[str, LPolynomial]:
    """P(T) of y^m = x^p - x + a over GF(p), and the route that gave it.

    The route ("character-sum" or "point-count") and any refusal follow
    the order in the module docstring and are decided before any field
    table is built.  With orbit_route False, character sums are used
    only when m | p - 1.
    """
    if m % p == 0:
        raise UnsupportedBase(f"characteristic {p} divides m = {m}")
    if (p - 1) % m == 0:
        return "character-sum", zeta_numerator_charsum(p, m, a)
    g = (p - 1) * (m - 1) // 2
    limit = min(budget, gf.MAX_TABLE_CARD)
    top = _max_degree(p, limit)
    if g <= top:
        curve = artin_schreier_curve(p, m, a)
        counts = [count_points(curve, n, budget) for n in range(1, g + 1)]
        return "point-count", lpoly_from_counts(p, counts, g)
    need = f"point counts need GF({p}^{g})"
    if orbit_route:
        k = max(k for _, k in frobenius_orbits(p, m))
        if k <= top:
            return "character-sum", zeta_numerator_charsum(p, m, a)
        need += f", character sums GF({p}^{k})"
    raise BudgetExceeded(
        f"y^{m} = x^{p} - x + a over GF({p}): {need}; the budget is "
        f"{budget} and the table cap {gf.MAX_TABLE_CARD}")


def _max_degree(p: int, limit: int) -> int:
    """Largest n with p^n <= limit."""
    n, size = 0, p
    while size <= limit:
        n, size = n + 1, size * p
    return n


# ---------------------------------------------------------------------------
# torsion tests


@dataclass(frozen=True)
class TorsionResult:
    p: int
    q: int
    level: int
    k: int
    has_torsion: bool
    evidence_route: str | None
    jacobian_order: int | None
    q_valuation: int | None
    evidence_ok: bool | None

    def to_dict(self) -> dict:
        return {
            "p": self.p, "q": self.q, "level": self.level, "ord": self.k,
            "has_torsion": self.has_torsion,
            "evidence_route": self.evidence_route,
            "jacobian_order": self.jacobian_order,
            "q_valuation": self.q_valuation,
            "evidence_ok": self.evidence_ok,
        }


def torsion_criterion(p: int, q: int, level: int = 1, a: int = 1,
                      budget: int = COUNT_BUDGET) -> TorsionResult:
    """Does J(y^(q^level) = x^p - x + a) have q-torsion over GF(p)?

    The criterion is the same for every level: q divides |J(GF(p))|
    exactly when p divides k = ord of p modulo q.  Evidence |J(GF(p))|
    comes from ``artin_schreier_lpoly`` with m = q^level: character
    sums when m | p - 1, else enumeration when p^g <= budget, else
    character sums over the Frobenius-orbit fields GF(p^k_O) when every
    p^k_O <= budget (both clipped to the table cap).  Beyond that the
    evidence route is None, decided before any table is built.  The
    divisibility is an iff, so evidence that contradicts the criterion
    raises EvidenceFailed.
    """
    if not (primes.is_prime(p) and primes.is_prime(q) and p != q):
        raise SuperjacError(f"the torsion criterion needs distinct primes "
                            f"p and q, got p = {p}, q = {q}")
    if level < 1:
        raise SuperjacError(f"the level must be at least 1, got {level}")
    _require_a(p, a)
    k = primes.multiplicative_order(p, q)
    has = (k % p == 0)
    route = None
    jorder = None
    qval = None
    ok = None
    try:
        route, P = artin_schreier_lpoly(p, q ** level, a, budget)
        jorder = P.evaluate(1)
    except BudgetExceeded:
        pass
    if jorder is not None:
        qval = 0
        t = jorder
        while t % q == 0:
            qval += 1
            t //= q
        ok = (qval >= 1) == has
        if not ok:
            raise EvidenceFailed(
                f"criterion says {has} but v_{q}(|J|) = {qval}")
    return TorsionResult(p, q, level, k, has, route, jorder, qval, ok)


@dataclass(frozen=True)
class PowerLawReport:
    p: int
    q: int
    a: int | None
    k: int
    base_order: int
    checked_divisors: tuple[int, ...]
    trivial_levels: tuple[int, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p, "q": self.q, "a": self.a, "k": self.k,
            "jacobian_order_base": self.base_order,
            "power_law_at": list(self.checked_divisors),
            "trivial_counts_at": list(self.trivial_levels),
            "ok": self.ok,
        }


def _power_law_report(P: LPolynomial, p: int, q: int,
                      a: int | None) -> PowerLawReport:
    """|J(GF(p^k'))| = |J(GF(p))|^k' at every divisor k' of k, and
    N_n = p^n + 1 at every n <= max(2g, k) not divisible by k.  All
    checks are identities of integers on the exact L-polynomial."""
    k = primes.multiplicative_order(p, q)
    base = P.evaluate(1)
    divs = tuple(sorted(d for d in range(1, k + 1) if k % d == 0))
    for d in divs:
        if P.jacobian_order(d) != base ** d:
            raise InvariantViolation(
                f"power law fails at extension degree {d}")
    top = max(2 * P.genus, k)
    trivial = tuple(n for n in range(1, top + 1) if n % k != 0)
    for n in trivial:
        if P.point_count(n) != p ** n + 1:
            raise InvariantViolation(
                f"count at level {n} should be trivial when {k} does not "
                f"divide {n}")
    return PowerLawReport(p, q, a, k, base, divs, trivial, True)


def power_law_check(p: int, q: int, a: int = 1,
                    budget: int = COUNT_BUDGET) -> PowerLawReport:
    """Power-law and trivial-count checks for y^q = x^p - x + a.

    Orbit character sums build P as a polynomial in T^k, which obeys
    the power law by construction, so they are not used here."""
    _require_a(p, a)
    if not primes.is_prime(q):
        raise SuperjacError(f"q must be prime, got {q}")
    _, P = artin_schreier_lpoly(p, q, a, budget, orbit_route=False)
    return _power_law_report(P, p, q, a)

