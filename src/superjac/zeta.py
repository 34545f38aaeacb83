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
factors whose characters have one order d | m are Galois conjugates of
one sum G_d over GF(p^k_d), k_d = ord_d(p), so P is built from the
traces of the powers of one G_d per divisor d > 1 (see
``zeta_numerator_charsum``); the product itself is the test oracle.  A
semiprimitive (p, d) gives G_d in Stickelberger's closed form, with no
field table (``characters.orbit_gauss_sum``).  The enumeration needs
the tables of GF(p^g) and about p^n / n evaluations of F at level n,
one per Frobenius orbit (see ``count_points``); the character sums
cost p^k, k the largest k_d of a d that is not semiprimitive, and
nothing else (k = 1 when m | p - 1).
``artin_schreier_lpoly`` is the one entry point that picks between
them, by one rule: enumeration when m does not divide p - 1 and p^g
fits the budget, else character sums, which ``zeta_numerator_charsum``
alone sizes: past the budget it raises BudgetExceeded, naming GF(p^g)
and GF(p^k).  Every size test is ``gf.fits``, which clips the budget to
the field-table cap, and the route and any refusal are decided from p,
m and the budget alone, before any ring, histogram or field table is
built.

Every character-sum P is checked against N_1 and N_2 by enumeration
over GF(p) and GF(p^2), at each level within the budget.  Those counts
test only the factors with k_d <= 2: a factor in T^k_d, k_d > 2, leaves
N_1 and N_2 trivial.  Past that, a P rests on the Gauss-sum theorems,
the typed checks inside ``zeta_numerator_charsum`` (norms, trace
divisibility, integral Newton steps, the functional equation at the
middle coefficient), the torsion iff of ``torsion_criterion``, and the
tests, which compare it with the orbit product and with enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf, primes
from .characters import orbit_gauss_sum, semiprimitive
from .curves import CurveSpec, make_curve
from .cyclo import _zmul
from .errors import (
    BudgetExceeded,
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
    """Projective point count over the degree-n extension, by enumeration
    of one x per Frobenius orbit.

    GF(base^n) past the budget or the table cap is refused first, by
    ``gf.require_fits``.  One rational point at infinity, one point over
    each root of F, and t = gcd(m, order - 1) points over each x where
    F(x) is a nonzero t-th power, that is, where its log is divisible
    by t.  When t = 1, y -> y^m permutes the field, so the count is
    order + 1 for every F and no table is built.

    Otherwise F has its coefficients in the base GF(r), so
    F(x^r) = F(x)^r, and F(x)^r is a root, or a nonzero t-th power,
    exactly when F(x) is.  Every x of one orbit of x -> x^r therefore
    adds the same, and F is evaluated once per orbit, weighted by the
    orbit's size.  At x = g^k the map is k -> r*k mod (r^n - 1), which
    rotates the n base-r digits of k, so the unit orbits are the
    necklaces of ``_necklaces``, about r^n / n of them: the count costs
    that many evaluations of F plus the exp/log chain of the field.
    Each evaluation stays in the log domain: the term c_i x^i of F has log
    log(c_i) + i*k, and the terms are summed through 1 + g^j read off
    exp and log, so no Zech table is built.  Logs are reduced only to
    index exp, as t divides order - 1.
    """
    base = curve.base
    if base is None:
        raise UnsupportedBase("point counts need a finite base field")
    if curve.d != 1:
        raise RequiresD1("naive counts assume one rational point at infinity")
    gf.require_fits(base.p, base.n * n, budget)
    order = base.order ** n
    t = math.gcd(curve.m, order - 1)
    if t == 1:
        return order + 1
    ext = gf.field(base.p, base.n * n)
    q1, exp, log = ext.exp_log()
    p = ext.p
    pm1 = p - 1
    cs = curve.ext_coeffs(ext)
    (l0, i0), *rest = [(log[c], i) for i, c in enumerate(cs) if c]
    c0 = cs[0]
    # the point at infinity, then x = 0
    cnt = 1 + (1 if c0 == 0 else t if log[c0] % t == 0 else 0)
    for k, size in _necklaces(base.order, n):
        acc = l0 + i0 * k
        for lc, i in rest:
            e = lc + i * k
            if acc < 0:
                acc = e
            else:
                # log(1 + g^j) as the Zech table would hold it: adding 1
                # steps the constant digit, and log[0] = -1 marks zero
                v = exp[(e - acc) % q1]
                z = log[v + 1 if v % p != pm1 else v - pm1]
                acc = acc + z if z >= 0 else -1
        if acc < 0:
            cnt += size
        elif acc % t == 0:
            cnt += t * size
    return cnt


def _necklaces(r: int, n: int):
    """(k, size) for every orbit of k -> r*k on Z/(r^n - 1): k the
    orbit's least member, size its number of members.

    Multiplying by r rotates the n base-r digits of k, so an orbit is a
    necklace, k its least rotation read most significant digit first,
    and size its period.  The Fredricksen-Kessler-Maiorana algorithm
    visits every prenecklace w in increasing order, and w is a necklace
    of period m when its longest Lyndon prefix has a length m dividing
    n.  The last word, all digits r - 1, is r^n - 1 = 0 a second time and
    is left out, so the sizes sum to r^n - 1.
    """
    last = r ** n - 1
    w = [-1]            # digits, most significant first
    vals = [0, -1]      # vals[i] is the value of w[:i]
    while True:
        w[-1] += 1
        vals[-1] += 1
        m = len(w)
        while len(w) < n:
            d = w[-m]
            w.append(d)
            vals.append(vals[-1] * r + d)
        k = vals[-1]
        if k == last:
            return
        if n % m == 0:
            yield k, m
        while w[-1] == r - 1:
            w.pop()
            vals.pop()


def artin_schreier_curve(p: int, m: int, a: int) -> CurveSpec:
    """y^m = x^p - x + a over GF(p); always separable since F' = -1."""
    _require_curve(p, m)
    coeffs = [a % p, p - 1] + [0] * (p - 2) + [1]
    return make_curve(m, coeffs, gf.field(p))


def _require_curve(p: int, m: int) -> None:
    if not (primes.is_prime(p) and m >= 2 and m % p != 0):
        raise SuperjacError(f"y^m = x^p - x + a needs p prime and m >= 2 "
                            f"prime to p, got p = {p}, m = {m}")


def _require_a(p: int, a: int) -> None:
    if a % p == 0:
        raise SuperjacError(f"a must be nonzero mod p = {p}, got {a}")


def counts_by_charsum(p: int, m: int, a: int, upto: int,
                      budget: int = COUNT_BUDGET) -> list[int]:
    """N_1..N_upto for y^m = x^p - x + a, read off the character-sum
    numerator P(T) of ``zeta_numerator_charsum``, for any m >= 2 prime
    to p.
    """
    P = zeta_numerator_charsum(p, m, a, budget)
    return [P.point_count(n) for n in range(1, upto + 1)]


def _character_degrees(p: int, m: int) -> list[tuple[int, int]]:
    """(d, k_d) for every divisor d > 1 of m: the orders of the
    nontrivial characters mod m and k_d = ord_d(p), the degree of the
    field GF(p^k_d) that the Gauss sums of order d live on."""
    return [(d, primes.multiplicative_order(p, d))
            for d in range(2, m + 1) if m % d == 0]


def zeta_numerator_charsum(p: int, m: int, a: int,
                           budget: int = COUNT_BUDGET) -> LPolynomial:
    """P(T) = prod over divisors d > 1 of m of R_d(T^k_d), k_d = ord_d(p),
    for any m >= 2 prime to p, from one Gauss sum per d.

    The roots of R_d(X) = prod (1 + beta X) are the Galois conjugates of
    G_d = ``orbit_gauss_sum(p, d, 1, 1, a)`` in Z[zeta_pd], each taken k_d
    times, so their power sums are S_j = Tr(G_d^j) / k_d.  Newton's
    identities give the coefficients e_1..e_h of R_d, h = ceil(n/2) of
    its n = (p - 1) phi(d) / k_d, and R_d's functional equation
    e_(n-j) = p^(k_d n/2 - k_d j) e_j gives the rest.

    The one sizing of the route: GF(p^k), k the largest k_d of a d that
    is not semiprimitive, past the budget or the table cap is refused
    before any ring, histogram or field table is built.

    Checks, all typed: G_d conj(G_d) = p^k_d, each trace divisible by
    k_d, Newton's identities integral, the functional equation at the
    middle coefficient, and N_1, N_2 of P against ``count_points`` at
    each level whose field fits the budget and the table cap.  N_1 and
    N_2 test the factors with k_d <= 2; a factor with k_d > 2 changes
    neither, so there the check confirms only the trivial counts.
    """
    _require_curve(p, m)
    _require_a(p, a)
    degrees = _character_degrees(p, m)
    k = max((k for d, k in degrees if semiprimitive(p, d) is None),
            default=0)
    if not gf.fits(p, k, budget):
        # names both routes' fields: it says why each was skipped
        raise BudgetExceeded(
            f"y^{m} = x^{p} - x + a over GF({p}): point counts need "
            f"GF({p}^{(p - 1) * (m - 1) // 2}), character sums GF({p}^{k}); "
            f"the limit is {gf.limit_name(budget)}")
    coeffs = [1]
    for d, k in degrees:
        G = orbit_gauss_sum(p, d, 1, 1, a)
        if G.times_conjugate() != p ** k:
            raise InvariantViolation(f"Gauss sum of order {d} must have "
                                     f"norm {p}^{k}")
        n = G.ctx.phi // k
        h = (n + 1) // 2
        s, g = [], G
        for j in range(1, h + 1):
            if j > 1:
                g = g * G
            tr = g.trace()
            if tr % k:
                raise InvariantViolation(
                    f"trace of G^{j} must be divisible by k = {k}")
            s.append((-1) ** j * (tr // k))
        e = _from_power_sums(s)      # prod (1 - alpha X) with alpha = -beta
        top = k * n // 2
        if e[h] != p ** (top - k * (n - h)) * e[n - h]:
            raise InvariantViolation(
                f"functional equation fails in the factor of order {d}")
        e += [p ** (top - k * j) * e[j] for j in range(n - h - 1, -1, -1)]
        factor = [0] * (k * n + 1)
        factor[::k] = e
        coeffs = _zmul(coeffs, factor)
    P = lpoly(p, (p - 1) * (m - 1) // 2, coeffs)
    _check_low_counts(P, artin_schreier_curve(p, m, a), budget)
    return P


def _check_low_counts(P: LPolynomial, curve: CurveSpec, budget: int) -> None:
    """N_1 and N_2 of P against enumeration, at each level within the
    budget and the table cap."""
    p = curve.base.p
    for n in (1, 2):
        if gf.fits(p, n, budget) and \
                P.point_count(n) != count_points(curve, n, budget):
            raise InvariantViolation(
                f"N_{n} of the character-sum numerator disagrees with "
                f"the enumeration")


def artin_schreier_lpoly(p: int, m: int, a: int, budget: int = COUNT_BUDGET
                         ) -> tuple[str, LPolynomial]:
    """P(T) of y^m = x^p - x + a over GF(p), and the route that gave it.

    The route is "point-count" when m does not divide p - 1 and GF(p^g)
    fits the budget and the table cap, else "character-sum", which
    ``zeta_numerator_charsum`` sizes and may refuse before any work.
    """
    _require_curve(p, m)
    g = (p - 1) * (m - 1) // 2
    if (p - 1) % m and gf.fits(p, g, budget):
        curve = artin_schreier_curve(p, m, a)
        counts = [count_points(curve, n, budget) for n in range(1, g + 1)]
        return "point-count", lpoly_from_counts(p, counts, g)
    return "character-sum", zeta_numerator_charsum(p, m, a, budget)


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
    comes from ``artin_schreier_lpoly`` with m = q^level: enumeration
    when m does not divide p - 1 and p^g fits the budget, else character
    sums, one Gauss sum per character order d | m, sized by
    ``zeta_numerator_charsum`` (k_d = 1 when m | p - 1).  Past the budget
    the evidence route is None, decided before any work.  The
    divisibility is an iff, so evidence that contradicts the criterion
    raises EvidenceFailed; for a P whose factors all have k_d > 2 this
    iff is, with the theorems behind the route, the only check beyond
    the trivial counts N_1 and N_2 (see the module docstring).
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
    the power law by construction, so they are used only when q | p - 1;
    elsewhere GF(p^g) past the budget is refused before any count."""
    _require_a(p, a)
    if not primes.is_prime(q):
        raise SuperjacError(f"q must be prime, got {q}")
    _require_curve(p, q)
    if (p - 1) % q:
        gf.require_fits(p, (p - 1) * (q - 1) // 2, budget)
    _, P = artin_schreier_lpoly(p, q, a, budget)
    return _power_law_report(P, p, q, a)

