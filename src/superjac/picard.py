"""Divisor class groups of curves y^m = F(x) over finite fields.

Spaces L(D) are computed as nullspaces of explicit linear systems.  A
function with divisor bounded below by -D is written as

    f = (sum_{j<m} g_j(x) y^j) / u(x)

where u collects the x-coordinates over which poles are allowed.  The
numerator is then an honest polynomial in x and y (the coordinate ring
is integrally closed for separable F with m prime to the
characteristic), so membership reduces to degree caps at infinity plus
vanishing conditions at finitely many points, read off from exact local
expansions.  All condition points are moved into one common extension K
of the base; dimensions of L(D) are invariant under constant field
extension, so solving over K decides solvability over the base.

A condition (q, t) asks every monomial x^i y^j for its first t
coefficients in a local parameter tau at q.  One coordinate is always
linear in tau: x = x0 + tau where y0 != 0, and y = tau at a
ramification point.  So only the powers of the other coordinate take
series products.  At an unramified place the next x-power column is
x0 * c + tau * c for the column c before it, one pass over t
coefficients (in the log/Zech domain over an extension K, as ints mod
p over a prime K); at a ramification point x^i y^j is x^i shifted by j
orders.

The class group itself is enumerated through effective divisors of
degree g: every degree-zero class is E - g*inf for such an E, classes
with l(E) = 1 have a unique representative, and the few with l(E) > 1
are merged by principality tests.  The resulting class count must match
the zeta-function order before any structure is reported; the abelian
structure is then recovered from the sizes of the kernels of
multiplication by prime powers.

Everything here assumes gcd(m, r) = 1, so there is a single rational
place at infinity.
"""

import math
from collections import Counter
from dataclasses import dataclass

from . import gf, primes
from .curves import (CurveSpec, Divisor, FunctionRep, InfPlace, RamPlace,
                     base_change, closed_place, local_expansion,
                     places_above, s_mul, valuation)
from .errors import (BudgetExceeded, IncompleteEnumeration,
                     InvariantViolation, RequiresD1, SuperjacError,
                     UnsupportedBase)
from .zeta import COUNT_BUDGET, count_points, lpoly_from_counts


# ---------------------------------------------------------------------------
# L(D) as an explicit function space


def _place_mult(curve: CurveSpec, place) -> int:
    """Valuation of x - x0 at an affine place over x0."""
    if isinstance(place, RamPlace):
        return curve.m
    return curve.m if place.rep()[1] == 0 else 1


def _lift_point(ext: CurveSpec, K: gf.FieldCtx, xK: int, yK: int):
    """The degree-one place of the extended curve through a K-point."""
    if yK == 0 and xK in ext.roots:
        return ext.ram_place_at(xK)
    return closed_place(K, 1, [(xK, yK)])


class FunctionSpace:
    """Basis of L(D), realized over a constant field extension."""

    __slots__ = ("curve", "ext", "K", "u", "monomials", "vectors",
                 "place_map")

    def __init__(self, curve, ext, K, u, monomials, vectors, place_map):
        self.curve = curve
        self.ext = ext
        self.K = K
        self.u = u
        self.monomials = monomials
        self.vectors = vectors
        self.place_map = place_map

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def function(self, k: int) -> FunctionRep:
        vec = self.vectors[k]
        nums = [[] for _ in range(self.ext.m)]
        for (j, i), v in zip(self.monomials, vec):
            if v:
                g = nums[j]
                if len(g) <= i:
                    g.extend([0] * (i + 1 - len(g)))
                g[i] = v
        return FunctionRep(self.ext, nums, self.u)


def _condition_columns(K: gf.FieldCtx, le, tops) -> list[list[int]]:
    """Columns x^i y^j mod tau^t, t = le.prec, of the condition at le's
    place: j-major, i from 0 to tops[j].  Only the coordinate that is not
    linear in tau takes series powers (see the module docstring)."""
    t = le.prec
    cols = []
    if le.y_ser[0] == 0:
        # ramification point: y = tau
        xp = [[1] + [0] * (t - 1)]
        for _ in range(max(tops)):
            xp.append(s_mul(K, xp[-1], le.x_ser, t))
        for j, top in enumerate(tops):
            pad = [0] * min(j, t)
            cols.extend(pad + xp[i][:t - len(pad)] for i in range(top + 1))
        return cols
    # unramified place: x = x0 + tau
    yp = [1] + [0] * (t - 1)
    x0 = le.x_ser[0]
    if K.n == 1:
        p = K.p
        for j, top in enumerate(tops):
            if j:
                yp = s_mul(K, yp, le.y_ser, t)
            c = yp
            cols.append(c)
            for _ in range(top):
                c = [(x0 * a + b) % p for a, b in zip(c, [0] + c)]
                cols.append(c)
        return cols
    q1, exp, log, zech, _ = K.log_tables()
    lx0 = log[x0]
    for j, top in enumerate(tops):
        if j:
            yp = s_mul(K, yp, le.y_ser, t)
        cols.append(yp)
        lc = [log[v] for v in yp]
        for _ in range(top):
            # logs of x0 * c + (c shifted one order up), summed by Zech
            nxt = []
            prev = -1
            for a in lc:
                if a >= 0 and lx0 >= 0:
                    s = a + lx0
                    if prev < 0:
                        v = s % q1
                    else:
                        z = zech[(prev - s) % q1]
                        v = -1 if z < 0 else (s + z) % q1
                else:
                    v = prev
                nxt.append(v)
                prev = a
            lc = nxt
            cols.append([exp[v] if v >= 0 else 0 for v in lc])
    return cols


def function_space(curve: CurveSpec, bound: Divisor) -> FunctionSpace:
    """L(bound) = {f : div(f) + bound >= 0} with an explicit basis."""
    base = curve.base
    if base is None:
        raise UnsupportedBase("Riemann-Roch spaces need a finite base field")
    if curve.d != 1:
        raise RequiresD1("pole bookkeeping at infinity needs gcd(m, r) = 1")
    m, r = curve.m, curve.r

    c_inf = 0
    aff: dict = {}
    for place, c in bound.items():
        if isinstance(place, InfPlace):
            c_inf = c
        else:
            aff[place] = c

    # group the affine support by fiber: one entry per x-coordinate orbit
    orbits: dict = {}
    for place in aff:
        if isinstance(place, RamPlace):
            xctx, x0 = base, place.alpha
        else:
            xctx = gf.field(place.base_p, place.base_n * place.b)
            x0 = place.rep()[0]
        fiber = tuple(places_above(curve, xctx, x0))
        ob = orbits.get(fiber)
        if ob is None:
            ob = {"fiber": fiber, "bx": len(xctx.frob_orbit(x0, base.n)),
                  "supp": [], "e": 0}
            orbits[fiber] = ob
        if place not in ob["fiber"]:
            raise InvariantViolation("support place missing from its fiber")
        ob["supp"].append(place)

    ext_deg = 1
    for ob in orbits.values():
        e = 0
        for P in ob["fiber"]:
            c = aff.get(P, 0)
            if c > 0:
                e = max(e, -(-c // _place_mult(curve, P)))
        ob["e"] = e
        for P in ob["fiber"]:
            t = e * _place_mult(curve, P) - aff.get(P, 0)
            if t > 0:
                ext_deg = math.lcm(ext_deg, P.degree)
        for P in ob["supp"]:
            # keep every support place split so valuations stay checkable
            ext_deg = math.lcm(ext_deg, P.degree)

    if base.p ** (base.n * ext_deg) > gf.MAX_TABLE_CARD:
        raise BudgetExceeded(
            f"splitting field GF({base.p}^{base.n * ext_deg}) "
            f"exceeds the table cap {gf.MAX_TABLE_CARD}")
    K = gf.field(base.p, base.n * ext_deg)
    ext = curve if ext_deg == 1 else base_change(curve, K)
    emb_base = gf.embedding(base, K)

    # move every orbit into K; all coordinate transport goes through
    # base-compatible embeddings so data from different storage fields
    # lands on one consistent set of K-points
    u_roots: list[int] = []
    place_map: dict = {}
    cond: list[tuple[object, int]] = []   # (place of ext, order to kill)
    for ob in orbits.values():
        affK: dict = {}
        seed = None
        for P in ob["supp"]:
            if isinstance(P, RamPlace):
                pts = [(P.alpha, 0)]
                emb = emb_base
            else:
                ctxp = gf.field(P.base_p, P.base_n * P.b)
                pts = P.pts
                emb = gf.compatible_embedding(base, ctxp, K)
            for (px, py) in pts:
                q = _lift_point(ext, K, emb.apply(px), emb.apply(py))
                if q in affK:
                    raise InvariantViolation("embedded support points collide")
                affK[q] = aff[P]
                place_map[P] = q
            if seed is None:
                seed = emb.apply(pts[0][0])
        xs = K.frob_orbit(seed, base.n)
        if len(xs) != ob["bx"]:
            raise InvariantViolation("x-orbit length changed under transport")
        e = ob["e"]
        if e > 0:
            u_roots.extend(xk for xk in sorted(xs) for _ in range(e))
            fiberK = []
            for xk in xs:
                fiberK.extend(places_above(ext, K, xk))
            if any(q.degree != 1 for q in fiberK):
                raise InvariantViolation(
                    "condition place fails to split over K")
            if not set(affK) <= set(fiberK):
                raise InvariantViolation(
                    "support points land outside their fiber")
            for q in fiberK:
                t = e * _place_mult(ext, q) - affK.get(q, 0)
                if t > 0:
                    cond.append((q, t))
        else:
            for q, c in affK.items():
                if c < 0:
                    cond.append((q, -c))

    # degree caps at the single infinite place: v_inf(x) = -m and the m
    # leading orders -(m deg g_j + r j) are pairwise distinct, so each
    # monomial must clear the bound on its own
    u = gf.pfrom_roots(K, u_roots)
    deg_u = len(u_roots)
    mcap = m * deg_u + c_inf
    tops = [(mcap - r * j) // m for j in range(m) if mcap - r * j >= 0]
    monomials = [(j, i) for j, top in enumerate(tops)
                 for i in range(top + 1)]

    rows = []
    if monomials:
        for q, t in cond:
            cols = _condition_columns(K, local_expansion(ext, q, t), tops)
            rows.extend(zip(*cols))

    vectors = gf.nullspace(K, rows, len(monomials))

    degb = bound.degree()
    g = curve.genus
    dim = len(vectors)
    if dim < max(0, degb + 1 - g) or (degb < 0 and dim > 0) or \
            (degb > 2 * g - 2 and dim != degb + 1 - g):
        raise InvariantViolation(
            f"l(D) = {dim} for deg D = {degb}, genus {g}")
    return FunctionSpace(curve, ext, K, tuple(u), tuple(monomials), vectors,
                         place_map)


def ell(curve: CurveSpec, bound: Divisor) -> int:
    """Dimension of L(bound) over the base field."""
    return function_space(curve, bound).dim


def is_principal(curve: CurveSpec, D: Divisor) -> bool:
    """Whether D is the divisor of a function.

    Solves for f with div(f) >= D; in degree zero that forces equality.
    The found function's valuations are re-checked on the support
    through the independent valuation engine.
    """
    if curve.base is None:
        raise UnsupportedBase("principality tests need a finite base field")
    if D.degree() != 0:
        return False
    if D.is_zero():
        return True
    sp = function_space(curve, -D)
    if not sp.vectors:
        return False
    if len(sp.vectors) != 1:
        raise InvariantViolation("degree-zero divisor with l > 1")
    f = sp.function(0)
    for place, c in D.items():
        if isinstance(place, InfPlace):
            got = valuation(sp.ext, f, sp.ext.inf_place())
        else:
            got = valuation(sp.ext, f, sp.place_map[place])
        if got != c:
            raise InvariantViolation(
                f"witness valuation {got} != {c} at {place.label()}")
    return True


# ---------------------------------------------------------------------------
# place enumeration


def enumerate_places(curve: CurveSpec, max_deg: int):
    """All places of degree <= max_deg, the infinite place included.

    Runs over x-coordinates of each exact degree, decides arithmetically
    whether the fiber carries any place small enough, and only then
    resolves it.  The resulting degree counts are checked against point
    counts over the matching extensions.
    """
    base = curve.base
    if base is None:
        raise UnsupportedBase("place enumeration needs a finite base field")
    if curve.d != 1:
        raise RequiresD1("a single infinite place needs gcd(m, r) = 1")
    if max_deg < 1:
        raise SuperjacError(f"max_deg must be at least 1, got {max_deg}")
    m = curve.m
    out = [curve.inf_place()]
    for w in range(1, max_deg + 1):
        if base.p ** (base.n * w) > gf.MAX_TABLE_CARD:
            raise BudgetExceeded(f"degree-{w} scan exceeds the table cap "
                                 f"{gf.MAX_TABLE_CARD}")
        xctx = gf.field(base.p, base.n * w)
        for x0 in xctx.elements():
            # keep only orbit-minimal coordinates of exact degree w
            orb = xctx.frob_orbit(x0, base.n)
            if len(orb) != w or min(orb) != x0:
                continue
            z = curve.eval_F(xctx, x0)
            if z:
                # smallest extension of the x-field carrying a y-solution:
                # z must be an m-th power there
                Q = xctx.order
                dl = xctx.dlog(z)
                lift = False
                for t in range(1, max_deg // w + 1):
                    qt = Q ** t - 1
                    if (dl * (qt // (Q - 1))) % math.gcd(m, qt) == 0:
                        lift = True
                        break
                if not lift:
                    continue
            for P in places_above(curve, xctx, x0):
                if P.degree <= max_deg:
                    out.append(P)
    degs = Counter(P.degree for P in out)
    for n in range(1, max_deg + 1):
        total = sum(b * degs[b] for b in range(1, n + 1) if n % b == 0)
        expect = count_points(curve, n)
        if total != expect:
            raise IncompleteEnumeration(
                f"{total} points from places of degree | {n}, "
                f"expected {expect}")
    return sorted(out, key=lambda P: (P.degree, P.sort_key()))


def effective_divisors(places, deg: int):
    """Every effective divisor of exact degree supported on the places."""
    pl = sorted(places, key=lambda P: (P.degree, P.sort_key()))
    out = []
    acc: list = []

    def rec(i: int, remaining: int) -> None:
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


# ---------------------------------------------------------------------------
# class group structure


@dataclass(frozen=True)
class PicardGroup:
    """Degree-zero class group over the base field."""

    order: int
    invariant_factors: tuple[int, ...]
    special_classes: int
    lpoly_coeffs: tuple[int, ...]
    class_reps: tuple

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "invariant_factors": list(self.invariant_factors),
            "special_classes": self.special_classes,
            "lpoly": list(self.lpoly_coeffs),
        }


def _prime_exponents(curve, reps, ln: int, a: int):
    """Exponent partition of the l-part from kernel sizes of l^i."""
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
        if t != 1:
            raise InvariantViolation(f"kernel of {ln}^{i} has size {ki}")
        kernel_logs.append(v)
        if ki == lpart:
            break
        i += 1
        if i > a:
            raise InvariantViolation(
                f"multiplication by {ln}^{a} fails to kill the {ln}-part")
    counts = []
    prev = 0
    for v in kernel_logs:
        counts.append(v - prev)
        prev = v
    if counts != sorted(counts, reverse=True):
        raise InvariantViolation("kernel growth is not a partition")
    exps = []
    for i0, c in enumerate(counts):
        nxt = counts[i0 + 1] if i0 + 1 < len(counts) else 0
        exps.extend([i0 + 1] * (c - nxt))
    return exps


def _merge_invariants(per_prime: dict) -> tuple[int, ...]:
    """Invariant factor chain from per-prime exponent multisets."""
    if not per_prime:
        return ()
    width = max(len(v) for v in per_prime.values())
    factors = []
    for t in range(width):
        dt = 1
        for ln, exps in per_prime.items():
            if t < len(exps):
                dt *= ln ** exps[t]
        factors.append(dt)
    factors.sort()
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InvariantViolation(
                f"invariant factors {factors} fail the divisibility chain")
    return tuple(factors)


def picard_group(curve: CurveSpec, budget: int = COUNT_BUDGET) -> PicardGroup:
    """Order and abelian structure of the degree-zero class group."""
    base = curve.base
    if base is None:
        raise UnsupportedBase("class groups are computed over finite fields")
    if curve.d != 1:
        raise RequiresD1("class enumeration needs a single infinite place")
    g = curve.genus
    counts = [count_points(curve, n, budget) for n in range(1, g + 1)]
    P = lpoly_from_counts(base.order, counts, g)
    order = P.evaluate(1)

    places = enumerate_places(curve, g)
    ginf = Divisor.single(curve.inf_place(), g)
    plain = []
    special = []
    for E in effective_divisors(places, g):
        if ell(curve, E) == 1:
            plain.append(E)
        else:
            special.append(E)
    special_reps: list = []
    for E in special:
        for R in special_reps:
            if is_principal(curve, E - R):
                break
        else:
            special_reps.append(E)
    found = len(plain) + len(special_reps)
    if found != order:
        raise IncompleteEnumeration(
            f"{found} divisor classes enumerated, zeta order is {order}")

    reps = tuple(E - ginf for E in plain + special_reps)
    per_prime = {}
    for ln, a in sorted(primes.factorize(order).items()):
        exps = _prime_exponents(curve, reps, ln, a)
        per_prime[ln] = sorted(exps, reverse=True)
    inv = _merge_invariants(per_prime)
    total = 1
    for dfac in inv:
        total *= dfac
    if total != order:
        raise InvariantViolation(
            f"invariant factors {inv} multiply to {total}, not {order}")
    return PicardGroup(order, inv, len(special_reps), P.coeffs, reps)


# ---------------------------------------------------------------------------
# group structure across the distinguished extension


@dataclass(frozen=True)
class ConjectureReport:
    """Comparison of class groups over GF(p) and GF(p^k), k = ord_q(p)."""

    p: int
    q: int
    k: int
    base_factors: tuple[int, ...]
    ext_factors: tuple[int, ...]
    expected_factors: tuple[int, ...]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "k": self.k,
            "base_factors": list(self.base_factors),
            "ext_factors": list(self.ext_factors),
            "expected_factors": list(self.expected_factors),
            "verdict": self.verdict,
        }


def conjecture_check(curve: CurveSpec,
                     budget: int = COUNT_BUDGET) -> ConjectureReport:
    """Compare J(GF(p^k)) with the k-th power of J(GF(p)) as groups.

    For y^q = F(x) with q prime not dividing deg F, the group orders
    already satisfy |J(GF(p^k))| = |J(GF(p))|^k; this tests the stronger
    statement that the groups are isomorphic.  The verdict is only ever
    "consistent" or "inconsistent": a finite computation cannot prove
    the general statement.
    """
    base = curve.base
    if base is None or base.n != 1:
        raise UnsupportedBase("the comparison starts from a prime field")
    q = curve.m
    if not primes.is_prime(q) or curve.r % q == 0:
        raise InvariantViolation(
            "the comparison needs y^q = F(x), q prime, q not dividing deg F")
    k = primes.multiplicative_order(base.p, q)
    g1 = picard_group(curve, budget)
    gk = picard_group(base_change(curve, gf.field(base.p, k)), budget)
    expected = tuple(sorted(d for d in g1.invariant_factors
                            for _ in range(k)))
    verdict = "consistent" if gk.invariant_factors == expected \
        else "inconsistent"
    return ConjectureReport(base.p, q, k, g1.invariant_factors,
                            gk.invariant_factors, expected, verdict)
