"""Divisor class groups of curves y^m = F(x) over finite fields.

Spaces L(D) are computed as nullspaces of explicit linear systems.  A
function with divisor bounded below by -D is written as

    f = (sum_{j<m} g_j(x) y^j) / u(x)

where u collects the x-coordinates over which poles are allowed.  The
numerator is then an honest polynomial in x and y (the coordinate ring
is integrally closed for separable F with m prime to the
characteristic), so membership reduces to degree caps at infinity plus
vanishing conditions at finitely many places, read off from exact local
expansions.  Unknowns and u (a product of minimal polynomials of
x-orbits) stay over the base GF(q).  Each condition is expanded at one
point of its place P, in P's residue field GF(q^d), and a coefficient c
there becomes the d base rows Tr(g^i c), i < d, g the generator of
GF(q^d): the g^i are a basis over GF(q) and the trace form is
nondegenerate, so the kernel over the base is unchanged.

A condition (P, t) asks every monomial x^i y^j for its first t
coefficients in a local parameter tau at P.  One coordinate is always
linear in tau: x = x0 + tau where y0 != 0, and y = tau at a
ramification point.  The columns are built by repeated products: y^j
is y^(j-1) * y, and x^i y^j is x^(i-1) y^j * x, each through
curves.s_mul, which reads the support of its second factor once, so a
product by the linear coordinate is one pass over at most two terms.
Only s_mul chooses how the residue field computes (ints mod p, or
discrete logs over an extension field).  A block of base rows depends
only on (P, t) and the column layout tops, so each curve keeps every
block it has built in CurveSpec._blocks as a tuple of rows (bytes up
to a base of 256 elements, tuples of ints past it), and a system is the
stack of its blocks.

The class group itself is enumerated through effective divisors of
degree g: every degree-zero class is E - g*inf for such an E, and
classes with l(E) = 1 have a unique representative.  With
K = (2g - 2)*inf canonical, Riemann-Roch at deg E = g reads
l(E) = 1 + l(K - E), so E is sorted by the system of L(K - E): at most g
monomials, no u, and conditions (P, c_P) that recur from one E to the
next.  The same space merges the few E with l(E) = k > 1, with no
principality test: they are grouped by the linear system
|K - E| = {div(h) + K - E : h in L(K - E), h != 0}, and
E ~ E' iff |K - E| = |K - E'|.  If E' = E + div(phi), h -> h phi maps
L(K - E) onto L(K - E') and fixes every member; if the systems share a
member F, then E + F ~ K ~ E' + F.  A member is effective of degree
g - 2, so it is read at infinity in closed form and at the affine
places of degree <= g - 2 only, by a valuation only where h vanishes.
Each member must be effective of degree exactly g - 2 (a zero missed
shows as a shortfall), distinct lines of L(K - E) must give distinct
members, and each group must hold exactly the (q^k - 1)/(q - 1)
divisors of |E|, all with the same k.  The resulting class count must
match the zeta-function order before any structure is reported;
the abelian structure is then recovered from the sizes of the kernels
of multiplication by prime powers, and its invariant factors from the
Smith form of the diagonal of the prime powers found.  Each kernel scan
stops as soon as Lagrange's theorem leaves one size for the kernel (see
_prime_exponents): an l-part of order l, for one, needs no test.  The
refusal is still sized on the worst case, the full first kernel scan,
l * D for all |J| classes and every prime l | |J|: that is computed from
|J| = P(1) before any place is enumerated, and refused past SCAN_CAP.
The l-rank found is checked, for l != p, against the multiplicity of
T = 1 as a root of P(T) mod l.

Everything here assumes gcd(m, r) = 1, so there is a single rational
place at infinity.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import curves, gf, primes, snf
from .curves import (CurveSpec, Divisor, FunctionRep, InfPlace, _descend,
                     _place_point, base_change, local_expansion,
                     places_above, s_mul, valuation)
from .errors import (BudgetExceeded, IncompleteEnumeration,
                     InvariantViolation, PrecisionExhausted, RequiresD1,
                     SuperjacError, UnsupportedBase)
from .zeta import COUNT_BUDGET, count_points, lpoly_from_counts

# Cap on the first kernel scan's unknowns, |J| * sum_{l | |J|} N(l g); a
# test costs more than linearly in its N unknowns.  The scans stop early
# (see _prime_exponents), but the cap is sized on the full scan, the
# worst case, so every refusal stays where it was: conjecture-test --p 5
# --q 3 keeps its exit 3 and its message.  On a 2-core Xeon 38 394
# (y^2 = x^5 + 2x + 1 over GF(11)) answered in about 9 s with full
# scans, and 1 084 201 (y^3 = x^5 - x + 1 over GF(5): 521 tests of 2 081
# unknowns, 31-61 s each) would take hours; criterion 08 stays below
# 11 500.
SCAN_CAP = 50_000


# ---------------------------------------------------------------------------
# L(D) as an explicit function space


def _place_mult(curve: CurveSpec, place) -> int:
    """Valuation at an affine place of the minimal polynomial of its x:
    m at a ramification point (y0 = 0), 1 elsewhere."""
    return curve.m if place.rep()[1] == 0 else 1


def _tops(m: int, r: int, mcap: int) -> list[int]:
    """Largest i, per j, with x^i y^j of pole order m i + r j <= mcap at
    infinity; the j with r j > mcap are left out."""
    return [(mcap - r * j) // m for j in range(m) if mcap - r * j >= 0]


@dataclass(frozen=True, eq=False)
class FunctionSpace:
    """Basis of L(D) over the base field: the k-th function is
    sum v[j, i] x^i y^j / u over the monomials (j, i), v = vectors[k]."""

    curve: CurveSpec
    u: tuple
    monomials: tuple
    vectors: list

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def function(self, k: int) -> FunctionRep:
        return self.combination(self.vectors[k])

    def combination(self, vec) -> FunctionRep:
        """sum vec[j, i] x^i y^j / u over the monomials (j, i)."""
        nums = [[] for _ in range(self.curve.m)]
        for (j, i), v in zip(self.monomials, vec):
            if v:
                g = nums[j]
                if len(g) <= i:
                    g.extend([0] * (i + 1 - len(g)))
                g[i] = v
        return FunctionRep(self.curve, nums, self.u)


def _condition_columns(ctx: gf.FieldCtx, le, tops) -> list[list[int]]:
    """Columns x^i y^j mod tau^t, t = le.prec, of the condition at le's
    place, over its residue field ctx: j-major, i from 0 to tops[j], each
    the column before it times y or x through s_mul (see the module
    docstring)."""
    t = le.prec
    cols = []
    yp = [1] + [0] * (t - 1)
    for j, top in enumerate(tops):
        if j:
            yp = s_mul(ctx, yp, le.y_ser, t)
        c = yp
        cols.append(c)
        for _ in range(top):
            c = s_mul(ctx, c, le.x_ser, t)
            cols.append(c)
    return cols


# trace table of a residue field down to the base, built once per pair
_trace_to_base = lru_cache(maxsize=None)(gf.FieldCtx.trace_table)


def _base_rows(base: gf.FieldCtx, ctx: gf.FieldCtx, cols) -> list:
    """Rows over base of sum_k a_k cols[k] = 0 mod tau^t in the residue
    field ctx, for unknowns a_k in base: d = [ctx : base] trace rows per
    order (see the module docstring)."""
    if ctx.n == base.n:
        return list(zip(*cols))
    d = ctx.n // base.n
    tr = _trace_to_base(ctx, base)
    q1, exp, log = ctx.exp_log()
    rows = []
    for vals in zip(*cols):
        lv = [log[v] for v in vals]
        for i in range(d):
            rows.append([tr[exp[(a + i) % q1]] if a >= 0 else 0
                         for a in lv])
    return rows


def _block(curve: CurveSpec, place, t: int, tops) -> tuple:
    """Base rows of the condition (place, t) on the monomials of tops, as
    bytes up to a base of 256 elements and tuples of ints past it: built
    once per curve and key, then read from curve._blocks."""
    key = (place, t, tuple(tops))
    got = curve._blocks.get(key)
    if got is None:
        base = curve.base
        le = local_expansion(curve, place, t)
        rows = _base_rows(base, le.ctx, _condition_columns(le.ctx, le, tops))
        got = tuple(map(bytes if base.order <= 256 else tuple, rows))
        curve._blocks[key] = got
    return got


def function_space(curve: CurveSpec, bound: Divisor) -> FunctionSpace:
    """L(bound) = {f : div(f) + bound >= 0} with an explicit basis.

    A condition of order past curves.PRECISION_CAP is refused before
    any local expansion is built."""
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
    fibers: dict = {}
    for place in aff:
        xctx, x0, _ = _place_point(curve, place)
        fiber = tuple(places_above(curve, xctx, x0))
        if place not in fiber:
            raise InvariantViolation("support place missing from its fiber")
        fibers.setdefault(fiber, (xctx, x0))

    # poles of order up to e * mult(P) at every place P over an x-orbit
    # come from the e-th power of its minimal polynomial in u; the
    # numerator must then vanish to the remaining order at each P
    u = [1]
    cond: list[tuple[object, int]] = []   # (place, order to kill)
    for fiber, (xctx, x0) in fibers.items():
        e = max([-(-aff[P] // _place_mult(curve, P)) for P in fiber
                 if aff.get(P, 0) > 0], default=0)
        if e > 0:
            xs = xctx.frob_orbit(x0, base.n)
            minpoly = _descend(base, base, xctx, gf.pfrom_roots(xctx, xs))
            for _ in range(e):
                u = gf.pmul(base, u, minpoly)
        for P in fiber:
            t = e * _place_mult(curve, P) - aff.get(P, 0)
            if t > curves.PRECISION_CAP:
                raise PrecisionExhausted(
                    f"condition of order {t} at {P.label()} past the "
                    f"precision cap PRECISION_CAP = {curves.PRECISION_CAP}")
            if t > 0:
                cond.append((P, t))

    # degree caps at the single infinite place: v_inf(x) = -m and the m
    # leading orders -(m deg g_j + r j) are pairwise distinct, so each
    # monomial must clear the bound on its own
    tops = _tops(m, r, m * (len(u) - 1) + c_inf)
    monomials = [(j, i) for j, top in enumerate(tops)
                 for i in range(top + 1)]

    rows = []
    if monomials:
        for P, t in cond:
            rows.extend(_block(curve, P, t, tops))

    vectors = gf.nullspace(base, rows, len(monomials))

    degb = bound.degree()
    g = curve.genus
    dim = len(vectors)
    if dim < max(0, degb + 1 - g) or (degb < 0 and dim > 0) or \
            (degb > 2 * g - 2 and dim != degb + 1 - g):
        raise InvariantViolation(
            f"l(D) = {dim} for deg D = {degb}, genus {g}")
    return FunctionSpace(curve, tuple(u), tuple(monomials), vectors)


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
        got = valuation(curve, f, place)
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
        gf.require_fits(base.p, base.n * w)
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
    """Every effective divisor of exact degree supported on the places,
    depth first: place by place, each at its largest multiplicity first."""
    pl = sorted(places, key=lambda P: (P.degree, P.sort_key()))
    out = []
    # (next place, degree left, terms so far); a node's children go on
    # the stack in reverse, so they come off in order
    stack = [(0, deg, ())]
    while stack:
        i, remaining, acc = stack.pop()
        if remaining == 0:
            out.append(Divisor(acc))
        elif i < len(pl):
            P = pl[i]
            stack.append((i + 1, remaining, acc))
            for k in range(1, remaining // P.degree + 1):
                stack.append((i + 1, remaining - k * P.degree,
                              acc + ((P, k),)))
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

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "invariant_factors": list(self.invariant_factors),
            "special_classes": self.special_classes,
            "lpoly": list(self.lpoly_coeffs),
        }


def _prime_exponents(curve, reps, ln: int, a: int):
    """Exponent partition of the l-part, of order l^a, from the kernel
    sizes |J[l^i]| = l^(v_i), each scan stopped once one size is left.

    Before the scan at l^i, v_(i-1) < v_i <= min(a, v_(i-1) + c_(i-1)),
    with c_(i-1) = v_(i-1) - v_(i-2) the last growth: the kernels grow
    until they are the whole l-part, and multiplication by l maps
    J[l^(i+1)]/J[l^i] into J[l^i]/J[l^(i-1)] injectively, so the growths
    form a partition of a.  So a = 1, and every step after a growth of 1,
    runs no test.  During a scan, with k classes found killed by l^i and
    u not yet tested, k <= l^(v_i) <= k + u by Lagrange's theorem (J[l^i]
    is a subgroup of the l-part).  The scan stops as soon as one v_i is
    left and k > l^(v_i - 1), so that the killed classes alone prove
    |J[l^i]| >= l^(v_i) and a wrong False cannot shrink a kernel
    unnoticed.  A class counts toward k only when is_principal returns
    True, and each True is re-checked on its witness by the independent
    valuation engine.  A class killed by l^i is killed by l^(i+1), so it
    is never tested again; the classes an early stop left untested are
    tested at l^(i+1).  No size left raises InvariantViolation: that
    covers a count that is not a power of l, a kernel that stops growing
    short of l^a, and growths that are not a partition."""
    killed = [False] * len(reps)
    k = 0
    growths = []
    v = 0
    while v < a:
        i = len(growths) + 1
        top = min(a, v + growths[-1]) if growths else a
        sizes = list(range(v + 1, top + 1))
        if len(sizes) > 1:
            u = len(reps) - k
            pending = (idx for idx, done in enumerate(killed) if not done)
            while sizes := [s for s in sizes if k <= ln ** s <= k + u]:
                if len(sizes) == 1 and k > ln ** (sizes[0] - 1):
                    break
                idx = next(pending)
                u -= 1
                if is_principal(curve, reps[idx].scale(ln ** i)):
                    killed[idx] = True
                    k += 1
            if not sizes:
                raise InvariantViolation(
                    f"kernel of {ln}^{i}: {k} classes killed leave no size "
                    f"{ln}^v with {v} < v <= {top}")
        growths.append(sizes[0] - v)
        v = sizes[0]
    exps = []
    for i0, c in enumerate(growths):
        nxt = growths[i0 + 1] if i0 + 1 < len(growths) else 0
        exps.extend([i0 + 1] * (c - nxt))
    return exps


def _lines(ctx: gf.FieldCtx, dim: int):
    """One vector per line through 0 in ctx^dim: its first nonzero entry
    is 1."""
    for lead in range(dim):
        for tail in itertools.product(ctx.elements(), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


def _residual(curve: CurveSpec, E: Divisor, h: FunctionRep,
              small) -> Divisor:
    """div(h) + K - E for h in L(K - E), K = (2g - 2) inf, read at
    infinity in closed form and at the affine places of small, given with
    their points, by a valuation only where h vanishes (on E's support it
    must)."""
    inf = curve.inf_place()
    terms = [(inf, curves._valuation_inf(curve, h) + 2 * curve.genus - 2
              - E.coeff(inf))]
    for P, (ctx, x0, y0) in small:
        c = E.coeff(P)
        if c or h.evaluate(ctx, x0, y0) == 0:
            terms.append((P, valuation(curve, h, P) - c))
    return Divisor(terms)


def _linear_system(curve: CurveSpec, E: Divisor, sp: FunctionSpace,
                   small) -> frozenset:
    """|K - E| as the set of its members div(h) + K - E, one per line of
    sp = L(K - E), each checked as the module docstring says."""
    base = curve.base
    g = curve.genus
    members = []
    for line in _lines(base, sp.dim):
        vec = [0] * len(sp.monomials)
        for c, basis in zip(line, sp.vectors):
            if c:
                vec = [base.add(a, base.mul(c, b)) for a, b in zip(vec, basis)]
        F = _residual(curve, E, sp.combination(vec), small)
        if not F.is_effective() or F.degree() != g - 2:
            raise InvariantViolation(
                f"div(h) + K - E = {F.key()} for E = {E.key()} is not "
                f"effective of degree g - 2 = {g - 2}")
        members.append(F)
    key = frozenset(members)
    if len(key) != len(members):
        raise InvariantViolation(
            f"{len(members)} lines of L(K - E) give {len(key)} divisors "
            f"for E = {E.key()}")
    return key


def _divisor_classes(curve: CurveSpec, places) -> tuple[list, list]:
    """(plain, special_reps) over the effective divisors E of degree g on
    places: the E with l(E) = 1, each alone in its class, and the first E
    of each class with l(E) = k > 1, in enumeration order, the classes
    found by |K - E| (see the module docstring)."""
    g = curve.genus
    q = curve.base.order
    # K = (2g - 2) inf is canonical, and l(E) = 1 + l(K - E) at deg E = g
    canon = Divisor.single(curve.inf_place(), 2 * g - 2)
    small = [(P, _place_point(curve, P)) for P in places
             if not isinstance(P, InfPlace) and P.degree <= g - 2]
    plain = []
    systems: dict = {}
    for E in effective_divisors(places, g):
        sp = function_space(curve, canon - E)
        if sp.dim == 0:
            plain.append(E)
        else:
            key = _linear_system(curve, E, sp, small)
            systems.setdefault(key, []).append((E, 1 + sp.dim))
    for group in systems.values():
        E, k = group[0]
        size = (q ** k - 1) // (q - 1)
        if len(group) != size or any(kE != k for _, kE in group):
            raise InvariantViolation(
                f"special class of {E.key()} holds {len(group)} divisors "
                f"with l(E) in {sorted({kE for _, kE in group})}, expected "
                f"{size} with l(E) = {k}")
    return plain, [group[0][0] for group in systems.values()]


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
    fac = primes.factorize(order)
    # the first kernel scan: |J| tests of l * D per prime l, with
    # N(l g) unknowns each (bounds l g inf - l E leave u = 1)
    scan = order * sum(sum(t + 1 for t in _tops(curve.m, curve.r, ln * g))
                       for ln in fac)
    if scan > SCAN_CAP:
        raise BudgetExceeded(f"class scan for |J| = {order} needs {scan} "
                             f"unknowns, past SCAN_CAP = {SCAN_CAP}")

    plain, special_reps = _divisor_classes(curve, enumerate_places(curve, g))
    found = len(plain) + len(special_reps)
    if found != order:
        raise IncompleteEnumeration(
            f"{found} divisor classes enumerated, zeta order is {order}")

    ginf = Divisor.single(curve.inf_place(), g)
    reps = tuple(E - ginf for E in plain + special_reps)
    # the group is the cokernel of the diagonal of its prime powers l^e
    exps = {ln: _prime_exponents(curve, reps, ln, a)
            for ln, a in sorted(fac.items())}
    diag = [ln ** e for ln, es in exps.items() for e in es]
    inv = tuple(snf.cokernel_factors(
        [[d if i == j else 0 for j in range(len(diag))]
         for i, d in enumerate(diag)], len(diag)))
    total = math.prod(inv)
    if total != order:
        raise InvariantViolation(
            f"invariant factors {inv} multiply to {total}, not {order}")
    # for l != p, J(F_q)[l] = ker(pi - 1) on J[l], where Frobenius has the
    # reversed P mod l as characteristic polynomial: the l-rank is at
    # most the multiplicity of T = 1 as a root of P mod l
    for ln, es in exps.items():
        if ln != base.p:
            bound = _root_one_multiplicity(P.coeffs, ln)
            if len(es) > bound:
                raise InvariantViolation(
                    f"{ln}-rank {len(es)} exceeds {bound}, the multiplicity "
                    f"of T = 1 in P(T) mod {ln}")
    return PicardGroup(order, inv, len(special_reps), P.coeffs)


def _root_one_multiplicity(coeffs, ln: int) -> int:
    """Multiplicity of T = 1 as a root of sum_i coeffs[i] T^i mod ln."""
    c = [x % ln for x in coeffs]
    if not any(c):
        raise InvariantViolation(f"polynomial {list(coeffs)} is 0 mod {ln}")
    mult = 0
    while sum(c) % ln == 0:
        # synthetic division by T - 1, from the top coefficient down
        acc = 0
        for i in range(len(c) - 1, 0, -1):
            acc = (acc + c[i]) % ln
            c[i] = acc
        c = c[1:]
        mult += 1
    return mult


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
