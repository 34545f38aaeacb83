"""Superelliptic curve model: y^m = F(x) with F separable.

Places, divisors, function representatives and exact local expansions.
With r = deg F and d = gcd(m, r), the smooth model has d points above
x = infinity; they are collapsed here into a single formal place of
degree d, and all valuations at infinity are per-branch integers.

Places over an x-coordinate come from places_above alone.  It descends
x0 to its minimal field and replaces it by the least member of its
base-Frobenius orbit, since conjugate x-coordinates lie under the same
closed places; each x-orbit is then resolved once per curve and kept in
the curve's fiber table.  principal_divisor finds its x-coordinates as
the roots of a norm, one root scan per block of gf.ddf (which accepts
repeated factors), and splitting_extension reads its degree off the
same blocks.

Supported bases: the rationals (arithmetic via Fraction; only the
combinatorial operations are available) and finite fields with
characteristic prime to m (full local-expansion engine).

Local expansions are taken at affine places only, with one Newton lift
(_newton) in the local parameter:
  * unramified affine point (x0, y0), y0 != 0:  t = x - x0, y(t) solves
    y^m = F(x0 + t);
  * ramification point (alpha, 0):              t = y, x(t) solves
    F(x) = t^m.
Each place keeps one expansion, holding the most terms asked of it so
far.  A longer request lengthens it by the same Newton lift, started
from the terms already known, and checks the residual again; a shorter
one reads off a prefix.  The series is unique once t is fixed, so every
prefix is the expansion at its own precision.
Affine valuations are read off these series.  At infinity valuations
use a closed form instead: per branch v(x) = -m/d and v(y) = -r/d, so
g_j(x) y^j has order -(m deg g_j + r j)/d.  When d = 1 these orders are
pairwise distinct mod m for j = 0..m-1 (r is a unit mod m), so no two
terms of a function can cancel and the smallest order is the valuation;
for d > 1 a tie raises UnsupportedCollision.

Integer coefficients passed to make_curve are interpreted as integer
literals (reduced into the prime subfield); genuinely non-prime-subfield
coefficients enter via FieldElem wrappers or base_change.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import gf
from .errors import (
    InvariantViolation,
    NotSeparable,
    PrecisionExhausted,
    RequiresSplitRoots,
    SuperjacError,
    UnsupportedBase,
    UnsupportedCollision,
)

PRECISION_CAP = 1 << 10


# ---------------------------------------------------------------------------
# places
#
# Places are named tuples, so hashing and equality are tuple operations
# in C.  The three kinds have lengths 2, 1 and 4, so places of different
# kinds never compare equal.


class RamPlace(NamedTuple):
    """Ramification point R_i = (alpha_i, 0); 1-based index, alpha packed."""

    idx: int
    alpha: int

    @property
    def degree(self) -> int:
        return 1

    def rep(self) -> tuple[int, int]:
        return (self.alpha, 0)

    def sort_key(self):
        return (0, self.idx, 0)

    def label(self) -> str:
        return f"R{self.idx}"


class InfPlace(NamedTuple):
    """The formal sum of the d points above x = infinity."""

    deg: int

    @property
    def degree(self) -> int:
        return self.deg

    def sort_key(self):
        return (2, 0, 0)

    def label(self) -> str:
        return "inf"


class ClosedPlace(NamedTuple):
    """Frobenius orbit of an affine point, stored over its minimal field.

    base_p, base_n identify the curve's base GF(base_p^base_n); the orbit
    has b points whose packed coordinates live in GF(base_p^(base_n*b)).
    """

    base_p: int
    base_n: int
    b: int
    pts: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return self.b

    def rep(self) -> tuple[int, int]:
        return self.pts[0]

    def sort_key(self):
        return (1, self.b, self.pts)

    def label(self) -> str:
        x, y = self.pts[0]
        return f"P{self.b}({x},{y})"


def closed_place(base: gf.FieldCtx, b: int, orbit) -> ClosedPlace:
    pts = tuple(sorted(orbit))
    return ClosedPlace(base.p, base.n, b, pts)


# ---------------------------------------------------------------------------
# divisors


class Divisor:
    """Finite formal sum of places with integer coefficients."""

    __slots__ = ("data",)

    def __init__(self, items=()):
        d = {}
        src = items.items() if isinstance(items, dict) else items
        for place, c in src:
            if c:
                d[place] = d.get(place, 0) + c
                if d[place] == 0:
                    del d[place]
        self.data = d

    @staticmethod
    def single(place, c: int = 1) -> "Divisor":
        return Divisor([(place, c)])

    def items(self):
        return sorted(self.data.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, place) -> int:
        return self.data.get(place, 0)

    def degree(self) -> int:
        return sum(c * p.degree for p, c in self.data.items())

    def is_effective(self) -> bool:
        return all(c > 0 for c in self.data.values())

    def is_zero(self) -> bool:
        return not self.data

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor([*self.data.items(), *other.data.items()])

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor([*self.data.items(),
                        *((p, -c) for p, c in other.data.items())])

    def __neg__(self) -> "Divisor":
        return self.scale(-1)

    def scale(self, k: int) -> "Divisor":
        return Divisor({p: k * c for p, c in self.data.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.data == other.data

    def __hash__(self):
        return hash(tuple(self.items()))

    def key(self) -> str:
        return "+".join(f"{c}*{p.label()}" for p, c in self.items()) or "0"

    def __repr__(self) -> str:
        return f"Divisor({self.key()})"


# ---------------------------------------------------------------------------
# curve spec


class CurveSpec:
    """Validated data of a curve y^m = F(x)."""

    __slots__ = ("m", "base", "coeffs", "r", "d", "genus", "roots",
                 "_exp_cache", "_blocks", "_fibers", "_ext_coeffs",
                 "_ext_curves")

    def __init__(self, m, base, coeffs, roots):
        self.m = m
        self.base = base
        self.coeffs = tuple(coeffs)
        self.r = len(coeffs) - 1
        self.d = math.gcd(m, self.r)
        t = (m - 1) * (self.r - 1) - (self.d - 1)
        if t % 2:
            raise InvariantViolation("genus formula parity")
        self.genus = t // 2
        self.roots = roots
        self._exp_cache = {}
        self._blocks = {}       # picard's condition blocks, by (P, t, tops)
        self._fibers = {}
        self._ext_coeffs = {}
        self._ext_curves = {}

    # -- basic views -------------------------------------------------------

    @property
    def splits(self) -> bool:
        return self.roots is not None and len(self.roots) == self.r

    def ram_place(self, i: int) -> RamPlace:
        """R_i for 1-based i, ordered by packed root value."""
        if not self.splits:
            raise RequiresSplitRoots("roots of F are not all rational here")
        return RamPlace(i, self.roots[i - 1])

    def ram_place_at(self, alpha) -> RamPlace:
        """The ramification place over a rational root of F.

        R_i keeps its index among the rational roots whether or not F
        splits, so places built over a root agree everywhere.
        """
        return RamPlace(self.roots.index(alpha) + 1, alpha)

    def inf_place(self) -> InfPlace:
        return InfPlace(self.d)

    def name(self) -> str:
        base = "Q" if self.base is None else self.base.name()
        cs = ",".join(str(c) for c in self.coeffs)
        return f"{self.m}; [{cs}]; {base}"

    def __repr__(self) -> str:
        return f"CurveSpec({self.name()})"

    def ext_coeffs(self, ctx: gf.FieldCtx) -> tuple:
        """Coefficients of F pushed into an extension context."""
        key = (ctx.p, ctx.n)
        got = self._ext_coeffs.get(key)
        if got is None:
            emb = gf.embedding(self.base, ctx)
            got = tuple(emb.apply(c) for c in self.coeffs)
            self._ext_coeffs[key] = got
        return got

    def eval_F(self, ctx: gf.FieldCtx, x: int) -> int:
        return gf.peval(ctx, list(self.ext_coeffs(ctx)), x)


def make_curve(m: int, coeffs, base: gf.FieldCtx | None = None) -> CurveSpec:
    """Validate and build a curve y^m = F(x).

    coeffs lists F from the constant term up.  Integer entries are
    literals (reduced mod p on finite bases); FieldElem entries carry
    packed extension-field values.
    """
    if m < 2:
        raise SuperjacError(f"m must be at least 2, got {m}")
    if base is None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) < 3:
            raise SuperjacError(f"deg F must be at least 2, got {len(cs) - 1}")
        if _qgcd_nontrivial(cs):
            raise NotSeparable("F has a repeated root")
        roots = tuple(sorted(_rational_roots(cs)))
        return CurveSpec(m, None, cs, roots)
    if m % base.p == 0:
        raise UnsupportedBase(f"characteristic {base.p} divides m = {m}")
    cs = []
    for c in coeffs:
        if isinstance(c, gf.FieldElem):
            if c.ctx is not base:
                raise UnsupportedBase(f"coefficient from {c.ctx.name()} on "
                                      f"a curve over {base.name()}")
            cs.append(c.val)
        else:
            cs.append(c % base.p)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 3:
        raise SuperjacError(f"deg F must be at least 2, got {len(cs) - 1}")
    der = gf.pderiv(base, cs)
    if not der:
        raise NotSeparable("F'(x) vanishes identically")
    g = gf.pgcd(base, cs, der)
    if len(g) > 1:
        raise NotSeparable("F has a repeated root")
    roots = tuple(gf.proots(base, cs))
    return CurveSpec(m, base, cs, roots)


def _qgcd_nontrivial(cs: list[Fraction]) -> bool:
    der = [cs[i] * i for i in range(1, len(cs))]
    a, b = list(cs), der
    while any(b):
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        r = list(a)
        while len(r) >= len(b) and any(r):
            c = r[-1] / b[-1]
            off = len(r) - len(b)
            for t in range(len(b)):
                r[off + t] -= c * b[t]
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    while a and a[-1] == 0:
        a.pop()
    return len(a) > 1


def _rational_roots(cs: list[Fraction]) -> list[Fraction]:
    # clear denominators to a primitive integer polynomial
    den = 1
    for c in cs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ics = [int(c * den) for c in cs]
    g = 0
    for c in ics:
        g = math.gcd(g, c)
    if g > 1:
        ics = [c // g for c in ics]
    roots = []
    lead = ics[-1]
    # strip x | F
    low = 0
    while ics[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
    const = ics[low]
    for pnum in _divisors_signed(abs(const)):
        for qden in _divisors_signed(abs(lead)):
            if qden <= 0:
                continue
            cand = Fraction(pnum, qden)
            if cand in roots:
                continue
            val = Fraction(0)
            for c in reversed(ics):
                val = val * cand + c
            if val == 0:
                roots.append(cand)
    return roots


def _divisors_signed(n: int) -> list[int]:
    if n == 0:
        return []
    out = []
    for k in range(1, int(math.isqrt(n)) + 1):
        if n % k == 0:
            out.extend([k, -k, n // k, -(n // k)])
    return sorted(set(out), key=abs)


def base_change(curve: CurveSpec, ctx: gf.FieldCtx) -> CurveSpec:
    """The same curve viewed over an extension of its base field.

    Memoized per extension so local-expansion caches on the extended
    curve survive across calls.
    """
    if curve.base is None:
        raise UnsupportedBase("base change from Q is not supported here")
    if ctx.p != curve.base.p or ctx.n % curve.base.n:
        raise UnsupportedBase(f"{curve.base.name()} is not a subfield of "
                              f"{ctx.name()}")
    got = curve._ext_curves.get(ctx.n)
    if got is None:
        cs = curve.ext_coeffs(ctx)
        roots = tuple(gf.proots(ctx, list(cs)))
        got = CurveSpec(curve.m, ctx, cs, roots)
        curve._ext_curves[ctx.n] = got
    return got


def splitting_extension(curve: CurveSpec) -> CurveSpec:
    """Smallest base extension over which F splits into linear factors.

    Its degree is the lcm of the degrees of F's irreducible factors, read
    off the blocks of gf.ddf, so a field past the table cap is refused
    (gf.field raises BudgetExceeded naming the field and the cap) before
    any extension is built or scanned.
    """
    if curve.base is None:
        raise UnsupportedBase("splitting fields are built over finite bases")
    if curve.splits:
        return curve
    base = curve.base
    s = math.lcm(*gf.ddf(base, list(curve.coeffs)))
    cand = base_change(curve, gf.field(base.p, base.n * s))
    if not cand.splits:
        raise InvariantViolation(f"F does not split over {cand.base.name()}")
    return cand


# ---------------------------------------------------------------------------
# function representatives: (sum_j g_j(x) y^j) / u(x)


class FunctionRep:
    """Rational function on the curve, numerator reduced to y-degree < m."""

    __slots__ = ("curve", "nums", "den")

    def __init__(self, curve: CurveSpec, nums, den=(1,)):
        if curve.base is None:
            raise UnsupportedBase(
                "function representatives need a finite base field")
        if len(nums) != curve.m:
            raise SuperjacError(f"expected {curve.m} numerator components, "
                                f"got {len(nums)}")
        self.curve = curve
        self.nums = tuple(tuple(n) for n in nums)
        self.den = tuple(den)
        if not any(any(n) for n in self.nums):
            raise SuperjacError("zero function representative")
        if not any(self.den):
            raise SuperjacError("zero denominator")

    @staticmethod
    def y_power_over_roots(curve: CurveSpec, j: int,
                           root_indices) -> "FunctionRep":
        """y^j / prod(x - alpha_i for i in root_indices), 1-based indices."""
        if not curve.splits:
            raise RequiresSplitRoots("y-power over roots needs the roots "
                                     "of F")
        nums = [() for _ in range(curve.m)]
        nums[j % curve.m] = (1,)
        rts = [curve.roots[i - 1] for i in root_indices]
        return FunctionRep(curve, nums, gf.pfrom_roots(curve.base, rts))

    def evaluate(self, ctx: gf.FieldCtx, x0: int, y0: int) -> int:
        """Value at a point with coordinates in ctx; poles raise."""
        emb = gf.embedding(self.curve.base, ctx)
        dv = gf.peval(ctx, [emb.apply(c) for c in self.den], x0)
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        acc = 0
        yp = 1
        for g in self.nums:
            if any(g):
                gv = gf.peval(ctx, [emb.apply(c) for c in g], x0)
                acc = ctx.add(acc, ctx.mul(gv, yp))
            yp = ctx.mul(yp, y0)
        return ctx.div(acc, dv)

    def __repr__(self) -> str:
        terms = []
        for j, g in enumerate(self.nums):
            if any(g):
                terms.append(f"({list(g)})*y^{j}")
        return f"FunctionRep(({' + '.join(terms)}) / {list(self.den)})"


# ---------------------------------------------------------------------------
# truncated power series over a field context


def s_add(ctx, a, b):
    return [ctx.add(x, y) for x, y in zip(a, b)]


def s_sub(ctx, a, b):
    return [ctx.sub(x, y) for x, y in zip(a, b)]


def s_scale(ctx, a, c):
    return [ctx.mul(x, c) for x in a]


def s_mul(ctx, a, b, prec):
    """a * b truncated to prec terms.

    b's support is read once (as logs over an extension field) and no
    term past prec is formed; extension fields accumulate in the
    log/Zech domain, prime fields as plain ints reduced at the end.
    """
    if ctx.n == 1:
        bs = [(j, bj) for j, bj in enumerate(b[:prec]) if bj]
        out = [0] * prec
        for i, ai in enumerate(a[:prec]):
            if ai:
                top = prec - i
                for j, bj in bs:
                    if j >= top:
                        break
                    out[i + j] += ai * bj
        p = ctx.p
        return [v % p for v in out]
    q1, exp, log, zech, _ = ctx.log_tables()
    bs = [(j, log[bj]) for j, bj in enumerate(b[:prec]) if bj]
    out = [-1] * prec
    for i, ai in enumerate(a[:prec]):
        if ai:
            la = log[ai]
            top = prec - i
            for j, lb in bs:
                if j >= top:
                    break
                t = la + lb
                lo = out[i + j]
                if lo < 0:
                    out[i + j] = t % q1
                else:
                    z = zech[(t - lo) % q1]
                    out[i + j] = -1 if z < 0 else (lo + z) % q1
    return [exp[v] if v >= 0 else 0 for v in out]


def s_inv(ctx, a, prec):
    if a[0] == 0:
        raise InvariantViolation("series inverse needs a unit")
    out = [0] * prec
    out[0] = ctx.inv(a[0])
    known = 1
    while known < prec:
        known = min(2 * known, prec)
        # Newton step b <- b(2 - ab) at doubled precision
        ab = s_mul(ctx, a[:known], out[:known], known)
        two_minus = [ctx.sub(0, v) for v in ab]
        two_minus[0] = ctx.add(two_minus[0], 2 % ctx.p)
        nb = s_mul(ctx, out[:known], two_minus, known)
        out[:known] = nb
    return out


def s_pow(ctx, a, e, prec):
    res = [0] * prec
    res[0] = 1
    base = list(a)
    if e < 0:
        raise SuperjacError(f"negative series power {e}")
    while e:
        if e & 1:
            res = s_mul(ctx, res, base, prec)
        e >>= 1
        if e:
            base = s_mul(ctx, base, base, prec)
    return res


def s_poly(ctx, coeffs, xs, prec):
    """Evaluate a polynomial (packed coefficient list) on a series."""
    acc = [0] * prec
    for c in reversed(coeffs):
        acc = s_mul(ctx, acc, xs, prec)
        acc[0] = ctx.add(acc[0], c)
    return acc


def s_first_nonzero(a):
    for i, c in enumerate(a):
        if c:
            return i
    return None


# ---------------------------------------------------------------------------
# local expansions


class LocalExpansion:
    """Power series x = x_ser(t), y = y_ser(t) in a local parameter t at
    an affine place, exact to prec terms."""

    __slots__ = ("curve", "place", "ctx", "prec", "x_ser", "y_ser")

    def __init__(self, curve, place, ctx, prec, x_ser, y_ser):
        self.curve = curve
        self.place = place
        self.ctx = ctx
        self.prec = prec
        self.x_ser = x_ser
        self.y_ser = y_ser

    def residual_order(self) -> int | None:
        """Order of y^m - F(x) along the expansion; None when it vanishes
        to working precision (the expected outcome)."""
        ctx, prec = self.ctx, self.prec
        ym = s_pow(ctx, self.y_ser, self.curve.m, prec)
        fx = s_poly(ctx, list(self.curve.ext_coeffs(ctx)), self.x_ser, prec)
        return s_first_nonzero(s_sub(ctx, ym, fx))

    def check(self) -> None:
        k = self.residual_order()
        if k is not None:
            raise InvariantViolation(f"expansion residual at order {k}")


def local_expansion(curve: CurveSpec, place, prec: int) -> LocalExpansion:
    """Exact local expansion at an affine place to prec terms, read from
    (or lengthened into) the one expansion the place keeps."""
    if curve.base is None:
        raise UnsupportedBase("local expansions need a finite base field")
    got = curve._exp_cache.get(place)
    if got is None or got.prec < prec:
        got = _expand(curve, place, prec, got)
        curve._exp_cache[place] = got
    if got.prec == prec:
        return got
    return LocalExpansion(curve, place, got.ctx, prec, got.x_ser[:prec],
                          got.y_ser[:prec])


def _place_point(curve: CurveSpec, place):
    """(ctx, x0, y0) for an affine place, with curve coefficients visible."""
    if isinstance(place, RamPlace):
        return (curve.base, *place.rep())
    if not isinstance(place, ClosedPlace):
        raise UnsupportedCollision(
            f"no local expansion at {place!r}: expansions are taken at "
            f"affine places only")
    if place.base_p != curve.base.p or place.base_n != curve.base.n:
        raise InvariantViolation(
            f"place {place.label()} lies over another base than "
            f"{curve.base.name()}")
    ctx = gf.field(place.base_p, place.base_n * place.b)
    x0, y0 = place.rep()
    return ctx, x0, y0


def _expand(curve: CurveSpec, place, prec: int,
            known: LocalExpansion | None = None) -> LocalExpansion:
    """The expansion at place to prec terms; the Newton lift starts from
    known, a shorter expansion at the same place, when one is given."""
    ctx, x0, y0 = _place_point(curve, place)
    cs = list(curve.ext_coeffs(ctx))
    m = curve.m
    t = [0] * prec
    if prec > 1:
        t[1] = 1
    if y0 != 0:
        # t = x - x0; y solves y^m = F(x0 + t)
        xs = [x0] + t[1:]
        fx = s_poly(ctx, cs, xs, prec)
        mm = m % ctx.p
        ys = _newton(ctx, known.y_ser if known else [y0], prec,
                     lambda y, k: s_sub(ctx, s_pow(ctx, y, m, k), fx[:k]),
                     lambda y, k: s_scale(ctx, s_pow(ctx, y, m - 1, k), mm))
    else:
        # ramification point: t = y; x solves F(x) = t^m
        der = gf.pderiv(ctx, cs)
        tm = [0] * prec
        if m < prec:
            tm[m] = 1
        xs = _newton(ctx, known.x_ser if known else [x0], prec,
                     lambda x, k: s_sub(ctx, s_poly(ctx, cs, x, k), tm[:k]),
                     lambda x, k: s_poly(ctx, der, x, k))
        ys = t
    exp = LocalExpansion(curve, place, ctx, prec, xs, ys)
    exp.check()
    return exp


def _newton(ctx, head, prec: int, resid, deriv) -> list[int]:
    """The series u with resid(u) = 0 that starts with head, to prec terms.

    head is an exact prefix of the root (its constant term alone for a
    fresh place).  resid and deriv map (u, k) to k terms of the equation
    and of its derivative in u; deriv(u)(0) must be a unit (s_inv checks
    it), which makes the root unique.  Each Newton step
    u <- u - resid/deriv doubles the number of correct terms.
    """
    known = len(head)
    u = list(head) + [0] * (prec - known)
    while known < prec:
        known = min(2 * known, prec)
        cur = u[:known]
        corr = s_mul(ctx, resid(cur, known),
                     s_inv(ctx, deriv(cur, known), known), known)
        u[:known] = s_sub(ctx, cur, corr)
    return u


# ---------------------------------------------------------------------------
# valuations


class _NeedMorePrecision(Exception):
    pass


def valuation(curve: CurveSpec, f: FunctionRep, place) -> int:
    """Exact valuation of f at a place (per branch at infinity)."""
    if isinstance(place, InfPlace):
        return _valuation_inf(curve, f)
    prec = max(8, 2 * curve.genus + 4)
    while prec <= PRECISION_CAP:
        try:
            return _series_val_affine(curve, f, place, prec)
        except _NeedMorePrecision:
            prec *= 2
    raise PrecisionExhausted(f"valuation at {place.label()} past the "
                             f"precision cap PRECISION_CAP = {PRECISION_CAP}")


def _valuation_inf(curve: CurveSpec, f: FunctionRep) -> int:
    """Closed form at infinity: g_j(x) y^j has branch order
    -(m deg g_j + r j)/d, and the smallest order wins unless it is shared
    (never when d = 1; see the module docstring)."""
    m, r, d = curve.m, curve.r, curve.d

    def deg(g) -> int:
        return len(gf.pnorm(list(g))) - 1

    # d divides both m and r, so every branch order is integral
    vals = [-((m * deg(g) + r * j) // d)
            for j, g in enumerate(f.nums) if any(g)]
    lo = min(vals)
    if vals.count(lo) > 1:
        raise UnsupportedCollision(
            "leading terms collide at infinity; need branch separation")
    return lo + (m * deg(f.den)) // d


def _series_val_affine(curve, f, place, prec: int) -> int:
    exp = local_expansion(curve, place, prec)
    ctx = exp.ctx
    emb = gf.embedding(curve.base, ctx)
    num = [0] * prec
    yp = [0] * prec
    yp[0] = 1
    for j, g in enumerate(f.nums):
        if any(g):
            gs = s_poly(ctx, [emb.apply(c) for c in g], exp.x_ser, prec)
            num = s_add(ctx, num, s_mul(ctx, gs, yp, prec))
        if j + 1 < curve.m:
            yp = s_mul(ctx, yp, exp.y_ser, prec)
    vn = s_first_nonzero(num)
    if vn is None:
        raise _NeedMorePrecision
    den = s_poly(ctx, [emb.apply(c) for c in f.den], exp.x_ser, prec)
    vd = s_first_nonzero(den)
    if vd is None:
        raise _NeedMorePrecision
    return vn - vd


# ---------------------------------------------------------------------------
# divisors of functions


def div_x_minus_root(curve: CurveSpec, i: int) -> Divisor:
    """div(x - alpha_i) = m R_i - (m/d) inf  (closed form)."""
    return Divisor([(curve.ram_place(i), curve.m),
                    (curve.inf_place(), -(curve.m // curve.d))])


def div_y(curve: CurveSpec) -> Divisor:
    """div(y) = sum_i R_i - (r/d) inf  (closed form)."""
    items = [(curve.ram_place(i), 1) for i in range(1, curve.r + 1)]
    items.append((curve.inf_place(), -(curve.r // curve.d)))
    return Divisor(items)


def principal_divisor(curve: CurveSpec, f: FunctionRep) -> Divisor:
    """Exact divisor of a nonzero function representative.

    Affine zeros are found through the y-resultant (the norm of the
    numerator down to k[x]); each x-fiber is then resolved into places
    and measured with the local expansion engine.  Requires d = 1 for
    the infinite part unless the function is y-monomial.
    """
    if curve.base is None:
        raise UnsupportedBase("principal divisors need a finite base")
    ctx = curve.base
    seen = set()
    for poly in (_numerator_norm(curve, f), f.den):
        for s, roots in _roots_by_degree(ctx, poly).items():
            sctx = gf.field(ctx.p, ctx.n * s)
            for x0 in roots:
                seen.update(places_above(curve, sctx, x0))
    out = []
    for place in sorted(seen, key=lambda pl: pl.sort_key()):
        v = valuation(curve, f, place)
        if v:
            out.append((place, v))
    div = Divisor(out)
    inf_v = _valuation_inf(curve, f)
    if inf_v:
        div = div + Divisor.single(curve.inf_place(), inf_v)
    if div.degree() != 0:
        raise InvariantViolation(f"divisor degree {div.degree()} != 0")
    return div


def _numerator_norm(curve: CurveSpec, f: FunctionRep) -> list[int]:
    """Norm of sum_j g_j y^j from k[x][y]/(y^m - F) down to k[x]."""
    ctx = curve.base
    m = curve.m
    F = list(curve.coeffs)
    mat = [[[] for _ in range(m)] for _ in range(m)]
    for t in range(m):
        for j, g in enumerate(f.nums):
            if not any(g):
                continue
            col = (j + t) % m
            entry = list(g)
            if j + t >= m:
                entry = gf.pmul(ctx, entry, F)
            mat[t][col] = gf.padd(ctx, mat[t][col], entry)
    det = _poly_det(ctx, mat)
    if not det:
        raise InvariantViolation("norm of a nonzero function vanished")
    return det


def _poly_det(ctx, mat) -> list[int]:
    """Fraction-free (Bareiss) determinant of a matrix of polynomials."""
    n = len(mat)
    m = [[list(c) for c in row] for row in mat]
    sign = 1
    denom = [1]
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return []
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = gf.psub(ctx, gf.pmul(ctx, m[i][j], m[k][k]),
                              gf.pmul(ctx, m[i][k], m[k][j]))
                if num:
                    q, r = gf.pdivmod(ctx, num, denom)
                    if r:
                        raise InvariantViolation(
                            "Bareiss division was not exact")
                    m[i][j] = q
                else:
                    m[i][j] = []
            m[i][k] = []
        denom = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = gf.pscale(ctx, det, ctx.neg(1))
    return det


def _roots_by_degree(ctx, poly) -> dict[int, list[int]]:
    """Distinct roots of poly grouped by extension degree over ctx, one
    root scan per block of gf.ddf."""
    out: dict[int, list[int]] = {}
    for s, g in gf.ddf(ctx, poly).items():
        # gf.field takes a prime of any size; a scan past the cap is refused
        gf.require_fits(ctx.p, ctx.n * s)
        sctx = gf.field(ctx.p, ctx.n * s)
        emb = gf.embedding(ctx, sctx)
        roots = gf.proots(sctx, [emb.apply(c) for c in g])
        if len(roots) != len(g) - 1:
            raise InvariantViolation("missing roots in DDF block")
        out[s] = roots
    return out


def places_above(curve: CurveSpec, sctx: gf.FieldCtx, x0: int) -> list:
    """All places of the curve over an x-coordinate stored in sctx.

    x0 is descended to its minimal field and replaced by the least member
    of its base-Frobenius orbit; conjugates lie under the same places, so
    each x-orbit is resolved once per curve.
    """
    base = curve.base
    orb = sctx.frob_orbit(x0, base.n)
    mctx = gf.field(base.p, base.n * len(orb))
    key = (mctx.n, min(_descend(base, mctx, sctx, orb)))
    got = curve._fibers.get(key)
    if got is None:
        got = tuple(_resolve_fiber(curve, mctx, key[1]))
        curve._fibers[key] = got
    return list(got)


def _descend(base: gf.FieldCtx, sub: gf.FieldCtx, ctx: gf.FieldCtx,
             vals) -> list[int]:
    """Elements of ctx lying in its subfield sub, as elements of sub.

    The embedding restricts to the canonical one on base, so the curve's
    coefficients mean the same in sub and in ctx.
    """
    if sub.n == ctx.n:
        return list(vals)
    emb = gf.compatible_embedding(base, sub, ctx)
    out = [emb.preimage(v) for v in vals]
    if None in out:
        raise InvariantViolation(f"element fails to descend to {sub.name()}")
    return out


def _resolve_fiber(curve: CurveSpec, sctx: gf.FieldCtx, x0: int) -> list:
    """The places over x0, sctx being x0's minimal field.

    The m points over x0 are taken in the least extension holding an m-th
    root of F(x0) and the m-th roots of unity, grouped into base-Frobenius
    orbits, and each orbit is descended to its minimal field.
    """
    base = curve.base
    m = curve.m
    if curve.eval_F(sctx, x0) == 0:
        ctx_pts, pts = sctx, [(x0, 0)]
    else:
        w = 0
        while True:
            w += 1
            if (sctx.order ** w - 1) % m:
                continue
            ctx_pts = gf.field(sctx.p, sctx.n * w)
            xi = gf.compatible_embedding(base, sctx, ctx_pts).apply(x0)
            y0 = ctx_pts.root(curve.eval_F(ctx_pts, xi), m)
            if y0 is not None:
                break
        zeta = ctx_pts.exp_gen((ctx_pts.order - 1) // m)
        pts = []
        for _ in range(m):
            pts.append((xi, y0))
            y0 = ctx_pts.mul(y0, zeta)
    done = set()
    places = []
    for x, y in pts:
        if (x, y) in done:
            continue
        xs = ctx_pts.frob_orbit(x, base.n)
        ys = ctx_pts.frob_orbit(y, base.n)
        b = math.lcm(len(xs), len(ys))
        done.update((xs[i % len(xs)], ys[i % len(ys)]) for i in range(b))
        mctx = gf.field(base.p, base.n * b)
        xs, ys = (_descend(base, mctx, ctx_pts, v) for v in (xs, ys))
        if b == 1 and ys[0] == 0:
            # base-rational ramification points keep their R_i identity
            places.append(curve.ram_place_at(xs[0]))
        else:
            places.append(closed_place(base, b, [
                (xs[i % len(xs)], ys[i % len(ys)]) for i in range(b)]))
    return places
