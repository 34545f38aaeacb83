"""Curve model: genus bookkeeping, local expansions, valuations, divisors.

Divisor-of-function oracles are frozen from hand calculations on small
split curves; the expansion engine must reproduce them exactly.
"""

import hashlib
import math
import random

import pytest

from superjac import curves, delta, gf, picard
from superjac.curves import (
    ClosedPlace,
    Divisor,
    FunctionRep,
    InfPlace,
    RamPlace,
    base_change,
    div_x_minus_root,
    div_y,
    local_expansion,
    make_curve,
    places_above,
    principal_divisor,
    s_mul,
    splitting_extension,
    valuation,
)
from superjac.errors import (
    BudgetExceeded,
    InvariantViolation,
    NotSeparable,
    UnsupportedBase,
    UnsupportedCollision,
)


def x_minus_root(curve, i: int) -> FunctionRep:
    """x - alpha_i as a function, 1-based i."""
    assert curve.splits
    nums = [() for _ in range(curve.m)]
    nums[0] = (curve.base.neg(curve.roots[i - 1]), 1)
    return FunctionRep(curve, nums)


def curve_34_f7():
    # y^3 = x(x-1)(x-2)(x-3) over GF(7)
    ctx = gf.field(7)
    cs = gf.pfrom_roots(ctx, [0, 1, 2, 3])
    return make_curve(3, cs, ctx)


def curve_25_f11():
    # y^2 = x(x-1)(x-2)(x-3)(x-4) over GF(11)
    ctx = gf.field(11)
    cs = gf.pfrom_roots(ctx, [0, 1, 2, 3, 4])
    return make_curve(2, cs, ctx)


def test_genus_and_gcd_bookkeeping():
    c = curve_34_f7()
    assert (c.m, c.r, c.d, c.genus) == (3, 4, 1, 3)
    c2 = curve_25_f11()
    assert (c2.m, c2.r, c2.d, c2.genus) == (2, 5, 1, 2)
    # d > 1 drops the genus: y^2 = degree-6 over GF(11)
    ctx = gf.field(11)
    c3 = make_curve(2, gf.pfrom_roots(ctx, [0, 1, 2, 3, 4, 5]), ctx)
    assert (c3.d, c3.genus) == (2, 2)
    assert c3.inf_place().degree == 2


def test_genus_over_rationals():
    c = make_curve(2, [0, 24, -50, 35, -10, 1])  # y^2 = x(x-1)...(x-4)
    assert c.base is None
    assert (c.r, c.d, c.genus) == (5, 1, 2)
    assert c.splits and [int(t) for t in c.roots] == [0, 1, 2, 3, 4]
    c2 = make_curve(2, [0, -1, 0, 0, 0, 1])  # y^2 = x^5 - x
    assert not c2.splits and len(c2.roots) == 3


def test_separability_rejected():
    ctx = gf.field(7)
    with pytest.raises(NotSeparable):
        make_curve(2, [0, 0, 0, 1], ctx)  # x^3, triple root
    with pytest.raises(NotSeparable):
        make_curve(2, [0, 0, -2, 0, 1])  # x^2(x^2 - 2), double root at 0


def test_char_dividing_m_rejected():
    ctx = gf.field(3)
    with pytest.raises(UnsupportedBase):
        make_curve(3, [1, 1, 1], ctx)


def test_coefficient_from_another_field_rejected():
    K = gf.field(3, 2)
    c = make_curve(2, [1, gf.FieldElem(K, 3), 0, 0, 0, 1], K)
    assert c.coeffs[1] == 3
    with pytest.raises(UnsupportedBase, match=r"GF\(3\) on a curve over "
                                              r"GF\(3\^2\)"):
        make_curve(2, [1, gf.FieldElem(gf.field(3), 1), 0, 0, 0, 1], K)


def test_roots_sorted_and_indexed():
    c = curve_34_f7()
    assert c.roots == (0, 1, 2, 3)
    assert c.ram_place(2) == RamPlace(2, 1)
    assert c.ram_place(2).degree == 1


def test_places_of_different_kinds_never_compare_equal():
    # the same field values in places of each kind
    kinds = [RamPlace(1, 1), InfPlace(1), ClosedPlace(1, 1, 1, ((1, 1),)),
             RamPlace(1, 2), InfPlace(2), ClosedPlace(1, 1, 2, ((1, 1),))]
    for i, P in enumerate(kinds):
        for j, Q in enumerate(kinds):
            assert (P == Q) is (i == j) and (P != Q) is (i != j), (P, Q)
    assert len(set(kinds)) == len({P: 0 for P in kinds}) == 6
    assert Divisor([(P, 1) for P in kinds]).degree() == 1 + 1 + 1 + 1 + 2 + 2


def test_place_order_keys_and_reprs_are_frozen():
    # every place of degree <= 2 on y^3 = x(x-1)(x-2)(x-3) over GF(7):
    # order, labels, reprs and divisor keys are part of the printed output
    c = curve_34_f7()
    places = picard.enumerate_places(c, 2)
    ordered = sorted(places, key=lambda P: P.sort_key())
    assert len(ordered) == 38
    assert [repr(P) for P in ordered[:2] + ordered[-2:]] == [
        "RamPlace(idx=1, alpha=0)", "RamPlace(idx=2, alpha=1)",
        "ClosedPlace(base_p=7, base_n=1, b=2, pts=((27, 42), (34, 7)))",
        "InfPlace(deg=1)"]
    assert [P.label() for P in ordered[:10]] == [
        "R1", "R2", "R3", "R4", "P1(5,1)", "P1(5,2)", "P1(5,4)",
        "P2(8,9)", "P2(8,18)", "P2(8,29)"]
    assert hashlib.sha256("\n".join(map(repr, ordered)).encode()) \
        .hexdigest() == ("ea12c21c9f0dc3a4a9b571ed1414784a"
                         "93c759421b7b9228e587c31a60e10be0")
    D = Divisor([(P, k) for k, P in enumerate(reversed(places), -3)])
    assert hashlib.sha256(D.key().encode()).hexdigest() == (
        "4575a762f6cf6e67bb62ddd7e2aed3a65c82f1263a05c29c3bb3619b56291984")
    E = Divisor([(ordered[0], 2), (ordered[5], -1), (ordered[-2], 1),
                 (ordered[-1], -3)])
    assert repr(E) == "Divisor(2*R1+-1*P1(5,2)+1*P2(27,42)+-3*inf)"


def test_expansion_residuals_affine():
    c = curve_34_f7()
    # unramified point: x=5, F(5)=5*4*3*2=120=1 mod 7, y^3=1 has y=1,2,4
    exp = local_expansion(c, ClosedPlace(7, 1, 1, ((5, 1),)), 10)
    assert exp.residual_order() is None
    assert exp.x_ser[0] == 5 and exp.y_ser[0] == 1
    # ramification point
    exp2 = local_expansion(c, c.ram_place(1), 10)
    assert exp2.residual_order() is None
    assert exp2.y_ser[:2] == [0, 1]
    # x - alpha has t-order m at the ramification point
    assert exp2.x_ser[0] == 0
    assert all(v == 0 for v in exp2.x_ser[1:3])
    assert exp2.x_ser[3] != 0


# (x_ser, y_ser) at prec 12, frozen; an expansion is unique once the
# local parameter t is fixed, so any correct Newton lift reproduces them
EXPANSION_ANCHORS = [
    # unramified point (5, 1) on y^3 = x(x-1)(x-2)(x-3) over GF(7)
    ("34_f7", ClosedPlace(7, 1, 1, ((5, 1),)),
     [5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [1, 0, 5, 0, 1, 0, 2, 0, 3, 0, 2, 0]),
    # ramification point R2 = (1, 0)
    ("34_f7", RamPlace(2, 1),
     [1, 0, 0, 4, 0, 0, 1, 0, 0, 5, 0, 0],
     [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    # the degree-3 place over x = 4
    ("34_f7", ClosedPlace(7, 1, 3, ((4, 147), (4, 245), (4, 294))),
     [4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [147, 245, 49, 294, 294, 0, 294, 49, 49, 98, 49, 147]),
    # (2, 3) on y^3 = x^4 + x + 1 over GF(4)
    ("31001_f4", ClosedPlace(2, 2, 1, ((2, 3),)),
     [2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [3, 3, 3, 3, 3, 0, 3, 0, 0, 0, 3, 3]),
]


@pytest.mark.parametrize("which,place,x_ser,y_ser", EXPANSION_ANCHORS)
def test_expansion_anchors(which, place, x_ser, y_ser):
    c = curve_34_f7() if which == "34_f7" else \
        make_curve(3, [1, 1, 0, 0, 1], gf.field(2, 2))
    exp = local_expansion(c, place, 12)
    assert (exp.x_ser, exp.y_ser) == (x_ser, y_ser)
    assert exp.residual_order() is None


@pytest.mark.parametrize("r,d", [(5, 1), (6, 2)])
def test_no_expansion_at_infinity(r, d):
    ctx = gf.field(11)
    c = make_curve(2, gf.pfrom_roots(ctx, list(range(r))), ctx)
    assert c.d == d
    with pytest.raises(UnsupportedCollision):
        local_expansion(c, c.inf_place(), 8)


# one place of each kind: (curve key, x-degree over the base of the place
# sought, ramified); y^2 = x^5 + 2x + 1 over GF(5) has all four pairings
# of ramified/unramified with a prime/extension residue field, and
# y^3 = x^4 + x + 1 over GF(4) adds a non-prime base
GROWTH_CURVES = {
    "f5": (2, [1, 2, 0, 0, 0, 1], (5, 1)),
    "f4": (3, [1, 1, 0, 0, 1], (2, 2)),
}
GROWTH_PLACES = [("f5", 1, True), ("f5", 4, True), ("f5", 1, False),
                 ("f5", 2, False), ("f4", 2, True), ("f4", 1, False),
                 ("f4", 2, False)]


def growth_curve(key):
    m, cs, (p, n) = GROWTH_CURVES[key]
    return make_curve(m, cs, gf.field(p, n))


def growth_place(curve, b: int, ramified: bool):
    """The first place of the curve over an x of degree b, y0 = 0 or not."""
    base = curve.base
    xctx = gf.field(base.p, base.n * b)
    for x0 in xctx.elements():
        if len(xctx.frob_orbit(x0, base.n)) != b:
            continue
        for P in places_above(curve, xctx, x0):
            if (P.rep()[1] == 0) == ramified:
                return P
    raise AssertionError(f"no place of that kind over degree {b}")


@pytest.mark.parametrize("order", [(3, 9, 30), (30, 5), (7, 7)])
@pytest.mark.parametrize("key,b,ramified", GROWTH_PLACES)
def test_grown_expansion_equals_fresh(key, b, ramified, order):
    # one expansion per place: lengthened, shortened or asked again, every
    # answer equals an expansion computed from scratch at that precision
    c = growth_curve(key)
    P = growth_place(c, b, ramified)
    for prec in order:
        got = local_expansion(c, P, prec)
        fresh = curves._expand(growth_curve(key), P, prec)
        assert (got.prec, got.ctx, got.x_ser, got.y_ser) == \
            (prec, fresh.ctx, fresh.x_ser, fresh.y_ser)
        assert got.residual_order() is None
        assert list(c._exp_cache) == [P]
        assert c._exp_cache[P].prec == max(order[:order.index(prec) + 1])


def test_growth_places_cover_every_kind():
    kinds = set()
    for key, b, ramified in GROWTH_PLACES:
        c = growth_curve(key)
        le = local_expansion(c, growth_place(c, b, ramified), 2)
        assert (le.y_ser[0] == 0) == ramified
        kinds.add((ramified, le.ctx.n == 1))
    assert kinds == {(r, pr) for r in (False, True) for pr in (False, True)}


@pytest.mark.parametrize("key,b,ramified", GROWTH_PLACES)
def test_shorter_or_repeated_request_takes_no_newton_step(
        monkeypatch, key, b, ramified):
    # only a longer request lifts, and every lift re-checks the residual
    # at its new length
    calls = []
    checks = []
    real = curves._newton
    real_check = curves.LocalExpansion.check

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    def checking(self):
        checks.append(self.prec)
        return real_check(self)

    monkeypatch.setattr(curves, "_newton", counting)
    monkeypatch.setattr(curves.LocalExpansion, "check", checking)
    c = growth_curve(key)
    P = growth_place(c, b, ramified)
    local_expansion(c, P, 30)
    assert calls == checks == [30]
    local_expansion(c, P, 5)
    local_expansion(c, P, 30)
    assert calls == checks == [30]
    local_expansion(c, P, 40)
    assert calls == checks == [30, 40]


def test_wrong_expansion_fails_its_check():
    c = curve_34_f7()
    good = local_expansion(c, c.ram_place(1), 10)
    bad_x = list(good.x_ser)
    bad_x[5] = (bad_x[5] + 1) % 7
    bad = curves.LocalExpansion(c, good.place, good.ctx, good.prec, bad_x,
                                good.y_ser)
    assert bad.residual_order() == 5
    with pytest.raises(InvariantViolation):
        bad.check()


def test_rr_basis_expands_at_every_ramification_point(monkeypatch):
    # criterion 10's curve: the engine half of rr_basis must measure
    # each div(f_ij) from series, not from the closed formula it checks
    c = curve_25_f11()
    seen = set()
    real = curves.local_expansion

    def recording(curve, place, prec=None):
        seen.add(place)
        return real(curve, place, prec)

    monkeypatch.setattr(curves, "local_expansion", recording)
    entries = delta.rr_basis(c)
    assert len(entries) == c.genus
    assert {c.ram_place(k) for k in range(1, 6)} <= seen


def test_infinite_valuations_of_coordinates():
    c = curve_34_f7()
    x_fn = FunctionRep(c, [(0, 1), (), ()])
    y_fn = FunctionRep(c, [(), (1,), ()])
    assert valuation(c, x_fn, c.inf_place()) == -3
    assert valuation(c, y_fn, c.inf_place()) == -4


def test_divisor_of_x_minus_root_matches_closed_form():
    c = curve_34_f7()
    got = principal_divisor(c, x_minus_root(c, 1))
    assert got == div_x_minus_root(c, 1)
    assert got.coeff(c.ram_place(1)) == 3
    assert got.coeff(c.inf_place()) == -3
    assert got.degree() == 0


def test_divisor_of_y_matches_closed_form():
    c = curve_34_f7()
    y_fn = FunctionRep(c, [(), (1,), ()])
    got = principal_divisor(c, y_fn)
    assert got == div_y(c)
    assert got.coeff(c.inf_place()) == -4


def test_divisor_of_basis_function_oracle():
    # f = y / ((x - a1)(x - a2)) on the (3,4) curve:
    # div(f) = -2 R1 - 2 R2 + R3 + R4 + 2 inf
    c = curve_34_f7()
    f = FunctionRep.y_power_over_roots(c, 1, [1, 2])
    got = principal_divisor(c, f)
    want = Divisor([
        (c.ram_place(1), -2), (c.ram_place(2), -2),
        (c.ram_place(3), 1), (c.ram_place(4), 1),
        (c.inf_place(), 2),
    ])
    assert got == want


def test_inert_fiber_produces_degree_three_place():
    # F(4) = 3 in GF(7) is a cube only in GF(7^3)
    c = curve_34_f7()
    pls = places_above(c, gf.field(7), 4)
    assert len(pls) == 1
    (pl,) = pls
    assert isinstance(pl, ClosedPlace) and pl.degree == 3
    xm4 = FunctionRep(c, [(3, 1), (), ()])  # x - 4 = x + 3
    got = principal_divisor(c, xm4)
    assert got == Divisor([(pl, 1), (c.inf_place(), -3)])


def test_split_fiber_produces_three_rational_places():
    # F(5) = 1 in GF(7); y^3 = 1 splits: y = 1, 2, 4
    c = curve_34_f7()
    pls = places_above(c, gf.field(7), 5)
    assert len(pls) == 3
    assert all(p.degree == 1 for p in pls)
    assert sorted(p.rep()[1] for p in pls) == [1, 2, 4]


def test_ramified_fiber_returns_ram_place():
    c = curve_25_f11()
    pls = places_above(c, gf.field(11), 2)
    assert pls == [RamPlace(3, 2)]


def test_high_valuation_triggers_precision_retry():
    # (x - 0)^6 vanishes to order 12 at R1, beyond the default precision
    c = curve_25_f11()
    ctx = c.base
    poly = [0] * 7
    poly[6] = 1
    f = FunctionRep(c, [tuple(poly), ()])
    assert valuation(c, f, c.ram_place(1)) == 12


def test_divisor_degree_always_zero():
    c = curve_25_f11()
    # a messier function: (y + x^2) / (x - 1)
    f = FunctionRep(c, [(0, 0, 1), (1,)], (10, 1))
    got = principal_divisor(c, f)
    assert got.degree() == 0
    assert not got.is_zero()


def test_divisor_arithmetic():
    c = curve_34_f7()
    d1 = div_x_minus_root(c, 1)
    d2 = div_y(c)
    s = d1 + d2
    assert s.coeff(c.ram_place(1)) == 4
    assert (s - d1) == d2
    assert d1.scale(0).is_zero()
    assert (-d1).degree() == 0
    assert d2.key() == "1*R1+1*R2+1*R3+1*R4+-4*inf"


def test_base_change_and_splitting_extension():
    # y^3 = x^4 + 1 over GF(5): no rational roots, splits over GF(25)
    ctx = gf.field(5)
    c = make_curve(3, [1, 0, 0, 0, 1], ctx)
    assert not c.splits and c.roots == ()
    cs = splitting_extension(c)
    assert cs.base.order == 25
    assert len(cs.roots) == 4
    # the split model agrees with a direct base change
    cbc = base_change(c, gf.field(5, 2))
    assert cbc.roots == cs.roots
    assert cbc.genus == c.genus == 3


def test_function_evaluate():
    c = curve_34_f7()
    ctx = c.base
    f = FunctionRep.y_power_over_roots(c, 1, [1])
    # at (5, 1): y/(x - 0) = 1/5
    assert f.evaluate(ctx, 5, 1) == ctx.div(1, 5)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(ctx, 0, 0)


def test_infinity_collision_detection():
    ctx = gf.field(11)
    c = make_curve(2, gf.pfrom_roots(ctx, [0, 1, 2, 3, 4, 5]), ctx)  # d = 2
    y_fn = FunctionRep(c, [(), (1,)])
    # single-term functions are fine: val_inf(y) = -r/d = -3 per branch
    assert valuation(c, y_fn, c.inf_place()) == -3
    x_fn = FunctionRep(c, [(0, 1), ()])
    assert valuation(c, x_fn, c.inf_place()) == -1
    # y and x^3 share the branch valuation -3; the sum is ambiguous
    mixed = FunctionRep(c, [(0, 0, 0, 1), (1,)])
    with pytest.raises(UnsupportedCollision):
        valuation(c, mixed, c.inf_place())


# past 256 elements the field tables are arrays, not lists: GF(1009),
# GF(2^9)
@pytest.mark.parametrize("p,n", [(2, 1), (7, 1), (2, 2), (3, 2), (2, 8),
                                 (3, 4), (1009, 1), (2, 9)])
def test_s_mul_matches_schoolbook(p, n):
    ctx = gf.field(p, n)
    rng = random.Random(31 * p + n)
    for _ in range(40):
        a = [rng.choice((0, rng.randrange(ctx.order))) for _ in
             range(rng.randrange(0, 12))]
        b = [rng.choice((0, rng.randrange(ctx.order))) for _ in
             range(rng.randrange(0, 12))]
        full = [0] * (len(a) + len(b))
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                full[i + j] = ctx.add(full[i + j], ctx.mul(ai, bj))
        # prec below, at and past the operand lengths
        for prec in (1, 2, 5, len(a), len(b), 16):
            want = (full + [0] * prec)[:prec]
            assert s_mul(ctx, a, b, prec) == want


# ---------------------------------------------------------------------------
# the fiber route against the resolution it replaced


def _places_above_reference(curve, sctx, x0):
    """Places over x0 as resolved before the fiber table: in the storage
    field sctx, y0 read off the discrete log, canonical embeddings, no
    descent, no orbit minimum, no memo.  An oracle only where those
    embeddings agree with the base's, as for x0 in its minimal field on
    the curves it is compared on."""
    base = curve.base
    z = curve.eval_F(sctx, x0)
    m = curve.m
    pts = []
    if z == 0:
        pts.append((sctx, x0, 0))
    else:
        w = 1
        yctx = sctx
        while True:
            t = math.gcd(m, yctx.order - 1)
            zi = gf.embedding(sctx, yctx).apply(x0)
            zz = curve.eval_F(yctx, zi)
            if t == m and zz and yctx.dlog(zz) % m == 0:
                y0 = yctx.exp_gen(yctx.dlog(zz) // m)
                zeta = yctx.exp_gen((yctx.order - 1) // m)
                yv = y0
                for _ in range(m):
                    pts.append((yctx, zi, yv))
                    yv = yctx.mul(yv, zeta)
                break
            w += 1
            yctx = gf.field(sctx.p, sctx.n * w)
    e = base.n
    done = set()
    places = []
    ctx_pts = pts[0][0]
    for pt in [(x, y) for (_, x, y) in pts]:
        if pt in done:
            continue
        orbit = []
        cur = pt
        while True:
            orbit.append(cur)
            done.add(cur)
            cur = (ctx_pts.frob(cur[0], e), ctx_pts.frob(cur[1], e))
            if cur == pt:
                break
        b = len(orbit)
        mctx = gf.field(base.p, e * b)
        if mctx.n == ctx_pts.n:
            min_orbit = orbit
        else:
            emb = gf.embedding(mctx, ctx_pts)
            min_orbit = [(emb.preimage(xx), emb.preimage(yy))
                         for xx, yy in orbit]
        if b == 1 and min_orbit[0][1] == 0:
            places.append(curve.ram_place_at(min_orbit[0][0]))
        else:
            places.append(curves.closed_place(base, b, min_orbit))
    return places


def _fiber_curves():
    return {
        "y3_f7": curve_34_f7(),
        "y2_f11": curve_25_f11(),
        # y^3 = x^4 + x + 1 over GF(4), y^2 = x^5 + X x + 1 over GF(9)
        "y3_f4": make_curve(3, [1, 1, 0, 0, 1], gf.field(2, 2)),
        "y2_f9": make_curve(2, [1, gf.FieldElem(gf.field(3, 2), 3), 0, 0, 0,
                                1], gf.field(3, 2)),
        # y^5 = x^2 + x + X over GF(8): x in GF(64) takes its y in GF(2^12),
        # where the canonical embeddings of GF(8) and GF(64) disagree
        "y5_f8": make_curve(5, [gf.FieldElem(gf.field(2, 3), 2), 1, 1],
                            gf.field(2, 3)),
    }


def _fiber_or_refusal(fn, curve, sctx, x0):
    try:
        return set(fn(curve, sctx, x0))
    except BudgetExceeded:
        return "refused"


@pytest.mark.parametrize("name", ["y3_f7", "y2_f11", "y3_f4", "y2_f9"])
def test_places_above_matches_reference(name):
    # every x of GF(q^s), s <= 3, against the reference in its minimal
    # field GF(q^d): passed as every conjugate, stored in each GF(q^s) that
    # holds it, in GF(q^(2d)) and in GF(q^6); over GF(9) the canonical
    # embeddings GF(9) -> GF(3^4) -> GF(3^12) do not compose to the
    # canonical GF(9) -> GF(3^12), so that storage tests the descent
    curve = _fiber_curves()[name]
    base = curve.base
    for d in (1, 2, 3):
        sctx = gf.field(base.p, base.n * d)
        for x0 in sctx.elements():
            orb = sctx.frob_orbit(x0, base.n)
            if len(orb) != d:
                continue
            want = _fiber_or_refusal(_places_above_reference, curve, sctx, x0)
            for t in sorted({1, 2, 3 // d, 6 // d}):
                big = gf.field(base.p, base.n * d * t)
                emb = gf.compatible_embedding(base, sctx, big)
                for xc in orb:
                    got = _fiber_or_refusal(places_above, curve, big,
                                            emb.apply(xc))
                    assert got == want, (d, t, x0, xc)


@pytest.mark.parametrize("name", ["y3_f7", "y3_f4", "y2_f9", "y5_f8"])
def test_places_above_points_lie_over_the_orbit(name):
    # independent of any resolution: each place's points lie on the curve
    # over a conjugate of x, and together they are the whole fiber
    curve = _fiber_curves()[name]
    base = curve.base
    for d in (1, 2):
        sctx = gf.field(base.p, base.n * d)
        for x0 in sctx.elements():
            orb = sctx.frob_orbit(x0, base.n)
            if len(orb) != d:
                continue
            pts = set()
            for P in places_above(curve, sctx, x0):
                K = gf.field(base.p, base.n * P.degree)
                L = gf.field(base.p, base.n * math.lcm(P.degree, d))
                over = {gf.compatible_embedding(base, sctx, L).apply(x)
                        for x in orb}
                emb = gf.compatible_embedding(base, K, L)
                ppts = [(P.alpha, 0)] if isinstance(P, RamPlace) else P.pts
                for x, y in ppts:
                    assert K.pow(y, curve.m) == curve.eval_F(K, x)
                    assert emb.apply(x) in over
                    pts.add((emb.apply(x), emb.apply(y), L.n))
            per_x = 1 if curve.eval_F(sctx, x0) == 0 else curve.m
            assert len(pts) == d * per_x, (d, x0)


def test_places_above_resolves_each_x_orbit_once(monkeypatch):
    curve = curve_34_f7()
    calls = []
    real = curves._resolve_fiber

    def counting(c, sctx, x0):
        calls.append((sctx.n, x0))
        return real(c, sctx, x0)

    monkeypatch.setattr(curves, "_resolve_fiber", counting)
    base = curve.base
    orbits = set()
    for s in (1, 2):
        sctx = gf.field(7, s)
        for x0 in sctx.elements():
            orb = sctx.frob_orbit(x0, base.n)
            orbits.add(frozenset(gf.embedding(gf.field(7, len(orb)), sctx)
                                 .preimage(x) for x in orb))
            for _ in range(2):
                first = places_above(curve, sctx, x0)
                again = places_above(curve, sctx, x0)
                assert first == again and first is not again
    assert len(calls) == len(set(calls)) == len(orbits)


# ---------------------------------------------------------------------------
# roots of norms: one scan per gf.ddf block, against the route it replaced


def _oracle_ddf(ctx, sf):
    """Distinct-degree factorisation of a squarefree polynomial."""
    out = {}
    S = gf.pscale(ctx, sf, ctx.inv(sf[-1]))
    h = [0, 1]
    s = 0
    while len(S) > 1:
        s += 1
        if 2 * s > len(S) - 1:
            out[len(S) - 1] = S
            break
        h = gf.ppow_mod(ctx, h, ctx.order, S)
        g = gf.pgcd(ctx, S, gf.psub(ctx, h, [0, 1]))
        if len(g) > 1:
            out[s] = g
            S, rem = gf.pdivmod(ctx, S, g)
            assert not rem
            if len(S) <= 1:
                break
            _, h = gf.pdivmod(ctx, h, S)
    return out


def _oracle_roots_by_degree(ctx, poly):
    """The former root search: split off the squarefree part by
    gcd(F, F'), recurse through Frobenius preimages when F' = 0, and
    scan each distinct-degree block of the squarefree part."""
    out = {}
    stack = [gf.pnorm(list(poly))]
    while stack:
        cur = gf.pnorm(stack.pop())
        if len(cur) <= 1:
            continue
        der = gf.pderiv(ctx, cur)
        if not der:
            # cur = U(x^p); p-th roots are Frobenius preimages, same fields
            U = [cur[i] for i in range(0, len(cur), ctx.p)]
            for s, roots in _oracle_roots_by_degree(ctx, U).items():
                sctx = gf.field(ctx.p, ctx.n * s)
                out.setdefault(s, set()).update(
                    sctx.frob(r, sctx.n - 1) for r in roots)
            continue
        g = gf.pgcd(ctx, cur, der)
        sf = cur
        if len(g) > 1:
            stack.append(g)
            sf, rem = gf.pdivmod(ctx, cur, g)
            assert not rem
        for s, blk in _oracle_ddf(ctx, sf).items():
            sctx = gf.field(ctx.p, ctx.n * s)
            emb = gf.embedding(ctx, sctx)
            roots = gf.proots(sctx, [emb.apply(c) for c in blk])
            assert len(roots) == len(blk) - 1
            out.setdefault(s, set()).update(roots)
    return {s: sorted(v) for s, v in sorted(out.items())}


def _random_norm(rng, ctx):
    """A product of 1-3 random monic factors of degree 1-3, each to the
    power 1, 2, 3 or p, sometimes composed with x -> x^p."""
    poly = [rng.randrange(1, ctx.order)]
    for _ in range(rng.randint(1, 3)):
        fac = [rng.randrange(ctx.order) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.choice((1, 2, 3, ctx.p))):
            poly = gf.pmul(ctx, poly, fac + [1])
    if rng.random() < 0.3:
        spread = [0] * (ctx.p * (len(poly) - 1) + 1)
        spread[::ctx.p] = poly
        poly = spread
    return poly


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (3, 2), (2, 3)])
def test_roots_by_degree_matches_the_squarefree_oracle(p, n):
    ctx = gf.field(p, n)
    rng = random.Random(1000 * p + n)
    mismatches = []
    for _ in range(100):
        poly = _random_norm(rng, ctx)
        want = _oracle_roots_by_degree(ctx, poly)
        blocks = gf.ddf(ctx, poly)
        if curves._roots_by_degree(ctx, poly) != want or \
                {s: len(g) - 1 for s, g in blocks.items()} != \
                {s: len(r) for s, r in want.items()}:
            mismatches.append(poly)
    assert mismatches == []


def test_root_scan_past_the_table_cap_is_refused():
    # a prime field needs no tables, so the scan itself checks the cap
    with pytest.raises(BudgetExceeded, match=r"root scan over GF\(4194319\)"):
        curves._roots_by_degree(gf.field(4194319), [1, 1])
