"""Ramification-torsion lattice structure, basis replay, principality.

Structure anchors verified by hand from the relation matrix:
  (2,6) -> (2,2,2,2)   (3,4) -> (3,3,3)   (4,6) -> (2,4,4,4,4)
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from superjac import curves, delta, gf
from superjac.curves import Divisor, make_curve, splitting_extension
from superjac.errors import (BudgetExceeded, PrecisionExhausted, RequiresD1,
                             RequiresSplitRoots)

REPLAY_GRID = [(2, 5, 11), (2, 7, 11), (3, 4, 7),
               (3, 5, 7), (4, 5, 7), (5, 6, 7)]


def split_curve(m: int, r: int, p: int):
    ctx = gf.field(p)
    return make_curve(m, gf.pfrom_roots(ctx, list(range(r))), ctx)


def test_delta_structure_anchors():
    assert delta.delta_structure(2, 6) == (2, 2, 2, 2)
    assert delta.delta_structure(3, 4) == (3, 3, 3)
    assert delta.delta_structure(4, 6) == (2, 4, 4, 4, 4)


def test_delta_structure_grid():
    for m in range(2, 7):
        for r in range(3, 9):
            d = math.gcd(m, r)
            got = delta.delta_structure(m, r)
            assert got == tuple(sorted([m] * (r - 2)
                                       + ([m // d] if m // d > 1 else [])))
            prod = 1
            for f in got:
                prod *= f
            assert prod == m ** (r - 2) * (m // d)


def test_a_set_anchors():
    assert delta.a_set(3, 4) == ((2, 1), (3, 1), (3, 2))
    assert delta.a_set(2, 5) == ((3, 1), (4, 1))


def test_presentation():
    c = split_curve(3, 4, 7)
    pres = delta.delta_presentation(c)
    assert pres.factors == (3, 3, 3)
    assert len(pres.generators) == 3
    assert pres.generators[0] == Divisor([(c.ram_place(1), 1),
                                          (c.ram_place(3), -1)])
    assert pres.generators[2] == Divisor([(c.ram_place(3), 1),
                                          (c.inf_place(), -1)])
    assert list(pres.relations) == [tuple(r) for r in
                                    delta.relation_rows(3, 4)]
    assert all(D.degree() == 0 for D in pres.generators)


def test_rr_basis_divisor_anchor():
    c = split_curve(3, 4, 7)
    ents = delta.rr_basis(c)
    assert [(e.i, e.j) for e in ents] == [(2, 1), (3, 1), (3, 2)]
    d21 = Divisor([(c.ram_place(1), -2), (c.ram_place(2), -2),
                   (c.ram_place(3), 1), (c.ram_place(4), 1),
                   (c.inf_place(), 2)])
    assert ents[0].divisor == d21
    for e in ents:
        assert e.divisor.degree() == 0
        assert e.divisor.coeff(c.ram_place(4)) == e.j


@pytest.mark.parametrize("m,r,p", REPLAY_GRID)
def test_replay_grid(m, r, p):
    cert = delta.replay_proof(split_curve(m, r, p))
    assert cert.verdict == "pass"
    assert len(cert.index_set) == cert.genus
    assert all(ch["pass"] for ch in cert.checks)
    assert {ch["tag"] for ch in cert.checks} >= {
        "degE", "ellE", "Asize", "ABsize", "membership", "ordRr",
        "triangular", "rank"}
    assert cert.rank_evidence[-1]["rank"] == cert.genus


def test_replay_over_splitting_field():
    # x^4 + 1 has no roots in F_5; all four live in F_25
    c = make_curve(3, [1, 0, 0, 0, 1], gf.field(5))
    assert not c.splits
    cs = splitting_extension(c)
    assert cs.base.n == 2 and len(cs.roots) == 4
    assert delta.replay_proof(cs).verdict == "pass"


def test_replay_with_collapsed_infinity():
    # d = 2: the ell(E) route is skipped, structural checks still run
    c = split_curve(4, 6, 7)
    cert = delta.replay_proof(c)
    assert cert.verdict == "pass"
    assert "ellE" not in {ch["tag"] for ch in cert.checks}
    assert len(cert.index_set) == c.genus == 7


def test_replay_deterministic():
    a = delta.replay_proof(split_curve(3, 4, 7), seed=5)
    b = delta.replay_proof(split_curve(3, 4, 7), seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.seed == 5


def test_replay_requires_roots():
    c = make_curve(3, [1, 1, 1], gf.field(2))
    with pytest.raises(RequiresSplitRoots):
        delta.replay_proof(c)


def test_decide_principal_anchors():
    c = split_curve(3, 4, 7)
    assert delta.decide_principal_delta(c, (3, 0, 0))
    assert not delta.decide_principal_delta(c, (1, 2, 0))
    assert delta.decide_principal_delta(c, (0, 0, 0))
    assert delta.decide_principal_delta(c, (3, 3, -3))
    assert not delta.decide_principal_delta(c, (2, -1, 3))


def test_decide_principal_requires_d1():
    c = split_curve(4, 6, 7)
    with pytest.raises(RequiresD1):
        delta.decide_principal_delta(c, (1,) * 5)


def test_decide_principal_exhaustive_oracle():
    # every call cross-checks against the function-space oracle
    c = split_curve(3, 4, 7)
    for a in itertools.product(range(-3, 4), repeat=3):
        got = delta.decide_principal_delta(c, a)
        assert got == all(x % 3 == 0 for x in a)


@given(st.tuples(*[st.integers(min_value=-2, max_value=2)] * 4))
@settings(max_examples=40, deadline=None)
def test_decide_principal_hyperelliptic_oracle(a):
    c = split_curve(2, 5, 11)
    assert delta.decide_principal_delta(c, a) == all(x % 2 == 0 for x in a)


def test_decide_principal_extension_base():
    ctx = gf.field(2, 4)
    cs = [gf.FieldElem(ctx, v) for v in gf.pfrom_roots(ctx, [0, 1, 2, 3, 4])]
    c = make_curve(3, cs, ctx)
    assert delta.decide_principal_delta(c, (3, 0, 3, 0))
    assert not delta.decide_principal_delta(c, (1, 1, 1, 1))
    assert delta.replay_proof(c).verdict == "pass"


def test_witness_past_the_precision_cap_is_a_capacity_refusal(monkeypatch):
    # the witness (x - alpha_1)^10 has valuation 20 at R1: re-checking it
    # needs more than 16 terms
    monkeypatch.setattr(curves, "PRECISION_CAP", 16)
    c = split_curve(2, 5, 11)
    with pytest.raises(PrecisionExhausted) as exc:
        delta.decide_principal_delta(c, (20, 0, 0, 0))
    assert isinstance(exc.value, BudgetExceeded)
    assert "R1" in str(exc.value)
    assert "PRECISION_CAP = 16" in str(exc.value)
    assert delta.decide_principal_delta(c, (8, 0, 0, 0))
