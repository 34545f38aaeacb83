"""Torsion from ramification divisors: lattice structure and proof replay.

On y^m = F(x) with F = prod (x - alpha_i) separable of degree r, the
divisor classes supported on the ramification points R_i and the degree-d
infinity divisor (d = gcd(m, r)) form a finite subgroup of the Jacobian
isomorphic to (Z/m)^(r-2) x Z/(m/d).  Two independent halves are glued:

  combinatorial half -- the known principal divisors div(x - alpha_i) and
  div(y) span a sublattice of the ambient lattice of candidate divisors;
  the Smith normal form of that inclusion yields the invariant factors
  above.  This bounds the subgroup from above and is pure integer linear
  algebra, independent of any concrete curve.

  instance half -- replay_proof certifies on a concrete curve that no
  further relation exists.  It exhibits the explicit basis f_ij =
  y^j / prod_{k<=i}(x - alpha_k), (i, j) in A, of the Riemann-Roch space
  of the auxiliary divisor E = -inf + sum_{i<r}(m-1) R_i, and checks that
  every basis element vanishes at R_r: a function realizing an extra
  relation would lie in L(E) yet keep R_r out of its divisor, which the
  basis makes impossible.  Each basis divisor is computed both from the
  closed formula and with the local-expansion valuation engine, which
  expands the curve at every R_k it meets.

When d = 1 the subgroup is generated by R_i - inf for i < r, and an
integer combination sum a_i (R_i - inf) is principal exactly when m
divides every a_i.  decide_principal_delta answers from that criterion
and cross-checks the brute-force principality oracle over finite bases.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import gf, picard, snf
from .curves import (CurveSpec, Divisor, FunctionRep, div_x_minus_root,
                     div_y, principal_divisor)
from .errors import (CheckFailed, InvariantViolation, OracleMismatch,
                     RequiresD1, RequiresSplitRoots, SuperjacError,
                     UnsupportedBase)

# retries for the randomized independence rank check
RANK_ATTEMPTS = 3


# ---------------------------------------------------------------------------
# combinatorial half: relation lattice and its cokernel


def relation_rows(m: int, r: int) -> list[list[int]]:
    """Known principal divisors in ambient-lattice coordinates.

    The ambient lattice consists of the degree-zero combinations
    sum a_i R_i - (sum a_i / d) inf with d | sum a_i, coordinatized by
    the basis b_i = R_i - R_r (i < r), b_r = d R_r - inf.  Rows list
    div(x - alpha_1), ..., div(x - alpha_r), div(y).
    """
    d = math.gcd(m, r)
    rows = []
    for i in range(r - 1):
        row = [0] * r
        row[i] = m
        row[r - 1] = m // d
        rows.append(row)
    rows.append([0] * (r - 1) + [m // d])
    rows.append([1] * (r - 1) + [r // d])
    return rows


def _ambient_coords(m: int, r: int, ram, c_inf: int) -> list[int]:
    """Coordinates of sum ram[i] R_{i+1} + c_inf*inf in the ambient basis.

    Raises InvariantViolation when the divisor is outside the lattice.
    """
    d = math.gcd(m, r)
    s = sum(ram)
    if s % d or c_inf != -(s // d):
        raise InvariantViolation("divisor outside the ambient lattice")
    return list(ram[: r - 1]) + [s // d]


def delta_structure(m: int, r: int) -> tuple[int, ...]:
    """Invariant factors of the ramification-supported subgroup.

    Computed as the cokernel of the relation rows; the result is then
    checked against the closed form (m/d, m, ..., m) with r - 2 copies
    of m and unit factors dropped.
    """
    if m < 2 or r < 2:
        raise SuperjacError(f"m and r must be at least 2, got m = {m}, "
                            f"r = {r}")
    d = math.gcd(m, r)
    factors = tuple(snf.cokernel_factors(relation_rows(m, r), r))
    predicted = [m] * (r - 2)
    if m // d > 1:
        predicted.append(m // d)
    if factors != tuple(sorted(predicted)):
        raise InvariantViolation(
            f"computed factors {factors} differ from closed form")
    return factors


@dataclass(frozen=True)
class DeltaPresentation:
    """Generators and relations of the subgroup for a concrete curve."""

    m: int
    r: int
    d: int
    generators: tuple      # divisors D_1..D_{r-1}
    ambient_basis: tuple   # basis vectors as (ram coefficients, inf coeff)
    relations: tuple       # relation rows in ambient coordinates
    factors: tuple         # invariant factors of the cokernel


def delta_presentation(curve: CurveSpec) -> DeltaPresentation:
    """Presentation with generators D_i = R_i - R_{r-1} (i <= r-2) and
    D_{r-1} = d R_{r-1} - inf, plus the relation matrix, membership-checked
    against the ambient lattice entry by entry."""
    if not curve.splits:
        raise RequiresSplitRoots("presentation needs the roots of F")
    m, r, d = curve.m, curve.r, curve.d
    inf = curve.inf_place()
    gens = [Divisor([(curve.ram_place(i), 1), (curve.ram_place(r - 1), -1)])
            for i in range(1, r - 1)]
    gens.append(Divisor([(curve.ram_place(r - 1), d), (inf, -1)]))
    basis = [tuple([1 if k == i else (-1 if k == r - 1 else 0)
                    for k in range(r)] + [0]) for i in range(r - 1)]
    basis.append(tuple([0] * (r - 1) + [d, -1]))
    rels = []
    for i in range(1, r + 1):
        D = div_x_minus_root(curve, i)
        ram = [D.coeff(curve.ram_place(k)) for k in range(1, r + 1)]
        rels.append(_ambient_coords(m, r, ram, D.coeff(inf)))
    D = div_y(curve)
    ram = [D.coeff(curve.ram_place(k)) for k in range(1, r + 1)]
    rels.append(_ambient_coords(m, r, ram, D.coeff(inf)))
    if rels != relation_rows(m, r):
        raise InvariantViolation("closed-form divisors disagree with the "
                                 "relation rows")
    return DeltaPresentation(m, r, d, tuple(gens), tuple(basis),
                             tuple(tuple(row) for row in rels),
                             delta_structure(m, r))


# ---------------------------------------------------------------------------
# instance half: explicit Riemann-Roch basis


def a_set(m: int, r: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), 0 < i < r, 0 < j < m, with im - jr > 0.

    The pairs index the basis functions f_ij; the reflection
    (i, j) -> (r - i, m - j) maps them onto the complementary pairs with
    im - jr < 0, so exactly genus many survive.
    """
    d = math.gcd(m, r)
    g = ((m - 1) * (r - 1) - (d - 1)) // 2
    pos = []
    neg = []
    for i in range(1, r):
        for j in range(1, m):
            s = i * m - j * r
            if s > 0:
                pos.append((i, j))
            elif s < 0:
                neg.append((i, j))
    if len(pos) != g or len(neg) != g or \
            {(r - i, m - j) for i, j in pos} != set(neg):
        raise InvariantViolation("the reflection does not pair A with its "
                                 "complement")
    return tuple(pos)


def special_divisor(curve: CurveSpec) -> Divisor:
    """E = -inf + sum_{i<r} (m-1) R_i, the degree 2g-1 pivot divisor."""
    items = [(curve.ram_place(i), curve.m - 1) for i in range(1, curve.r)]
    items.append((curve.inf_place(), -1))
    return Divisor(items)


def basis_function(curve: CurveSpec, i: int, j: int) -> FunctionRep:
    """f_ij = y^j / prod_{k<=i}(x - alpha_k)."""
    return FunctionRep.y_power_over_roots(curve, j, range(1, i + 1))


def basis_divisor_formula(curve: CurveSpec, i: int, j: int) -> Divisor:
    """div(f_ij) = sum_{k<=i}(j-m) R_k + sum_{k>i} j R_k + ((im-jr)/d) inf."""
    m, r, d = curve.m, curve.r, curve.d
    items = [(curve.ram_place(k), (j - m) if k <= i else j)
             for k in range(1, r + 1)]
    items.append((curve.inf_place(), (i * m - j * r) // d))
    return Divisor(items)


@dataclass(frozen=True)
class BasisEntry:
    i: int
    j: int
    function: FunctionRep
    divisor: Divisor


def rr_basis(curve: CurveSpec) -> tuple[BasisEntry, ...]:
    """Basis entries of L(E) indexed by a_set, with dual-route divisors.

    Every div(f_ij) is computed from the closed formula and re-derived
    with the valuation engine; any disagreement raises OracleMismatch.
    """
    if curve.base is None:
        raise UnsupportedBase(
            "run over a finite base; reduce the curve first")
    if not curve.splits:
        raise RequiresSplitRoots("basis functions need the roots of F")
    out = []
    for i, j in a_set(curve.m, curve.r):
        f = basis_function(curve, i, j)
        formula = basis_divisor_formula(curve, i, j)
        engine = principal_divisor(curve, f)
        if engine != formula:
            raise OracleMismatch(
                f"div(f_{i}{j}): engine {engine} vs formula {formula}")
        if formula.degree() != 0:
            raise InvariantViolation(f"div(f_{i}{j}) has degree "
                                     f"{formula.degree()}")
        out.append(BasisEntry(i, j, f, formula))
    return tuple(out)


# ---------------------------------------------------------------------------
# proof replay


@dataclass(frozen=True)
class ProofCertificate:
    """Machine-checkable trace of the subgroup-structure argument."""

    curve: str
    genus: int
    seed: int
    index_set: tuple
    checks: tuple       # dicts: tag, statement, witness, pass
    elements: tuple     # per-pair divisor records
    triangular: tuple   # per ramification index: (pole order, pair) list
    rank_evidence: tuple  # dicts, one per sampling attempt
    verdict: str

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "genus": self.genus,
            "seed": self.seed,
            "index_set": [list(p) for p in self.index_set],
            "checks": list(self.checks),
            "elements": list(self.elements),
            "independence": {
                "triangular": [
                    {"ram_index": i, "pole_orders": [list(t) for t in w]}
                    for i, w in self.triangular],
                "rank": list(self.rank_evidence),
            },
            "verdict": self.verdict,
        }


def _div_json(D: Divisor) -> list:
    return [[P.label(), c] for P, c in D.items()]


def _rank_evidence(curve: CurveSpec, entries, seed: int):
    """Evaluate all basis functions at genus random curve points and
    report the rank of the value matrix; up to RANK_ATTEMPTS samplings."""
    g = curve.genus
    rng = random.Random(seed)
    need = curve.m * (g + 4) + curve.r + 2
    e = 1
    while curve.base.order ** e < need:
        e += 1
    K = gf.field(curve.base.p, curve.base.n * e)
    emb = gf.embedding(curve.base, K)
    bad_x = {emb.apply(rt) for rt in curve.roots}
    attempts = []
    for _ in range(RANK_ATTEMPTS):
        pts = []
        used = set()
        guard = 0
        while len(pts) < g:
            guard += 1
            if guard >= 64 * need:
                raise InvariantViolation("point sampling stalled")
            x0 = rng.randrange(K.order)
            if x0 in used or x0 in bad_x:
                continue
            y0 = K.root(curve.eval_F(K, x0), curve.m)
            if y0 is None or y0 == 0:
                continue
            used.add(x0)
            pts.append((x0, y0))
        mat = [[ent.function.evaluate(K, x0, y0) for ent in entries]
               for x0, y0 in pts]
        rank = len(entries) - len(gf.nullspace(K, mat, len(entries)))
        attempts.append({
            "field": K.name(),
            "points": [[x0, y0] for x0, y0 in pts],
            "rank": rank,
            "target": g,
        })
        if rank == g:
            return True, tuple(attempts)
    return False, tuple(attempts)


def replay_proof(curve: CurveSpec, seed: int = 0) -> ProofCertificate:
    """Re-derive the subgroup structure on a concrete curve.

    Runs, in order: deg E = 2g - 1; ell(E) = g; |A| = g with the
    reflection bijection; E + div(f_ij) >= 0 per basis entry;
    ord_{R_r}(f_ij) = j >= 1; structural triangularity of pole orders at
    the finite ramification points; a seeded randomized evaluation-rank
    check.  Any failed sub-check raises CheckFailed with its tag.
    """
    entries = rr_basis(curve)
    m, r, g = curve.m, curve.r, curve.genus
    checks = []
    elements = []

    def check(tag: str, statement: str, witness, ok: bool) -> None:
        checks.append({"tag": tag, "statement": statement,
                       "witness": witness, "pass": bool(ok)})

    E = special_divisor(curve)
    check("degE", "deg E = 2g - 1", [E.degree(), 2 * g - 1],
          E.degree() == 2 * g - 1)
    if curve.d == 1:
        le = picard.ell(curve, E)
        check("ellE", "ell(E) = g", [le, g], le == g)
    pairs = a_set(m, r)
    check("Asize", "|A| = g", [len(pairs), g], len(pairs) == g)
    refl = {(r - i, m - j) for i, j in pairs}
    check("ABsize", "|A u B| = 2g via reflection",
          [len(pairs) + len(refl), 2 * g],
          not (set(pairs) & refl) and len(pairs) + len(refl) == 2 * g)

    ok_mem = True
    ok_ord = True
    for ent in entries:
        member = (E + ent.divisor).is_effective()
        ordrr = ent.divisor.coeff(curve.ram_place(r))
        elements.append({
            "pair": [ent.i, ent.j],
            "divisor": _div_json(ent.divisor),
            "in_L_E": member,
            "ord_at_R_r": ordrr,
        })
        ok_mem = ok_mem and member
        ok_ord = ok_ord and ordrr == ent.j and ordrr >= 1
    check("membership", "E + div(f_ij) >= 0 for all (i,j) in A",
          None, ok_mem)
    check("ordRr", "ord_{R_r}(f_ij) = j >= 1", None, ok_ord)

    # triangularity: at R_i, entries with first index i have pairwise
    # distinct pole orders while entries with smaller first index are
    # regular; infinity plays no role here
    tri = []
    ok_tri = True
    for i in sorted({ent.i for ent in entries}):
        Ri = curve.ram_place(i)
        orders = sorted((m - ent.j, (ent.i, ent.j))
                        for ent in entries if ent.i == i)
        distinct = len({o for o, _ in orders}) == len(orders)
        regular = all(ent.divisor.coeff(Ri) >= 0
                      for ent in entries if ent.i < i)
        poles = all(o > 0 for o, _ in orders)
        ok_tri = ok_tri and distinct and regular and poles
        tri.append((i, tuple((o, list(p)) for o, p in orders)))
    check("triangular", "pole orders at each R_i are distinct and lower "
          "entries are regular there", None, ok_tri)

    ok_rank, attempts = _rank_evidence(curve, entries, seed)
    check("rank", "evaluation matrix at g random points has rank g",
          {"attempts": len(attempts)}, ok_rank)

    verdict = "pass" if all(c["pass"] for c in checks) else "fail"
    cert = ProofCertificate(curve.name(), g, seed, pairs, tuple(checks),
                            tuple(elements), tuple(tri), attempts, verdict)
    if verdict != "pass":
        failed = next(c["tag"] for c in checks if not c["pass"])
        raise CheckFailed(failed, cert)
    return cert


# ---------------------------------------------------------------------------
# principality of combinations, d = 1


def combo_divisor(curve: CurveSpec, coeffs) -> Divisor:
    """sum a_i (R_i - inf) for i = 1..r-1; requires d = 1."""
    if curve.d != 1:
        raise RequiresD1("single infinite place needed")
    if not curve.splits:
        raise RequiresSplitRoots("combination needs the roots of F")
    a = list(coeffs)
    if len(a) != curve.r - 1:
        raise SuperjacError(f"expected {curve.r - 1} coefficients "
                            f"a_1..a_(r-1), got {len(a)}")
    items = [(curve.ram_place(i + 1), c) for i, c in enumerate(a)]
    items.append((curve.inf_place(), -sum(a)))
    return Divisor(items)


def decide_principal_delta(curve: CurveSpec, coeffs) -> bool:
    """Is sum a_i (R_i - inf) principal?  True iff m divides every a_i.

    Over a finite base the verdict is re-derived with the brute-force
    function-space oracle; disagreement raises OracleMismatch.
    """
    D = combo_divisor(curve, coeffs)
    verdict = all(c % curve.m == 0 for c in coeffs)
    if curve.base is not None:
        got = picard.is_principal(curve, D)
        if got != verdict:
            raise OracleMismatch(
                f"divisibility says {verdict}, oracle says {got} "
                f"for coefficients {list(coeffs)}")
    return verdict
