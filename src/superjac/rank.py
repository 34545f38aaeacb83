"""Mordell-Weil rank lower-bound certificates.

Family: y^m = (x - a_1)...(x - a_r) + k^m over Q with gcd(m, r) = 1.
The points P_i = (a_i, k) give classes D_i = P_i - inf generating a
subgroup of the rational points of the Jacobian.  When a prime p has

  H1  p does not divide m,
  H2  p divides k,
  H3  the a_i stay pairwise distinct mod p,
  H4  gcd(m, r) = 1,

the curve reduces mod p to the split model y^m = prod(x - a_i), where a
combination sum c_i D_i can only die if m divides every c_i; combined
with m-torsion-freeness of the subgroup this forces freeness of rank
r - 1.  check_freeness_hypotheses reports these conditions per prime.

certify_rank packages the arranged instance with roots 0..p-1 and shift
k^q (q prime, q | p - 1, p odd): reduction at p itself gives the
Artin-Schreier model y^q = x^p - x + a, a = k^q mod p, always separable
(derivative -1), and the reduced Jacobian order is provably prime to q,
so the rational torsion that survives reduction contains no q-torsion
and the generators are free: rank >= p - 1.  The certificate carries
every hypothesis with a witness, the numeric evidence, and the relation
sum D_i = div(y - k), whose reduction is re-verified with the valuation
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import zeta
from .curves import Divisor, FunctionRep, closed_place, principal_divisor
from .errors import (EvidenceFailed, HypothesisFailed, InvariantViolation,
                     OracleMismatch, SuperjacError)
from .primes import factorize, is_prime


@dataclass(frozen=True)
class Hypothesis:
    id: str
    statement: str
    witness: object
    ok: bool

    def to_dict(self) -> dict:
        return {"id": self.id, "statement": self.statement,
                "witness": self.witness, "pass": self.ok}


@dataclass(frozen=True)
class HypothesisReport:
    items: tuple

    def all_pass(self) -> bool:
        return all(h.ok for h in self.items)

    def failed(self) -> tuple:
        return tuple(h for h in self.items if not h.ok)

    def to_list(self) -> list[dict]:
        return [h.to_dict() for h in self.items]


def check_freeness_hypotheses(m: int, roots, k: int,
                              p: int) -> HypothesisReport:
    """The four reduction conditions at a prime p, each with a witness.

    Failures are reported, never raised; H3 carries the first colliding
    pair of roots when it fails.
    """
    if not is_prime(p):
        raise SuperjacError(f"the modulus must be prime, got {p}")
    roots = tuple(int(a) for a in roots)
    r = len(roots)
    items = [Hypothesis("H1", "p does not divide m",
                        {"m_mod_p": m % p}, m % p != 0),
             Hypothesis("H2", "p divides k",
                        {"k_mod_p": k % p}, k % p == 0)]
    collide = None
    seen: dict[int, int] = {}
    for a in roots:
        if a % p in seen:
            collide = [seen[a % p], a]
            break
        seen[a % p] = a
    items.append(Hypothesis("H3", "roots are pairwise incongruent mod p",
                            {"colliding_pair": collide}, collide is None))
    items.append(Hypothesis("H4", "gcd(m, r) = 1",
                            {"gcd": math.gcd(m, r)}, math.gcd(m, r) == 1))
    return HypothesisReport(tuple(items))


def find_witness_prime(m: int, roots, k: int) -> int | None:
    """Smallest prime divisor of k at which all four conditions hold.

    H2 holds for any divisor by construction; scanning is in increasing
    order, so the first hit is minimal.  None when no divisor works.
    The curve must be one that make_curve accepts up to separability:
    m >= 2 and at least two distinct roots.
    """
    if m < 2:
        raise SuperjacError(f"m must be at least 2, got {m}")
    if len(set(roots)) < 2:
        raise SuperjacError(f"y^m = prod(x - a_i) needs at least two "
                            f"distinct roots, got {list(roots)}")
    if k == 0:
        return None
    for p in sorted(factorize(abs(k))):
        rep = check_freeness_hypotheses(m, roots, k, p)
        if rep.all_pass():
            return p
    return None


# ---------------------------------------------------------------------------
# arranged family y^q = x(x-1)...(x-(p-1)) + k^q


@dataclass(frozen=True)
class RankCertificate:
    """Self-contained record: hypotheses, evidence, conclusion."""

    m: int
    roots: tuple
    k: int
    prime: int
    hypotheses: tuple   # Hypothesis instances
    evidence: dict
    rank_lower_bound: int
    generators: tuple   # (i, [x, y]) for D_i = P_i - inf
    relation: str
    note: str

    def to_dict(self) -> dict:
        return {
            "curve": {"m": self.m, "roots": list(self.roots), "k": self.k},
            "prime": self.prime,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "evidence": dict(self.evidence),
            "conclusion": {
                "rank_lower_bound": self.rank_lower_bound,
                "generators": [[i, list(pt)] for i, pt in self.generators],
                "relation": self.relation,
                "note": self.note,
            },
        }


def _theorem_hypotheses(p: int, q: int, k: int) -> HypothesisReport:
    items = [Hypothesis("T1", "p is an odd prime",
                        {"p": p}, is_prime(p) and p % 2 == 1),
             Hypothesis("T2", "q is prime and divides p - 1",
                        {"q": q, "p_minus_1_mod_q": (p - 1) % q},
                        is_prime(q) and (p - 1) % q == 0)]
    big = None
    if k != 0:
        big = next((f for f in sorted(factorize(abs(k))) if f > p), None)
    items.append(Hypothesis("T3", "some prime larger than p divides k",
                            {"prime": big}, big is not None))
    items.append(Hypothesis("T4", "p does not divide k",
                            {"k_mod_p": k % p if p > 1 else 0},
                            p > 1 and k % p != 0))
    return HypothesisReport(tuple(items))


def _verify_reduced_relation(p: int, q: int, a: int, kr: int) -> None:
    """div(y - k) on the reduced curve must be sum (x0, k) - p*inf.

    On y^q = x^p - x + a with a = k^q the function y - k vanishes
    exactly where x^p = x, once per base-field x0.  Re-derived with the
    valuation engine; a mismatch means a broken engine and raises
    OracleMismatch.
    """
    curve = zeta.artin_schreier_curve(p, q, a)
    ctx = curve.base
    f = FunctionRep(curve, [(ctx.neg(kr),), (1,)] + [()] * (q - 2))
    expected = Divisor(
        [(closed_place(ctx, 1, [(x0, kr)]), 1) for x0 in range(p)]
        + [(curve.inf_place(), -p)])
    got = principal_divisor(curve, f)
    if got != expected:
        raise OracleMismatch(f"div(y - k): {got} != {expected}")


def certify_rank(p: int, q: int, k: int) -> RankCertificate:
    """Certificate that y^q = x(x-1)...(x-(p-1)) + k^q has rank >= p - 1.

    Checks T1-T4 plus the induced reduction conditions at p, computes
    |J(F_p)| of the reduced curve through the character-sum zeta route,
    and requires q not to divide it.  Any failed hypothesis raises
    HypothesisFailed carrying the full report; the divisibility check
    failing would contradict a theorem, so it raises EvidenceFailed.
    """
    rep = _theorem_hypotheses(p, q, k)
    if not rep.all_pass():
        raise HypothesisFailed(rep.failed()[0].id, rep)
    roots = tuple(range(p))
    # induced conditions at p itself; H2 is dropped since here the shift
    # k^q takes over its role, and T4 keeps that nonzero mod p
    ind = check_freeness_hypotheses(q, roots, k, p)
    induced = tuple(h for h in ind.items if h.id != "H2")
    if not all(h.ok for h in induced):
        raise HypothesisFailed(
            next(h.id for h in induced if not h.ok),
            HypothesisReport(rep.items + induced))
    a = pow(k, q, p)
    if a == 0:
        raise InvariantViolation(f"k^q = 0 mod {p} although T4 holds")
    P = zeta.zeta_numerator_charsum(p, q, a)
    order = P.jacobian_order(1)
    if order % q == 0:
        raise EvidenceFailed(
            f"q = {q} divides |J(F_{p})| = {order}")
    kr = k % p
    _verify_reduced_relation(p, q, a, kr)
    evidence = {
        "a": a,
        "separable": True,
        "jacobian_order": order,
        "q_divides": False,
    }
    gens = tuple((i, (i, k)) for i in range(p))
    note = ("torsion of the rational points injects into the reduction "
            "mod p: the kernel comes from a formal group over Z_p and "
            "is torsion-free (classical; relied on, not re-derived)")
    return RankCertificate(q, roots, k, p, rep.items + induced, evidence,
                           p - 1, gens, "sum_i D_i = div(y - k)", note)
