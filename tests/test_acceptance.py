"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with -s to see them live).  Every check is exact integer
arithmetic; the only tolerances are the stated wall-clock bounds.
"""

import io
import itertools
import json
import math
import time
from contextlib import redirect_stdout

import pytest

from superjac import characters, delta, gf, picard, primes, zeta
from superjac.cli import main
from superjac.curves import make_curve
from superjac.cyclo import cyclo
from superjac.errors import BudgetExceeded

PRIMES_13 = [2, 3, 5, 7, 11, 13]

# field-order cap for grid criteria; large enough for every named case,
# small enough to keep the gate fast
GRID_BUDGET = 200_000


def report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def cli_json(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--json"])
    return code, json.loads(buf.getvalue())


def test_criterion_01_delta_structure_grid() -> None:
    t0 = time.monotonic()
    ok = True
    for m in range(2, 7):
        for r in range(3, 9):
            d = math.gcd(m, r)
            want = ([m // d] if m // d > 1 else []) + [m] * (r - 2)
            got = list(delta.delta_structure(m, r))
            ok = ok and got == want
    # folklore hyperelliptic case: full 2-torsion (Z/2)^(2g)
    g = (1 * 5 - 0) // 2
    ok = ok and list(delta.delta_structure(2, 6)) == [2] * (2 * g)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(1, f"delta grid 2<=m<=6, 3<=r<=8 in {elapsed:.2f}s", ok)


@pytest.mark.parametrize("m,r,p", [(2, 5, 11), (2, 7, 11), (3, 4, 7),
                                   (3, 5, 7), (4, 5, 7), (5, 6, 7)])
def test_criterion_02_proof_replay(m: int, r: int, p: int) -> None:
    assert p ** 1 <= 3 ** 6
    ctx = gf.field(p)
    curve = make_curve(m, gf.pfrom_roots(ctx, list(range(r))), ctx)
    cert = delta.replay_proof(curve)
    ok = (cert.verdict == "pass"
          and len(cert.index_set) == curve.genus
          and all(c["pass"] for c in cert.checks))
    report(2, f"proof replay m={m} r={r} over GF({p})", ok)


def test_criterion_03_gauss_sum_identities() -> None:
    pairs = [(p, q) for p in PRIMES_13 for q in PRIMES_13
             if p > 2 and (p - 1) % q == 0]
    checked = 0
    ok = True
    for p, q in pairs:
        n_max = 6 if p ** 6 <= 100_000 else 3
        ring = cyclo(p * q)
        for a in range(1, p):
            for c, u in characters.nontrivial_pairs(p, q):
                g0 = characters.modified_gauss_sum(p, q, c, u, 0)
                for n in range(1, n_max + 1):
                    ok = ok and characters.gauss_norm_ok(p, q, c, u, a, n)
                    ok = ok and characters.hasse_davenport_ok(p, q, c, u,
                                                              a, n)
                    checked += 2
                # shift identity G_a = psi(-a) G against the a = 0 sum
                ga = characters.modified_gauss_sum(p, q, c, u, a)
                psi = ring.from_zeta_exponents({(q * ((-c * a) % p))
                                                % (p * q): 1})
                ok = ok and ga == psi * g0
                checked += 1
    ok = ok and len(pairs) == 8 and checked > 0
    report(3, f"gauss identities, {checked} exact checks over "
              f"{len(pairs)} (p,q) pairs", ok)


def test_criterion_04_count_route_equivalence() -> None:
    t0 = time.monotonic()
    ok = True
    for p, q in [(3, 2), (5, 2), (7, 3), (11, 5), (13, 3)]:
        n_max = max(n for n in range(1, 7) if p ** n <= 20_000)
        for a in range(1, p):
            curve = zeta.artin_schreier_curve(p, q, a)
            naive = [zeta.count_points(curve, n, zeta.COUNT_BUDGET)
                     for n in range(1, n_max + 1)]
            charsum = zeta.counts_by_charsum(p, q, a, n_max)
            ok = ok and naive == charsum
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(4, f"naive = charsum counts on 5 curve families in "
              f"{elapsed:.1f}s", ok)


def test_criterion_05_derived_anchors() -> None:
    # each order arrives twice: exhaustive class enumeration and the
    # zeta numerator; the literals are frozen oracles
    ok = True

    def counted_lpoly(curve):
        counts = [zeta.count_points(curve, n, zeta.COUNT_BUDGET)
                  for n in range(1, curve.genus + 1)]
        return zeta.lpoly_from_counts(curve.base.p, counts, curve.genus)

    g1 = picard.picard_group(zeta.artin_schreier_curve(3, 2, 1))
    P1 = zeta.zeta_numerator_charsum(3, 2, 1)
    ok = ok and g1.order == 7 and P1.evaluate(1) == 7

    cubic = make_curve(3, [1, 1, 1], gf.field(2))
    g2 = picard.picard_group(cubic)
    ok = ok and g2.order == 3 and g2.lpoly_coeffs == (1, 0, 2)
    ok = ok and counted_lpoly(cubic).coeffs == (1, 0, 2)

    quintic = make_curve(5, [1, 1, 1], gf.field(2))
    g3 = picard.picard_group(quintic)
    ok = ok and g3.order == 5 and g3.lpoly_coeffs == (1, 0, 0, 0, 4)
    ok = ok and counted_lpoly(quintic).coeffs == (1, 0, 0, 0, 4)

    report(5, "anchors |J|=7, P=1+2T^2 |J|=3, P=1+4T^4 |J|=5", ok)


def test_criterion_06_torsion_iff_grid() -> None:
    evidenced = {}
    ok = True
    for p, q in itertools.permutations(PRIMES_13, 2):
        try:
            res = zeta.torsion_criterion(p, q, budget=GRID_BUDGET)
        except BudgetExceeded:
            continue
        if res.evidence_route is None:
            continue
        # torsion_criterion raises EvidenceFailed on any iff violation;
        # reaching here means q | |J| agreed with p | ord_q(p)
        ok = ok and res.evidence_ok is True
        evidenced[(p, q)] = res.has_torsion
    ok = ok and evidenced.get((2, 5)) is True
    ok = ok and evidenced.get((2, 7)) is False
    ok = ok and evidenced.get((3, 2)) is False
    # 9 enumerable pairs, 8 with q | p - 1 (the 5 with q = 2 in closed
    # form, 3 from histograms of GF(p)) and 13 more from character sums:
    # 12 in closed form, 10 semiprimitive (4 of them with GF(p^k),
    # k = ord_q(p), past this budget) and 2 of index 2, (5, 11) and
    # (11, 7), and one, (3, 13), from the histogram of GF(27)
    ok = ok and len(evidenced) == 30
    report(6, f"q | #J(F_p) iff p | ord_q(p) on {len(evidenced)} "
              f"pairs within budget", ok)


def test_criterion_07_extension_power_law() -> None:
    done = 0
    ok = True
    for p, q in itertools.permutations(PRIMES_13, 2):
        try:
            rep = zeta.power_law_check(p, q, budget=GRID_BUDGET)
        except BudgetExceeded:
            continue
        ok = ok and rep.ok
        ok = ok and list(rep.checked_divisors) == sorted(
            k for k in range(1, rep.k + 1) if rep.k % k == 0)
        done += 1
    ok = ok and done == 17
    report(7, f"|J(F_p^k')| = |J(F_p)|^k' for k' | ord_q(p) on "
              f"{done} pairs", ok)


def test_criterion_08_picard_oracle_and_conjecture() -> None:
    ok = True

    # class count must equal P(1) = sum of the numerator coefficients
    cubic2 = picard.picard_group(make_curve(3, [1, 1, 1], gf.field(2)))
    ok = ok and cubic2.invariant_factors == (3,)
    ok = ok and cubic2.order == sum(cubic2.lpoly_coeffs)

    hyper3 = picard.picard_group(zeta.artin_schreier_curve(3, 2, 1))
    ok = ok and hyper3.invariant_factors == (7,)
    ok = ok and hyper3.order == sum(hyper3.lpoly_coeffs)

    cubic4 = picard.picard_group(
        make_curve(3, [1, 1, 1], gf.field(2, 2)))
    ok = ok and cubic4.invariant_factors == (3, 3)
    ok = ok and cubic4.order == sum(cubic4.lpoly_coeffs)

    for p, q in [(2, 3), (3, 2)]:
        rep = picard.conjecture_check(zeta.artin_schreier_curve(p, q, 1))
        ok = ok and rep.verdict == "consistent"

    t0 = time.monotonic()
    rep = picard.conjecture_check(zeta.artin_schreier_curve(2, 5, 1))
    elapsed = time.monotonic() - t0
    ok = ok and rep.verdict == "consistent" and elapsed < 600.0
    ok = ok and list(rep.ext_factors) == [5, 5, 5, 5]

    report(8, f"picard anchors + conjecture tests, (2,5,1) in "
              f"{elapsed:.1f}s", ok)


def test_criterion_09_rank_certificates() -> None:
    ok = True
    for p, q, k in [(3, 2, 10), (5, 2, 14), (7, 3, 22)]:
        code, doc = cli_json(["rank-certify", "--p", str(p), "--q", str(q),
                              "--k", str(k)])
        ok = ok and code == 0
        ok = ok and doc["conclusion"]["rank_lower_bound"] == p - 1
        ok = ok and all(h["pass"] for h in doc["hypotheses"])
        ok = ok and doc["evidence"]["q_divides"] is False

    for p, q, k in [(5, 2, 10), (3, 2, 9)]:
        code, doc = cli_json(["rank-certify", "--p", str(p), "--q", str(q),
                              "--k", str(k)])
        ok = ok and code == 1
        ok = ok and "conclusion" not in doc
        ok = ok and doc["error"] == "hypothesis-failed"

    report(9, "rank >= p-1 certificates and hypothesis failures", ok)


DETERMINISM_SAMPLE = [
    ["genus", "--m", "3", "--r", "5"],
    ["delta-structure", "--m", "4", "--r", "6"],
    ["proof-replay", "--m", "2", "--f", "0,24,-50,35,-10,1",
     "--field", "11", "--seed", "7"],
    ["principal", "--m", "2", "--f", "0,24,-50,35,-10,1",
     "--coeffs", "2,0,0,0", "--field", "11"],
    ["gauss", "--p", "7", "--q", "3", "--a", "2", "--n", "2"],
    ["count", "--p", "3", "--q", "2", "--a", "1", "--n", "3"],
    ["zeta", "--p", "2", "--q", "7", "--a", "1"],
    ["jacobian-order", "--p", "2", "--q", "7", "--a", "1", "--ext", "3"],
    ["torsion-test", "--p", "2", "--q", "5"],
    ["power-law", "--p", "2", "--q", "5"],
    ["picard", "--m", "3", "--f", "1,1,1", "--p", "2", "--ext", "2"],
    ["conjecture-test", "--p", "2", "--q", "3"],
    ["rank-certify", "--p", "3", "--q", "2", "--k", "10"],
    ["find-prime", "--m", "2", "--roots", "0,1,2", "--k", "10"],
]


def test_criterion_10_determinism_and_cache(tmp_path) -> None:
    def run_bytes(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    ok = True
    for argv in DETERMINISM_SAMPLE:
        first = run_bytes(argv + ["--json"])
        second = run_bytes(argv + ["--json"])
        ok = ok and first == second

        cached = argv + ["--json", "--cache-dir", str(tmp_path)]
        third = run_bytes(cached)
        fourth = run_bytes(cached + ["--verify-cache"])
        ok = ok and first == third == fourth

    report(10, f"byte-identical reruns + clean cache verification on "
               f"{len(DETERMINISM_SAMPLE)} commands", ok)
