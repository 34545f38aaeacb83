"""Exact character sums for curves y^q = x^p - x + a over GF(p).

All sums live in Z[zeta_N] with N = p*M, where M is the order bound of
the multiplicative character.  Additive characters are indexed by
c in 0..p-1 (0 = trivial): psi_c(z) = zeta_p^(c*Tr(z)).

Two families of multiplicative characters are used.

* Lifted characters (``modified_gauss_sum``) need M | p - 1 and live on
  any level GF(p^n): chi_u(w) = zeta_M^(u * ind(N(w))), with ind the
  discrete log of the norm down to GF(p).  The shifted sum computed is

      G_a(psi, chi) = sum over w - z = a of psi(z) chi(w)
                    = sum over w of chi(w) psi(w - a),

  with chi(0) = 1 for the trivial character and 0 otherwise.  Closed
  forms hold when either character is trivial and are checked on every
  such call, raising ``InvariantViolation`` (also under ``python -O``);
  they double as a self-check of the histogram tables.  These
  sums feed the Hasse-Davenport identity grid.

* Frobenius-orbit characters (``orbit_gauss_sum``) exist for every M
  prime to p.  The nonzero residues u mod M fall into orbits under
  u -> p*u; the orbit of u has k = ord_d(p) members, d = M / gcd(u, M),
  and chi_u(w) = zeta_M^(u * log w) is a character of GF(p^k)^*, log
  being the discrete log to that field's stored generator.  When
  (p, d) is semiprimitive, that is d > 2 and p^s = -1 mod d for some
  s, k = 2s and Stickelberger's theorem gives the sum in closed form,
  eps * p^s * zeta_p^(-c k a) with eps = 1 for p = 2 and
  (-1)^((p^s + 1)/d) otherwise (Berndt, Evans and Williams, Gauss and
  Jacobi Sums, Thm 11.6.3); no field is built.

Every other sum reads one histogram per field: the counts of
(Tr(w), log(w) mod L) over the nonzero w, counted along the exp table,
where log(g^k) = k, so no discrete log is taken.  Only the field-table
cap bounds the level.  The histogram stays the oracle for the closed form
in the tests.

``modified_gauss_sum`` keeps the sums of the last character it was
asked for, by level: the key is (p, M, c mod p, u mod M, a mod p), and
a call for another character drops them all.  The identity grid asks
for one character's sums at every level n, G_1 again for each
Hasse-Davenport check and G_n for both the norm and the Hasse-Davenport
check at n, and then moves on to the next character, so one character
is all it reuses; a memo over every character would only grow.  Each
sum is still computed from its own level's histogram and passes the
closed-form checks when it is computed, and neither identity takes one
side from the other.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import cycle

from . import gf, primes
from .cyclo import CycloInt, cyclo
from .errors import CharacterUnavailable, InvariantViolation, SuperjacError

_HIST_CACHE: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}
# at most one entry: {(p, M, c, u, a): {level n: sum}}
_SUMS: dict[tuple[int, int, int, int, int], dict[int, CycloInt]] = {}


def _histogram(p: int, n: int, L: int) -> dict[tuple[int, int], int]:
    """Counts of (Tr(w), log(w) mod L) over nonzero w in GF(p^n)."""
    key = (p, n, L)
    got = _HIST_CACHE.get(key)
    if got is not None:
        return got
    ctx = gf.field(p, n)
    tr = ctx.trace_table()
    # exp[k] = g^k walks the units in log order, so log(w) mod L is k mod L
    exp = ctx.log_tables()[1]
    hist = Counter(zip(map(tr.__getitem__, exp), cycle(range(L))))
    _HIST_CACHE[key] = hist
    return hist


def _gauss_sum(p: int, n: int, M: int, c: int, u: int, a: int) -> CycloInt:
    """Sum over nonzero w in GF(p^n) of zeta_M^(u log w) psi_c(w - a).

    Exact in Z[zeta_(p*M)]; needs M / gcd(u, M) to divide p^n - 1.
    """
    L = math.gcd(M, p ** n - 1)
    ring = cyclo(p * M)
    acc = [0] * ring.N
    for (t, r), cnt in _histogram(p, n, L).items():
        ep = (c * (t - n * a)) % p
        em = (u * r) % M
        acc[(M * ep + p * em) % ring.N] += cnt
    return CycloInt(ring, ring.reduce(acc))


def modified_gauss_sum(p: int, q_order: int, c: int, u: int, a: int,
                       n: int = 1) -> CycloInt:
    """G_a(psi_c o Tr, chi_u o Norm) at level n, exactly in Z[zeta_(p*M)].

    q_order is the order bound M of the multiplicative character and
    must divide p - 1.
    """
    M = q_order
    _require_order(M)
    if (p - 1) % M != 0:
        raise CharacterUnavailable(
            f"multiplicative characters of order {M} need {M} | {p - 1}")
    c %= p
    u %= M
    a %= p
    key = (p, M, c, u, a)
    got = _SUMS.get(key, {}).get(n)
    if got is not None:
        return got
    ctx = gf.field(p, n)
    # ind(N(w)) = s * log(w) with s = ind(N(g)), N(g) = g^((q - 1)/(p - 1))
    # for the generator g of GF(q)
    ng = ctx.exp_gen((ctx.order - 1) // (p - 1))
    if ng >= p:
        raise InvariantViolation("norm of the generator left GF(p)")
    s = gf.field(p).dlog(ng)
    total = _gauss_sum(p, n, M, c, u * s, a)
    if u == 0:
        # chi(0) = 1: the w = 0 term contributes psi_c(-a)
        e0 = (M * ((-c * n * a) % p)) % (p * M)
        total = total + total.ctx.from_zeta_exponents({e0: 1})
    # the closed forms for trivial characters double as a self-check
    if c == 0 and u == 0:
        if total != p ** n:
            raise InvariantViolation("trivial/trivial sum must be p^n")
    elif (c == 0 or u == 0) and not total.is_zero():
        raise InvariantViolation("half-trivial sum must vanish")
    if key not in _SUMS:
        _SUMS.clear()
        _SUMS[key] = {}
    _SUMS[key][n] = total
    return total


def semiprimitive(p: int, d: int) -> int | None:
    """The least s with p^s = -1 mod d when d > 2 and one exists, else
    None.  Then (p, d) is semiprimitive and ord_d(p) = 2s."""
    if d <= 2:
        return None
    k = primes.multiplicative_order(p, d)
    if k % 2 or pow(p, k // 2, d) != d - 1:
        return None
    return k // 2


def orbit_gauss_sum(p: int, M: int, c: int, u: int, a: int) -> CycloInt:
    """G_(c,O) = sum over nonzero w in GF(p^k) of
    zeta_M^(u log w) zeta_p^(c (Tr w - k a)), exactly in Z[zeta_(p*M)],
    where k = ord_d(p), d = M / gcd(u, M), is the size of the Frobenius
    orbit O of u.  Every member of O gives the same sum.

    A semiprimitive (p, d) with c nonzero mod p takes Stickelberger's
    closed form and builds no table; every other pair reads the
    histogram of GF(p^k)."""
    d = M // math.gcd(u, M)
    k = primes.multiplicative_order(p, d)
    s = semiprimitive(p, d)
    if s is None or c % p == 0:
        return _gauss_sum(p, k, M, c % p, u % M, a % p)
    # g(chi, psi_1) = eps p^s over GF(p^(2s)) (Berndt, Evans and Williams,
    # Thm 11.6.3); chi is trivial on GF(p)^* since d | p^s + 1, so psi_c
    # gives the same sum, and the shift by a adds zeta_p^(-c k a)
    eps = -1 if p > 2 and (p ** s + 1) // d % 2 else 1
    return cyclo(p * M).from_zeta_exponents(
        {M * ((-c * k * a) % p): eps * p ** s})


def _require_order(q_order: int) -> None:
    if q_order < 1:
        raise SuperjacError(f"the character order must be at least 1, "
                            f"got {q_order}")


def _require_nontrivial(p: int, q_order: int, c: int, u: int) -> None:
    _require_order(q_order)
    if c % p == 0 or u % q_order == 0:
        raise SuperjacError(
            f"both characters must be nontrivial, got c = {c} mod {p} "
            f"and u = {u} mod {q_order}")


def gauss_norm_ok(p: int, q_order: int, c: int, u: int, a: int,
                  n: int = 1) -> bool:
    """G * conj(G) = p^n for both characters nontrivial."""
    _require_nontrivial(p, q_order, c, u)
    g = modified_gauss_sum(p, q_order, c, u, a, n)
    return g * g.conjugate() == p ** n


def hasse_davenport_ok(p: int, q_order: int, c: int, u: int, a: int,
                       n: int) -> bool:
    """-G_a at level n equals (-G_a at level 1)^n (nontrivial pair)."""
    _require_nontrivial(p, q_order, c, u)
    g1 = modified_gauss_sum(p, q_order, c, u, a, 1)
    gn = modified_gauss_sum(p, q_order, c, u, a, n)
    return (-g1) ** n == -gn


def nontrivial_pairs(p: int, q_order: int):
    """All (c, u) with both characters nontrivial; 2g of them for the
    curve y^q = x^p - x + a."""
    return [(c, u) for c in range(1, p) for u in range(1, q_order)]
