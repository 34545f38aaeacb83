"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

Elements are coefficient vectors over the power basis 1, z, ..., z^(phi-1)
of Z[x]/Phi_N(x), with ordinary Python integers as coefficients, so all
computations are exact.

Products use Kronecker substitution: each coefficient vector is packed
into one Python integer, one slot per coefficient, the two integers are
multiplied, and the product is read back slot by slot.  The slot is
wide enough (the operands' bit lengths, plus the bit length of the
shorter length, plus a sign bit) for every coefficient of the product,
so the unpacking is exact at any coefficient size.

Reduction mod Phi_N is two sparse divisions.  With l the smallest prime
of N, T_l = (x^N - 1) / (x^(N/l) - 1) = 1 + x^(N/l) + ... + x^((l-1)N/l)
has l terms and is a multiple of Phi_N, so a vector is first divided by
T_l at l - 1 updates per step, then by Phi_N over its nonzero terms for
the deg T_l - phi(N) remaining steps (none when N is a prime power,
where T_l = Phi_N).  For N = 1 there is no l: Z[zeta_1] = Z, and the
division by Phi_1 = x - 1 alone leaves the coefficient sum.  The same
sparse division builds Phi_N from x^N - 1 and the lower-order
cyclotomic polynomials.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import primes
from .errors import InvariantViolation, SuperjacError


def _zmul(a, b) -> list[int]:
    """Product of two coefficient vectors by Kronecker substitution."""
    n = min(len(a), len(b))
    if not n:
        return []
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + n.bit_length() + 1)
    width = (bits + 7) // 8                  # slot width in bytes
    half = 1 << (8 * width - 1)
    slot = half.to_bytes(width, "little")
    # every slot is offset by half so that it holds a value in [0, 2 half)
    fb = int.from_bytes
    pa = fb(b"".join([(c + half).to_bytes(width, "little") for c in a]),
            "little") - fb(slot * len(a), "little")
    pb = fb(b"".join([(c + half).to_bytes(width, "little") for c in b]),
            "little") - fb(slot * len(b), "little")
    size = len(a) + len(b) - 1
    buf = (pa * pb + fb(slot * size, "little")).to_bytes(size * width,
                                                          "little")
    return [fb(buf[i:i + width], "little") - half
            for i in range(0, size * width, width)]


def _monic_terms(f) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Degree n of the monic f and its nonzero lower terms (i - n, f_i)."""
    n = len(f) - 1
    return n, tuple((i - n, c) for i, c in enumerate(f[:n]) if c)


def _sparse_divmod(r: list[int], n: int, terms) -> list[int]:
    """Divide r in place by the monic polynomial of degree n whose lower
    terms are ``terms`` (from ``_monic_terms``); r is left holding the n
    coefficients of the remainder and the quotient is returned."""
    q = [0] * max(0, len(r) - n)
    for d in range(len(r) - 1, n - 1, -1):
        c = r[d]
        if c:
            q[d - n] = c
            for off, f in terms:
                r[d + off] -= c * f
    del r[n:]
    r.extend([0] * (n - len(r)))
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, constant term first."""
    if N < 1:
        raise SuperjacError(f"cyclotomic level must be at least 1, got {N}")
    num = [-1] + [0] * (N - 1) + [1]          # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            n, terms = _monic_terms(cyclotomic_polynomial(d))
            q = _sparse_divmod(num, n, terms)
            if any(num):
                raise InvariantViolation(
                    "cyclotomic division left a remainder")
            num = q
    return tuple(num)


@lru_cache(maxsize=None)
def _trace_table(N: int) -> tuple[int, ...]:
    """Tr(zeta_N^e) for e = 0..phi(N)-1: the Ramanujan sum
    mu(N/g) phi(N) / phi(N/g) with g = gcd(e, N)."""
    def phi_mu(n: int) -> tuple[int, int]:
        fac = primes.factorize(n)
        phi = n
        for l in fac:
            phi = phi // l * (l - 1)
        mu = 0 if any(v > 1 for v in fac.values()) else (-1) ** len(fac)
        return phi, mu

    phi_N, _ = phi_mu(N)
    out = []
    for e in range(phi_N):
        phi_r, mu_r = phi_mu(N // math.gcd(e, N))
        out.append(mu_r * (phi_N // phi_r))
    return tuple(out)


class CycloCtx:
    """Ring context for Z[zeta_N]."""

    __slots__ = ("N", "phi", "_divisors")

    def __init__(self, N: int):
        phi_N = cyclotomic_polynomial(N)    # refuses N < 1
        self.N = N
        self.phi = len(phi_N) - 1
        # reduce divides by T_l first, then by Phi_N (see module docstring)
        self._divisors = []
        if N > 1:
            m = N // min(primes.factorize(N))
            t_l = [0] * (N - m + 1)
            t_l[::m] = [1] * (N // m)
            if tuple(t_l) != phi_N:
                self._divisors.append(_monic_terms(t_l))
        self._divisors.append(_monic_terms(phi_N))

    def reduce(self, coeffs) -> tuple[int, ...]:
        r = list(coeffs)
        for n, terms in self._divisors:
            _sparse_divmod(r, n, terms)
        return tuple(r)

    def one(self) -> "CycloInt":
        return self.from_int(1)

    def from_int(self, c: int) -> "CycloInt":
        v = [0] * self.phi
        if self.phi:
            v[0] = c
        return CycloInt(self, tuple(v))

    def from_zeta_exponents(self, weights: dict[int, int]) -> "CycloInt":
        """Sum of weight * zeta_N^e over (e, weight) pairs, reduced once."""
        acc = [0] * self.N
        for e, w in weights.items():
            acc[e % self.N] += w
        return CycloInt(self, self.reduce(acc))

    def __repr__(self) -> str:
        return f"Z[zeta_{self.N}]"


_CYCLO_CACHE: dict[int, CycloCtx] = {}


def cyclo(N: int) -> CycloCtx:
    ctx = _CYCLO_CACHE.get(N)
    if ctx is None:
        ctx = CycloCtx(N)
        _CYCLO_CACHE[N] = ctx
    return ctx


class CycloInt:
    """Element of Z[zeta_N] over the power basis of Z[x]/Phi_N."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycloCtx, coeffs: tuple[int, ...]):
        if len(coeffs) != ctx.phi:
            raise SuperjacError(f"Z[zeta_{ctx.N}] needs {ctx.phi} "
                                f"coefficients, got {len(coeffs)}")
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other: "CycloInt") -> None:
        if not (isinstance(other, CycloInt) and other.ctx.N == self.ctx.N):
            raise InvariantViolation("mixed cyclotomic rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        self._check(other)
        return CycloInt(self.ctx,
                        tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        self._check(other)
        return CycloInt(self.ctx,
                        tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloInt(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.ctx, tuple(a * other for a in self.coeffs))
        self._check(other)
        return CycloInt(self.ctx,
                        self.ctx.reduce(_zmul(self.coeffs, other.coeffs)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise SuperjacError(f"negative power {e} of a cyclotomic integer")
        if not e:
            return self.ctx.one()
        # left to right from the leading bit: no multiply by one, no spare
        # squaring
        res = self
        for bit in bin(e)[3:]:
            res = res * res
            if bit == "1":
                res = res * self
        return res

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational() and self.rational_value() == other
        return isinstance(other, CycloInt) and self.ctx.N == other.ctx.N \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.N, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise InvariantViolation(
                f"not a rational integer: {self.coeffs}")
        return self.coeffs[0] if self.coeffs else 0

    def galois(self, t: int) -> "CycloInt":
        """Image under zeta -> zeta^t, gcd(t, N) = 1."""
        if math.gcd(t, self.ctx.N) != 1:
            raise SuperjacError(f"zeta -> zeta^{t} is not an automorphism "
                                f"of Z[zeta_{self.ctx.N}]")
        weights: dict[int, int] = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = (i * t) % self.ctx.N
                weights[e] = weights.get(e, 0) + c
        return self.ctx.from_zeta_exponents(weights)

    def conjugate(self) -> "CycloInt":
        return self.galois(self.ctx.N - 1)

    def trace(self) -> int:
        """Tr_(Q(zeta_N)/Q) of the element, linear on the power basis."""
        return sum(a * t for a, t in zip(self.coeffs, _trace_table(self.ctx.N))
                   if a)

    def __repr__(self) -> str:
        return f"CycloInt(N={self.ctx.N}, {list(self.coeffs)})"
