"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

Elements are coefficient vectors over the power basis 1, z, ..., z^(phi-1)
of Z[x]/Phi_N(x), with ordinary Python integers as coefficients, so all
computations are exact.

Products use Kronecker substitution: each coefficient vector is packed
into one Python integer, one slot per coefficient, the two integers are
multiplied, and the product is read back slot by slot.  A slot has at
least as many bits as the operands' bit lengths, plus the bit length of
the shorter length, plus a sign bit: enough for every coefficient of
the product, so the unpacking is exact at any coefficient size.  Every
slot is offset by half a slot, h = 2^(w-1) for w bits, so that it holds
c + h in [0, 2h).  A slot of 1, 2, 4 or 8 bytes is written and read in C
by ``array`` as two's complement, and an XOR with h turns one form into
the other: (c mod 2^w) XOR h = c + h for c in [-h, h).  A wider slot is
written and read per slot by ``int.to_bytes`` and ``int.from_bytes``.

Reduction mod Phi_N takes three steps.  A vector of any length is
first folded mod x^N - 1, from the top index down, so that every index
lands below N.  With l the smallest prime of N and m = N/l,
T_l = (x^N - 1) / (x^m - 1) = 1 + x^m + ... + x^((l-1)m) is a multiple
of Phi_N.  Cut into blocks r_0, ..., r_(l-1) of m coefficients, the
folded vector is congruent mod T_l to the blocks r_j - r_(l-1),
j < l - 1: one block step.  Last, a sparse division by Phi_N over its
nonzero terms takes the deg T_l - phi(N) steps that remain: l - 1 for
N = pq, none when N is a prime power, where T_l = Phi_N.  For N = 1
there is no l: Z[zeta_1] = Z, and the fold alone leaves the coefficient
sum.  The remainder mod Phi_N is unique, so it does not depend on the
route.  The same sparse division builds Phi_N from x^N - 1 and the
lower-order cyclotomic polynomials.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import repeat
from operator import add, mul, neg, sub

from . import primes
from .errors import InvariantViolation, SuperjacError


# signed array type code for each slot width in bytes that has one, and
# the narrowest of those widths for each byte count up to the widest
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}
_ARRAY_WIDTH = {n: min(w for w in _SLOT_CODES if w >= n)
                for n in range(1, max(_SLOT_CODES) + 1)}


def _packed(v, width: int, code, half: int) -> int:
    """sum v_i 2^(8 width i), for |v_i| < half = 2^(8 width - 1)."""
    order = sys.byteorder
    off = int.from_bytes(half.to_bytes(width, order) * len(v), order)
    if code:
        # two's complement slots XOR the offset hold v_i + half
        return (int.from_bytes(array(code, v).tobytes(), order) ^ off) - off
    return int.from_bytes(b"".join([(c + half).to_bytes(width, order)
                                    for c in v]), order) - off


def _unpacked(v: int, n: int, width: int, code, half: int) -> list[int]:
    """The n signed slots of v = sum c_i 2^(8 width i), |c_i| < half."""
    order = sys.byteorder
    off = int.from_bytes(half.to_bytes(width, order) * n, order)
    v += off                        # slot i holds c_i + half, in [0, 2 half)
    if code:
        v ^= off                    # slot i holds c_i in two's complement
        return array(code, v.to_bytes(n * width, order)).tolist()
    del off
    buf = v.to_bytes(n * width, order)
    del v
    return [int.from_bytes(buf[i:i + width], order) - half
            for i in range(0, len(buf), width)]


def _zmul(a, b) -> list[int]:
    """Product of two coefficient vectors by Kronecker substitution."""
    n = min(len(a), len(b))
    if not n:
        return []
    nbytes = (max(max(a), -min(a)).bit_length()
              + max(max(b), -min(b)).bit_length() + n.bit_length() + 8) // 8
    width = _ARRAY_WIDTH.get(nbytes, nbytes)
    code = _SLOT_CODES.get(width)
    half = 1 << (8 * width - 1)
    return _unpacked(_packed(a, width, code, half)
                     * _packed(b, width, code, half),
                     len(a) + len(b) - 1, width, code, half)


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

    __slots__ = ("N", "phi", "_m", "_phi_terms")

    def __init__(self, N: int):
        phi_N = cyclotomic_polynomial(N)    # refuses N < 1
        self.N = N
        self.phi = len(phi_N) - 1
        # m = N / l for the least prime l of N; m = N = 1 skips the block
        # step (see the module docstring)
        self._m = N // min(primes.factorize(N), default=1)
        self._phi_terms = _monic_terms(phi_N)[1]

    def reduce(self, coeffs) -> tuple[int, ...]:
        N, m = self.N, self._m
        r = list(coeffs)
        r += [0] * (N - len(r))
        # fold mod x^N - 1 from the top block down, so that a block past
        # 2N is carried through every block below it
        for k in range((len(r) - 1) // N * N, 0, -N):
            hi = r[k:k + N]
            r[k - N:k - N + len(hi)] = map(add, r[k - N:k], hi)
        del r[N:]
        # one block step mod T_l: x^((l-1)m) = -(1 + x^m + ... + x^((l-2)m))
        if m < N:
            top = r[N - m:]
            del r[N - m:]
            for j in range(0, N - m, m):
                r[j:j + m] = map(sub, r[j:j + m], top)
        if len(r) > self.phi:
            _sparse_divmod(r, self.phi, self._phi_terms)
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
        return CycloInt(self.ctx, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        self._check(other)
        return CycloInt(self.ctx, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloInt(self.ctx, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.ctx,
                            tuple(map(mul, self.coeffs, repeat(other))))
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
        N = self.ctx.N
        acc = [0] * N
        for i, c in enumerate(self.coeffs):
            if c:
                acc[i * t % N] += c
        return CycloInt(self.ctx, self.ctx.reduce(acc))

    def conjugate(self) -> "CycloInt":
        return self.galois(self.ctx.N - 1)

    def trace(self) -> int:
        """Tr_(Q(zeta_N)/Q) of the element, linear on the power basis."""
        return sum(a * t for a, t in zip(self.coeffs, _trace_table(self.ctx.N))
                   if a)

    def __repr__(self) -> str:
        return f"CycloInt(N={self.ctx.N}, {list(self.coeffs)})"
