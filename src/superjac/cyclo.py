"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

Elements are coefficient vectors over the power basis 1, z, ..., z^(phi-1)
of Z[x]/Phi_N(x), with ordinary Python integers as coefficients, so all
computations are exact.

Products use Kronecker substitution: each coefficient vector is packed
into one Python integer, one slot per coefficient, the two integers are
multiplied, and the product is read back slot by slot.  For operands of
bit lengths b_a, b_b whose shorter length n has bit length b_n, every
product coefficient is a sum of at most n terms and so needs at most
b_a + b_b + b_n + 1 signed bits; ``_zmul`` takes that many, rounded up
to whole bytes.  Every slot is offset by half a slot, h = 2^(w-1) for w
bits, so that it holds c + h in [0, 2h).  A slot of 1, 2, 4 or 8 bytes
is written and read in C by ``array`` as two's complement, and an XOR
with h turns one form into the other: (c mod 2^w) XOR h = c + h for c
in [-h, h).  A wider slot is written and read per slot by
``int.to_bytes`` and ``int.from_bytes``.  Slot i is always the digit of
2^(w i): bytes are read little-endian, and big-endian arrays are
byte-swapped.

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

``CycloCtx.mul``, behind every product of two ring elements, takes the
fold and the block step on the packed product itself, with X = 2^w.
Adding the offset o of N slots makes the low N slots of the product the
balanced low part plus o, which the mask X^N - 1 cuts off, and the
shift by N w gives the high part, so the fold is one mask, one shift
and one add.  The block step splits the folded integer the same way at
slot N - m and subtracts the top block times sum X^(jm) over
j < l - 1.  Only then are the N - m slots unpacked, and the sparse
division takes the tail on the list.  Both operands have length at most
N, so a folded index sums the terms a_s b_t with s + t = i or i + N,
at most one t for each s: n terms, as in a product coefficient.  The
block step's difference of two of them needs one bit more, so ``mul``
packs one bit wider than ``_zmul``.  ``CycloInt.times_conjugate`` feeds
the product conj(g) lifted to Z[x]/(x^N - 1), a reversal of indices
1..N-1 that is N long, so the fold also reduces conj(g).

``CycloCtx.reduce`` keeps the list route for vectors that arrive as
lists: Gauss sums placed from a histogram, Galois images and
``from_zeta_exponents``.  On criterion 03's identity grid (in-process
medians on a 2-core Xeon), packing those N-long lists to share the
integer route took 0.422 s against 0.365 s.  With both steps on the
integer at 0.343 s, block-stepping on the list instead took 0.362 s,
and running the sparse tail on the packed integer with wider slots
took 0.391 s; the tail's slot bound also grows with its length at N
with three primes.
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
_BIG_ENDIAN = sys.byteorder == "big"


def _offset(n: int, width: int, half: int) -> int:
    """sum half 2^(8 width i) over i < n: half in each of n slots."""
    return int.from_bytes(half.to_bytes(width, "little") * n, "little")


def _slot_width(a, b, spare: int) -> tuple[int, str | None, int]:
    """Slot bytes, array type code (None past 8 bytes) and half slot for
    the product of a and b, with ``spare`` bits over its coefficients."""
    bits = (max(max(a), -min(a)).bit_length()
            + max(max(b), -min(b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1 + spare)
    width = _ARRAY_WIDTH.get((bits + 7) // 8, (bits + 7) // 8)
    return width, _SLOT_CODES.get(width), 1 << (8 * width - 1)


def _packed(v, width: int, code, half: int) -> int:
    """sum v_i 2^(8 width i), for |v_i| < half = 2^(8 width - 1)."""
    off = _offset(len(v), width, half)
    if code:
        # two's complement slots XOR the offset hold v_i + half
        slots = array(code, v)
        if _BIG_ENDIAN:
            slots.byteswap()
        return (int.from_bytes(slots.tobytes(), "little") ^ off) - off
    return int.from_bytes(b"".join([(c + half).to_bytes(width, "little")
                                    for c in v]), "little") - off


def _slots(v: int, n: int, width: int, code, half: int,
           off: int) -> list[int]:
    """The n signed slots c_i of v = sum (c_i + half) 2^(8 width i),
    each c_i + half in [0, 2 half); off = _offset(n, width, half)."""
    if code:
        # slot i holds c_i in two's complement
        slots = array(code, (v ^ off).to_bytes(n * width, "little"))
        if _BIG_ENDIAN:
            slots.byteswap()
        return slots.tolist()
    buf = v.to_bytes(n * width, "little")
    del v
    return [int.from_bytes(buf[i:i + width], "little") - half
            for i in range(0, len(buf), width)]


def _zmul(a, b) -> list[int]:
    """Product of two coefficient vectors by Kronecker substitution."""
    if not (a and b):
        return []
    width, code, half = _slot_width(a, b, 0)
    n = len(a) + len(b) - 1
    off = _offset(n, width, half)
    return _slots(_packed(a, width, code, half) * _packed(b, width, code, half)
                  + off, n, width, code, half, off)


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

    def mul(self, a, b) -> tuple[int, ...]:
        """a * b mod Phi_N for vectors a, b of lengths 1..N: one packed
        product, folded mod x^N - 1 and block-stepped mod T_l on the
        integer itself (see the module docstring)."""
        N, m = self.N, self._m
        # one bit over _zmul's slot, for the block step's difference
        width, code, half = _slot_width(a, b, 1)
        w = 8 * width
        off = _offset(N, width, half)
        # v = sum (c_i + half) X^i + X^N hi with X = 2^w and every
        # c_i + half in [0, X), so the low N slots of v are the balanced
        # low part plus off
        v = (_packed(a, width, code, half) * _packed(b, width, code, half)
             + off)
        s = N * w
        # fold: slot i gains slot i + N of the product
        v = (v & ((1 << s) - 1)) + (v >> s)
        if m < N:
            # block step: the top block, balanced, comes off every block
            # below it
            s -= m * w
            top = (v >> s) - (off >> s)
            if s > m * w:
                top *= int.from_bytes(
                    (b"\1" + bytes(m * width - 1)) * (N // m - 1), "little")
            mask = (1 << s) - 1
            v = (v & mask) - top
            off &= mask
        r = _slots(v, s // w, width, code, half, off)
        del v, off
        if len(r) > self.phi:
            _sparse_divmod(r, self.phi, self._phi_terms)
        return tuple(r)

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


@lru_cache(maxsize=None)
def cyclo(N: int) -> CycloCtx:
    return CycloCtx(N)


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
        return CycloInt(self.ctx, self.ctx.mul(self.coeffs, other.coeffs))

    def times_conjugate(self) -> "CycloInt":
        """self * conj(self) as one product.  zeta -> zeta^(N-1) lifts to
        Z[x]/(x^N - 1) as x^i -> x^(N-i), a reversal of indices 1..N-1,
        and the product's fold reduces the lift, so conj(self) is never
        reduced on its own."""
        g, ctx = self.coeffs, self.ctx
        return CycloInt(ctx, ctx.mul(
            g, g[:1] + (0,) * (ctx.N - ctx.phi) + g[:0:-1]))

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
