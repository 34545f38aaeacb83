"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

Elements are coefficient vectors over the power basis 1, z, ..., z^(phi-1)
of Z[x]/Phi_N(x), with ordinary Python integers as coefficients, so all
computations are exact.  Phi_N itself is obtained by exact division of
x^N - 1 by the lower-order cyclotomic polynomials.

The complex embedding (zeta_N -> exp(2*pi*i/N)) is provided only as a
floating sanity check; nothing downstream depends on it.
"""

from __future__ import annotations

import cmath
from functools import lru_cache


def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _zdivmod_monic(a: list[int], f: list[int]) -> tuple[list[int], list[int]]:
    """Exact division by a monic integer polynomial."""
    assert f and f[-1] == 1
    r = list(a)
    n = len(f) - 1
    q = [0] * max(0, len(r) - n)
    for d in range(len(r) - 1, n - 1, -1):
        c = r[d]
        if c:
            q[d - n] = c
            for t in range(n + 1):
                r[d - n + t] -= c * f[t]
    while r and r[-1] == 0:
        r.pop()
    while len(r) < n:
        r.append(0)
    return q, r[:n]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, constant term first."""
    assert N >= 1
    num = [-1] + [0] * (N - 1) + [1]          # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            q, r = _zdivmod_monic(num, list(cyclotomic_polynomial(d)))
            assert not any(r), "cyclotomic division left a remainder"
            num = q
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


class CycloCtx:
    """Ring context for Z[zeta_N]."""

    __slots__ = ("N", "phi", "modulus")

    def __init__(self, N: int):
        assert N >= 1
        self.N = N
        self.modulus = list(cyclotomic_polynomial(N))
        self.phi = len(self.modulus) - 1

    def reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        _, r = _zdivmod_monic(coeffs, self.modulus)
        return tuple(r)

    def zero(self) -> "CycloInt":
        return CycloInt(self, (0,) * self.phi)

    def one(self) -> "CycloInt":
        return self.from_int(1)

    def from_int(self, c: int) -> "CycloInt":
        v = [0] * self.phi
        if self.phi:
            v[0] = c
        return CycloInt(self, tuple(v))

    def zeta(self, k: int = 1) -> "CycloInt":
        """zeta_N^k as a ring element."""
        k %= self.N
        v = [0] * (k + 1)
        v[k] = 1
        return CycloInt(self, self.reduce(v))

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
        assert len(coeffs) == ctx.phi
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other: "CycloInt") -> None:
        assert isinstance(other, CycloInt) and other.ctx.N == self.ctx.N, \
            "mixed cyclotomic rings"

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
                        self.ctx.reduce(_zmul(list(self.coeffs),
                                              list(other.coeffs))))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, e: int):
        assert e >= 0
        res = self.ctx.one()
        base = self
        while e:
            if e & 1:
                res = res * base
            base = base * base
            e >>= 1
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
        assert self.is_rational(), f"not a rational integer: {self.coeffs}"
        return self.coeffs[0] if self.coeffs else 0

    def galois(self, t: int) -> "CycloInt":
        """Image under zeta -> zeta^t, gcd(t, N) = 1."""
        import math
        assert math.gcd(t, self.ctx.N) == 1
        weights: dict[int, int] = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = (i * t) % self.ctx.N
                weights[e] = weights.get(e, 0) + c
        return self.ctx.from_zeta_exponents(weights)

    def conjugate(self) -> "CycloInt":
        return self.galois(self.ctx.N - 1)

    def embed_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.ctx.N)
        acc = 0j
        for i, c in enumerate(reversed(self.coeffs)):
            acc = acc * z + c
        return acc

    def __repr__(self) -> str:
        return f"CycloInt(N={self.ctx.N}, {list(self.coeffs)})"
