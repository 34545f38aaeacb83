"""Primality, integer factorization and multiplicative-order helpers.

Everything here is deterministic: Miller-Rabin uses a fixed witness set
that is provably sufficient below 3.3e24 (far beyond desk scale), and the
Pollard rho fallback cycles through a fixed sequence of increments.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded, InvariantViolation, SuperjacError

# Witnesses covering all n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_TRIAL_LIMIT = 10 ** 6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's variant with deterministic restart increments.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise BudgetExceeded(f"factorization of {n} did not succeed")


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization as {prime: exponent}, n >= 1."""
    if n < 1:
        raise SuperjacError(f"only positive integers factor, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < _TRIAL_LIMIT:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += wheel[i]
            i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = _pollard_rho(m)
                stack.append(d)
                stack.append(m // d)
    return out


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime (or p = 2)."""
    if not is_prime(p):
        raise SuperjacError(f"primitive roots are taken mod a prime, got {p}")
    if p == 2:
        return 1
    fac = factorize(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
        g += 1


def multiplicative_order(a: int, m: int) -> int:
    """Order of a modulo m, gcd(a, m) = 1, by factor-refined descent."""
    if m < 2 or math.gcd(a, m) != 1:
        raise SuperjacError(f"{a} has no multiplicative order mod {m}")
    # Order divides the Carmichael-style exponent; refine from the group order.
    e = 1
    for q, v in factorize(m).items():
        block = (q - 1) * q ** (v - 1)
        e = e * block // math.gcd(e, block)
    if pow(a, e, m) != 1:
        raise InvariantViolation(f"{a}^{e} != 1 mod {m}")
    order = e
    for q in factorize(e):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


def totient(n: int) -> int:
    """Euler's phi(n) for n >= 1."""
    out = n
    for ell in factorize(n):
        out = out // ell * (ell - 1)
    return out


def sqrt_mod(a: int, p: int) -> int:
    """Some x with x^2 = a mod an odd prime p, for a nonzero square a mod
    p, by Tonelli and Shanks."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        raise SuperjacError(f"{a} is not a nonzero square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    # x^2 = a t, and t has order 2^i with i < s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x
