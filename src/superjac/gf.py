"""Finite fields with packed-integer elements and discrete-log tables.

An element of GF(p^n) = F_p[X]/(f) is stored as the integer
sum(c_i * p**i) for its coefficient vector (c_0, ..., c_{n-1}).  Constants
pack to themselves, so the prime subfield sits inside every extension as
the identity on 0..p-1.  Extension contexts carry exp/log tables for a
fixed generator g plus a Zech table (1 + g^k = g^zech[k]), making every
field operation a couple of table lookups.  The Zech table is built on
first use, by the first add or log_tables call, so a caller that reads
only exp and log (exp_log, as zeta.count_points does) never pays for it.
Prime-field contexts do their arithmetic directly modulo p and build the
same three tables only when a discrete log or a log-domain loop asks for
them.

The tables of a field with more than 256 elements are array("i")s of 4
bytes per entry, filled in place, so no full-size list of boxed ints
exists even while they are built; smaller fields keep lists, whose entries are
CPython's shared small ints and whose subscripts are cheaper (see
_table_type).

fits and require_fits are the package's one size rule: past the budget
clipped to MAX_TABLE_CARD, GF(p^n) is refused as "GF(p^n) exceeds the
table cap 4194304" or "GF(p^n) exceeds the budget B", the limit worded
by limit_name.

nullspace row-reduces over a field of at most BYTES_CARD = 16 elements
as byte strings: a packed element then fits 4 bits, so an entry of one
row and one of another pack into one byte as (a << 4) | b, and a row
operation is a few C-level calls through 256-byte addition and
multiplication tables (byte_tables).  The limit is that of the
encoding.  Larger prime fields reduce ints mod p, larger extension
fields work on discrete logs through the Zech table.

The exp table is the chain 1, g, g^2, ... of packed values.  Each step
is a precomputed multiply-by-g map: with h = ceil(n/2), a packed value
splits as v = lo + p^h * hi, and g * v = GL[lo] + GH[hi], where GL and GH
hold g * lo and g * (p^h * hi) in a spread form with
s = bit_length(2p - 2) bits per coefficient.  Two reduced coefficients
sum to at most 2p - 2, so the integer addition never carries between
coefficients.  Three lookups in chunk tables, each indexed by the raw
bits of ceil(n/3) coefficients, then reduce every coefficient mod p and
repack the result in base p.  Setting up the map takes
O(p^h + 2^(s * ceil(n/3))) entries, far fewer than the p^n elements.

ddf is the one distinct-degree factorisation: for a nonzero polynomial
over a context it returns, for each degree s of an irreducible factor,
the monic product of the distinct irreducible factors of degree s.  It
serves the defining-polynomial search, the roots of norms in
curves.principal_divisor and the splitting fields.  Its input need not
be squarefree: at degree s the block g = gcd(S, X^(q^s) - X) is
squarefree, since X^(q^s) - X is, and every factor of g is divided out
of S to its full multiplicity.  So S never keeps a factor of degree
<= s, and once 2s exceeds deg S the remaining S is a single irreducible
factor (any two factors, or one squared, would have degree >= 2s).

Polynomials over a prime field are multiplied, divided and raised to
powers on plain ints: products and remainders accumulate unreduced and
are reduced mod p once, with no context call per coefficient.  That is
the arithmetic of the defining-polynomial search (through ddf) and of
the generator search.

Deterministic choices, fixed once per (p, n):
  * defining polynomial: first monic irreducible of degree n, ordered by
    packed value of the non-leading coefficients, lowest first;
  * generator: first nonzero packed value of full multiplicative order,
    the order being verified against the factorization of p^n - 1.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from . import primes
from .errors import (BudgetExceeded, InvariantViolation, SuperjacError,
                     UnsupportedBase)

# Largest extension field for which full tables are built.  Prime fields
# are exempt (they need no tables for arithmetic).  At the cap the exp,
# log and Zech tables hold 4 bytes per entry, 48 MiB for the three.
MAX_TABLE_CARD = 1 << 22
# Fields up to this many elements keep their tables as lists
SMALL_TABLE_CARD = 256
# Fields up to this many elements row-reduce as byte strings: an element
# fits 4 bits, so a pair of them fits one byte (see nullspace)
BYTES_CARD = 16


def _table_type(card: int):
    """Constructor of the per-element tables of a field with card
    elements: ``new([v]) * size`` fills, ``new(iterable)`` consumes the
    iterable in place.

    Past SMALL_TABLE_CARD it makes an array("i"): 4 bytes per entry
    against about 36 for a list of boxed ints, and every entry fits a C
    int since MAX_TABLE_CARD does.  Up to it, a list: its entries are
    shared small ints, so an array saves nothing, and a list subscript
    costs about half an array one in per-element loops such as
    curves.s_mul.
    """
    if card <= SMALL_TABLE_CARD:
        return list
    return lambda values: array("i", values)


def fits(p: int, n: int, budget: int = MAX_TABLE_CARD) -> bool:
    """Whether GF(p^n) is within the budget and the table cap."""
    limit = min(budget, MAX_TABLE_CARD)
    return n <= limit.bit_length() and p ** n <= limit


def limit_name(budget: int = MAX_TABLE_CARD) -> str:
    """The limit ``fits`` applies, as refusals name it: the budget when
    one below the table cap was given, else the cap."""
    if budget < MAX_TABLE_CARD:
        return f"the budget {budget}"
    return f"the table cap {MAX_TABLE_CARD}"


def require_fits(p: int, n: int, budget: int = MAX_TABLE_CARD) -> None:
    """Refuse GF(p^n) past ``fits``, naming the field and the limit."""
    if not fits(p, n, budget):
        name = f"GF({p}^{n})" if n > 1 else f"GF({p})"
        raise BudgetExceeded(f"{name} exceeds {limit_name(budget)}")


def _find_defpoly(p: int, n: int) -> tuple[int, ...]:
    for v in range(p ** n):
        f = [v // p ** i % p for i in range(n)] + [1]
        if list(ddf(field(p), f)) == [n]:
            return tuple(f)
    raise InvariantViolation(f"no irreducible polynomial of degree {n} "
                             f"over GF({p})")


# ---------------------------------------------------------------------------


class FieldCtx:
    """Arithmetic context for GF(p^n) on packed-integer elements."""

    __slots__ = (
        "p", "n", "order", "defpoly", "gen",
        "_exp", "_log", "_zech", "_m1log", "_emb_cache", "_bytes",
    )

    def __init__(self, p: int, n: int = 1):
        if not primes.is_prime(p):
            raise UnsupportedBase(f"field characteristic {p} is not prime")
        if n < 1:
            raise UnsupportedBase(f"field degree {n} is not positive")
        self.p = p
        self.n = n
        self.order = p ** n
        self._emb_cache: dict = {}
        self._bytes = None
        if n == 1:
            self.defpoly = (0, 1)
            self.gen = primes.primitive_root(p)
            self._exp = None
            self._log = None
            self._zech = None
            self._m1log = None
            return
        require_fits(p, n)
        self.defpoly = _find_defpoly(p, n)
        self.gen = self._find_generator()
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        fp, f = field(self.p), list(self.defpoly)
        qm1 = self.order - 1
        fac = primes.factorize(qm1)
        for v in range(2, self.order):
            elem = list(self.coeffs(v))
            if all(ppow_mod(fp, elem, qm1 // ell, f) != [1] for ell in fac):
                return v
        raise InvariantViolation(f"{self.name()} has no generator")

    def _build_tables(self) -> None:
        self._set_tables(*self._chain_packed())

    def _set_tables(self, exp, log) -> None:
        if log.count(-1) != 1:
            raise InvariantViolation("exp chain did not cover the units")
        self._exp = exp
        self._log = log
        self._zech = None
        self._m1log = log[self.p - 1]

    def _zech_table(self):
        """The Zech table, built on the first call."""
        if self._zech is None:
            p, exp, log = self.p, self._exp, self._log
            pm1 = p - 1
            # zech[k] = log(1 + g^k): adding 1 steps the constant digit,
            # and log[0] = -1 marks 1 + g^k = 0.  Built in slices of 4096,
            # so no full-size list exists: an array fills from a list
            # about twice as fast as from a generator.
            new = _table_type(self.order)
            zech = new([])
            for s in range(0, len(exp), 1 << 12):
                zech += new([log[e + 1 if e % p != pm1 else e - pm1]
                             for e in exp[s:s + (1 << 12)]])
            self._zech = zech
        return self._zech

    def _chain_packed(self) -> tuple:
        # the multiply-by-g map of the module docstring
        p, n, Q = self.p, self.n, self.order
        fp, f = field(p), list(self.defpoly)
        g = pnorm(list(self.coeffs(self.gen)))
        basis = [pdivmod(fp, pmul(fp, [0] * i + [1], g), f)[1]
                 for i in range(n)]
        s = (2 * p - 2).bit_length()

        def spread_span(rows):
            # spread form of sum c_i * rows[i], indexed by packed (c_i)
            vecs = [[0] * n]
            for row in rows:
                row = row + [0] * (n - len(row))
                vecs = [[(x + c * y) % p for x, y in zip(vec, row)]
                        for c in range(p) for vec in vecs]
            return [sum(c << s * i for i, c in enumerate(vec))
                    for vec in vecs]
        h = (n + 1) // 2
        ph = p ** h
        GL = spread_span(basis[:h])
        GH = spread_span(basis[h:])
        # raw bits of `width` spread coefficients -> reduced mod p and
        # packed in base p; three chunks cover all n coefficients
        width = -(-n // 3)
        red = [0]
        for j in range(width):
            pj = p ** j
            red = [t + d % p * pj for d in range(1 << s) for t in red]
        pw = p ** width
        R1 = [t * pw for t in red]
        R2 = [t * pw * pw for t in red]
        bits = width * s
        bits2 = 2 * bits
        mask = (1 << bits) - 1
        new = _table_type(Q)
        exp = new([0]) * (Q - 1)
        log = new([-1]) * Q
        v = 1
        for k in range(Q - 1):
            exp[k] = v
            log[v] = k
            w = GL[v % ph] + GH[v // ph]
            v = red[w & mask] + R1[w >> bits & mask] + R2[w >> bits2]
        if v != 1:
            raise InvariantViolation("generator order mismatch")
        return exp, log

    def _prime_tables(self) -> None:
        # lazy exp/log/zech for a prime field, needed only for discrete
        # logs and log-domain loops
        if self._exp is not None:
            return
        p = self.p
        require_fits(p, 1)
        new = _table_type(p)
        exp = new([0]) * (p - 1)
        log = new([-1]) * p
        cur = 1
        for k in range(p - 1):
            exp[k] = cur
            log[cur] = k
            cur = cur * self.gen % p
        self._set_tables(exp, log)

    # -- element views ---------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a + b) % self.p
        if a == 0:
            return b
        if b == 0:
            return a
        zech = self._zech
        if zech is None:
            zech = self._zech_table()
        log = self._log
        la, lb = log[a], log[b]
        z = zech[(lb - la) % (self.order - 1)]
        if z < 0:
            return 0
        return self._exp[(la + z) % (self.order - 1)]

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
        if a == 0:
            return a
        return self._exp[(self._log[a] + self._m1log) % (self.order - 1)]

    def sub(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of 0")
        if self.n == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[-self._log[a] % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        if self.n == 1:
            return pow(a, e % (self.p - 1), self.p)
        return self._exp[self._log[a] * e % (self.order - 1)]

    def dlog(self, a: int) -> int:
        """Discrete log of a nonzero element w.r.t. the stored generator."""
        if a == 0:
            raise ZeroDivisionError("discrete log of 0")
        if self.n == 1:
            self._prime_tables()
        return self._log[a]

    def exp_gen(self, k: int) -> int:
        """Generator power g^k."""
        if self.n == 1:
            self._prime_tables()
        return self._exp[k % (self.order - 1)]

    def frob(self, a: int, t: int = 1) -> int:
        """Frobenius x -> x^(p^t)."""
        return self.pow(a, pow(self.p, t, self.order - 1) if self.order > 2 else 1)

    def frob_orbit(self, a: int, t: int) -> list[int]:
        """a, a^(p^t), a^(p^2t), ... up to the first repeat."""
        orb = [a]
        cur = self.frob(a, t)
        while cur != a:
            orb.append(cur)
            cur = self.frob(cur, t)
        return orb

    def root(self, z: int, m: int) -> int | None:
        """Some y with y^m = z, or None when z is not an m-th power.

        y = g^t with m*t = dlog(z) mod (order - 1); when m divides
        order - 1 that is t = dlog(z)/m.
        """
        if z == 0:
            return 0
        q1 = self.order - 1
        dl = self.dlog(z)
        c = math.gcd(m, q1)
        if dl % c:
            return None
        mod = q1 // c
        # m/c is invertible mod (order-1)/c, so m*t = dl is solvable
        t = (dl // c) * pow(m // c, -1, mod) % mod
        y = self.exp_gen(t)
        if self.pow(y, m) != z:
            raise InvariantViolation(f"g^{t} is not an {m}-th root")
        return y

    def trace_table(self, sub: FieldCtx | None = None) -> bytes | list[int]:
        """Trace down to the subfield sub (the prime field when omitted)
        of every element, indexed by packed value, as packed elements of
        sub under the canonical embedding.

        The trace is F_p-linear, so Tr(sum c_i X^i) = sum c_i Tr(X^i):
        the n basis traces, each a sum of relative Frobenius conjugates,
        give all p^n of them.  The conjugates are summed digit by digit
        on their packed values, so a trace to the prime field builds no
        Zech table.  Traces to the prime field with p < 256 come as
        bytes, one byte per element: the table for the first i + 1 basis
        traces is p copies of the one for the first i, copy c shifted by
        c * Tr(X^i) through bytes.translate.  Other traces come as a
        list.
        """
        p = self.p
        step = 1 if sub is None else sub.n
        basis = []
        for i in range(self.n):
            conj = [self.coeffs(self.frob(p ** i, k))
                    for k in range(0, self.n, step)]
            basis.append(sum(sum(col) % p * p ** j
                             for j, col in enumerate(zip(*conj))))
        if step == 1:
            if max(basis) >= p:
                raise InvariantViolation("trace left the prime field")
            if p < 256:
                # shift[d] maps each digit x to (x + d) mod p
                shift = [bytes((x + d) % p for x in range(256))
                         for d in range(p)]
                raw = b"\0"
                for t in basis:
                    raw = b"".join([raw.translate(shift[c * t % p])
                                    for c in range(p)])
                return raw
            table = [0]
            for t in basis:
                table = [(s + c * t) % p for c in range(p) for s in table]
            return table
        emb = embedding(sub, self)
        table = [0]
        for t in basis:
            table = [self.add(s, self.mul(c, t))
                     for c in range(p) for s in table]
        out = [emb.preimage(v) for v in table]
        if None in out:
            raise InvariantViolation(f"trace left {sub.name()}")
        return out

    def log_tables(self) -> tuple[int, list[int] | array, list[int] | array,
                                  list[int] | array, int]:
        """(order - 1, exp, log, zech, log(-1)) of the field.

        For loops that stay in the log domain: log[0] = -1 marks zero,
        and g^a + g^b = g^(a + zech[(b - a) mod (order - 1)]), the sum
        being zero when that zech entry is -1.  The three tables are
        lists up to SMALL_TABLE_CARD elements and array("i")s past it;
        callers only index them.  A prime field builds its tables on the
        first call, any field its Zech table.
        """
        q1, exp, log = self.exp_log()
        return q1, exp, log, self._zech_table(), self._m1log

    def exp_log(self) -> tuple[int, list[int] | array, list[int] | array]:
        """(order - 1, exp, log): log_tables without the Zech table,
        which this does not build."""
        if self.n == 1:
            self._prime_tables()
        return self.order - 1, self._exp, self._log

    def byte_tables(self) -> tuple[bytes, list[bytes], list[int],
                                   list[int]]:
        """(ADD, MUL, neg, inv) of a field with at most BYTES_CARD
        elements, built on the first call.

        An element then fits 4 bits, so a pair packs into one byte:
        ADD[(a << 4) | b] = a + b, and MUL[c][v] = c * v for each of the
        order elements c, both 256 bytes long with 0 wherever an index
        is not a pair of elements; neg and inv are lists by element
        (inv[0] = 0).  At most 4.4 KB per field.
        """
        if self.order > BYTES_CARD:
            raise InvariantViolation(f"{self.name()} has more than "
                                     f"{BYTES_CARD} elements")
        if self._bytes is None:
            q = self.order

            def row(op, a, width):
                # op(a, b) for every element b, zero-padded to width
                return bytes([op(a, b) for b in range(q)]).ljust(width, b"\0")
            add = b"".join(row(self.add, a, 16)
                           for a in range(q)).ljust(256, b"\0")
            mul = [row(self.mul, c, 256) for c in range(q)]
            self._bytes = (add, mul, [self.neg(a) for a in range(q)],
                           [0] + [self.inv(a) for a in range(1, q)])
        return self._bytes

    def name(self) -> str:
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    __repr__ = name


_CTX_CACHE: dict[tuple[int, int], FieldCtx] = {}


def field(p: int, n: int = 1) -> FieldCtx:
    """Memoized context constructor."""
    key = (p, n)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, n)
        _CTX_CACHE[key] = ctx
    return ctx


# ---------------------------------------------------------------------------
# exact linear algebra


def nullspace(ctx: FieldCtx, rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix over ctx.

    The matrix is brought to row echelon form with unit pivots,
    eliminating only below each pivot; elimination stops once every row
    holds a pivot.  The basis has one vector per free column f: x_f = 1,
    every other free variable 0, and the pivot variables back-substituted
    through the pivot rows from the last up.  That vector is the unique
    kernel element with this pattern on the free columns, so the basis is
    the one read off the reduced row echelon form, in the same order; a
    full-rank matrix does no back-substitution.

    Three kernels give that basis.  A field of at most BYTES_CARD = 16
    elements holds each row as bytes: the pivot row is scaled by one
    bytes.translate through MUL[inv(pivot)], -c * prow is made once per
    distinct c, and row - c * prow is
    ((int(row) << 4) | int(-c * prow)).to_bytes().translate(ADD), since
    every entry fits 4 bits and the shift puts each into the high
    nibble of its own byte.  Past 16 elements an entry no longer fits 4
    bits, so prime fields reduce ints mod p, and extension fields keep
    every entry as a discrete log (-1 for zero) and add through the Zech
    table; each of their steps touches only the columns where its row is
    nonzero.  Eliminating above the pivots as well would double the row
    operations for the same basis.

    The prime kernel needs no table.  Routed through the log kernel, a
    prime field would build log tables on its first solve, which costs
    memory and time on primes in the millions and is refused past
    MAX_TABLE_CARD, where no caller refuses the prime first: principal
    over GF(4194319) is answered only because of this route.
    """
    if ctx.order <= BYTES_CARD:
        return _kernel_bytes(ctx, rows, ncols)
    if ctx.n == 1:
        return _kernel_prime(ctx.p, rows, ncols)
    return _kernel_log(ctx, rows, ncols)


def _kernel_bytes(ctx: FieldCtx, rows, ncols: int) -> list[tuple[int, ...]]:
    ADD, MUL, neg, inv = ctx.byte_tables()
    mat = [bytes(r) for r in rows]
    nrows = len(mat)
    pivots: list[int] = []    # mat[k] is pivot k's unit-scaled row
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        for piv in range(rank, nrows):
            if mat[piv][col]:
                break
        else:
            continue
        prow = mat[piv]
        mat[piv] = mat[rank]
        prow = mat[rank] = prow.translate(MUL[inv[prow[col]]])
        # row_i -= c * prow: each entry of row_i goes to the high nibble
        # and -c * prow's to the low one, and ADD sums every byte
        negs = {}
        for i in range(rank + 1, nrows):
            row = mat[i]
            c = row[col]
            if c:
                low = negs.get(c)
                if low is None:
                    low = negs[c] = int.from_bytes(
                        prow.translate(MUL[neg[c]]), "big")
                mat[i] = ((int.from_bytes(row, "big") << 4) | low).to_bytes(
                    ncols, "big").translate(ADD)
        pivots.append(col)
    free = sorted(set(range(ncols)).difference(pivots))
    if not free:
        return []
    # per pivot row: (column, MUL table of the entry) right of the pivot
    supps = [[(j, MUL[v]) for j, v in enumerate(prow[pc + 1:], pc + 1) if v]
             for pc, prow in zip(pivots, mat)]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for pc, supp in zip(reversed(pivots), reversed(supps)):
            acc = 0
            for j, mv in supp:
                acc = ADD[acc << 4 | mv[vec[j]]]
            # x_pc is minus the row's sum right of the pivot
            vec[pc] = neg[acc]
        basis.append(tuple(vec))
    return basis


def _kernel_prime(p: int, rows, ncols: int) -> list[tuple[int, ...]]:
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots: list[int] = []
    ech = []    # per pivot row: (column, unit-scaled entry) right of the pivot
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = pow(prow[col], p - 2, p)
        supp = [(j, prow[j] * inv % p) for j in range(col + 1, ncols)
                if prow[j]]
        negs = [(j, p - v) for j, v in supp]
        for i in range(rank + 1, nrows):
            row = mat[i]
            c = row[col]
            if c:
                for j, nv in negs:
                    row[j] = (row[j] + c * nv) % p
        pivots.append(col)
        ech.append(supp)
    free = sorted(set(range(ncols)).difference(pivots))
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for pc, supp in zip(reversed(pivots), reversed(ech)):
            vec[pc] = -sum(v * vec[j] for j, v in supp) % p
        basis.append(tuple(vec))
    return basis


def _kernel_log(ctx: FieldCtx, rows, ncols: int) -> list[tuple[int, ...]]:
    q1, exp, log, zech, m1 = ctx.log_tables()
    mat = [[log[v] for v in r] for r in rows]
    nrows = len(mat)
    pivots: list[int] = []
    ech = []    # per pivot row: (column, unit-scaled entry) right of the pivot
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if mat[i][col] >= 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        shift = q1 - prow[col]
        supp = [(j, (prow[j] + shift) % q1) for j in range(col + 1, ncols)
                if prow[j] >= 0]
        # logs of the negated pivot row: row_i -= c * prow adds c * (-prow)
        negs = [(j, lv + m1) for j, lv in supp]
        for i in range(rank + 1, nrows):
            row = mat[i]
            lc = row[col]
            if lc >= 0:
                for j, ln in negs:
                    t = ln + lc
                    lr = row[j]
                    if lr < 0:
                        row[j] = t % q1
                    else:
                        z = zech[(t - lr) % q1]
                        row[j] = -1 if z < 0 else (lr + z) % q1
        pivots.append(col)
        ech.append(supp)
    free = sorted(set(range(ncols)).difference(pivots))
    basis = []
    for f in free:
        lvec = [-1] * ncols
        lvec[f] = 0
        for pc, supp in zip(reversed(pivots), reversed(ech)):
            acc = -1
            for j, lv in supp:
                lx = lvec[j]
                if lx >= 0:
                    t = lv + lx
                    if acc < 0:
                        acc = t % q1
                    else:
                        z = zech[(t - acc) % q1]
                        acc = -1 if z < 0 else (acc + z) % q1
            # x_pc is minus the row's sum right of the pivot
            lvec[pc] = (acc + m1) % q1 if acc >= 0 else -1
        basis.append(tuple(exp[lv] if lv >= 0 else 0 for lv in lvec))
    return basis


# ---------------------------------------------------------------------------


class Embedding:
    """Field embedding GF(p^s) -> GF(p^n) for s | n.

    The image of the source polynomial generator X is the packed-smallest
    root of the source defining polynomial in the destination, so repeated
    runs pick the same embedding.
    """

    __slots__ = ("src", "dst", "img_x", "_fwd", "_bwd")

    def __init__(self, src: FieldCtx, dst: FieldCtx, img_x: int | None = None):
        _require_subfield(src, dst)
        self.src = src
        self.dst = dst
        if src.n == 1:
            self.img_x = None
            self._fwd = None
            self._bwd = None
            return
        img = img_x
        if img is not None:
            if peval(dst, src.defpoly, img) != 0:
                raise InvariantViolation(
                    "prescribed image is not a defpoly root")
        else:
            img = min(_defpoly_roots(src, dst))
        self._build_tables(img)

    def _build_tables(self, img: int) -> None:
        src, dst = self.src, self.dst
        self.img_x = img
        fwd = [peval(dst, src.coeffs(a), img) for a in src.elements()]
        self._fwd = fwd
        self._bwd = {v: a for a, v in enumerate(fwd)}

    def apply(self, a: int) -> int:
        if self.src.n == 1:
            return a
        return self._fwd[a]

    def preimage(self, b: int):
        """Packed source element mapping to b, or None if b is outside."""
        if self.src.n == 1:
            return b if b < self.src.p else None
        return self._bwd.get(b)


def _defpoly_roots(src: FieldCtx, dst: FieldCtx) -> list[int]:
    """Every root of src's defining polynomial in dst, for s = src.n > 1.

    The roots lie in the subfield GF(p^s) of dst, whose units are the
    powers g^(k (Q_dst - 1)/(Q_src - 1)); the first root found there and
    its s Frobenius conjugates are all of them.
    """
    step = (dst.order - 1) // (src.order - 1)
    for k in range(src.order - 1):
        z = dst.exp_gen(k * step)
        if peval(dst, src.defpoly, z) == 0:
            roots = dst.frob_orbit(z, 1)
            if len(roots) != src.n:
                raise InvariantViolation(
                    "defining polynomial root of the wrong degree")
            return roots
    raise InvariantViolation("defining polynomial has no root downstream")


def _require_subfield(src: FieldCtx, dst: FieldCtx) -> None:
    if src.p != dst.p or dst.n % src.n:
        raise UnsupportedBase(f"{src.name()} is not a subfield of "
                              f"{dst.name()}")


def embedding(src: FieldCtx, dst: FieldCtx) -> Embedding:
    key = (src.p, src.n, dst.n)
    emb = dst._emb_cache.get(key)
    if emb is None:
        emb = Embedding(src, dst)
        dst._emb_cache[key] = emb
    return emb


def compatible_embedding(base: FieldCtx, src: FieldCtx,
                         dst: FieldCtx) -> Embedding:
    """Embedding src -> dst whose restriction to base is the canonical one.

    Canonical embeddings of two different sources need not agree on a
    shared subfield larger than the prime field; towers that mix sources
    over a common base must pin the restriction explicitly.  The image of
    X is the packed-smallest defpoly root with that restriction.
    """
    _require_subfield(base, src)
    _require_subfield(src, dst)
    if base.n == 1 or src.n == base.n or src.n == dst.n:
        # the canonical pick is already determined on base (identity when
        # src == dst: the generator X is the packed-smallest defpoly root)
        return embedding(src, dst)
    key = ("compat", base.n, src.n, dst.n)
    emb = dst._emb_cache.get(key)
    if emb is not None:
        return emb
    gen_src = embedding(base, src).apply(base.p)
    want = embedding(base, dst).apply(base.p)
    imgs = [z for z in _defpoly_roots(src, dst)
            if peval(dst, src.coeffs(gen_src), z) == want]
    if not imgs:
        raise InvariantViolation("no base-compatible embedding exists")
    emb = Embedding(src, dst, img_x=min(imgs))
    dst._emb_cache[key] = emb
    return emb


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldElem:
    """A packed value paired with its context, for curve coefficients."""

    ctx: FieldCtx
    val: int

    def __repr__(self) -> str:
        return f"{self.ctx.name()}:{self.val}"


# ---------------------------------------------------------------------------
# polynomials over a context: coefficient lists of packed values, index = degree


def pnorm(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(ctx: FieldCtx, a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ctx.add(out[i], c)
    return pnorm(out)


def psub(ctx: FieldCtx, a, b) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = ctx.sub(out[i], c)
    return pnorm(out)


def pscale(ctx: FieldCtx, a, c: int) -> list[int]:
    return pnorm([ctx.mul(x, c) for x in a])


def pmul(ctx: FieldCtx, a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if ctx.n == 1:
        # plain ints, reduced once
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        p = ctx.p
        return pnorm([c % p for c in out])
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return pnorm(out)


def pdivmod(ctx: FieldCtx, a, b) -> tuple[list[int], list[int]]:
    b = pnorm(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(0, len(r) - len(b) + 1)
    if ctx.n == 1:
        # plain ints: r is reduced mod p only where a quotient digit is
        # read, and once at the end
        p = ctx.p
        inv_lead = pow(b[-1], p - 2, p)
        low = b[:-1]
        while len(r) >= len(b):
            c = r.pop() * inv_lead % p
            if c:
                off = len(r) - len(low)
                q[off] = c
                for t, bt in enumerate(low, off):
                    r[t] -= c * bt
        return pnorm(q), pnorm([c % p for c in r])
    inv_lead = ctx.inv(b[-1])
    while len(r) >= len(b):
        c = ctx.mul(r[-1], inv_lead)
        if c:
            off = len(r) - len(b)
            q[off] = c
            for t in range(len(b)):
                r[off + t] = ctx.sub(r[off + t], ctx.mul(c, b[t]))
        r.pop()
    return pnorm(q), pnorm(r)


def pgcd(ctx: FieldCtx, a, b) -> list[int]:
    a, b = pnorm(list(a)), pnorm(list(b))
    while b:
        _, r = pdivmod(ctx, a, b)
        a, b = b, r
    if a:
        a = pscale(ctx, a, ctx.inv(a[-1]))
    return a


def peval(ctx: FieldCtx, a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def pderiv(ctx: FieldCtx, a) -> list[int]:
    out = []
    for i in range(1, len(a)):
        out.append(ctx.mul(a[i], i % ctx.p))
    return pnorm(out)


def pfrom_roots(ctx: FieldCtx, roots) -> list[int]:
    out = [1]
    for r in roots:
        out = pmul(ctx, out, [ctx.neg(r), 1])
    return out


def ppow_mod(ctx: FieldCtx, a, e: int, mod) -> list[int]:
    res = pdivmod(ctx, [1], mod)[1]
    base = pdivmod(ctx, list(a), mod)[1]
    while e:
        if e & 1:
            res = pdivmod(ctx, pmul(ctx, res, base), mod)[1]
        base = pdivmod(ctx, pmul(ctx, base, base), mod)[1]
        e >>= 1
    return res


def proots(ctx: FieldCtx, a) -> list[int]:
    """All roots in the context, by scanning; fine at desk scale."""
    a = pnorm(list(a))
    if not a:
        raise SuperjacError("the zero polynomial has every element as a "
                            "root")
    return [x for x in ctx.elements() if peval(ctx, a, x) == 0]


def ddf(ctx: FieldCtx, f) -> dict[int, list[int]]:
    """Distinct-degree factorisation of a nonzero polynomial: for each
    degree s of an irreducible factor, in increasing order, the monic
    product of the distinct irreducible factors of degree s."""
    S = pnorm(list(f))
    if not S:
        raise SuperjacError("the zero polynomial has no factorisation")
    S = pscale(ctx, S, ctx.inv(S[-1]))
    out: dict[int, list[int]] = {}
    x = h = [0, 1]
    s = 0
    while len(S) > 1:
        s += 1
        if 2 * s > len(S) - 1:
            # S has no factor of degree < s, so it is irreducible
            out[len(S) - 1] = S
            break
        h = ppow_mod(ctx, h, ctx.order, S)
        g = pgcd(ctx, S, psub(ctx, h, x))
        if len(g) > 1:
            out[s] = g
            # strip every factor of g to its full multiplicity
            while len(c := pgcd(ctx, S, g)) > 1:
                S, rem = pdivmod(ctx, S, c)
                if rem:
                    raise InvariantViolation("DDF division was not exact")
            h = pdivmod(ctx, h, S)[1]
    return out
