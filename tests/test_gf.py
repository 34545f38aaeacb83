"""Field context construction, arithmetic, embeddings, trace/norm."""

from __future__ import annotations

import operator
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from superjac import gf, primes
from superjac.errors import (BudgetExceeded, InvariantViolation,
                             SuperjacError, UnsupportedBase)


def rel_trace(K: gf.FieldCtx, a: int, sub_n: int) -> int:
    """Trace of a to the subfield of degree sub_n, as an element of K."""
    assert K.n % sub_n == 0
    acc = t = a
    for _ in range(K.n // sub_n - 1):
        t = K.frob(t, sub_n)
        acc = K.add(acc, t)
    return acc


def trace(K: gf.FieldCtx, a: int) -> int:
    """Absolute trace of a, by its Frobenius conjugates."""
    return rel_trace(K, a, 1)


def norm(K: gf.FieldCtx, a: int) -> int:
    """Absolute norm of a, by its Frobenius conjugates."""
    acc = t = a
    for _ in range(K.n - 1):
        t = K.frob(t)
        acc = K.mul(acc, t)
    return acc


def from_coeffs(K: gf.FieldCtx, cs) -> int:
    """Packed value of a coefficient vector, constant term first."""
    v = 0
    for c in reversed(list(cs)):
        v = v * K.p + c % K.p
    return v


def test_gf4_defining_poly_and_trace():
    K = gf.field(2, 2)
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    assert K.defpoly == (1, 1, 1)
    omega = 2  # packed "x"
    assert K.mul(omega, omega) == K.add(omega, 1)  # x^2 = x + 1
    assert K.trace_table()[omega] == trace(K, omega) == 1
    assert norm(K, omega) == 1
    assert K.pow(omega, 3) == 1


def test_prime_field_contexts():
    K2 = gf.field(2)
    assert K2.gen == 1
    K3 = gf.field(3)
    assert K3.gen == 2
    assert K3.add(2, 2) == 1
    assert K3.inv(2) == 2
    K13 = gf.field(13)
    for a in range(1, 13):
        assert K13.mul(a, K13.inv(a)) == 1


def test_gf9_generator_has_order_8():
    K = gf.field(3, 2)
    assert K.order == 9
    seen = set()
    cur = 1
    for _ in range(8):
        seen.add(cur)
        cur = K.mul(cur, K.gen)
    assert cur == 1 and len(seen) == 8


def test_gf16_generator_order_15():
    K = gf.field(2, 4)
    orders = {K.pow(K.gen, k) for k in range(15)}
    assert len(orders) == 15


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (7, 2), (2, 6)])
def test_field_axioms_sampled(p, n):
    K = gf.field(p, n)
    rng = random.Random(1234)
    for _ in range(200):
        a = rng.randrange(K.order)
        b = rng.randrange(K.order)
        c = rng.randrange(K.order)
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.add(a, K.neg(a)) == 0
        if a:
            assert K.mul(a, K.inv(a)) == 1
        assert K.sub(a, b) == K.add(a, K.neg(b))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
def test_frobenius_is_additive_and_fixes_prime_field(p, n):
    K = gf.field(p, n)
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randrange(K.order)
        b = rng.randrange(K.order)
        assert K.frob(K.add(a, b)) == K.add(K.frob(a), K.frob(b))
    for c in range(p):
        assert K.frob(c) == c


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 3), (7, 2), (3, 6)])
def test_trace_norm_against_definitions(p, n):
    # the trace table and the norm as a generator power (the form
    # characters.modified_gauss_sum uses) against the conjugate sums and
    # products
    K = gf.field(p, n)
    table = K.trace_table()
    rng = random.Random(99)
    for _ in range(60):
        a = rng.randrange(K.order)
        tr = 0
        nm = 1
        t = a
        for _ in range(n):
            tr = K.add(tr, t)
            nm = K.mul(nm, t)
            t = K.frob(t)
        assert table[a] == trace(K, a) == tr
        assert norm(K, a) == nm
        if a:
            assert K.exp_gen(K.dlog(a) * ((K.order - 1) // (p - 1))) == nm
    assert norm(K, K.gen) == K.exp_gen((K.order - 1) // (p - 1)) < p


def test_trace_surjective_and_balanced():
    K = gf.field(3, 4)
    counts = {0: 0, 1: 0, 2: 0}
    table = K.trace_table()
    for a in K.elements():
        counts[table[a]] += 1
    assert counts[0] == counts[1] == counts[2] == 27


def test_tower_trace_transitivity():
    # Tr_{F_{2^6}/F_2} = Tr_{F_{2^2}/F_2} o Tr_{F_{2^6}/F_{2^2}}
    K = gf.field(2, 6)
    sub = gf.field(2, 2)
    emb = gf.embedding(sub, K)
    for a in list(K.elements())[:200]:
        rt = rel_trace(K, a, 2)
        pre = emb.preimage(rt)
        assert pre is not None, "relative trace not in the subfield"
        assert trace(sub, pre) == trace(K, a)


@pytest.mark.parametrize("p,n,s", [(2, 4, 2), (2, 6, 2), (2, 6, 3),
                                   (3, 4, 2), (5, 2, 1), (3, 3, 1)])
def test_trace_table_to_a_subfield(p, n, s):
    # every entry is the relative trace by definition, descended through
    # the canonical embedding, and traces compose down the tower
    K, sub = gf.field(p, n), gf.field(p, s)
    emb = gf.embedding(sub, K)
    table = K.trace_table(sub)
    assert len(table) == K.order
    for a in K.elements():
        assert emb.apply(table[a]) == rel_trace(K, a, s)
        assert trace(sub, table[a]) == trace(K, a)


def test_embedding_is_ring_hom():
    src = gf.field(2, 2)
    dst = gf.field(2, 4)
    emb = gf.embedding(src, dst)
    for a in src.elements():
        for b in src.elements():
            assert emb.apply(src.add(a, b)) == dst.add(emb.apply(a), emb.apply(b))
            assert emb.apply(src.mul(a, b)) == dst.mul(emb.apply(a), emb.apply(b))
    # preimage inverts on the subfield and rejects outsiders
    img = {emb.apply(a) for a in src.elements()}
    for z in dst.elements():
        if z in img:
            assert emb.apply(emb.preimage(z)) == z
        else:
            assert emb.preimage(z) is None


# every proper subfield GF(p^s), s > 1, of every GF(p^n) with p^n <= 3^8
EMBED_PAIRS = [(p, s, n) for p in (2, 3, 5, 7) for n in range(2, 13)
               if p ** n <= 3 ** 8 for s in range(2, n) if n % s == 0]


def _img_x_by_scan(src, dst, base=None):
    """The first destination element, in packed order, that is a root of
    src's defining polynomial (restricting to base's canonical embedding
    when base is given)."""
    if base is not None:
        gen_src = gf.embedding(base, src).apply(base.p)
        want = gf.embedding(base, dst).apply(base.p)
    for z in dst.elements():
        if gf.peval(dst, src.defpoly, z) == 0 and (
                base is None
                or gf.peval(dst, src.coeffs(gen_src), z) == want):
            return z
    return None


@pytest.mark.parametrize("p,s,n", EMBED_PAIRS)
def test_embedding_image_matches_full_scan(p, s, n):
    src, dst = gf.field(p, s), gf.field(p, n)
    assert gf.Embedding(src, dst).img_x == _img_x_by_scan(src, dst)


@pytest.mark.parametrize("p,b", [(2, 2), (2, 3), (3, 2)])
def test_compatible_embedding_matches_full_scan(p, b):
    base = gf.field(p, b)
    towers = [(s, n) for n in range(b, 13) if p ** n <= 3 ** 8
              for s in range(b, n + 1) if s % b == 0 and n % s == 0]
    assert any(b < s < n for s, n in towers)
    for s, n in towers:
        src, dst = gf.field(p, s), gf.field(p, n)
        emb = gf.compatible_embedding(base, src, dst)
        assert emb.img_x == _img_x_by_scan(src, dst, base), (s, n)


def test_table_cap_enforced():
    with pytest.raises(BudgetExceeded):
        gf.FieldCtx(2, 23)


def test_prime_field_table_cap_names_p_and_the_cap():
    p = next(q for q in range(gf.MAX_TABLE_CARD + 1, gf.MAX_TABLE_CARD + 100)
             if primes.is_prime(q))
    K = gf.FieldCtx(p)
    assert K.mul(2, 3) == 6
    with pytest.raises(BudgetExceeded,
                       match=rf"GF\({p}\) exceeds the table cap 4194304"):
        K.dlog(2)


@given(st.integers(min_value=0, max_value=728), st.integers(min_value=0, max_value=728))
@settings(max_examples=60, deadline=None)
def test_gf729_add_matches_digitwise(a, b):
    K = gf.field(3, 6)
    ca, cb = K.coeffs(a), K.coeffs(b)
    expected = from_coeffs(K, ((x + y) % 3 for x, y in zip(ca, cb)))
    assert K.add(a, b) == expected


def test_poly_helpers_roundtrip():
    K = gf.field(5)
    f = [1, 2, 3]           # 3x^2 + 2x + 1
    g = [4, 1]              # x + 4
    q, r = gf.pdivmod(K, gf.padd(K, gf.pmul(K, f, g), [2]), g)
    assert q == f
    assert r == [2]
    roots = gf.proots(K, gf.pfrom_roots(K, [1, 3]))
    assert roots == [1, 3]
    d = gf.pgcd(K, gf.pfrom_roots(K, [1, 2]), gf.pfrom_roots(K, [2, 4]))
    assert d == gf.pfrom_roots(K, [2])


# (p, n, defpoly, gen) recorded before the defining-polynomial and generator
# searches moved onto the shared polynomial helpers (ppow_mod, psub, pgcd).
# Both are documented deterministic choices, and every packed value the
# package prints depends on them.
FIELD_ANCHORS = [
    (2, 2, (1, 1, 1), 2),
    (2, 3, (1, 1, 0, 1), 2),
    (2, 4, (1, 1, 0, 0, 1), 2),
    (2, 5, (1, 0, 1, 0, 0, 1), 2),
    (2, 6, (1, 1, 0, 0, 0, 0, 1), 2),
    (2, 7, (1, 1, 0, 0, 0, 0, 0, 1), 2),
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (2, 9, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 12, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (2, 13, (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 14, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 15, (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 16, (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (3, 2, (1, 0, 1), 4),
    (3, 3, (1, 2, 0, 1), 3),
    (3, 4, (2, 1, 0, 0, 1), 3),
    (3, 5, (1, 2, 0, 0, 0, 1), 3),
    (3, 6, (2, 1, 0, 0, 0, 0, 1), 3),
    (3, 7, (2, 0, 1, 0, 0, 0, 0, 1), 5),
    (3, 8, (2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
    (3, 9, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3),
    (5, 2, (2, 0, 1), 6),
    (5, 3, (1, 1, 0, 1), 9),
    (5, 4, (2, 0, 0, 0, 1), 6),
    (5, 5, (1, 4, 0, 0, 0, 1), 10),
    (5, 6, (2, 1, 0, 0, 0, 0, 1), 5),
    (7, 2, (1, 0, 1), 9),
    (7, 3, (2, 0, 0, 1), 22),
    (7, 4, (1, 1, 0, 0, 1), 12),
    (7, 5, (3, 1, 0, 0, 0, 1), 9),
    (11, 2, (1, 0, 1), 15),
    (11, 3, (4, 1, 0, 1), 11),
    (11, 4, (2, 1, 0, 0, 1), 11),
    (13, 2, (2, 0, 1), 15),
    (13, 3, (2, 0, 0, 1), 15),
    (13, 4, (2, 0, 0, 0, 1), 17),
    (17, 2, (3, 0, 1), 19),
    (17, 3, (3, 1, 0, 1), 17),
    (19, 2, (1, 0, 1), 22),
    (19, 3, (2, 0, 0, 1), 29),
]


@pytest.mark.parametrize("p,n,defpoly,gen", FIELD_ANCHORS)
def test_defpoly_and_generator_anchors(p, n, defpoly, gen):
    K = gf.field(p, n)
    assert (K.defpoly, K.gen) == (defpoly, gen)


def _chain_digits(p, n, defpoly, gen):
    """exp/log by the digit-vector chain, one schoolbook product with g
    and one reduction mod the defining polynomial per step; kept as the
    oracle for the packed multiply-by-generator chain."""
    Q = p ** n
    fneg = [(-c) % p for c in defpoly[:n]]
    gdig = [gen // p ** i % p for i in range(n)]
    while gdig and gdig[-1] == 0:
        gdig.pop()
    gl = len(gdig)
    width = n + gl - 1
    exp = [0] * (Q - 1)
    log = [-1] * Q
    cur = [0] * n
    cur[0] = 1
    rng_n = range(n)
    place = [p ** i for i in rng_n]
    for k in range(Q - 1):
        v = sum(map(operator.mul, cur, place))
        exp[k] = v
        log[v] = k
        out = [0] * width
        for i in rng_n:
            ci = cur[i]
            if ci:
                for j in range(gl):
                    out[i + j] += ci * gdig[j]
        for d in range(width - 1, n - 1, -1):
            c = out[d] % p
            if c:
                base = d - n
                for t in rng_n:
                    ft = fneg[t]
                    if ft:
                        out[base + t] += c * ft
        cur = [out[t] % p for t in rng_n]
    assert cur == [1] + [0] * (n - 1), "generator order mismatch"
    return exp, log


def _zech_loop(p, exp, log):
    """zech[k] = log(1 + g^k), -1 when 1 + g^k = 0, one entry at a time."""
    zech = [-1] * len(exp)
    pm1 = p - 1
    for k, e in enumerate(exp):
        e2 = e + 1 if e % p != pm1 else e - pm1
        if e2:
            zech[k] = log[e2]
    return zech


# every odd p <= 13 and n >= 2 with p^n <= 3^10, and GF(2^2) ... GF(2^16)
CHAIN_FIELDS = ([(p, n) for p in (3, 5, 7, 11, 13) for n in range(2, 11)
                 if p ** n <= 3 ** 10] + [(2, n) for n in range(2, 17)])


@pytest.mark.parametrize("p,n", CHAIN_FIELDS)
def test_tables_match_digit_chain(p, n):
    K = gf.field(p, n)
    anchor = {(ap, an): (dp, g) for ap, an, dp, g in FIELD_ANCHORS}
    if (p, n) in anchor:
        assert (K.defpoly, K.gen) == anchor[p, n]
    assert K.defpoly == gf._find_defpoly(p, n)
    exp, log = _chain_digits(p, n, K.defpoly, K.gen)
    q1, kexp, klog, kzech, m1 = K.log_tables()
    assert q1 == p ** n - 1
    # lists up to gf.SMALL_TABLE_CARD elements, 4-byte arrays past it
    kind = list if p ** n <= gf.SMALL_TABLE_CARD else array
    assert {type(kexp), type(klog), type(kzech)} == {kind}
    assert kind is list or kexp.typecode == klog.typecode == "i"
    assert list(kexp) == exp
    assert list(klog) == log
    assert list(kzech) == _zech_loop(p, exp, log)
    assert m1 == log[p - 1]


@pytest.mark.parametrize("p", [2, 3, 5, 13, 257])
def test_prime_field_log_tables(p):
    K = gf.field(p)
    q1, exp, log, zech, m1 = K.log_tables()
    assert q1 == p - 1
    assert isinstance(exp, list if p <= gf.SMALL_TABLE_CARD else array)
    assert [K.exp_gen(k) for k in range(q1)] == list(exp)
    assert all(log[exp[k]] == k for k in range(q1))
    assert list(zech) == _zech_loop(p, exp, log)
    for k in range(q1):
        assert (exp[zech[k]] if zech[k] >= 0 else 0) == (exp[k] + 1) % p
    assert m1 == log[p - 1]


def test_table_build_holds_no_full_size_list():
    # GF(3^10)'s exp, log and Zech tables, built in place as 4-byte
    # arrays, cost less at their peak than one list of its 3^10 boxed
    # ints would; its trace table, one byte per element, less than the
    # pointer array of such a list
    Q = 3 ** 10
    one_list = sys.getsizeof([0] * Q) + Q * sys.getsizeof(Q)
    gf.field(3)
    tracemalloc.start()
    try:
        K = gf.FieldCtx(3, 10)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        table = K.trace_table()
        trace_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak < one_list
    assert isinstance(table, bytes) and len(table) == Q
    assert trace_peak < sys.getsizeof([0] * Q)


def test_broken_generator_fails_the_chain():
    # g = 1 has order 1: the chain returns to 1 after one step and the
    # tables cannot cover the units
    K = gf.FieldCtx.__new__(gf.FieldCtx)
    K.p, K.n, K.order, K.defpoly, K.gen = 3, 2, 9, (1, 0, 1), 1
    K._emb_cache = {}
    with pytest.raises(InvariantViolation):
        K._build_tables()


def test_bad_inputs_are_typed():
    K = gf.field(5)
    with pytest.raises(ZeroDivisionError):
        gf.pdivmod(K, [1, 2], [0, 0])
    with pytest.raises(SuperjacError):
        gf.proots(K, [0, 0])
    with pytest.raises(UnsupportedBase):
        gf.Embedding(gf.field(2, 2), gf.field(2, 3))
    with pytest.raises(UnsupportedBase):
        gf.embedding(gf.field(3), gf.field(5, 2))
    with pytest.raises(UnsupportedBase):
        gf.compatible_embedding(gf.field(2, 2), gf.field(2, 4),
                                gf.field(2, 6))


def test_dlog_consistency():
    for (p, n) in [(7, 1), (3, 2), (2, 4)]:
        K = gf.field(p, n)
        g = K.gen
        for a in K.units():
            k = K.dlog(a)
            assert K.pow(g, k) == a


# ---------------------------------------------------------------------------
# nullspace kernel against plain Gauss-Jordan elimination


def _gauss_jordan_nullspace(ctx, rows, ncols):
    """Textbook Gauss-Jordan through the field operations, kept as oracle."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = ctx.inv(mat[rank][col])
        mat[rank] = [ctx.mul(inv, v) for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [ctx.sub(a, ctx.mul(c, b))
                          for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for rowi, pc in enumerate(pivots):
            vec[pc] = ctx.neg(mat[rowi][free])
        basis.append(tuple(vec))
    return basis


# every field of at most gf.BYTES_CARD = 16 elements (the byte kernel),
# the first fields past it (GF(17) on the prime kernel, GF(25) and GF(27)
# on the log kernel), and GF(3^6), past gf.SMALL_TABLE_CARD: its tables
# are arrays
BYTE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2),
               (2, 3), (3, 2), (2, 4)]
NULLSPACE_FIELDS = BYTE_FIELDS + [(17, 1), (5, 2), (3, 3), (2, 8), (3, 4),
                                  (3, 6)]


def _check_nullspace(ctx, rows, ncols):
    got = gf.nullspace(ctx, rows, ncols)
    assert got == _gauss_jordan_nullspace(ctx, rows, ncols)
    for v in got:
        for r in rows:
            acc = 0
            for a, b in zip(r, v):
                acc = ctx.add(acc, ctx.mul(a, b))
            assert acc == 0
    return got


@st.composite
def _matrices(draw):
    p, n = draw(st.sampled_from(NULLSPACE_FIELDS))
    ctx = gf.field(p, n)
    ncols = draw(st.integers(min_value=0, max_value=12))
    nrows = draw(st.integers(min_value=0, max_value=14))
    elem = st.one_of(st.just(0), st.integers(min_value=1,
                                             max_value=ctx.order - 1))
    # rows mixed from a few generators, so ranks below min(rows, cols)
    # and repeated pivots are common
    gens = draw(st.lists(st.lists(elem, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(elem, min_size=len(gens), max_size=len(gens)))
        row = [0] * ncols
        for c, g in zip(coeffs, gens):
            row = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(row, g)]
        rows.append(row)
    return ctx, rows, ncols


@given(_matrices())
@settings(max_examples=300, deadline=None)
def test_nullspace_matches_gauss_jordan(case):
    ctx, rows, ncols = case
    _check_nullspace(ctx, rows, ncols)


@pytest.mark.parametrize("p,n", NULLSPACE_FIELDS)
def test_nullspace_edge_shapes(p, n):
    ctx = gf.field(p, n)
    unit = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    assert _check_nullspace(ctx, [], 4) == unit
    assert _check_nullspace(ctx, [[0] * 4] * 3, 4) == unit
    assert _check_nullspace(ctx, [], 0) == []
    assert _check_nullspace(ctx, [[], []], 0) == []
    # more rows than columns, full column rank
    rng = random.Random(p * 100 + n)
    tall = [[1, 0], [0, 1]] + [[rng.randrange(ctx.order) for _ in range(2)]
                               for _ in range(5)]
    assert _check_nullspace(ctx, tall, 2) == []
    # one dependency: column 2 = column 0 * c
    c = ctx.order - 1
    rows = [[a, b, ctx.mul(a, c)] for a, b in ((1, 0), (0, 1), (1, 1))]
    assert _check_nullspace(ctx, rows, 3) == [(ctx.neg(c), 0, 1)]


def _full_column_rank(ctx, rng, nrows, ncols):
    """A dense nrows x ncols matrix of rank ncols: unit lower-trapezoidal
    rows times a unit upper-triangular matrix, rows shuffled."""
    low = [[rng.randrange(ctx.order) if j < i else int(j == i)
            for j in range(ncols)] for i in range(nrows)]
    up = [[rng.randrange(ctx.order) if j > k else int(j == k)
           for j in range(ncols)] for k in range(ncols)]
    rows = []
    for r in low:
        out = []
        for j in range(ncols):
            acc = 0
            for k in range(j + 1):
                acc = ctx.add(acc, ctx.mul(r[k], up[k][j]))
            out.append(acc)
        rows.append(out)
    rng.shuffle(rows)
    return rows


def _assemble(ctx, rng, base, layout):
    """Columns from a layout: None is a zero column, an int k is column k
    of base, and a tuple of ints a random combination of those columns
    with nonzero coefficients."""
    rows = []
    coeffs = [None if not isinstance(c, tuple)
              else [(k, rng.randrange(1, ctx.order)) for k in c]
              for c in layout]
    for r in base:
        out = []
        for c, cs in zip(layout, coeffs):
            if c is None:
                out.append(0)
            elif cs is None:
                out.append(r[c])
            else:
                acc = 0
                for k, a in cs:
                    acc = ctx.add(acc, ctx.mul(a, r[k]))
                out.append(acc)
        rows.append(out)
    return rows


@pytest.mark.parametrize("p,n", NULLSPACE_FIELDS)
def test_nullspace_riemann_roch_shapes(p, n):
    ctx = gf.field(p, n)
    rng = random.Random(1000 * p + n)
    # 60 x 59 of full column rank: a typical failed principality test
    assert _check_nullspace(ctx, _full_column_rank(ctx, rng, 60, 59),
                            59) == []
    # 58 x 57 with one dependent column: a one-dimensional kernel
    base = _full_column_rank(ctx, rng, 58, 56)
    dep = rng.randrange(57)
    combo = tuple(sorted(rng.sample(range(56), 5)))
    layout = list(range(56))
    layout.insert(dep, combo)
    got = _check_nullspace(ctx, _assemble(ctx, rng, base, layout), 57)
    involved = {dep} | {layout.index(k) for k in combo}
    assert len(got) == 1 and got[0][max(involved)] == 1
    assert {j for j, v in enumerate(got[0]) if v} == involved
    # free columns ahead of pivot columns, and all-zero columns first,
    # in the middle and last
    base = _full_column_rank(ctx, rng, 10, 8)
    layout = [None, 0, (0,), 1, None, 2, (1, 2), 3, 4, 5, 6, 7, None]
    got = _check_nullspace(ctx, _assemble(ctx, rng, base, layout), 13)
    free = [0, 2, 4, 6, 12]
    assert len(got) == len(free)
    assert all(v[f] == int(f == g) for v, g in zip(got, free)
               for f in free)


@pytest.mark.parametrize("p,n", BYTE_FIELDS)
def test_byte_tables_match_field_ops(p, n):
    ctx = gf.field(p, n)
    q = ctx.order
    add, mul, neg, inv = ctx.byte_tables()
    assert ctx.byte_tables() is ctx.byte_tables()
    assert len(add) == 256 and len(mul) == q
    assert all(len(row) == 256 for row in mul)
    for a in range(q):
        for b in range(q):
            assert add[a << 4 | b] == ctx.add(a, b)
            assert mul[a][b] == ctx.mul(a, b)
    assert neg == [ctx.neg(a) for a in range(q)]
    assert inv[1:] == [ctx.inv(a) for a in range(1, q)]
    # 0 wherever an index is not a pair of elements
    assert all(add[i] == 0 for i in range(256) if i >> 4 >= q or i & 15 >= q)
    assert all(not any(row[q:]) for row in mul)


@pytest.mark.parametrize("p,n", [(17, 1), (5, 2), (3, 3)])
def test_byte_tables_refused_past_16_elements(p, n):
    with pytest.raises(InvariantViolation):
        gf.field(p, n).byte_tables()


def _refuse(name):
    def kernel(*args):
        raise AssertionError(f"{name} reached")
    return kernel


@pytest.mark.parametrize("p,n", NULLSPACE_FIELDS)
def test_nullspace_routes_by_field_size(p, n, monkeypatch):
    # fields of at most 16 elements reach only the byte kernel, larger
    # prime fields only the prime kernel, larger extensions the log one
    ctx = gf.field(p, n)
    small = ctx.order <= gf.BYTES_CARD
    for name in ("_kernel_bytes", "_kernel_prime", "_kernel_log"):
        keep = name == ("_kernel_bytes" if small else
                        "_kernel_prime" if n == 1 else "_kernel_log")
        if not keep:
            monkeypatch.setattr(gf, name, _refuse(name))
    rows = _full_column_rank(ctx, random.Random(7), 6, 4)
    assert _check_nullspace(ctx, [r + [0] for r in rows], 5) == \
        [(0, 0, 0, 0, 1)]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (13, 1), (2, 2), (3, 2),
                                 (2, 4)])
def test_corrupt_add_entry_fails_the_oracle(p, n, monkeypatch):
    # 1 + 0 = 1 read as 0: the byte kernel must disagree with Gauss-Jordan
    ctx = gf.field(p, n)
    add, mul, neg, inv = ctx.byte_tables()
    bad = bytearray(add)
    bad[1 << 4 | 0] = 0
    monkeypatch.setattr(ctx, "_bytes", (bytes(bad), mul, neg, inv))
    rng = random.Random(1000 * p + n)
    # a one-dimensional kernel, read off the corrupted echelon rows
    base = _full_column_rank(ctx, rng, 58, 56)
    rows = _assemble(ctx, rng, base, list(range(56)) + [(3, 17, 40)])
    with pytest.raises(AssertionError):
        _check_nullspace(ctx, rows, 57)


# every field with p^n <= 81
SMALL_FIELDS = [(p, n) for p in range(2, 82) if primes.is_prime(p)
                for n in range(1, 7) if p ** n <= 81]


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_frob_orbit_and_root_by_brute_force(p, n):
    K = gf.field(p, n)
    for t in range(1, n + 1):
        for a in K.elements():
            want = [a]
            cur = K.pow(a, p ** t)
            while cur != a:
                want.append(cur)
                cur = K.pow(cur, p ** t)
            assert K.frob_orbit(a, t) == want
    for m in (2, 3, 4, 5):
        powers = {K.pow(y, m) for y in K.elements()}
        for z in K.elements():
            y = K.root(z, m)
            if z in powers:
                assert y is not None and K.pow(y, m) == z
            else:
                assert y is None


# ---------------------------------------------------------------------------
# ddf: the one distinct-degree factorisation, against Rabin's test


def _is_irreducible(f, p: int, n: int) -> bool:
    """The defining-polynomial search's former route: f monic of degree
    n is irreducible iff X^(p^n) = X mod f and gcd(X^(p^(n/l)) - X, f)
    is constant for every prime l | n."""
    fp = gf.field(p)
    x = [0, 1]
    powers = [x]
    for _ in range(n):
        powers.append(gf.ppow_mod(fp, powers[-1], p, f))
    if gf.psub(fp, powers[n], x):
        return False
    return all(len(gf.pgcd(fp, f, gf.psub(fp, powers[n // ell], x))) == 1
               for ell in primes.factorize(n))


def _monic(p: int, n: int, v: int) -> list[int]:
    return [v // p ** i % p for i in range(n)] + [1]


def _first_irreducible(p: int, n: int) -> tuple[int, ...]:
    for v in range(p ** n):
        f = _monic(p, n, v)
        if _is_irreducible(f, p, n):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {n} over GF({p})")


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5)
                                 for n in range(2, 7)])
def test_ddf_matches_the_irreducibility_oracle(p, n):
    # every monic polynomial of degree n, or a seeded 400 of them
    fp = gf.field(p)
    vals = random.Random(100 * p + n).sample(range(p ** n),
                                              min(400, p ** n))
    mismatches = [v for v in vals
                  if (list(gf.ddf(fp, _monic(p, n, v))) == [n])
                  != _is_irreducible(_monic(p, n, v), p, n)]
    assert mismatches == []


@pytest.mark.parametrize("p,n", CHAIN_FIELDS)
def test_defpoly_matches_the_irreducibility_oracle(p, n):
    assert gf._find_defpoly(p, n) == _first_irreducible(p, n)


def test_ddf_strips_repeated_and_pth_power_factors():
    F2, F3 = gf.field(2), gf.field(3)
    # (x + 1)^3 (x^2 + x + 1)^2 over GF(2)
    f = gf.pmul(F2, gf.pmul(F2, [1, 1], gf.pmul(F2, [1, 1], [1, 1])),
                gf.pmul(F2, [1, 1, 1], [1, 1, 1]))
    assert gf.ddf(F2, f) == {1: [1, 1], 2: [1, 1, 1]}
    # (x^3 - x + 1)^3 = x^9 - x^3 + 1 over GF(3): F' = 0, one cubic block
    assert gf.ddf(F3, [1, 0, 0, 2, 0, 0, 0, 0, 0, 1]) == {3: [1, 2, 0, 1]}
    # the leading coefficient is dropped, a constant has no blocks
    assert gf.ddf(F3, [2, 2]) == {1: [1, 1]}
    assert gf.ddf(F3, [2]) == {}


@pytest.mark.parametrize("zero", [[], [0], [0, 0, 0]])
def test_ddf_of_zero_is_refused(zero):
    with pytest.raises(SuperjacError, match="zero polynomial"):
        gf.ddf(gf.field(5), zero)
