"""Smith normal form over the integers.

Exact big-integer row/column reduction with smallest-pivot selection.
Each pivot is made to divide the rest of its block before the next one
is chosen, so the returned diagonal satisfies the divisibility chain
d1 | d2 | ... with nonnegative entries; trailing zeros indicate free
rank in the cokernel.
"""

from __future__ import annotations

from .errors import SuperjacError


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith form of an integer matrix.

    The matrix is given as a list of rows.  Returns min(m, n) entries.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(r) != n for r in a):
        raise SuperjacError("ragged matrix")
    diag: list[int] = []
    top = 0
    while top < min(m, n):
        # locate the nonzero entry of least magnitude in the working block
        pivot = None
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for r in a:
            r[top], r[pj] = r[pj], r[top]
        changed = True
        while changed:
            changed = False
            pv = a[top][top]
            for i in range(top + 1, m):
                q = a[i][top] // pv
                if q:
                    for j in range(top, n):
                        a[i][j] -= q * a[top][j]
                if a[i][top]:
                    a[top], a[i] = a[i], a[top]
                    changed = True
                    break
            if changed:
                continue
            for j in range(top + 1, n):
                q = a[top][j] // pv
                if q:
                    for i in range(top, m):
                        a[i][j] -= q * a[i][top]
                if a[top][j]:
                    for r in a:
                        r[top], r[j] = r[j], r[top]
                    changed = True
                    break
            if changed:
                continue
            # the pivot must divide the rest of its block: a row it does
            # not divide is added to the pivot row, whose remainders then
            # give a smaller pivot
            for i in range(top + 1, m):
                if any(v % pv for v in a[i][top + 1:]):
                    a[top] = [x + y for x, y in zip(a[top], a[i])]
                    changed = True
                    break
        diag.append(abs(a[top][top]))
        top += 1
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def cokernel_factors(rows: list[list[int]], ambient_rank: int) -> list[int]:
    """Invariant factors of Z^ambient_rank modulo the row span.

    Unit factors are dropped; zeros (free rank) are kept at the end.
    """
    if any(len(r) != ambient_rank for r in rows):
        raise SuperjacError(f"rows must have length {ambient_rank}")
    diag = smith_normal_form(rows)
    factors = [d for d in diag if d != 1]
    free = ambient_rank - len(diag)
    factors.extend([0] * free)
    return factors
