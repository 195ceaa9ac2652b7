"""Exact rational matrix helpers (tuples of tuples of Fraction)."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Mat = tuple[tuple[Fraction, ...], ...]


def identity(k: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(k)) for i in range(k)
    )


def mat_mul(*ms: Mat) -> Mat:
    out = ms[0]
    for b in ms[1:]:
        n, mid, p = len(out), len(b), len(b[0])
        out = tuple(
            tuple(sum(out[i][t] * b[t][j] for t in range(mid)) for j in range(p))
            for i in range(n)
        )
    return out


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def det(a: Mat) -> Fraction:
    """Determinant by Gaussian elimination with Fraction entries, on a copy."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return sign * out


def rank(a: Mat) -> int:
    if not a or not a[0]:
        return 0
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        for i in range(r + 1, rows):
            if m[i][c]:
                f = m[i][c] * inv
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == rows:
            break
    return r


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def submatrix(a: Mat, rows, cols) -> Mat:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)


def minors(a: Mat, size: int):
    """Yield ((rows, cols), det) over all size x size minors."""
    n = len(a)
    for rows in combinations(range(n), size):
        for cols in combinations(range(n), size):
            yield (rows, cols), det(submatrix(a, rows, cols))


def mat_to_json(a: Mat) -> list[list[str]]:
    return [[str(x) for x in row] for row in a]


def mat_from_json(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)
