"""Exact rational matrix helpers (tuples of tuples of Fraction).

Matrices are Fractions at the interface only.  ``mat_mul``, ``det`` and
``mat_inv`` clear denominators once (``_cleared``), run their O(k^3)
loops on Python ints, and build Fractions at the end: integer-preserving
(Bareiss) elimination, whose every division is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul

Mat = tuple[tuple[Fraction, ...], ...]


def identity(k: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(k)) for i in range(k)
    )


def _cleared(xs) -> tuple[list[int], int]:
    """Integers n_i and one denominator d > 0 with xs[i] == n_i / d.

    d is the lcm of the denominators; int entries count as denominator 1.
    """
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def mat_mul(*ms: Mat) -> Mat:
    """Product of the chain: one integer matrix over one running denominator."""
    out, den = None, 1
    for b in ms:
        flat, d = _cleared([x for row in b for x in row])
        width = len(b[0])
        rows = [flat[i * width:(i + 1) * width] for i in range(len(b))]
        if out is None:
            out = rows
        else:
            cols = list(zip(*rows))
            out = [[sum(map(mul, row, col)) for col in cols] for row in out]
        den *= d
    return tuple(tuple(Fraction(x, den) for x in row) for row in out)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def det(a: Mat) -> Fraction:
    """Determinant by Bareiss elimination on the rows cleared of denominators.

    Step c replaces each lower entry x by (p x - f y) / p', with p the
    pivot, f the row's entry in the pivot column, y the pivot row's entry
    and p' the previous pivot.  Every entry is then a minor of the integer
    matrix (Sylvester's identity), so the division is exact, and the last
    pivot is its determinant up to the sign of the row swaps.
    """
    n = len(a)
    pairs = [_cleared(row) for row in a]
    m = [row for row, _ in pairs]
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for r in range(c + 1, n):
            row = m[r]
            f = row[c]
            row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = p
    last = m[n - 1][n - 1] if n else 1
    return Fraction(sign * last, prod(d for _, d in pairs))


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
    """Inverse by fraction-free Gauss-Jordan elimination of [D a | I].

    D is the diagonal of row denominators.  Each step is the Bareiss step
    of ``det`` applied to every other row, so the divisions are exact and
    the left block ends as p I, p the last pivot; then a^{-1} is the right
    block over p, times D on the right.
    """
    n = len(a)
    pairs = [_cleared(row) for row in a]
    m = [row + [int(i == j) for j in range(n)] for i, (row, _) in enumerate(pairs)]
    dens = [d for _, d in pairs]
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        top = m[c]
        p = top[c]
        for r in range(n):
            if r != c:
                f = m[r][c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = p
    return tuple(
        tuple(Fraction(x * d, prev) for x, d in zip(row[n:], dens)) for row in m
    )


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
