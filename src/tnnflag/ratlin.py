"""Exact matrix helpers: Fraction matrices at the interface, integer forms inside.

A public matrix is a tuple of tuples of Fraction (int entries are
accepted).  Inside the exact layer a matrix travels in integer form
(m, d): an int matrix m and one positive denominator d, standing for
m / d.  ``int_form`` builds it once, clearing denominators and checking
the shape; an int matrix is its own form and is not rebuilt.
``fraction_matrix`` turns a form back into Fractions once, for a public
result.  The kernels ``int_mul``, ``int_det`` (Bareiss) and
``int_inv`` (fraction-free Gauss-Jordan) loop on Python ints, and every
division in them is exact.  ``mat_mul``, ``det`` and ``mat_inv`` are
those kernels between one ``int_form`` per argument and one
``fraction_matrix`` per result.  ``positive_fractions`` reads the
positive rational parameters of every chart.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import mul

Mat = tuple[tuple[Fraction, ...], ...]
IntMat = tuple[tuple[int, ...], ...]
# (m, d) stands for the matrix m / d, with d > 0
IntForm = tuple[IntMat, int]


def identity(k: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(k)) for i in range(k)
    )


def int_form(a, square: bool = False) -> IntForm:
    """(m, d) with a == m / d: d is the lcm of the denominators of a.

    An int matrix is its own form: a tuple of tuples whose every entry is
    exactly an ``int`` comes back as it is, as (a, 1).  Any other input
    (list rows, ``bool`` or ``Fraction`` entries) is rebuilt as int
    tuples over the lcm.  Raises ValueError on ragged rows, and on a
    non-square a if ``square``.
    """
    # each test is one pass in C: the set of row lengths, of row types, of entry types
    if len(set(map(len, a))) > 1:
        raise ValueError("matrix rows have different lengths")
    width = len(a[0]) if a else 0
    if square and width != len(a):
        raise ValueError(f"need a square matrix, got {len(a)}x{width}")
    if (type(a) is tuple and set(map(type, a)) <= {tuple}
            and set(map(type, chain.from_iterable(a))) <= {int}):
        return a, 1
    d = lcm(*(x.denominator for row in a for x in row))
    if d == 1:
        return tuple(tuple(x.numerator for x in row) for row in a), 1
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in a), d


def positive_fractions(values) -> list[Fraction]:
    """The values as a list of positive Fractions: the one reader of parameters.

    Each value is an int (not a bool), a string that ``Fraction`` reads,
    or a Fraction, which is kept as given.  Any other value (a float, a
    bool, None, "1/0") raises ValueError naming it, and a value <= 0
    raises ValueError too.
    """
    out = []
    for x in values:
        if type(x) is not Fraction:
            if type(x) not in (int, str):
                raise ValueError(f"bad parameter {x!r}")
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad parameter {x!r}") from None
        # a Fraction's denominator is positive, so its sign is its numerator's
        if x.numerator <= 0:
            raise ValueError("parameters must be positive")
        out.append(x)
    return out


def fraction_matrix(form: IntForm) -> Mat:
    """The Fraction matrix m / d."""
    m, d = form
    if d == 1:
        return tuple(tuple(Fraction(x) for x in row) for row in m)
    return tuple(tuple(Fraction(x, d) for x in row) for row in m)


def reduced(form: IntForm) -> IntForm:
    """The same matrix with the common factor of d and every entry divided out."""
    m, d = form
    c = gcd(d, *(x for row in m for x in row))
    if c == 1:
        return form
    return tuple(tuple(x // c for x in row) for row in m), d // c


def int_mul(*ms: IntMat) -> IntMat:
    """Product of a chain of int matrices; the caller checks the shapes."""
    out = ms[0]
    for b in ms[1:]:
        cols = tuple(zip(*b))
        out = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in out)
    return out


def mat_mul(*ms: Mat) -> Mat:
    """Product of the chain: one integer matrix over one running denominator."""
    forms = [int_form(b) for b in ms]
    for (a, _), (b, _) in zip(forms, forms[1:]):
        if len(a[0]) != len(b):
            raise ValueError(f"cannot multiply: {len(a[0])} columns against {len(b)} rows")
    return fraction_matrix((int_mul(*(m for m, _ in forms)), prod(d for _, d in forms)))


def int_det(a: IntMat) -> int:
    """Determinant of a square int matrix by Bareiss elimination.

    Step c replaces each lower entry x by (p x - f y) / p', with p the
    pivot, f the row's entry in the pivot column, y the pivot row's entry
    and p' the previous pivot.  Every entry is then a minor of the matrix
    (Sylvester's identity), so the division is exact, and the last pivot
    is the determinant up to the sign of the row swaps.
    """
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
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
    return sign * m[n - 1][n - 1] if n else 1


def det(a: Mat) -> Fraction:
    """det(m / d) = det(m) / d^n; ValueError unless a is square."""
    m, d = int_form(a, square=True)
    return Fraction(int_det(m), d ** len(m))


def int_inv(form: IntForm) -> IntForm:
    """Inverse of m / d by fraction-free Gauss-Jordan elimination of [m | I].

    Each step is the Bareiss step of ``int_det`` applied to every other
    row, so the divisions are exact and the left block ends as p I, p the
    last pivot; then (m / d)^{-1} is d times the right block over p.
    Raises ZeroDivisionError on a singular matrix.
    """
    a, d = form
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
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
    s = d if prev > 0 else -d
    return reduced((tuple(tuple(s * x for x in row[n:]) for row in m), abs(prev)))


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
    """Inverse of a square matrix; ZeroDivisionError if it is singular."""
    return fraction_matrix(int_inv(int_form(a, square=True)))


def submatrix(a: Mat, rows, cols) -> Mat:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)
