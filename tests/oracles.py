"""Full-matrix oracles for the exact SL_k layer.

The matrix kernels here are the plain ``Fraction`` loops: ``frac_mat_mul``,
``frac_det`` (Gaussian elimination), ``frac_mat_inv`` (Gauss-Jordan) and
``frac_echelon`` (column elimination with the pivots scaled to 1).  They
check the integer kernels of ``ratlin`` and ``slk._echelon``, and every
other oracle here uses them, never the code it checks.  The generator
constructors write out each matrix entry by entry, and products of
generators are taken one ``frac_mat_mul`` at a time.  The gauge test
solves for the chain of b_i with ``frac_mat_inv``.  These are independent
of the column operations and canonical flags used in ``src``.  Total
nonnegativity is tested by computing every minor.
"""

from fractions import Fraction
from itertools import combinations

from tnnflag import ratlin


def frac_mat_mul(*ms):
    out = ms[0]
    for b in ms[1:]:
        n, mid, p = len(out), len(b), len(b[0])
        out = tuple(
            tuple(sum(out[i][t] * b[t][j] for t in range(mid)) for j in range(p))
            for i in range(n)
        )
    return out


def frac_det(a):
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
        inv = 1 / Fraction(m[c][c])
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return sign * out


def frac_mat_inv(a):
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / Fraction(m[c][c])
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def frac_echelon(g):
    """Column elimination of g B+: the echelon representative (rows) and its pivot rows.

    Column j is cleared at the pivot rows of earlier columns by adding
    multiples of those columns, then scaled so its lowest nonzero entry,
    its pivot, is 1.
    """
    k = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    pivots = []
    for j in range(k):
        for pj, pr in enumerate(pivots):
            if m[pr][j] != 0:
                f = m[pr][j] / m[pr][pj]
                for r in range(k):
                    m[r][j] -= f * m[r][pj]
        piv = max((r for r in range(k) if m[r][j] != 0), default=None)
        if piv is None:
            raise ValueError("singular matrix has no Bruhat cell")
        inv = 1 / m[piv][j]
        for r in range(k):
            m[r][j] *= inv
        pivots.append(piv)
    return tuple(tuple(row) for row in m), pivots


def x_gen(k, i, a):
    """Identity plus a in entry (i, i+1)."""
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i, i + 1) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def y_gen(k, i, a):
    """Identity plus a in entry (i+1, i)."""
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i + 1, i) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def sdot(k, i):
    """x_i(1) y_i(-1) x_i(1) as a product of three matrices."""
    return frac_mat_mul(x_gen(k, i, 1), y_gen(k, i, -1), x_gen(k, i, 1))


def word_product(k, word):
    """Product over ``(kind, i, a)`` letters, one matrix product per letter."""
    out = ratlin.identity(k)
    for kind, i, a in word:
        if kind == "x":
            gen = x_gen(k, i, a)
        elif kind == "y":
            gen = y_gen(k, i, a)
        else:
            gen = sdot(k, i)
        out = frac_mat_mul(out, gen)
    return out


def is_upper_triangular(a):
    n = len(a)
    return all(a[i][j] == 0 for i in range(n) for j in range(i))


def gauge_eq_by_inverse(z1, z2):
    """Twisted gauge equality by solving for b_i = g_i^{-1} b_{i-1} h_i."""
    if z1.k != z2.k or z1.n != z2.n:
        return False
    b = ratlin.identity(z1.k)
    for g, h in zip(z1.factors, z2.factors):
        b = frac_mat_mul(frac_mat_inv(g), b, h)
        if not is_upper_triangular(b):
            return False
    return True


def is_tnn_by_minors(g):
    """Every minor of every size is nonnegative: C(2k, k) - 1 determinants."""
    k = len(g)
    return all(
        frac_det(ratlin.submatrix(g, rows, cols)) >= 0
        for size in range(1, k + 1)
        for rows in combinations(range(k), size)
        for cols in combinations(range(k), size)
    )
