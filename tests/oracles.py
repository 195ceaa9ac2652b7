"""Full-matrix oracles for the exact SL_k layer.

The generator constructors here write out each matrix entry by entry, and
products of generators are taken one ``ratlin.mat_mul`` at a time.  The
gauge test solves for the chain of b_i with ``ratlin.mat_inv``.  These are
independent of the column operations and canonical flags used in ``src``.
Total nonnegativity is tested by computing every minor.
"""

from fractions import Fraction
from itertools import combinations

from tnnflag import ratlin


def x_gen(k, i, a):
    """Identity plus a in entry (i, i+1)."""
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i - 1, i) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def y_gen(k, i, a):
    """Identity plus a in entry (i+1, i)."""
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i, i - 1) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def sdot(k, i):
    """x_i(1) y_i(-1) x_i(1) as a product of three matrices."""
    return ratlin.mat_mul(x_gen(k, i, 1), y_gen(k, i, -1), x_gen(k, i, 1))


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
        out = ratlin.mat_mul(out, gen)
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
        b = ratlin.mat_mul(ratlin.mat_inv(g), b, h)
        if not is_upper_triangular(b):
            return False
    return True


def is_tnn_by_minors(g):
    """Every minor of every size is nonnegative: C(2k, k) - 1 determinants."""
    k = len(g)
    return all(
        ratlin.det(ratlin.submatrix(g, rows, cols)) >= 0
        for size in range(1, k + 1)
        for rows in combinations(range(k), size)
        for cols in combinations(range(k), size)
    )
