"""The pinned group SL_k over exact rationals.

One routine, ``word_matrix``, builds every product of Chevalley
generators (x_i, y_i and the reflection representatives sdot_i) by O(k)
column operations; the generators, the signed permutation representatives
and the Marsh-Rietsch cell parametrization are calls of it, and w0dot
has a closed form, inverted by transposing.  One column elimination reads
every cell: the Bruhat cell of g B+, its opposite cell and double Bruhat
labels (the same elimination on g with rows, or rows and columns,
reversed) and the canonical representative of a flag.  Also total
nonnegativity by Neville elimination (exhaustive minors for singular
input; they are also the test oracle) and the involutions iota and Phi.

Generator letters are 0-based, the same letters as ``weyl`` words:
letter i (x_i, y_i, sdot_i) touches rows and columns i and i+1.

Everything is exact and no float appears anywhere.  Matrices are
Fractions at the interface; the elimination and the ``ratlin`` kernels it
calls run their inner loops on integers, with denominators cleared once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import ratlin
from .ratlin import Mat

# is_tnn enumerates all minors of a singular input (about 0.25 s of CPU per
# dense matrix at k=8), so k is capped; nonsingular input is decided in O(k^3)
K_MAX = 8


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > K_MAX:
        raise ValueError(f"k={k} exceeds the configured cap K_MAX={K_MAX}")


def _check_index(k: int, i: int) -> None:
    if not 0 <= i <= k - 2:
        raise ValueError(f"generator index {i} out of range 0..{k - 2}")


def word_matrix(k: int, word) -> Mat:
    """Product of the generators listed in ``word``, entries ``(kind, i, a)``.

    Kinds: ``"x"`` is x_i(a), ``"y"`` is y_i(a) and ``"s"`` is sdot_i
    (``a`` unused).  Starting from the identity, each letter multiplies on
    the right as an O(k) column operation: x_i(a) adds a col i to col i+1,
    y_i(a) adds a col i+1 to col i, and sdot_i sends (col i, col i+1) to
    (-col i+1, col i).  The size and every letter are checked first.
    """
    _check_k(k)
    word = tuple(word)
    for kind, i, _ in word:
        if kind not in ("x", "y", "s"):
            raise ValueError(f"unknown generator kind {kind!r}")
        _check_index(k, i)
    cols = [list(col) for col in ratlin.identity(k)]
    for kind, i, a in word:
        if kind == "s":
            cols[i], cols[i + 1] = [-x for x in cols[i + 1]], cols[i]
            continue
        a = Fraction(a)
        target, source = (i + 1, i) if kind == "x" else (i, i + 1)
        cols[target] = [c + a * x if x else c for c, x in zip(cols[target], cols[source])]
    return tuple(zip(*cols))


def x_gen(k: int, i: int, a) -> Mat:
    """Identity plus a in entry (i, i+1)."""
    return word_matrix(k, [("x", i, a)])


def y_gen(k: int, i: int, a) -> Mat:
    """Identity plus a in entry (i+1, i)."""
    return word_matrix(k, [("y", i, a)])


def torus(k: int, i: int, t) -> Mat:
    """Coweight torus element: t at position i, 1/t at i+1."""
    _check_k(k)
    _check_index(k, i)
    t = Fraction(t)
    if t == 0:
        raise ValueError("torus parameter must be nonzero")
    diag = [Fraction(1)] * k
    diag[i] = t
    diag[i + 1] = 1 / t
    return tuple(
        tuple(diag[r] if r == c else Fraction(0) for c in range(k)) for r in range(k)
    )


def sdot(k: int, i: int) -> Mat:
    """Representative x_i(1) y_i(-1) x_i(1) of the simple reflection."""
    return word_matrix(k, [("s", i, None)])


def wdot_from_word(k: int, letters) -> Mat:
    """Product of sdot over a reduced word."""
    return word_matrix(k, [("s", i, None) for i in letters])


def w0_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k, 0, -1))


def w0_dot(k: int) -> Mat:
    """sdot over any reduced word of w0: antidiagonal, (-1)^r in row r.

    A signed permutation matrix, so its inverse is its transpose.
    """
    _check_k(k)
    return tuple(
        tuple(Fraction((-1) ** r) if c == k - 1 - r else Fraction(0) for c in range(k))
        for r in range(k)
    )


def _echelon(g: Mat) -> tuple[list[list[int]], list[int]]:
    """Column elimination of g B+: integer columns and their pivot rows.

    Each column is cleared of denominators (a positive diagonal factor),
    then column j is cleared at the pivot row pr of each earlier column pj
    by col_j <- p col_j - a col_pj, with p = col_pj[pr] and a = col_j[pr],
    and divided by the gcd of its entries.  Only right multiplication by B+
    is used.  The pivot of column j is its lowest nonzero entry; dividing
    each column by its pivot gives the unique echelon representative.
    """
    k = len(g)
    cols: list[list[int]] = []
    pivots: list[int] = []
    for j in range(k):
        col = ratlin._cleared([row[j] for row in g])[0]
        for earlier, pr in zip(cols, pivots):
            a = col[pr]
            if a:
                p = earlier[pr]
                col = [p * x - a * y for x, y in zip(col, earlier)]
        piv = max((r for r in range(k) if col[r]), default=None)
        if piv is None:
            raise ValueError("singular matrix has no Bruhat cell")
        c = gcd(*col)
        cols.append([x // c for x in col])
        pivots.append(piv)
    return cols, pivots


def bruhat_cell(g: Mat) -> tuple[int, ...]:
    """Permutation w with g in B+ wdot B+: the pivot rows of the elimination.

    The southwest ranks rank(g[rows >= i, cols <= j]) do not change under
    right multiplication by B+, and in echelon form they count the pivots
    in rows >= i among the first j columns; so they equal
    #{c <= j : w(c) >= i}, the rank conditions that pin w.
    """
    return tuple(p + 1 for p in _echelon(g)[1])


def bruhat_cell_by_elimination(g: Mat) -> tuple[int, ...]:
    """Independent oracle: explicit reduction g = b1 wdot b2 with b in B+.

    Row operations add lower rows into upper ones, column operations add
    earlier columns into later ones; the lowest surviving pivot per column
    reads off the permutation.
    """
    k = len(g)
    if ratlin.det(g) == 0:
        raise ValueError("singular matrix")
    m = [list(row) for row in g]
    used_rows: set[int] = set()
    w = [0] * k
    for j in range(k):
        piv = max(r for r in range(k) if r not in used_rows and m[r][j] != 0)
        used_rows.add(piv)
        w[j] = piv + 1
        for r in range(piv):
            if r not in used_rows and m[r][j] != 0:
                f = m[r][j] / m[piv][j]
                for c in range(k):
                    m[r][c] -= f * m[piv][c]
        for c in range(j + 1, k):
            if m[piv][c] != 0:
                f = m[piv][c] / m[piv][j]
                for r in range(k):
                    m[r][c] -= f * m[r][j]
    return tuple(w)


def opposite_cell(g: Mat) -> tuple[int, ...]:
    """Permutation v with g in B- vdot B+, as w0 times the Bruhat cell of w0dot^{-1} g.

    B- = w0dot B+ w0dot^{-1}.  w0dot^{-1} is the row reversal J times a
    diagonal sign matrix D, and J D = (J D J) J with J D J in B+, so the
    Bruhat cell of w0dot^{-1} g is that of g with its rows reversed.
    """
    k = len(g)
    return tuple(k + 1 - p for p in bruhat_cell(g[::-1]))


def double_bruhat_labels(g: Mat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(v, w) with g in B+ wdot B+ intersect B- vdot B-.

    v = w0 u w0 for the Bruhat cell u of w0dot^{-1} g w0dot, which is the
    cell of g with rows and columns reversed (the signs lie in B+, as in
    ``opposite_cell``).
    """
    k = len(g)
    u = bruhat_cell(tuple(row[::-1] for row in g[::-1]))
    return tuple(k + 1 - p for p in reversed(u)), bruhat_cell(g)


def _neville_pivots(a: Mat) -> list[Fraction] | None:
    """Diagonal pivots of the Neville elimination of a, or None if it fails.

    Column j is cleared from the bottom up: row i subtracts a multiple of
    row i-1, the row directly above it.  The elimination fails when it
    needs a row exchange (a zero entry with a nonzero entry directly below
    it in column j) or a negative multiplier.
    """
    k = len(a)
    m = [list(row) for row in a]
    for j in range(k - 1):
        for i in range(k - 1, j, -1):
            row, above = m[i], m[i - 1]
            if row[j] == 0:
                continue
            if above[j] == 0:
                return None
            f = row[j] / above[j]
            if f < 0:
                return None
            row[j] = Fraction(0)
            for c in range(j + 1, k):
                if above[c]:
                    row[c] -= f * above[c]
    return [m[i][i] for i in range(k)]


def is_tnn(g: Mat) -> bool:
    """All minors of all sizes are nonnegative (exact).

    A nonsingular g is decided by Neville elimination in O(k^3) Fraction
    operations (Gasca-Pena 1992, Thm 5.4): g is TNN iff the eliminations of
    g and of its transpose need no row exchange and have nonnegative
    multipliers, and the diagonal pivots of g are positive.  The theorem
    needs nonsingular input, so a singular g is decided by enumerating
    all C(2k, k) - 1 minors; that path is what ``K_MAX`` bounds.
    """
    if ratlin.det(g) == 0:
        return all(
            d >= 0 for size in range(1, len(g) + 1) for _, d in ratlin.minors(g, size)
        )
    pivots = _neville_pivots(g)
    return (
        pivots is not None
        and all(p > 0 for p in pivots)
        and _neville_pivots(ratlin.transpose(g)) is not None
    )


def mr_matrix(k: int, word, taken, params) -> Mat:
    """Marsh-Rietsch product: sdot at taken letters, y(param) at skipped ones.

    ``word`` is a reduced word, ``taken`` the positive subexpression (same
    length, None at skipped positions), ``params`` one positive rational
    per skipped position, consumed left to right.  The cells of the result
    are checked by the caller, ``twisted.parametrize_cell``.
    """
    _check_k(k)
    word = tuple(word)
    taken = tuple(taken)
    if len(word) != len(taken):
        raise ValueError("word and subexpression lengths differ")
    params = [Fraction(p) for p in params]
    skipped = sum(1 for t in taken if t is None)
    if len(params) != skipped:
        raise ValueError(f"need {skipped} parameters, got {len(params)}")
    if any(p <= 0 for p in params):
        raise ValueError("parameters must be positive")
    if any(t is not None and t != letter for letter, t in zip(word, taken)):
        raise ValueError("subexpression letter differs from the word")
    it = iter(params)
    return word_matrix(
        k, [("y", letter, next(it)) if t is None else ("s", letter, None)
            for letter, t in zip(word, taken)]
    )


def iota(g: Mat) -> Mat:
    """Conjugation by diag(1,-1,1,...): negates the simple root groups."""
    k = len(g)
    return tuple(
        tuple(g[r][c] if (r + c) % 2 == 0 else -g[r][c] for c in range(k))
        for r in range(k)
    )


@dataclass(frozen=True)
class FlagPoint:
    """A flag g B+; gauge equivalence is g ~ g b for b upper triangular."""

    rep: Mat
    _canonical: Mat = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # _echelon raises ValueError on a singular representative
        cols, pivots = _echelon(self.rep)
        scaled = [[Fraction(x, col[pr]) for x in col] for col, pr in zip(cols, pivots)]
        object.__setattr__(self, "_canonical", tuple(zip(*scaled)))

    def __eq__(self, other):
        if not isinstance(other, FlagPoint):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self):
        return hash(self._canonical)

    def canonical(self) -> Mat:
        """The columns of ``_echelon`` over their pivots; equal iff the flags are."""
        return self._canonical


def phi_flag(f: FlagPoint) -> FlagPoint:
    """Duality on flags: g B+ -> iota(w0dot^{-1} g) B+."""
    k = len(f.rep)
    return FlagPoint(iota(ratlin.mat_mul(ratlin.transpose(w0_dot(k)), f.rep)))
