"""The pinned group SL_k over exact rationals, on integer forms.

One routine, ``word_form``, builds every product of Chevalley generators
(x_i, y_i and the reflection representatives sdot_i) by O(k) integer
column operations: a generator is a one-letter word, and the signed
permutation representatives and the Marsh-Rietsch cell parametrization
are calls of it.  w0dot has a closed form, whose inverse acts as a
signed row reversal.  One column elimination reads every cell: the
Bruhat cell of g B+, its opposite cell and double Bruhat labels (the
same elimination on g with rows, or rows and columns, reversed) and the
flag of g, which keeps its cell.  Also
total nonnegativity by fraction-free Neville elimination (exhaustive
minors for singular input) and the involution iota.

Every size k >= 2 is taken.  The one cap, ``K_MAX``, bounds the number
of minors that ``is_tnn`` reads of a singular matrix, the only path here
whose cost grows exponentially in k.

Generator letters are 0-based, the same letters as ``weyl`` words:
letter i (x_i, y_i, sdot_i) touches rows and columns i and i+1.

Everything is exact and no float appears anywhere.  Fractions appear at
the interface only: ``word_matrix``, ``mr_matrix``, ``w0_dot``,
``FlagPoint.rep`` and ``FlagPoint.canonical()``.  Inside, a matrix is a
``ratlin`` integer form (an int matrix over one positive denominator).
Cells, flags and total nonnegativity do not change under a positive
scalar, so the readers accept a Fraction matrix or the bare int matrix
of a form alike; ``ratlin.int_form`` hands an int matrix back as it is.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, islice
from math import comb, gcd, lcm
from operator import mul

from . import ratlin
from .ratlin import IntForm, IntMat, Mat

# is_tnn reads at most C(2 K_MAX, K_MAX) - 1 = 12,869 minors of a singular
# matrix, all those of a K_MAX-square one: about 0.2 s of CPU when all are
# read (the all-ones matrix, TNN) at K_MAX = 8
K_MAX = 8


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2")


def _check_index(k: int, i: int) -> None:
    if not 0 <= i <= k - 2:
        raise ValueError(f"generator index {i} out of range 0..{k - 2}")


def word_form(k: int, word) -> IntForm:
    """Integer form of the product of the generators listed in ``word``.

    Entries are ``(kind, i, a)``.  Kinds: ``"x"`` is x_i(a), ``"y"`` is
    y_i(a) and ``"s"`` is sdot_i (``a`` unused).  Starting from the
    identity, each letter multiplies on the right as an O(k) column
    operation: x_i(a) adds a col i to col i+1, y_i(a) adds a col i+1 to
    col i, and sdot_i sends (col i, col i+1) to (-col i+1, col i).  Each
    column is kept as integers over its own denominator, in lowest terms;
    the columns are brought to one denominator at the end.  The size and
    every letter are checked first.
    """
    _check_k(k)
    word = tuple(word)
    for kind, i, _ in word:
        if kind not in ("x", "y", "s"):
            raise ValueError(f"unknown generator kind {kind!r}")
        _check_index(k, i)
    cols = [[int(r == c) for r in range(k)] for c in range(k)]
    dens = [1] * k
    for kind, i, a in word:
        if kind == "s":
            cols[i], cols[i + 1] = [-x for x in cols[i + 1]], cols[i]
            dens[i], dens[i + 1] = dens[i + 1], dens[i]
            continue
        if type(a) is not Fraction:
            a = Fraction(a)
        if not a:
            continue
        target, source = (i + 1, i) if kind == "x" else (i, i + 1)
        # col_t / d_t + (p / q) col_s / d_s over the denominator lcm(d_t, q d_s)
        dt, ds = dens[target], a.denominator * dens[source]
        d = lcm(dt, ds)
        ft, fs = d // dt, a.numerator * (d // ds)
        col = [ft * x + fs * y for x, y in zip(cols[target], cols[source])]
        c = gcd(d, *col)
        cols[target] = [x // c for x in col]
        dens[target] = d // c
    d = lcm(*dens)
    scaled = ([x * (d // dc) for x in col] for col, dc in zip(cols, dens))
    return tuple(zip(*scaled)), d


def word_matrix(k: int, word) -> Mat:
    """``word_form`` as a Fraction matrix."""
    return ratlin.fraction_matrix(word_form(k, word))


def sdot(k: int, i: int) -> Mat:
    """Representative x_i(1) y_i(-1) x_i(1) of the simple reflection."""
    return word_matrix(k, [("s", i, None)])


def w0_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k, 0, -1))


def w0_form(k: int) -> IntForm:
    """Integer form of sdot over any reduced word of w0: antidiagonal, (-1)^r in row r.

    A signed permutation matrix, so its inverse is its transpose.
    """
    _check_k(k)
    return tuple(
        tuple((-1) ** r if c == k - 1 - r else 0 for c in range(k)) for r in range(k)
    ), 1


def w0_dot(k: int) -> Mat:
    """``w0_form`` as a Fraction matrix."""
    return ratlin.fraction_matrix(w0_form(k))


def w0_inverse_times(g):
    """w0dot^{-1} g as a signed row reversal, without a product.

    w0dot^{-1} = w0dot^T has (-1)^r at (k-1-r, r), so row i of the result
    is (-1)^(k-1-i) times row k-1-i of g.
    """
    k = len(g)
    return tuple(
        row if (k - 1 - i) % 2 == 0 else tuple(-x for x in row)
        for i, row in enumerate(g[::-1])
    )


def _echelon(m: IntMat) -> tuple[list[Sequence[int]], list[int]]:
    """Column elimination of m B+ on an int matrix: columns and pivot rows.

    Column j is cleared at the pivot row pr of each earlier column pj by
    col_j <- p col_j - a col_pj, with p = col_pj[pr] > 0 and a =
    col_j[pr], then divided by the gcd of its entries, signed so that its
    pivot, its lowest nonzero entry, is positive (a column whose pivot is
    positive and whose gcd is 1 is kept as it is, list or tuple).  Only right
    multiplication by B+ is used, so the columns are the unique primitive
    integer vectors with positive pivots that span the flag of m, and
    dividing each by its pivot gives the echelon representative.
    """
    cols: list[Sequence[int]] = []
    pivots: list[int] = []
    for col in zip(*m):
        for earlier, pr in zip(cols, pivots):
            a = col[pr]
            if a:
                p = earlier[pr]
                col = [p * x - a * y for x, y in zip(col, earlier)]
        piv = len(col) - 1
        while piv >= 0 and not col[piv]:
            piv -= 1
        if piv < 0:
            raise ValueError("singular matrix has no Bruhat cell")
        c = gcd(*col)
        if col[piv] < 0:
            c = -c
        cols.append(col if c == 1 else [x // c for x in col])
        pivots.append(piv)
    return cols, pivots


def bruhat_cell(g) -> tuple[int, ...]:
    """Permutation w with g in B+ wdot B+: the pivot rows of the elimination.

    g is a Fraction matrix or an int matrix.  The southwest ranks
    rank(g[rows >= i, cols <= j]) do not change under right multiplication
    by B+, and in echelon form they count the pivots in rows >= i among
    the first j columns; so they equal #{c <= j : w(c) >= i}, the rank
    conditions that pin w.
    """
    return tuple(p + 1 for p in _echelon(ratlin.int_form(g, square=True)[0])[1])


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


def opposite_cell(g) -> tuple[int, ...]:
    """Permutation v with g in B- vdot B+, as w0 times the Bruhat cell of w0dot^{-1} g.

    B- = w0dot B+ w0dot^{-1}.  w0dot^{-1} is the row reversal J times a
    diagonal sign matrix D, and J D = (J D J) J with J D J in B+, so the
    Bruhat cell of w0dot^{-1} g is that of g with its rows reversed.
    g is a Fraction matrix or an int matrix, checked by ``ratlin.int_form``.
    """
    return _opposite_cell(ratlin.int_form(g, square=True)[0])


def _opposite_cell(m: IntMat) -> tuple[int, ...]:
    """:func:`opposite_cell` of a square int matrix: one elimination of m with its rows reversed."""
    k = len(m)
    return tuple(k - p for p in _echelon(m[::-1])[1])


def double_bruhat_labels(g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(v, w) with g in B+ wdot B+ intersect B- vdot B-.

    v = w0 u w0 for the Bruhat cell u of w0dot^{-1} g w0dot, which is the
    cell of g with rows and columns reversed (the signs lie in B+, as in
    ``opposite_cell``).
    """
    k = len(g)
    u = bruhat_cell(tuple(row[::-1] for row in g[::-1]))
    return tuple(k + 1 - p for p in reversed(u)), bruhat_cell(g)


def _neville_pivots(m: IntMat) -> list[int] | None:
    """Positive multiples of the diagonal pivots of the Neville elimination of m.

    Column j is cleared from the bottom up: row i subtracts a multiple of
    row i-1, the row directly above it.  Fraction-free, with a the entry
    of row i in column j and p that of row i-1, row i becomes
    |p| row_i - sgn(p) a row_{i-1}, which is |p| times the Fraction step
    row_i - (a/p) row_{i-1}, and is divided by the gcd of its entries.
    Every row stays a positive multiple of its Fraction counterpart, so
    every sign test keeps its meaning.  Returns None when the elimination
    fails: it needs a row exchange (a zero entry with a nonzero entry
    directly below it in column j) or a negative multiplier a/p.
    """
    k = len(m)
    m = [list(row) for row in m]
    for j in range(k - 1):
        for i in range(k - 1, j, -1):
            row, above = m[i], m[i - 1]
            a = row[j]
            if a == 0:
                continue
            p = above[j]
            if p == 0 or (a < 0) != (p < 0):
                return None
            if p < 0:
                p, a = -p, -a
            new = [p * x - a * y for x, y in zip(row, above)]
            c = gcd(*new)
            m[i] = [x // c for x in new] if c > 1 else new
    return [m[i][i] for i in range(k)]


def is_tnn(g) -> bool:
    """All minors of all sizes are nonnegative (exact).

    g is a Fraction matrix or an int matrix; a positive scalar changes the
    sign of no minor, so the int matrix of its form is tested.  A
    nonsingular g is decided by Neville elimination in O(k^3) integer
    operations (Gasca-Pena 1992, Thm 5.4): g is TNN iff the eliminations
    of g and of its transpose need no row exchange and have nonnegative
    multipliers, and the diagonal pivots of g are positive.  Positive
    pivots prove g nonsingular, since det g is a positive multiple of
    their product.  The theorem needs nonsingular input, so a singular g
    is decided by its minors, smallest first, up to the first negative
    one.  At most C(2 K_MAX, K_MAX) - 1 minors are read, all those of a
    ``K_MAX``-square matrix: a larger g whose first that many minors are
    nonnegative is refused with ``ValueError``.
    """
    m = ratlin.int_form(g, square=True)[0]
    pivots = _neville_pivots(m)
    if pivots is not None and all(p > 0 for p in pivots):
        return _neville_pivots(tuple(zip(*m))) is not None
    if ratlin.int_det(m):
        return False
    k = len(m)
    cap = comb(2 * K_MAX, K_MAX) - 1
    minors = (
        ratlin.int_det(ratlin.submatrix(m, rows, cols))
        for size in range(1, k + 1)
        for rows in combinations(range(k), size)
        for cols in combinations(range(k), size)
    )
    if any(d < 0 for d in islice(minors, cap)):
        return False
    if k > K_MAX:  # minors are left unread
        raise ValueError(f"the first {cap} minors of a singular {k}x{k} matrix are "
                         f"nonnegative; the cap K_MAX={K_MAX} stops the rest")
    return True


def mr_letters(k: int, word, taken, params) -> list:
    """The letters of the Marsh-Rietsch product, as ``word_form`` reads them.

    ``word`` is a reduced word, ``taken`` the positive subexpression (same
    length, None at skipped positions), ``params`` one positive rational
    per skipped position, consumed left to right; a Fraction is taken as
    given, and its sign is that of its numerator.  A taken letter is
    ``("s", i, None)``, a skipped one ``("y", i, param)``.  The arguments
    are checked here; :func:`_mr_letters` builds the letters.
    """
    _check_k(k)
    word = tuple(word)
    taken = tuple(taken)
    if len(word) != len(taken):
        raise ValueError("word and subexpression lengths differ")
    params = ratlin.as_fractions(params)
    skipped = sum(1 for t in taken if t is None)
    if len(params) != skipped:
        raise ValueError(f"need {skipped} parameters, got {len(params)}")
    if any(p.numerator <= 0 for p in params):
        raise ValueError("parameters must be positive")
    if any(t is not None and t != letter for letter, t in zip(word, taken)):
        raise ValueError("subexpression letter differs from the word")
    return _mr_letters(word, taken, iter(params))


def _mr_letters(word, taken, params) -> list:
    """The letters of :func:`mr_letters`, with its arguments unchecked.

    ``params`` is an iterator, advanced once per skipped position, so
    consecutive factors can share one.
    """
    return [("y", letter, next(params)) if t is None else ("s", letter, None)
            for letter, t in zip(word, taken)]


def mr_form(k: int, word, taken, params) -> IntForm:
    """Integer form of the Marsh-Rietsch product: sdot at taken letters, y(param) at skipped ones.

    The product of the letters of :func:`mr_letters`, which checks the
    arguments.  ``twisted.parametrize_cell`` builds its factors the same
    way from :func:`_mr_letters`, having checked its arguments once for
    all factors, keeps the letters, and checks the factors' cells.
    """
    return word_form(k, mr_letters(k, word, taken, params))


def mr_matrix(k: int, word, taken, params) -> Mat:
    """``mr_form`` as a Fraction matrix."""
    return ratlin.fraction_matrix(mr_form(k, word, taken, params))


def iota(g):
    """Conjugation by D = diag(1,-1,1,...): negates the simple root groups.

    Entry (r, c) changes sign when r + c is odd: even rows are multiplied
    by the sign row (1, -1, 1, ...), odd rows by its negative.

    >>> iota(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    ((1, -2, 3), (-4, 5, -6), (7, -8, 9))
    """
    k = len(g)
    signs = ((1, -1) * k)[:k], ((-1, 1) * k)[:k]
    return tuple(tuple(map(mul, row, signs[r & 1])) for r, row in enumerate(g))


class FlagPoint:
    """A flag g B+; gauge equivalence is g ~ g b for b upper triangular.

    Flags compare and hash by the columns of ``_echelon``: the primitive
    integer vectors with positive pivots that span the flag.  ``rep`` and
    ``canonical()`` are Fraction matrices, built on first use when the
    flag was made from an integer form by ``of_form`` or ``with_form``.
    """

    __slots__ = ("_form", "_rep", "_cols", "_pivots", "_canonical")

    def __init__(self, rep: Mat):
        self._set(ratlin.int_form(rep, square=True), rep)

    @classmethod
    def of_form(cls, form: IntForm) -> "FlagPoint":
        """The flag of the matrix m / d, for a square integer form (m, d)."""
        f = cls.__new__(cls)
        f._set(form, None)
        return f

    def with_form(self, form: IntForm) -> "FlagPoint":
        """This flag, represented by the square integer form ``form``.

        ``form`` must span this flag; that is not checked.  The echelon is
        shared, not recomputed, and ``rep`` is built from ``form``.
        """
        f = FlagPoint.__new__(FlagPoint)
        f._form, f._rep, f._cols, f._pivots = form, None, self._cols, self._pivots
        f._canonical = self._canonical
        return f

    def _set(self, form: IntForm, rep) -> None:
        # _echelon raises ValueError on a singular representative
        cols, self._pivots = _echelon(form[0])
        self._cols = tuple(map(tuple, cols))
        self._form, self._rep, self._canonical = form, rep, None

    @property
    def rep(self) -> Mat:
        if self._rep is None:
            self._rep = ratlin.fraction_matrix(self._form)
        return self._rep

    @property
    def cell(self) -> tuple[int, ...]:
        """The Bruhat cell of the flag, the pivot rows of its elimination, as ``bruhat_cell``."""
        return tuple(p + 1 for p in self._pivots)

    def __eq__(self, other):
        if not isinstance(other, FlagPoint):
            return NotImplemented
        return self._cols == other._cols

    def __hash__(self):
        return hash(self._cols)

    def __repr__(self):
        return f"FlagPoint(rep={self.rep!r})"

    def canonical(self) -> Mat:
        """The columns of ``_echelon`` over their pivots; equal iff the flags are."""
        if self._canonical is None:
            scaled = [
                [Fraction(x, col[pr]) for x in col] for col, pr in zip(self._cols, self._pivots)
            ]
            self._canonical = tuple(zip(*scaled))
        return self._canonical
