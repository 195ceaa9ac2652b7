"""The pinned group SL_k over exact rationals.

Chevalley generators, signed permutation representatives, Bruhat and
opposite-cell identification of flags by rank conditions, total
nonnegativity by exhaustive minors, the Marsh-Rietsch cell
parametrization, and the involutions iota and Phi.

Generator indices are 1-based (x_i touches rows/columns i, i+1), matching
the usual pinning conventions; the Weyl letters used elsewhere are 0-based
positions and shift by one when they cross into this module.

Everything is exact: entries are Fractions and no float appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import ratlin
from .ratlin import Mat

# is_tnn enumerates all minors, so k is capped; raise deliberately if needed
K_MAX = 6


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > K_MAX:
        raise ValueError(f"k={k} exceeds the configured cap K_MAX={K_MAX}")


def _check_index(k: int, i: int) -> None:
    if not 1 <= i <= k - 1:
        raise ValueError(f"generator index {i} out of range 1..{k - 1}")


def x_gen(k: int, i: int, a) -> Mat:
    """Identity plus a in entry (i, i+1)."""
    _check_k(k)
    _check_index(k, i)
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i - 1, i) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def y_gen(k: int, i: int, a) -> Mat:
    """Identity plus a in entry (i+1, i)."""
    _check_k(k)
    _check_index(k, i)
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i, i - 1) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def torus(k: int, i: int, t) -> Mat:
    """Coweight torus element: t at position i, 1/t at i+1."""
    _check_k(k)
    _check_index(k, i)
    t = Fraction(t)
    if t == 0:
        raise ValueError("torus parameter must be nonzero")
    diag = [Fraction(1)] * k
    diag[i - 1] = t
    diag[i] = 1 / t
    return tuple(
        tuple(diag[r] if r == c else Fraction(0) for c in range(k)) for r in range(k)
    )


def sdot(k: int, i: int) -> Mat:
    """Representative x_i(1) y_i(-1) x_i(1) of the simple reflection."""
    return ratlin.mat_mul(x_gen(k, i, 1), y_gen(k, i, -1), x_gen(k, i, 1))


def wdot_from_word(k: int, letters) -> Mat:
    """Product of sdot over a reduced word (1-based letters)."""
    out = ratlin.identity(k)
    for i in letters:
        out = ratlin.mat_mul(out, sdot(k, i))
    return out


def w0_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k, 0, -1))


def perm_word(p) -> tuple[int, ...]:
    """A reduced word (1-based letters) for a one-line permutation."""
    q = list(p)
    k = len(q)
    word = []
    while True:
        for i in range(k - 1):
            if q.index(i + 1) > q.index(i + 2):
                break
        else:
            break
        a, b = q.index(i + 1), q.index(i + 2)
        q[a], q[b] = q[b], q[a]
        word.append(i + 1)
    return tuple(word)


def w0_dot(k: int) -> Mat:
    return wdot_from_word(k, perm_word(w0_perm(k)))


def perm_mul(p, q) -> tuple[int, ...]:
    """(p q)(j) = p(q(j)), one-line 1-based."""
    return tuple(p[q[j] - 1] for j in range(len(p)))


def word_perm(k: int, letters) -> tuple[int, ...]:
    p = list(range(1, k + 1))
    for i in letters:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def bruhat_cell(g: Mat) -> tuple[int, ...]:
    """Permutation w with g in B+ wdot B+, from southwest rank conditions.

    rank(g[rows >= i, cols <= j]) = #{c <= j : w(c) >= i} pins w uniquely:
    w(j) is the largest i whose southwest rank increases at column j.
    """
    k = len(g)
    if ratlin.det(g) == 0:
        raise ValueError("singular matrix has no Bruhat cell")
    r = [[0] * (k + 1) for _ in range(k + 2)]  # r[i][j], i in 1..k+1, j in 0..k
    for i in range(1, k + 2):
        for j in range(k + 1):
            if i == k + 1 or j == 0:
                r[i][j] = 0
            else:
                r[i][j] = ratlin.rank(
                    ratlin.submatrix(g, range(i - 1, k), range(j))
                )
    w = []
    for j in range(1, k + 1):
        i = max(i for i in range(1, k + 1) if r[i][j] - r[i][j - 1] == 1)
        w.append(i)
    return tuple(w)


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
    """Permutation v with g in B- vdot B+, via B- = w0dot B+ w0dot^{-1}."""
    k = len(g)
    w0 = w0_perm(k)
    inner = bruhat_cell(ratlin.mat_mul(ratlin.mat_inv(w0_dot(k)), g))
    return perm_mul(w0, inner)


def double_bruhat_labels(g: Mat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(v, w) with g in B+ wdot B+ intersect B- vdot B-."""
    k = len(g)
    w = bruhat_cell(g)
    w0d = w0_dot(k)
    conj = ratlin.mat_mul(ratlin.mat_inv(w0d), g, w0d)
    w0 = w0_perm(k)
    v = perm_mul(w0, perm_mul(bruhat_cell(conj), w0))
    return v, w


def is_tnn(g: Mat) -> bool:
    """All minors of all sizes are nonnegative (exact)."""
    k = len(g)
    for size in range(1, k + 1):
        for rows in combinations(range(k), size):
            for cols in combinations(range(k), size):
                if ratlin.det(ratlin.submatrix(g, rows, cols)) < 0:
                    return False
    return True


def mr_matrix(k: int, word, taken, params, check: bool = True) -> Mat:
    """Marsh-Rietsch product: sdot at taken letters, y(param) at skipped ones.

    ``word`` is a reduced word with 1-based letters, ``taken`` the positive
    subexpression (same length, None at skipped positions), ``params`` one
    positive rational per skipped position, consumed left to right.  When
    ``check`` is set, the Bruhat and opposite cells of the result are
    verified against the word and subexpression products.
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
    out = ratlin.identity(k)
    it = iter(params)
    for letter, t in zip(word, taken):
        if t is None:
            out = ratlin.mat_mul(out, y_gen(k, letter, next(it)))
        else:
            if t != letter:
                raise ValueError("subexpression letter differs from the word")
            out = ratlin.mat_mul(out, sdot(k, letter))
    if check:
        if bruhat_cell(out) != word_perm(k, word):
            raise AssertionError("cell point left its Schubert cell")
        v_perm = word_perm(k, (t for t in taken if t is not None))
        if opposite_cell(out) != v_perm:
            raise AssertionError("cell point left its opposite Schubert cell")
    return out


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

    def __post_init__(self):
        if ratlin.det(self.rep) == 0:
            raise ValueError("flag representative must be invertible")

    def __eq__(self, other):
        if not isinstance(other, FlagPoint):
            return NotImplemented
        return ratlin.is_upper_triangular(
            ratlin.mat_mul(ratlin.mat_inv(self.rep), other.rep)
        )

    def __hash__(self):
        return hash(self.canonical())

    def canonical(self) -> Mat:
        """Unique representative by column elimination from the left.

        Column j is cleared at the pivot rows of earlier columns, then
        scaled so its lowest remaining nonzero entry is 1.
        """
        k = len(self.rep)
        m = [list(row) for row in self.rep]
        pivots: list[int] = []
        for j in range(k):
            for pj, pr in enumerate(pivots):
                if m[pr][j] != 0:
                    f = m[pr][j] / m[pr][pj]
                    for r in range(k):
                        m[r][j] -= f * m[r][pj]
            piv = max(r for r in range(k) if m[r][j] != 0)
            inv = 1 / m[piv][j]
            for r in range(k):
                m[r][j] *= inv
            pivots.append(piv)
        return tuple(tuple(row) for row in m)

    def bruhat(self) -> tuple[int, ...]:
        return bruhat_cell(self.rep)

    def opposite(self) -> tuple[int, ...]:
        return opposite_cell(self.rep)

    def stratum(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(v, w) with the flag in the open Richardson piece."""
        return self.opposite(), self.bruhat()


def phi_flag(f: FlagPoint) -> FlagPoint:
    """Duality on flags: g B+ -> iota(w0dot^{-1} g) B+."""
    k = len(f.rep)
    return FlagPoint(iota(ratlin.mat_mul(ratlin.mat_inv(w0_dot(k)), f.rep)))
