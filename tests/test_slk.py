"""Exact SL_k pinning: generators, cell identification, TNN tests, duality."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial
from operator import add

import oracles
import pytest

from tnnflag import ratlin, slk, twisted
from tnnflag.weyl import from_perm, perm_of, type_a_group


def rand_frac(rng, lo=-20, hi=20):
    p = rng.randint(lo, hi)
    q = rng.randint(1, 20)
    return Fraction(p, q)


def random_group_element(k, rng, steps=6):
    """Random SL_k element as a product of pinning generators."""
    g = ratlin.identity(k)
    for _ in range(steps):
        i = rng.randint(0, k - 2)
        kind = rng.randint(0, 2)
        a = rand_frac(rng)
        if kind == 0:
            g = ratlin.mat_mul(g, oracles.x_gen(k, i, a))
        elif kind == 1:
            g = ratlin.mat_mul(g, oracles.y_gen(k, i, a))
        else:
            t = a if a != 0 else Fraction(1)
            g = ratlin.mat_mul(g, torus(k, i, t))
    return g


def wdot(k, letters):
    """Product of sdot over a word of 0-based letters."""
    return slk.word_matrix(k, [("s", i, None) for i in letters])


def torus(k, i, t):
    """Coweight torus element: t at position i, 1/t at i+1."""
    if t == 0:
        raise ValueError("torus parameter must be nonzero")
    t = Fraction(t)
    return tuple(
        tuple((t if r == i else 1 / t if r == i + 1 else Fraction(1)) if r == c else Fraction(0)
              for c in range(k))
        for r in range(k)
    )


def random_invertible(k, rng):
    while True:
        g = tuple(tuple(rand_frac(rng) for _ in range(k)) for _ in range(k))
        if ratlin.det(g) != 0:
            return g


def sparse_matrix(k, rng):
    """Random matrix in which about half the entries are zero."""
    return tuple(
        tuple(rand_frac(rng, -3, 3) if rng.random() < 0.5 else Fraction(0) for _ in range(k))
        for _ in range(k)
    )


def word_of(k, p):
    """A reduced word of a one-line permutation."""
    return from_perm(type_a_group(k), p).word


def bruhat_cell_by_rank(g):
    """Rank-condition oracle: w with g in B+ wdot B+.

    rank(g[rows >= i, cols <= j]) = #{c <= j : w(c) >= i} pins w uniquely:
    w(j) is the largest i whose southwest rank increases at column j.
    """
    k = len(g)
    if ratlin.det(g) == 0:
        raise ValueError("singular matrix has no Bruhat cell")
    r = [[0] * (k + 1) for _ in range(k + 2)]  # r[i][j], i in 1..k+1, j in 0..k
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            r[i][j] = ratlin.rank(ratlin.submatrix(g, range(i - 1, k), range(j)))
    return tuple(
        max(i for i in range(1, k + 1) if r[i][j] - r[i][j - 1] == 1)
        for j in range(1, k + 1)
    )


@cache
def w0_dot_by_word(k):
    """w0dot as the product of sdot over a reduced word of w0."""
    return wdot(k, word_of(k, slk.w0_perm(k)))


def opposite_cell_by_inverse(g):
    """v = w0 * cell(w0dot^{-1} g), with the inverse computed."""
    group = type_a_group(len(g))
    w0 = from_perm(group, slk.w0_perm(len(g)))
    inner = slk.bruhat_cell_by_elimination(
        oracles.frac_mat_mul(oracles.frac_mat_inv(w0_dot_by_word(len(g))), g)
    )
    return perm_of(group.multiply(w0, from_perm(group, inner)))


def double_bruhat_labels_by_inverse(g):
    """(w0 * cell(w0dot^{-1} g w0dot) * w0, cell(g)), with the inverse computed."""
    group = type_a_group(len(g))
    w0 = from_perm(group, slk.w0_perm(len(g)))
    w0d = w0_dot_by_word(len(g))
    inner = slk.bruhat_cell_by_elimination(
        oracles.frac_mat_mul(oracles.frac_mat_inv(w0d), g, w0d)
    )
    v = group.multiply(group.multiply(w0, from_perm(group, inner)), w0)
    return perm_of(v), slk.bruhat_cell_by_elimination(g)


def random_upper(k, rng):
    rows = []
    diag = [rand_frac(rng, 1, 20) for _ in range(k)]
    for r in range(k):
        rows.append(tuple(
            diag[r] if r == c else (rand_frac(rng) if r < c else Fraction(0))
            for c in range(k)
        ))
    return tuple(rows)


def test_generator_shapes():
    assert slk.word_matrix(3, [("x", 0, 0)]) == ratlin.identity(3)
    assert slk.word_matrix(2, [("x", 0, 5)])[0][1] == 5
    assert slk.word_matrix(2, [("y", 0, 5)])[1][0] == 5
    assert slk.sdot(2, 0) == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    t = torus(2, 0, Fraction(3, 2))
    assert t[0][0] == Fraction(3, 2) and t[1][1] == Fraction(2, 3)
    with pytest.raises(ValueError):
        slk.word_matrix(3, [("x", 2, 1)])
    with pytest.raises(ValueError):
        torus(2, 0, 0)


def random_word(k, rng, length):
    """Seeded (kind, i, a) letters mixing x, y and sdot, with zero, negative and positive a."""
    word = []
    for _ in range(length):
        kind = rng.choice("xys")
        a = rng.choice((Fraction(0), rand_frac(rng, -20, -1), rand_frac(rng, 1, 20)))
        word.append((kind, rng.randint(0, k - 2), None if kind == "s" else a))
    return word


def test_word_matrix_matches_product_oracle():
    """The column operations against one full matrix product per letter."""
    rng = random.Random(606)
    seen = set()
    for k in range(2, 7):
        for i in range(k - 1):
            a = rand_frac(rng)
            assert slk.word_matrix(k, [("x", i, a)]) == oracles.x_gen(k, i, a)
            assert slk.word_matrix(k, [("y", i, a)]) == oracles.y_gen(k, i, a)
            assert slk.sdot(k, i) == oracles.sdot(k, i)
        for _ in range(30):
            word = random_word(k, rng, rng.randint(0, 12))
            seen.update((kind, a if a is None else (a > 0) - (a < 0)) for kind, _, a in word)
            assert slk.word_matrix(k, word) == oracles.word_product(k, word)
            letters = [rng.randint(0, k - 2) for _ in range(rng.randint(0, 8))]
            assert wdot(k, letters) == oracles.word_product(
                k, [("s", i, None) for i in letters]
            )
    # every kind occurred, x and y with zero, negative and positive parameters
    assert seen == {("s", None)} | {(kind, sign) for kind in "xy" for sign in (-1, 0, 1)}


def test_word_matrix_validation():
    with pytest.raises(ValueError, match="unknown generator kind"):
        slk.word_matrix(3, [("x", 0, 2), ("z", 0, 1)])
    # letters run over 0..k-2; -1 would otherwise index the last column.
    # Sizes past K_MAX are built too: the cap bounds only is_tnn's minors.
    for k in range(2, slk.K_MAX + 2):
        for kind, a in (("x", 1), ("y", 1), ("s", None)):
            for i in (-1, k - 1):
                with pytest.raises(ValueError, match="out of range"):
                    slk.word_matrix(k, [(kind, i, a)])
            slk.word_matrix(k, [(kind, 0, a), (kind, k - 2, a)])
    for k in (0, 1):
        with pytest.raises(ValueError, match="^k must be >= 2$"):
            slk.word_matrix(k, [])
    assert slk.word_matrix(3, []) == ratlin.identity(3)


def test_mr_matrix_matches_product_oracle():
    """Seeded Marsh-Rietsch points against the product of y's and sdots."""
    rng = random.Random(607)
    for k in range(2, 7):
        group = type_a_group(k)
        for _ in range(8):
            p = list(range(1, k + 1))
            rng.shuffle(p)
            w = from_perm(group, tuple(p))
            # any subword product lies below w
            v = group.from_word(tuple(t for t in w.word if rng.random() < 0.4))
            word = w.word
            taken = group.positive_subexpression(v, word)
            params = [rand_frac(rng, 1, 20) for _ in range(w.length - v.length)]
            it = iter(params)
            expected = oracles.word_product(k, [
                ("y", letter, next(it)) if t is None else ("s", letter, None)
                for letter, t in zip(word, taken)
            ])
            assert slk.mr_matrix(k, word, taken, params) == expected


def test_sdot_braid_relation():
    left = ratlin.mat_mul(slk.sdot(3, 0), slk.sdot(3, 1), slk.sdot(3, 0))
    right = ratlin.mat_mul(slk.sdot(3, 1), slk.sdot(3, 0), slk.sdot(3, 1))
    assert left == right
    assert ratlin.det(left) == 1


def test_bruhat_cell_basic():
    assert slk.bruhat_cell(ratlin.identity(3)) == (1, 2, 3)
    assert slk.bruhat_cell(oracles.y_gen(2, 0, 1)) == (2, 1)
    assert slk.bruhat_cell(slk.w0_dot(4)) == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        slk.bruhat_cell(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))


def test_echelon_pivot_scan_on_singular_and_row_zero_input():
    """Singular input finds no pivot; a pivot in row 0 is read like any other."""
    singular = (
        ((0, 1, 2), (0, 3, 4), (0, 5, 6)),  # zero first column
        ((1, 2, 0), (2, 4, 0), (3, 6, 1)),  # second column eliminates to zero
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    )
    for g in singular:
        for m in (g, ratlin.fraction_matrix((g, 1))):
            for reader in (slk.bruhat_cell, slk.opposite_cell):
                with pytest.raises(ValueError, match="singular matrix has no Bruhat cell"):
                    reader(m)
    rng = random.Random(15)
    tested = 0
    while tested < 200:
        k = rng.randint(2, 5)
        j = rng.randrange(k)
        g = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)] for _ in range(k)]
        for r in range(k):
            g[r][j] = Fraction(rng.choice((-3, -1, 2, 5))) if r == 0 else Fraction(0)
        g = tuple(map(tuple, g))
        if ratlin.det(g) == 0:
            continue
        tested += 1
        w = slk.bruhat_cell(g)
        assert w[j] == 1
        assert w == slk.bruhat_cell_by_elimination(g) == slk.bruhat_cell(ratlin.int_form(g)[0])


def test_opposite_cell_basic():
    assert slk.opposite_cell(oracles.y_gen(2, 0, 1)) == (1, 2)
    assert slk.opposite_cell(slk.w0_dot(3)) == (3, 2, 1)
    assert slk.opposite_cell(ratlin.identity(3)) == (1, 2, 3)


def test_bruhat_cell_on_permutation_representatives():
    from itertools import permutations

    for k in (2, 3, 4):
        for p in permutations(range(1, k + 1)):
            rep = wdot(k, word_of(k, p))
            assert slk.bruhat_cell(rep) == p
            assert slk.bruhat_cell_by_elimination(rep) == p
            assert bruhat_cell_by_rank(rep) == p


def test_cell_readers_match_rank_and_inverse_oracles_on_sparse_matrices():
    """The one elimination against the rank conditions and the w0dot^{-1} formulas."""
    rng = random.Random(2024)
    for k in range(2, 7):
        cells = set()
        tested = singular = 0
        while tested < 200:
            g = sparse_matrix(k, rng)
            if ratlin.det(g) == 0:
                singular += 1
                for reader in (slk.bruhat_cell, slk.opposite_cell, slk.double_bruhat_labels):
                    with pytest.raises(ValueError, match="singular"):
                        reader(g)
                continue
            tested += 1
            w = slk.bruhat_cell(g)
            assert w == bruhat_cell_by_rank(g) == slk.bruhat_cell_by_elimination(g)
            assert slk.opposite_cell(g) == opposite_cell_by_inverse(g)
            assert slk.double_bruhat_labels(g) == double_bruhat_labels_by_inverse(g)
            cells.add(w)
        assert singular > 0
        assert len(cells) >= min(factorial(k), 20)


def test_w0_dot_closed_form():
    for k in range(2, 7):
        w0d = slk.w0_dot(k)
        assert w0d == w0_dot_by_word(k)
        assert tuple(zip(*w0d)) == ratlin.mat_inv(w0d)


def test_iota_of_the_inverse_reverses_words():
    """g -> iota(g^{-1}) fixes x_i(a), y_i(a), sdot_i and sdot_i^{-1}, and
    reverses products: iota(g^{-1}) is the word of g read backwards."""
    rng = random.Random(53)
    for k in (2, 3, 4, 5):
        for i in range(k - 1):
            a = rand_frac(rng, 1, 20)
            for letters in ([("x", i, a)], [("y", i, a)], [("s", i, None)], [("s", i, None)] * 3):
                g = slk.word_matrix(k, letters)
                assert slk.iota(ratlin.mat_inv(g)) == g
        for _ in range(6):
            word = [(rng.choice("xys"), rng.randrange(k - 1), rand_frac(rng, 1, 20))
                    for _ in range(rng.randint(1, 3 * k))]
            m, d = ratlin.int_inv(slk.word_form(k, word))
            assert ratlin.reduced((slk.iota(m), d)) == slk.word_form(k, word[::-1])


def test_bruhat_cell_matches_elimination_oracle_random():
    rng = random.Random(101)
    for k in (2, 3, 4):
        for _ in range(200):
            g = random_invertible(k, rng)
            assert slk.bruhat_cell(g) == slk.bruhat_cell_by_elimination(g)


def test_cell_labels_gauge_invariant():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.choice((2, 3, 4))
        g = random_group_element(k, rng)
        b = random_upper(k, rng)
        gb = ratlin.mat_mul(g, b)
        assert slk.bruhat_cell(g) == slk.bruhat_cell(gb)
        assert slk.opposite_cell(g) == slk.opposite_cell(gb)


def test_is_tnn():
    """Hand-made cases, singular ones and ones needing a row exchange included."""
    F = Fraction
    y_product = slk.word_matrix(3, [("y", 0, 1), ("y", 1, 1), ("y", 0, 1)])
    zero_row = ((F(1), F(2), F(0)), (F(0), F(0), F(0)), (F(1), F(3), F(1)))
    zero_row_not_tn = ((F(1), F(3), F(0)), (F(0), F(0), F(0)), (F(2), F(1), F(1)))
    equal_cols = ((F(1), F(1), F(0)), (F(2), F(2), F(1)), (F(1), F(1), F(3)))
    rank_one = tuple(tuple(F(r * c) for c in (1, 2, 5)) for r in (1, 3, 4))
    zero_row_on_top = ((F(0), F(0)), (F(1), F(1)))
    rank_one_negative = tuple(tuple(F(r * c) for c in (1, -2, 5)) for r in (1, 3, 4))
    swap = ((F(0), F(1)), (F(1), F(0)))
    cases = [
        (ratlin.identity(3), True),
        (oracles.y_gen(2, 0, -1), False),
        (y_product, True),
        (zero_row, True),
        (zero_row_not_tn, False),  # rows 1, 3 and columns 1, 2: 1*1 - 3*2 < 0
        (((F(1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(1))), True),
        (equal_cols, True),
        (rank_one, True),
        (zero_row_on_top, True),
        (rank_one_negative, False),
        (slk.sdot(2, 0), False),
        (slk.sdot(4, 1), False),
        (swap, False),
    ]
    for g, expected in cases:
        assert oracles.is_tnn_by_minors(g) == expected, g
        assert slk.is_tnn(g) == expected, g
    assert ratlin.det(zero_row_on_top) == 0
    assert ratlin.det(swap) != 0 and slk._neville_pivots(swap) is None


def random_scaled_word_matrix(k, rng):
    """A generator product with rows rescaled, TNN about half the time.

    Parameters are 0, positive or (rarely) negative, about one letter in
    twenty is an sdot, and a few row scalars are negative or zero (the
    zero ones make the product singular).
    """
    word = []
    for _ in range(rng.randint(1, k * k)):
        u = rng.random()
        a = 0 if u < 0.2 else (rand_frac(rng, -5, -1) if u < 0.25 else rand_frac(rng, 1, 20))
        kind = "s" if rng.random() < 0.05 else rng.choice("xy")
        word.append((kind, rng.randint(0, k - 2), a))
    scale = []
    for _ in range(k):
        u = rng.random()
        scale.append(rand_frac(rng, -20, -1) if u < 0.03 else 0 if u < 0.05 else rand_frac(rng, 1, 20))
    return tuple(tuple(c * x for x in row) for c, row in zip(scale, slk.word_matrix(k, word)))


def test_is_tnn_matches_minors_oracle():
    rng = random.Random(8)
    seen = {True: 0, False: 0}
    singular = 0
    for k, count in ((2, 1200), (3, 1000), (4, 550), (5, 180), (6, 70)):
        for _ in range(count):
            g = random_scaled_word_matrix(k, rng)
            verdict = slk.is_tnn(g)
            assert verdict == oracles.is_tnn_by_minors(g), g
            seen[verdict] += 1
            singular += ratlin.det(g) == 0
    assert sum(seen.values()) == 3000
    assert min(seen.values()) > 900 and singular > 100


def test_is_tnn_at_k8():
    k = 8
    w0_word = word_of(k, slk.w0_perm(k))
    g = slk.word_matrix(
        k, [("y", i, Fraction(i + 1, 3)) for i in w0_word] + [("x", i, 2) for i in w0_word]
    )
    assert all(x > 0 for row in g for x in row)
    assert slk.is_tnn(g)
    assert slk.is_tnn(tuple(zip(*g)))
    # swapping two rows and two columns keeps every entry and det(g) positive,
    # but the minor on rows 1, 2 and columns 1, 3 becomes negative
    swapped = (g[1], g[0]) + g[2:]
    swapped = tuple((row[1], row[0]) + row[2:] for row in swapped)
    assert ratlin.det(swapped) > 0 and not slk.is_tnn(swapped)
    assert not slk.is_tnn(ratlin.mat_mul(g, oracles.x_gen(k, 6, -10**6)))


def test_positive_y_products_are_tnn():
    rng = random.Random(13)
    for k in (2, 3, 4):
        for _ in range(25):
            g = ratlin.identity(k)
            for _ in range(rng.randint(1, 6)):
                g = ratlin.mat_mul(
                    g, oracles.y_gen(k, rng.randint(0, k - 2), rand_frac(rng, 1, 20))
                )
            assert slk.is_tnn(g)


def test_mr_matrix_examples():
    # v = w: the representative of w itself, stratum (w, w)
    g = slk.mr_matrix(3, (0, 1), (0, 1), ())
    assert slk.bruhat_cell(g) == slk.opposite_cell(g) == (2, 3, 1)
    # k = 2, v = e, word (0): a single y
    g = slk.mr_matrix(2, (0,), (None,), (Fraction(5),))
    assert g == oracles.y_gen(2, 0, 5)
    assert (slk.opposite_cell(g), slk.bruhat_cell(g)) == ((1, 2), (2, 1))
    # k = 3, v = s0 in (0,1,0): y0(t1) y1(t2) sdot0
    g = slk.mr_matrix(3, (0, 1, 0), (None, None, 0), (Fraction(1), Fraction(2)))
    assert slk.opposite_cell(g) == (2, 1, 3)
    assert slk.bruhat_cell(g) == (3, 2, 1)


def test_mr_matrix_validation():
    """Bad arguments are refused with their own messages."""
    bad = [
        ((2, (0,), (None,), (Fraction(-1),)), "^parameters must be positive$"),
        ((2, (0,), (None,), ()), "^need 1 parameters, got 0$"),
        ((2, (0,), (0,), (Fraction(1),)), "^need 0 parameters, got 1$"),
        ((3, (0, 1), (None,), (1,)), "^word and subexpression lengths differ$"),
        ((3, (0, 1), (None, 0), (1,)), "^subexpression letter differs from the word$"),
        ((1, (), (), ()), "^k must be >= 2$"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            slk.mr_matrix(*args)


def test_mr_form_refuses_a_zero_parameter():
    """A parameter must be positive: zero is refused like a negative one."""
    with pytest.raises(ValueError, match="^parameters must be positive$"):
        slk.mr_matrix(3, (0,), (None,), [0])
    assert slk.mr_matrix(3, (0,), (None,), [1]) == slk.mr_matrix(3, (0,), (None,), [Fraction(1)])


def test_iota_properties():
    rng = random.Random(3)
    for k in (2, 3, 4):
        for i in range(k - 1):
            for _ in range(5):
                a = rand_frac(rng)
                assert slk.iota(oracles.x_gen(k, i, a)) == oracles.x_gen(k, i, -a)
                assert slk.iota(oracles.y_gen(k, i, a)) == oracles.y_gen(k, i, -a)
            t = rand_frac(rng, 1, 20)
            assert slk.iota(torus(k, i, t)) == torus(k, i, t)
    g, h = random_group_element(3, rng), random_group_element(3, rng)
    assert slk.iota(ratlin.mat_mul(g, h)) == ratlin.mat_mul(slk.iota(g), slk.iota(h))


def test_flag_equality_and_canonical():
    f = slk.FlagPoint(oracles.y_gen(2, 0, 2))
    g = slk.FlagPoint(ratlin.mat_mul(oracles.y_gen(2, 0, 2), oracles.x_gen(2, 0, 7)))
    assert f == g
    assert f.canonical() == g.canonical()
    h = slk.FlagPoint(oracles.y_gen(2, 0, 3))
    assert f != h
    with pytest.raises(ValueError):
        slk.FlagPoint(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))


def test_non_square_matrices_are_rejected():
    """A 2x3 representative used to be accepted as a flag."""
    wide = ((1, 2, 3), (0, 1, 5))
    for reader in (slk.FlagPoint, slk.bruhat_cell, slk.opposite_cell, slk.is_tnn):
        with pytest.raises(ValueError, match="square"):
            reader(wide)
    with pytest.raises(ValueError, match="lengths"):
        slk.FlagPoint(((1, 2), (3,)))


def test_flag_equality_is_canonical_form_equality():
    """g B+ = h B+ iff the canonical forms agree, as the inverse test says."""
    rng = random.Random(77)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        k = rng.randint(2, 6)
        g = random_invertible(k, rng)
        b = random_upper(k, rng)
        f, fb = slk.FlagPoint(g), slk.FlagPoint(ratlin.mat_mul(g, b))
        assert f == fb and hash(f) == hash(fb)
        i = rng.randint(0, k - 2)
        step = rng.choice((
            oracles.x_gen(k, i, rand_frac(rng)),
            oracles.y_gen(k, i, rand_frac(rng, -2, 2)),
            slk.sdot(k, i),
        ))
        h = ratlin.mat_mul(g, b, step)
        same = oracles.is_upper_triangular(oracles.frac_mat_mul(oracles.frac_mat_inv(g), h))
        assert (f == slk.FlagPoint(h)) is same
        if same:
            assert hash(f) == hash(slk.FlagPoint(h))
        outcomes[same] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_phi_flag_involution():
    rng = random.Random(9)
    for k in (2, 3):
        for _ in range(10):
            f = slk.FlagPoint(random_group_element(k, rng))
            assert oracles.phi_flag(oracles.phi_flag(f)) == f


def test_phi_maps_richardson_to_dual_richardson(S3):
    """Flag duality sends the (v, w) stratum to (w0 w, w0 v)."""
    rng = random.Random(31)
    w0 = from_perm(S3, (3, 2, 1))
    for w in S3.elements_up_to_length(3):
        for v in S3.lower_interval(w):
            sub = S3.positive_subexpression(v, w.word)
            for _ in range(3):
                params = [rand_frac(rng, 1, 20) for _ in range(w.length - v.length)]
                g = slk.mr_matrix(3, w.word, sub, params)
                f = slk.FlagPoint(g)
                assert (slk.opposite_cell(g), slk.bruhat_cell(g)) == (perm_of(v), perm_of(w))
                image = oracles.phi_flag(f).rep
                expected = (
                    perm_of(S3.multiply(w0, w)),
                    perm_of(S3.multiply(w0, v)),
                )
                assert (slk.opposite_cell(image), slk.bruhat_cell(image)) == expected


def _lu_unit_lower(g):
    """g = l u with unit lower-triangular l; requires nonzero leading minors."""
    k = len(g)
    m = [list(row) for row in g]
    l = [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]
    for c in range(k):
        assert m[c][c] != 0, "leading minor vanished"
        for r in range(c + 1, k):
            f = m[r][c] / m[c][c]
            l[r][c] = f
            for j in range(k):
                m[r][j] -= f * m[c][j]
    return tuple(tuple(row) for row in l), tuple(tuple(row) for row in m)


def test_lusztig_positive_big_cell_identity():
    """Totally positive upper flows through w0dot into the TNN lower cone."""
    rng = random.Random(15)
    for k in (2, 3):
        group_word = word_of(k, slk.w0_perm(k))
        for _ in range(10):
            u = ratlin.identity(k)
            for i in group_word:
                u = ratlin.mat_mul(u, oracles.x_gen(k, i, rand_frac(rng, 1, 20)))
            rep = ratlin.mat_mul(u, slk.w0_dot(k))
            lower, upper = _lu_unit_lower(rep)
            assert oracles.is_upper_triangular(upper)
            assert slk.is_tnn(lower)


def test_double_bruhat_labels():
    g = ratlin.mat_mul(oracles.y_gen(2, 0, 1), oracles.x_gen(2, 0, 2))
    assert slk.double_bruhat_labels(g) == ((2, 1), (2, 1))
    assert slk.double_bruhat_labels(ratlin.identity(3)) == ((1, 2, 3), (1, 2, 3))


def test_k_cap(monkeypatch):
    """K_MAX bounds only the number of minors is_tnn reads of a singular
    matrix: C(2 K_MAX, K_MAX) - 1, all those of a K_MAX-square one.

    The singular (K_MAX + 1)-square all-ones matrix is refused with
    ValueError naming K_MAX after that many minors (``ratlin.submatrix``
    calls are counted), all nonnegative.  A singular (K_MAX + 1)-square
    matrix with positive entries and a negative 2 x 2 minor is answered
    False, the minors read smallest first.  A singular matrix at k = K_MAX
    is decided by its minors: all C(2k, k) - 1 of them for a TNN one,
    fewer for one that is not.  A nonsingular 16 x 16 double-Bruhat
    product, TNN or not, is decided by Neville elimination, with no minor
    read.  The size checks take k = K_MAX + 1."""
    calls = []
    submatrix = ratlin.submatrix
    monkeypatch.setattr(ratlin, "submatrix", lambda *a: calls.append(a) or submatrix(*a))

    def ones(k):
        return tuple(tuple(1 for _ in range(k)) for _ in range(k))

    big = slk.K_MAX + 1
    cap = comb(2 * slk.K_MAX, slk.K_MAX) - 1
    with pytest.raises(ValueError, match=f"K_MAX={slk.K_MAX}"):
        slk.is_tnn(ones(big))
    assert len(calls) == cap == 12_869
    calls.clear()
    rng = random.Random(9)
    rows = [tuple(rng.randint(1, 9) for _ in range(big)) for _ in range(big - 1)]
    mixed = (*rows, tuple(map(add, rows[0], rows[1])))
    assert ratlin.det(mixed) == 0 and any(
        ratlin.det(ratlin.submatrix(mixed, r, c)) < 0
        for r in combinations(range(big), 2) for c in combinations(range(big), 2))
    calls.clear()
    assert slk.is_tnn(mixed) is False and big * big < len(calls) < comb(big, 2) ** 2 + big * big
    calls.clear()
    k = slk.K_MAX
    assert slk.is_tnn(ones(k)) and len(calls) == comb(2 * k, k) - 1
    calls.clear()
    negative = ((1, -1) + (1,) * (k - 2),) + ones(k)[1:]
    assert ratlin.det(negative) == 0 and not slk.is_tnn(negative)
    assert 0 < len(calls) < comb(2 * k, k) - 1
    calls.clear()
    w0_word = tuple(i + 1 for i in word_of(16, slk.w0_perm(16)))
    g = twisted.db_positive(16, w0_word, w0_word, range(1, 2 * len(w0_word) + 1))
    swapped = (g[1], g[0]) + g[2:]
    assert slk.is_tnn(g) and not slk.is_tnn(swapped) and ratlin.det(swapped) != 0
    assert calls == []
    assert slk.word_matrix(big, [("x", 0, 1)])[0][1] == 1
    assert slk.w0_dot(big)[0][big - 1] == 1
