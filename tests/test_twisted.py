"""Strata, positive parametrization, duality, and the double Bruhat embedding."""

import json
import random
import re
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflag import ratlin, slk, twisted, verify
from tnnflag.verify import brute_circ_r, brute_demazure, iter_qnodes
from tnnflag.weyl import ContextMismatchError, WeylGroup, from_perm, perm_of, type_a_group


def flag_coord(f):
    """Affine chart coordinate of an SL2 flag: ratio of the first column."""
    col = [row[0] for row in f.rep]
    return col[1] / col[0]


def random_gauge(k, rng):
    """Random unit-determinant upper triangular matrix."""
    diag = [Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(k - 1)]
    last = Fraction(1)
    for d in diag:
        last /= d
    diag.append(last)
    rows = []
    for r in range(k):
        row = []
        for c in range(k):
            if r == c:
                row.append(diag[r])
            elif r < c:
                row.append(Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
            else:
                row.append(Fraction(0))
        rows.append(tuple(row))
    return tuple(rows)


def perturb_gauge(z, rng):
    """Random twisted-gauge perturbation (g_1 b_1, b_1^{-1} g_2 b_2, ...) of a point."""
    k = z.k
    bs = [random_gauge(k, rng) for _ in range(z.n)]
    factors = []
    prev_inv = ratlin.identity(k)
    for g, b in zip(z.factors, bs):
        factors.append(ratlin.mat_mul(prev_inv, g, b))
        prev_inv = ratlin.mat_inv(b)
    return twisted.ZPoint(tuple(factors))


def test_stratum_examples(S3):
    # (y(1), y(2)): both factors in the s-cell, product lower unipotent
    z = twisted.ZPoint((oracles.y_gen(2, 0, 1), oracles.y_gen(2, 0, 2)))
    v, wbar = twisted.stratum(z)
    assert v.length == 0 and [w.word for w in wbar] == [(0,), (0,)]
    # (y(1), sdot): the convolution flag moves to the far edge
    z = twisted.ZPoint((oracles.y_gen(2, 0, 1), slk.sdot(2, 0)))
    v, wbar = twisted.stratum(z)
    assert v.word == (0,) and [w.word for w in wbar] == [(0,), (0,)]
    # representatives of Weyl elements land in their own cells
    rng = random.Random(2)
    elems = S3.elements_up_to_length(3)
    for _ in range(5):
        ws = [rng.choice(elems) for _ in range(2)]
        z = twisted.ZPoint(tuple(
            slk.word_matrix(3, [("s", i, None) for i in w.word]) for w in ws
        ))
        v, wbar = twisted.stratum(z)
        assert list(wbar) == ws
        prod = ratlin.mat_mul(*z.factors)
        assert v == from_perm(S3, slk.opposite_cell(prod))


def test_nonempty(S3):
    """The stratum (v, wbar) is nonempty iff v is below the Demazure product
    of wbar; positive_tuple decides it and refuses an empty stratum."""
    from tnnflag.weyl import positive_tuple

    e = S3.identity
    s1, s2 = S3.simple(0), S3.simple(1)
    for w in S3.elements_up_to_length(3):
        assert positive_tuple(e, (w, w)) == (e, e)
    A1 = type_a_group(2)
    s = A1.simple(0)
    assert positive_tuple(s, (s, A1.identity)) == (s, A1.identity)
    with pytest.raises(ValueError, match="^empty stratum: "):
        positive_tuple(s, (A1.identity, A1.identity))
    w0 = S3.from_word((0, 1, 0))
    wbar = (S3.multiply(s1, s2), S3.multiply(s2, s1))
    assert positive_tuple(w0, wbar) == (s1, S3.multiply(s2, s1))


def test_parametrize_cell_refuses_a_word_that_is_not_reduced_for_its_factor(S3):
    """A word given for a factor must be a reduced word of it: a word of
    the right length for another element, and a longer word for the right
    element, are each refused before any chart is made."""
    e, w = S3.identity, S3.from_word((0, 1))
    assert twisted.parametrize_cell(e, (w,), [1, 1], words=[(0, 1)]).factors
    for word in [(1, 0), (0, 1, 1, 1)]:
        with pytest.raises(ValueError, match="is not a reduced word of"):
            twisted.parametrize_cell(e, (w,), [1, 1], words=[word])


def test_parametrize_cell_reads_no_canonical_word_back(S3, monkeypatch):
    """Without ``words`` the factors' canonical words are used, which are
    reduced words of their factors, so parametrize_cell multiplies none of
    them out to check it (the calls of the functions it calls are not
    counted); a given word still is checked, and a wrong one refused."""
    calls = []
    from_word = S3.from_word

    def counted(letters):
        if sys._getframe(1).f_code is twisted.parametrize_cell.__code__:
            calls.append(tuple(letters))
        return from_word(letters)

    monkeypatch.setattr(S3, "from_word", counted)
    w0 = S3.from_word((0, 1, 0))
    wbar = (w0, S3.from_word((1, 0)))
    assert twisted.parametrize_cell(S3.simple(1), wbar, [1, 2, 3, 4]).factors
    assert calls == []
    with pytest.raises(ValueError, match="is not a reduced word of"):
        twisted.parametrize_cell(S3.simple(1), wbar, [1, 2, 3, 4], words=[(1, 0, 1), (0, 1)])
    assert calls == [(1, 0, 1), (0, 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_parametrize_cell_runs_one_greedy_per_point(S3, monkeypatch, n):
    """Every factor's subexpression and the positive tuple come off one
    descent greedy over the concatenated words, with the canonical words
    and with given ones: one positivity check per point, and no
    per-factor ``positive_subexpression``."""
    from tnnflag import weyl

    checks, per_factor = [], []
    is_positive = weyl.is_positive_subexpression
    per_factor_greedy = WeylGroup.positive_subexpression

    def counted_check(*args):
        checks.append(args)
        return is_positive(*args)

    def counted_greedy(*args):
        per_factor.append(args)
        return per_factor_greedy(*args)

    monkeypatch.setattr(weyl, "is_positive_subexpression", counted_check)
    monkeypatch.setattr(WeylGroup, "positive_subexpression", counted_greedy)
    v, w0, c = S3.simple(1), S3.from_word((0, 1, 0)), S3.from_word((0, 1))
    wbar = (w0, c, w0)[:n]
    dim = sum(w.length for w in wbar) - v.length
    for words in (None, [(1, 0, 1), (0, 1), (1, 0, 1)][:n]):
        checks.clear()
        z = twisted.parametrize_cell(v, wbar, range(1, dim + 1), words=words)
        assert twisted.stratum(z) == (v, wbar)
        assert len(checks) == 1
    assert per_factor == []


def test_zpoint_validation():
    """No factors, factors of mixed sizes and a singular factor are refused by
    both constructors; the singular factor also by double_bruhat_embed."""
    g = slk.sdot(3, 0)
    # the first column is nonzero and the second is twice it
    singular = ((1, 2, 3), (2, 4, 6), (0, 0, 1))
    frac_singular = tuple(tuple(Fraction(x, 3) for x in row) for row in singular)
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    for make in (twisted.ZPoint, twisted.ZPoint.of_forms):
        with pytest.raises(ValueError, match="^need at least one factor$"):
            make(())
    with pytest.raises(ValueError, match="^factors of mixed sizes$"):
        twisted.ZPoint((g, slk.sdot(2, 0)))
    with pytest.raises(ValueError, match="^factors of mixed sizes$"):
        twisted.ZPoint.of_forms((ratlin.int_form(g), slk.w0_form(2)))
    for factors in ((zero,), (singular,), (g, frac_singular), [[list(r) for r in singular]]):
        with pytest.raises(ValueError, match="^singular factor$"):
            twisted.ZPoint(factors)
    with pytest.raises(ValueError, match="^singular factor$"):
        twisted.ZPoint.of_forms((ratlin.int_form(g), (singular, 5)))
    with pytest.raises(ValueError, match="^singular factor$"):
        twisted.double_bruhat_embed(frac_singular)


def test_zpoint_refuses_sizes_below_two():
    """Factors of size 0 and 1 are refused when the point is made, by
    ``ZPoint``, ``ZPoint.of_forms`` and ``ZPoint.from_json``, with the
    message of slk's size check; they used to be made, and refused only
    later by ``stratum``.  Sizes 2, K_MAX and K_MAX + 1 are made: the cap
    bounds only is_tnn's minors."""

    def identity(k):
        return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))

    for k in (0, 1):
        for factors in ((identity(k),), (identity(k), identity(k))):
            with pytest.raises(ValueError, match="^k must be >= 2$"):
                twisted.ZPoint(factors)
            with pytest.raises(ValueError, match="^k must be >= 2$"):
                twisted.ZPoint.of_forms(tuple(ratlin.int_form(g, square=True) for g in factors))
            with pytest.raises(ValueError, match="^k must be >= 2$"):
                twisted.ZPoint.from_json({"factors": [[[str(x) for x in row] for row in g]
                                                      for g in factors]})
    for k in (2, slk.K_MAX, slk.K_MAX + 1):
        assert twisted.ZPoint((identity(k),)).k == k


def test_zpoint_equality_ignores_container_types():
    """List factors, list rows and int entries make the same point as tuples of
    Fractions: equal, one hash, one element of a set.  Equality and hashing
    used to follow the containers as given, and a list of factors was
    unhashable."""
    g, h = slk.sdot(3, 0), slk.word_matrix(3, [("y", 1, 2), ("x", 0, 3)])
    ints = [[[int(x) for x in row] for row in m] for m in (g, h)]
    ref = twisted.ZPoint((g, h))
    variants = [
        twisted.ZPoint([g, h]),
        twisted.ZPoint([[list(row) for row in m] for m in (g, h)]),
        twisted.ZPoint(ints),
        twisted.ZPoint(tuple(tuple(map(tuple, m)) for m in ints)),
    ]
    for z in variants:
        assert z == ref and ref == z and hash(z) == hash(ref)
        assert twisted.gauge_eq(z, ref)
    assert len({ref, *variants}) == 1


def test_zpoint_rejects_non_square_and_ragged_factors():
    """A 2x3 factor used to be accepted and labeled (e; (e,)); a ragged JSON
    row used to raise IndexError.  ``of_forms`` used to take a ragged form
    as a point of (e; e), a 3x2 form as a point whose stratum raised, and a
    zero denominator as a point whose factors raised ZeroDivisionError.  A
    denominator that is not an int is refused: the forms are reduced by
    their gcd, which takes ints only."""
    with pytest.raises(ValueError, match="^matrix rows have different lengths$"):
        twisted.ZPoint.of_forms([(((1, 0), (0, 1, 5)), 1)])
    with pytest.raises(ValueError, match="^need a square matrix, got 3x2$"):
        twisted.ZPoint.of_forms([(((1, 0), (0, 1), (0, 0)), 1)])
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"^need a positive denominator, got {d}$"):
            twisted.ZPoint.of_forms([slk.w0_form(2), (((1, 0), (0, 1)), d)])
    for d in (Fraction(2), 2.0):
        with pytest.raises(ValueError, match="^need an int denominator, got "):
            twisted.ZPoint.of_forms([slk.w0_form(2), (((1, 0), (0, 1)), d)])
    with pytest.raises(ValueError, match="square"):
        twisted.ZPoint((((1, 0, 0), (0, 1, 0)),))
    with pytest.raises(ValueError, match="square"):
        twisted.ZPoint((slk.sdot(2, 0), ((1, 0, 0), (0, 1, 0))))
    with pytest.raises(ValueError, match="lengths"):
        twisted.ZPoint.from_json({"factors": [[["1", "0"], ["0"]]]})
    with pytest.raises(ValueError, match="lengths"):
        twisted.ZPoint.from_json({"factors": [[["1", "0"], ["0", "1"]], [["1"], ["0", "1"]]]})


def test_parametrize_cell_examples():
    A1 = type_a_group(2)
    e, s = A1.identity, A1.simple(0)
    z = twisted.parametrize_cell(s, (s, s), [Fraction(3, 2)])
    assert z.factors[0] == oracles.y_gen(2, 0, Fraction(3, 2))
    assert z.factors[1] == slk.sdot(2, 0)
    # rank-0 cell: no parameters
    z0 = twisted.parametrize_cell(s, (s, e), [])
    assert z0.factors[0] == slk.sdot(2, 0)
    with pytest.raises(ValueError):
        twisted.parametrize_cell(s, (e, e), [])
    with pytest.raises(ValueError):
        twisted.parametrize_cell(e, (s, s), [Fraction(1)])  # wrong count
    for bad in (Fraction(-1), Fraction(0)):
        with pytest.raises(ValueError, match="parameters must be positive"):
            twisted.parametrize_cell(e, (s, s), [Fraction(1), bad])


def test_parametrize_cell_refuses_a_foreign_group(A2, monkeypatch):
    """Elements of a group other than ``type_a_group(k)`` are refused, with
    check on and off, before any matrix is built: the chart's letter
    builder ``slk._mr_letters`` and ``slk.word_form`` are patched to
    raise.  ``stratum`` answers in
    ``type_a_group(k)``, so with check on a right point used to fail its
    check with a false AssertionError."""
    s1 = A2.simple(0)
    S3 = type_a_group(3)
    z = twisted.parametrize_cell(S3.simple(0), (S3.simple(0),), [], check=True)
    assert twisted.stratum(z) == (S3.simple(0), (S3.simple(0),))

    def no_matrix(*args):
        raise AssertionError("a matrix was built for a foreign group")

    for name in ("_mr_letters", "word_form"):
        monkeypatch.setattr(slk, name, no_matrix)
    for check in (True, False):
        with pytest.raises(ContextMismatchError, match=r"type_a_group\(3\)"):
            twisted.parametrize_cell(s1, (s1,), [], check=check)
    # a factor of another group, with its word given or not
    for words in (None, [(0,)]):
        with pytest.raises(ContextMismatchError):
            twisted.parametrize_cell(S3.identity, (s1,), [1], words=words)


def test_parametrize_cell_builds_no_thickened_group(monkeypatch):
    """The positive tuple of every k=3 n=2 stratum is found in the base
    group: building a thickened group raises."""

    def no_thickening(self, n):
        raise AssertionError(f"a thickened group was built for n={n}")

    monkeypatch.setattr(WeylGroup, "thickened", no_thickening)
    rng = random.Random(22)
    strata = 0
    for q in iter_qnodes(type_a_group(3), 2):
        z = twisted.parametrize_cell(q.v, q.wbar, twisted.random_params(q.rank, rng))
        assert twisted.stratum(z) == (q.v, q.wbar)
        strata += 1
    assert strata == 167  # as in verify cell-containment


def test_parametrize_cell_checks_opposite_cells(monkeypatch):
    """check=True asserts each factor's opposite cell (forced wrong here),
    through the kernel ``slk._opposite_cell`` on the factor's int matrix;
    check=False skips the assertion and builds the same point."""
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    v, wbar = group.simple(0), (w0, group.from_word((1, 0)))
    expected = twisted.parametrize_cell(v, wbar, range(1, 5))
    seen = []

    def wrong_opposite(g):
        seen.append(g)
        return perm_of(w0)

    monkeypatch.setattr(slk, "_opposite_cell", wrong_opposite)
    with pytest.raises(AssertionError, match="opposite Schubert cell"):
        twisted.parametrize_cell(v, wbar, range(1, 5))
    assert seen == [expected._forms[0][0]]
    seen.clear()
    assert twisted.parametrize_cell(v, wbar, range(1, 5), check=False) == expected
    assert seen == []


def test_parametrize_roundtrip_with_word_choices(S3):
    """Containment holds for every reduced-word choice, not just canonical."""
    rng = random.Random(19)
    elems = S3.elements_up_to_length(3)
    for wbar in product(elems, repeat=2):
        words_per_factor = [oracles.all_reduced_words(S3, w)[:2] for w in wbar]
        for v in S3.lower_interval(S3.m_star(wbar)):
            dim = sum(w.length for w in wbar) - v.length
            for combo in product(*words_per_factor):
                for _ in range(2):
                    params = twisted.random_params(dim, rng)
                    z = twisted.parametrize_cell(v, wbar, params, words=list(combo))
                    assert twisted.stratum(z) == (v, wbar)


def test_gauge_invariance_of_stratum(S3):
    rng = random.Random(23)
    s1, s2 = S3.simple(0), S3.simple(1)
    w0 = S3.from_word((0, 1, 0))
    points = [
        twisted.parametrize_cell(s1, (w0, S3.multiply(s2, s1)), twisted.random_params(4, rng)),
        twisted.parametrize_cell(S3.identity, (s1, s2), twisted.random_params(2, rng)),
    ]
    for z in points:
        base = twisted.stratum(z)
        for _ in range(200):
            zp = perturb_gauge(z, rng)
            assert twisted.gauge_eq(z, zp)
            assert twisted.stratum(zp) == base


def test_alpha_and_convolution():
    A1 = type_a_group(2)
    # n = 1: alpha and convolution are the same flag
    z1 = twisted.ZPoint((oracles.y_gen(2, 0, 5),))
    assert twisted.alpha(z1) == (twisted.convolution(z1),)
    # the two-factor picture: coordinates (a, a + b)
    z = twisted.ZPoint((oracles.y_gen(2, 0, 1), oracles.y_gen(2, 0, 2)))
    flags = twisted.alpha(z)
    assert twisted.convolution(z) == flags[-1]
    assert [flag_coord(f) for f in flags] == [1, 3]


def _random_factor(k, rng):
    while True:
        g = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k))
            for _ in range(k)
        )
        if ratlin.det(g) != 0:
            return g


def test_alpha_separates_gauge_classes():
    """gauge_eq (equal alpha flags) agrees with solving for the chain of b_i."""
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    for k in range(2, 5):
        for n in range(1, 4):
            for _ in range(16):
                z = twisted.ZPoint(tuple(_random_factor(k, rng) for _ in range(n)))
                perturbed = perturb_gauge(z, rng)
                # one factor times a generator: x (in B+) at the last factor keeps the class
                j, i = rng.randrange(n), rng.randint(0, k - 2)
                step = rng.choice((
                    oracles.x_gen(k, i, rng.randint(1, 5)),
                    oracles.y_gen(k, i, rng.randint(1, 5)),
                    slk.sdot(k, i),
                ))
                factors = list(perturbed.factors)
                factors[j] = ratlin.mat_mul(factors[j], step)
                stepped = twisted.ZPoint(tuple(factors))
                # the step moved across a factor boundary keeps every other partial product
                if j + 1 < n:
                    factors[j + 1] = ratlin.mat_mul(ratlin.mat_inv(step), factors[j + 1])
                shifted = twisted.ZPoint(tuple(factors))
                other = twisted.ZPoint(tuple(_random_factor(k, rng) for _ in range(n)))
                for z2 in (perturbed, stepped, shifted, other):
                    same = oracles.gauge_eq_by_inverse(z, z2)
                    assert twisted.gauge_eq(z, z2) is same
                    assert twisted.gauge_eq(z2, z) is same
                    outcomes[same] += 1
    assert min(outcomes.values()) > 50, outcomes
    # mismatched shapes are never gauge equal
    z = twisted.ZPoint((oracles.y_gen(2, 0, 1), oracles.y_gen(2, 0, 2)))
    assert not twisted.gauge_eq(z, twisted.ZPoint(z.factors[:1]))
    assert not twisted.gauge_eq(z, twisted.ZPoint((ratlin.identity(3),) * 2))


def test_alpha_image_of_top_sl2_cell_is_exact_wedge():
    """The top SL2 cell hits exactly the rational points with 0 < a < b."""
    A1 = type_a_group(2)
    e, s = A1.identity, A1.simple(0)
    rng = random.Random(31)
    for _ in range(25):
        t1, t2 = twisted.random_params(2, rng)
        z = twisted.parametrize_cell(e, (s, s), [t1, t2])
        a, b = [flag_coord(f) for f in twisted.alpha(z)]
        assert 0 < a < b
        assert (a, b) == (t1, t1 + t2)
    # surjectivity onto a grid of chart points with 0 < a < b
    for a_num in range(1, 5):
        for b_num in range(a_num + 1, 6):
            a, b = Fraction(a_num, 3), Fraction(b_num, 3)
            z = twisted.parametrize_cell(e, (s, s), [a, b - a])
            assert [flag_coord(f) for f in twisted.alpha(z)] == [a, b]


def test_injectivity_on_parameter_grids(S3):
    """Distinct small-grid parameter vectors give distinct gauge classes."""
    A1 = type_a_group(2)
    grid = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3)]
    cells = [
        (A1.identity, (A1.simple(0), A1.simple(0))),
        (S3.identity, (S3.simple(0), S3.simple(1))),
        (S3.simple(0), (S3.from_word((0, 1, 0)), S3.identity)),
        (S3.identity, (S3.from_word((0, 1)), S3.simple(1))),
    ]
    for v, wbar in cells:
        group = v.group
        dim = sum(w.length for w in wbar) - v.length
        assert dim <= 3
        seen = {}
        for params in product(grid, repeat=dim):
            z = twisted.parametrize_cell(v, wbar, list(params))
            key = tuple(f.canonical() for f in twisted.alpha(z))
            assert key not in seen, (params, seen[key])
            seen[key] = params


def test_degeneration_lands_in_closure_index_set(S3):
    """Zero substitutions only reach labels from the closure index set."""
    rng = random.Random(37)
    w0 = S3.from_word((0, 1, 0))
    s1 = S3.simple(0)
    for v, wbar in [
        (S3.identity, (w0, w0)),
        (s1, (w0, S3.multiply(S3.simple(1), s1))),
        (S3.identity, (S3.simple(0), S3.simple(1))),
    ]:
        group = v.group
        dim = sum(w.length for w in wbar) - v.length
        params = twisted.random_params(dim, rng)
        words = [w.word for w in wbar]
        vbar_words = None
        for drop in range(dim):
            degenerate = list(params)
            degenerate[drop] = Fraction(0)
            z = _build_unchecked(v, wbar, words, degenerate)
            v2, wbar2 = twisted.stratum(z)
            assert group.bruhat_leq(v, v2)
            assert all(group.bruhat_leq(b, a) for a, b in zip(wbar, wbar2))
            assert group.bruhat_leq(v2, group.m_star(wbar2))


def _build_unchecked(v, wbar, words, params):
    """mr products with one parameter possibly zero (leaves the open cell)."""
    from tnnflag.weyl import positive_tuple

    group = v.group
    k = group.rank + 1
    vbar = positive_tuple(v, wbar)
    factors = []
    pos = 0
    for vi, word in zip(vbar, words):
        sub = group.positive_subexpression(vi, word)
        out = ratlin.identity(k)
        for letter, t in zip(word, sub):
            if t is None:
                out = ratlin.mat_mul(out, oracles.y_gen(k, letter, params[pos]))
                pos += 1
            else:
                out = ratlin.mat_mul(out, slk.sdot(k, letter))
        factors.append(out)
    return twisted.ZPoint(tuple(factors))


def test_phi_z_single_factor_reduces_to_phi_flag():
    z = twisted.ZPoint((oracles.y_gen(2, 0, 3),))
    image = twisted.phi_Z(z)
    assert slk.FlagPoint(image.factors[0]) == oracles.phi_flag(slk.FlagPoint(z.factors[0]))


def test_phi_z_k2_example():
    z = twisted.ZPoint((oracles.y_gen(2, 0, 1), oracles.y_gen(2, 0, 2)))
    image = twisted.phi_Z(z)
    v, wbar = twisted.stratum(image)
    assert v.length == 0 and [w.word for w in wbar] == [(0,), (0,)]
    assert twisted.gauge_eq(twisted.phi_Z(image), z)


def test_phi_z_checked_mode_flag(monkeypatch):
    """check=False skips the stratum assertion; check=True, the default,
    raises on a (forced) wrong stratum."""
    z = twisted.ZPoint((oracles.y_gen(2, 0, 1), oracles.y_gen(2, 0, 2)))
    real = twisted.stratum

    def wrong_stratum(point):
        v, wbar = real(point)
        if point is z:
            v = v.group.multiply(v, v.group.simple(0))
        return v, wbar

    monkeypatch.setattr(twisted, "stratum", wrong_stratum)
    twisted.phi_Z(z, check=False)
    with pytest.raises(AssertionError):
        twisted.phi_Z(z, check=True)
    with pytest.raises(AssertionError):
        twisted.phi_Z(z)


def test_verify_duality_fails_without_iota(monkeypatch):
    """``verify duality`` decides the involution inside phi_Z: the round
    trip ends at its source, so its ``gauge_eq(back, z)`` holds because back
    is z.  What the suite sees is the stratum map.  With ``slk.iota``
    replaced by the identity, images land outside the predicted strata and
    the suite reports ``fail``, with ``stratum-map`` entries only."""
    monkeypatch.setattr(slk, "iota", lambda g: g)
    report = verify.suite_duality()
    assert report.status == "fail"
    (check,) = report.checks
    bad = check["witness"]["bad"]
    assert check["status"] == "fail" and bad
    assert {entry["check"] for entry in bad} == {"stratum-map"}


def test_stratum_is_computed_once_per_point(monkeypatch):
    """A checked duality round trip computes the stratum of each of its two
    points once: one elimination of the point's product with its rows
    reversed, which phi_Z reuses as the image's first flag.  The round trip
    ends at the point itself, whose kept stratum the second check reads.
    The kept stratum changes neither equality nor hashing.

    One more elimination makes the flag of the image's later factor, built
    from the chart's letters reversed (3 in all).  Before the round trip
    ended at its source, it made a third point and eliminated its reversed
    product (4 in all); before the images kept their source's flags, each
    image also eliminated its later factor (5 in all).  The image used to
    keep its source's flags of the later factors, as the inverses its own
    image would need; the round trip returns the source and never read
    them, so the image keeps only its source."""
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    z = twisted.parametrize_cell(group.identity, (w0, w0), range(1, 7), check=False)
    fresh = twisted.ZPoint(z.factors)
    calls = []
    real = slk._echelon

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(slk, "_echelon", counted)
    label = twisted.stratum(z)
    assert twisted.stratum(z) is label
    image = twisted.phi_Z(z, check=True)
    back = twisted.phi_Z(image, check=True)
    assert back is z and twisted.stratum(back) is label
    kept = [p._reversed._form[0] for p in (z, image)]
    assert [sum(m is r for m in calls) for r in kept] == [1, 1]
    assert kept == [twisted._product(p)[0][::-1] for p in (z, image)]
    # the other one: the later factor of the image
    assert len(calls) == 3
    assert image._source is z
    assert z == fresh and hash(z) == hash(fresh) and repr(z) == repr(fresh)
    assert fresh._stratum is None and len({z, fresh}) == 1


def _count_kernels(monkeypatch) -> dict:
    """Counts of the calls of slk._echelon and of ratlin's int_det, int_mul
    and int_inv, made from here on, in the dict returned."""
    counts = {}
    for module, name in ((slk, "_echelon"), (ratlin, "int_det"), (ratlin, "int_mul"),
                         (ratlin, "int_inv")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def _checked_round_trip(v, wbar, params):
    """parametrize_cell, phi_Z twice and gauge_eq, all checked."""
    z = twisted.parametrize_cell(v, wbar, params, check=True)
    image = twisted.phi_Z(z, check=True)
    back = twisted.phi_Z(image, check=True)
    assert back is z and twisted.gauge_eq(back, z)


def test_checked_round_trip_kernel_counts(monkeypatch):
    """A checked duality round trip at k=3, n=2 (parametrize_cell, phi_Z twice,
    gauge_eq) makes 7 column eliminations, 2 products, no inverse and no
    determinant.

    The chart eliminates each factor once for its flag, which gives the
    factor's Bruhat cell, and once with rows reversed for its opposite-cell
    check.  Each point keeps its product, for stratum, phi_Z and the last
    flag of alpha, and the flag of its product with rows reversed, for its
    opposite cell.  The image of phi_Z takes that flag as its first flag
    instead of eliminating its first factor, and builds its later factor
    from the chart's letters reversed, with no inverse.  The second phi_Z
    multiplies out the image's product for the check and finds the
    source's first form: it returns the source, which gauge_eq takes with
    no elimination.  Before the round trip ended at its source, it made 8
    eliminations and 3 products; before that, 11 eliminations and 1
    inverse; before that, 13 eliminations and 2 inverses; earlier still,
    15 eliminations, 6 determinants and 7 products.
    """
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    counts = _count_kernels(monkeypatch)
    params = [Fraction(i, i + 1) for i in range(1, 6)]
    _checked_round_trip(group.from_word((0,)), (w0, w0), params)
    assert counts == {"_echelon": 7, "int_mul": 2}


def test_checked_round_trip_kernel_counts_at_k16(monkeypatch):
    """At k=16, n=3 a checked round trip makes 10 column eliminations and 2
    int_mul calls, on three strata of ``test_strata_at_k16``: the chart's 3
    factor flags, 3 opposite-cell checks and its reversed product, the
    image's 2 later-factor flags and its reversed product.  Before the
    round trip ended at its source, it made 11 and 3."""
    rng = random.Random(16)
    strata = list(sample_strata(16, 3, 20, rng))[:3]
    params = [twisted.random_params(sum(w.length for w in wbar) - v.length, rng)
              for v, wbar in strata]
    counts = _count_kernels(monkeypatch)
    for (v, wbar), ps in zip(strata, params):
        counts.clear()
        _checked_round_trip(v, wbar, ps)
        assert counts == {"_echelon": 10, "int_mul": 2}


def test_kept_flags_are_the_flags_of_the_factors():
    """Each point keeps FlagPoint.of_form of each factor's form, rep included,
    however it was made; alpha starts from the first of them."""
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    z = twisted.parametrize_cell(group.identity, (w0, group.from_word((1,))), [3, 2, 5, 4])
    g = twisted.db_positive(3, (1, 2), (2, 1), [Fraction(1, 2), 2, 3, Fraction(5, 3)])
    points = [
        z,
        twisted.phi_Z(z),
        twisted.ZPoint(z.factors),
        twisted.ZPoint([[list(row) for row in m] for m in z.factors]),
        twisted.ZPoint.of_forms(z._forms),
        twisted.double_bruhat_embed(g),
    ]
    for point in points:
        assert len(point._flags) == point.n
        for flag, form, factor in zip(point._flags, point._forms, point.factors):
            expected = slk.FlagPoint.of_form(form)
            assert flag == expected and hash(flag) == hash(expected)
            assert flag.rep == expected.rep == factor
            assert flag.cell == slk.bruhat_cell(factor)
        assert twisted.alpha(point)[0] is point._flags[0]


def test_checked_round_trip_builds_no_fractions(monkeypatch):
    """parametrize_cell, phi_Z twice and gauge_eq run on integer forms alone;
    a point's Fraction factors are built on first read and then kept."""
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    calls = []
    real = ratlin.fraction_matrix

    def counted(form):
        calls.append(form)
        return real(form)

    monkeypatch.setattr(ratlin, "fraction_matrix", counted)
    params = [Fraction(i, i + 1) for i in range(1, 6)]
    z = twisted.parametrize_cell(group.from_word((0,)), (w0, w0), params, check=True)
    image = twisted.phi_Z(z, check=True)
    back = twisted.phi_Z(image, check=True)
    assert twisted.gauge_eq(back, z)
    assert calls == []
    factors = z.factors
    assert factors == tuple(real(f) for f in z._forms)
    assert len(calls) == z.n == 2
    assert z.factors is factors and len(calls) == 2


def test_point_of_forms_matches_point_of_fractions():
    """Equality, hashing, repr and JSON do not depend on how a point was made."""
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    made = twisted.parametrize_cell(
        group.identity, (w0, group.from_word((1,))), [Fraction(3, 2), 2, Fraction(5, 7), 4]
    )
    fractions = made.factors
    forms = tuple(ratlin.int_form(g, square=True) for g in fractions)
    lazy = twisted.ZPoint.of_forms(forms)
    eager = twisted.ZPoint(fractions)
    assert (lazy.k, lazy.n) == (eager.k, eager.n) == (3, 2)
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    assert repr(lazy) == repr(eager)
    assert lazy != twisted.ZPoint(fractions[:1])
    back = twisted.ZPoint.from_json(json.loads(json.dumps(lazy.to_json())))
    assert back == lazy and hash(back) == hash(lazy)
    assert back.to_json() == eager.to_json()


def _sl2_params_from_chart(image, v2, wbar2):
    """Recover positive parameters of an SL2 cell point from its chart coords.

    Each skipped letter contributes a lower elementary factor, so the
    parameters are the successive differences of the partial flag
    coordinates at the factors that carry one.
    """
    from tnnflag.weyl import positive_tuple

    coords = [flag_coord(f) for f in twisted.alpha(image)]
    vbar = positive_tuple(v2, wbar2)
    params = []
    prev = Fraction(0)
    for i, (vi, wi) in enumerate(zip(vbar, wbar2)):
        if wi.length == 1 and vi.length == 0:
            params.append(coords[i] - prev)
        prev = coords[i]
    return params


def test_duality_images_reproducible_in_sl2():
    """phi_Z images of positive points are again positively parametrized."""
    A1 = type_a_group(2)
    e, s = A1.identity, A1.simple(0)
    rng = random.Random(41)
    for v, wbar, dim in [(e, (s, s), 2), (s, (s, s), 1)]:
        for _ in range(8):
            z = twisted.parametrize_cell(v, wbar, twisted.random_params(dim, rng))
            image = twisted.phi_Z(z)
            v2, wbar2 = twisted.stratum(image)
            params = _sl2_params_from_chart(image, v2, wbar2)
            assert all(p > 0 for p in params)
            rebuilt = twisted.parametrize_cell(v2, wbar2, params)
            assert twisted.gauge_eq(rebuilt, image)


def sample_strata(k, n, count, rng):
    """``count`` seeded strata (v, wbar) of SL_k^n, without listing an
    interval.  Each factor is a uniform random permutation; v is the
    product of a random subword of the canonical word of m_star(wbar), each
    letter kept with one probability drawn per stratum, so v <=
    m_star(wbar) (subword property) and the stratum is not empty."""
    group = type_a_group(k)
    for _ in range(count):
        wbar = tuple(from_perm(group, rng.sample(range(1, k + 1), k)) for _ in range(n))
        keep = rng.random()
        v = group.from_word([i for i in group.m_star(wbar).word if rng.random() < keep])
        yield v, wbar


def test_strata_at_k16():
    """Twenty seeded strata at k = 16, n = 3, past ``slk.K_MAX``: the checked
    chart lands in its stratum, phi_Z (checked) in the dual stratum, and
    phi_Z twice is gauge equivalent to the point."""
    rng = random.Random(16)
    strata = list(sample_strata(16, 3, 20, rng))
    assert len(set(strata)) == 20 and 16 > slk.K_MAX
    for v, wbar in strata:
        dim = sum(w.length for w in wbar) - v.length
        z = twisted.parametrize_cell(v, wbar, twisted.random_params(dim, rng), check=True)
        assert twisted.stratum(z) == (v, wbar)
        image = twisted.phi_Z(z)
        assert twisted.stratum(image) == twisted.dual_stratum(v, wbar)
        assert twisted.gauge_eq(twisted.phi_Z(image), z)


def _phi_z_by_inverses(z):
    """phi_Z with nothing inherited: every factor eliminated, every inverse by int_inv."""
    m, d = twisted._product(z)
    first = ratlin.reduced((slk.iota(slk.w0_inverse_times(m)), d))
    rest = [(slk.iota(r), e) for r, e in map(ratlin.int_inv, reversed(z._forms[1:]))]
    return twisted.ZPoint.of_forms((first, *rest))


def _inverses_by_int_inv(z):
    """The forms iota(g_n^{-1}), ..., iota(g_2^{-1}) by int_inv, in lowest terms."""
    return tuple(ratlin.reduced((slk.iota(r), e))
                 for r, e in map(ratlin.int_inv, reversed(z._forms[1:])))


def _check_flag(flag, form):
    """flag is the flag of form, with form as its rep, as a fresh elimination makes it."""
    oracle = slk.FlagPoint.of_form(form)
    assert flag._form == form
    assert (flag._cols, flag._pivots) == (oracle._cols, oracle._pivots)
    assert flag.rep == oracle.rep and flag.cell == oracle.cell


def _check_inherited(point):
    """The values a point inherited or keeps agree with the paths they replace.

    A duality image used to keep its source's flags of the later factors
    as inverses, checked here against int_inv; no point keeps inverses
    now, and ``test_word_built_inverses_match_int_inv`` checks the built ones."""
    k = point.k
    for flag, form in zip(point._flags, point._forms):
        _check_flag(flag, form)
    assert point._flags[0].rep == point.factors[0]
    group = type_a_group(k)
    product = ratlin.int_mul(*(m for m, _ in point._forms))
    assert twisted.stratum(point) == (
        from_perm(group, slk.opposite_cell(product)),
        tuple(from_perm(group, slk.bruhat_cell(m)) for m, _ in point._forms),
    )
    for fresh in (twisted.ZPoint.of_forms(point._forms), twisted.ZPoint(point.factors)):
        assert point == fresh and hash(point) == hash(fresh) and repr(point) == repr(fresh)


def _differential_strata():
    for n in (1, 2):
        for q in iter_qnodes(type_a_group(3), n):
            yield q.v, q.wbar
    rng = random.Random(2468)
    for k in (2, 4, 5, 6, 7, 8):
        for n in (1, 2, 3):
            yield from sample_strata(k, n, 2, rng)
    yield from sample_strata(16, 3, 5, rng)


@pytest.mark.parametrize("check", [True, False])
def test_phi_z_inherited_values_match_the_paths_they_replace(check):
    """The image's first flag (identity (i)) against its own elimination, its
    later factors and their flags (identity (iii)) against int_inv and fresh
    eliminations, the round trip's end (identity (ii)) against the source,
    the opposite cell read off
    the kept reversed product against slk.opposite_cell, and every form of
    the image and of its image against phi_Z with nothing inherited: on every
    stratum of k=3, n <= 2, seeded strata at k = 2, 4..8 (both parities of
    k - 1), n = 1..3, and five at k = 16, n = 3.  The kept inverses each image
    used to inherit from its source were checked here too; they are gone."""
    rng = random.Random(1357)
    count = 0
    for v, wbar in _differential_strata():
        dim = sum(w.length for w in wbar) - v.length
        z = twisted.parametrize_cell(v, wbar, twisted.random_params(dim, rng), check=check)
        image = twisted.phi_Z(z, check=check)
        back = twisted.phi_Z(image, check=check)
        assert image._forms == _phi_z_by_inverses(z)._forms
        assert back._forms == _phi_z_by_inverses(image)._forms
        assert back is z and image._source is z
        for point in (z, image, back):
            _check_inherited(point)
        assert twisted.stratum(image) == twisted.dual_stratum(v, wbar)
        count += 1
    assert count == 19 + 167 + 36 + 5


def _points_with_given_words(rng):
    """Checked chart points of k=3 n=2 and k=4 n=2, each factor on a
    reduced word that is not the canonical one where it has another."""
    for k, n in ((3, 2), (4, 2)):
        group = type_a_group(k)
        tops = list(product(group.elements_up_to_length(k * (k - 1) // 2), repeat=n))
        for wbar in rng.sample(tops, 12) if len(tops) > 12 else tops:
            words = [next((word for word in oracles.all_reduced_words(group, w)
                           if word != w.word), w.word) for w in wbar]
            for v in rng.sample(list(group.lower_interval(group.m_star(wbar))), 1):
                dim = sum(w.length for w in wbar) - v.length
                yield twisted.parametrize_cell(v, wbar, twisted.random_params(dim, rng),
                                               words=words)


def test_word_built_inverses_match_int_inv():
    """Identity (iii): the later factors of phi_Z's image, built from the
    chart's letters reversed, equal reduced(iota(int_inv(g))) form for form,
    and their flags the flags of those forms.  On every stratum of k=3,
    n <= 2, seeded strata at k = 2, 4..8 and 16 with n <= 3, and points
    made on non-canonical reduced words.  A point with no chart inverts by
    int_inv and gets the same forms.  The flags are built on each call: the
    per-point cache they were kept in is gone."""
    rng = random.Random(9753)
    charted = []
    for v, wbar in _differential_strata():
        dim = sum(w.length for w in wbar) - v.length
        charted.append(twisted.parametrize_cell(v, wbar, twisted.random_params(dim, rng),
                                                check=False))
    charted += _points_with_given_words(rng)
    taken = 0
    for z in charted:
        assert len(z._letters) == z.n - 1
        expected = _inverses_by_int_inv(z)
        built = twisted._inverse_flags(z)
        assert tuple(f._form for f in built) == expected
        for flag, form in zip(built, expected):
            _check_flag(flag, form)
        plain = twisted.ZPoint.of_forms(z._forms)
        assert plain._letters is None
        assert tuple(f._form for f in twisted._inverse_flags(plain)) == expected
        taken += any(kind == "s" for letters in z._letters for kind, _, _ in letters)
    assert len(charted) == 19 + 167 + 36 + 5 + 12 + 12
    assert taken > 100


def _assert_same_point(point, scratch):
    """point has the factors, flags, product, flag of the reversed product
    and stratum of scratch, a point whose every value is computed afresh:
    equal as matrices, whatever the denominators of the forms."""
    assert point.factors == scratch.factors
    assert len(point._flags) == len(scratch._flags)
    for flag, other, factor in zip(point._flags, scratch._flags, point.factors):
        assert (flag._cols, flag._pivots) == (other._cols, other._pivots)
        assert flag.rep == factor
    assert (ratlin.fraction_matrix(twisted._product(point))
            == ratlin.fraction_matrix(twisted._product(scratch)))
    mine, fresh = twisted._reversed_flag(point), twisted._reversed_flag(scratch)
    assert (mine._cols, mine._pivots) == (fresh._cols, fresh._pivots)
    assert twisted.stratum(point) == twisted.stratum(scratch)


@pytest.mark.parametrize("check", [True, False])
def test_round_trip_from_the_chart_ends_at_its_source(check):
    """Identity (ii) on the whole point: phi_Z(phi_Z(z)) is z, and z's forms,
    flags, product, reversed-product flag and stratum are those of the
    round trip with nothing inherited, every factor eliminated and every
    inverse taken by int_inv.  On every stratum of k=3, n <= 2, seeded
    strata at k = 2, 4..8 and 16 with n <= 3, and the 20 strata of
    ``test_strata_at_k16``."""
    rng = random.Random(8642)
    strata = [*_differential_strata(), *sample_strata(16, 3, 20, random.Random(16))]
    for v, wbar in strata:
        dim = sum(w.length for w in wbar) - v.length
        z = twisted.parametrize_cell(v, wbar, twisted.random_params(dim, rng), check=check)
        image = twisted.phi_Z(z, check=check)
        assert image._source is z
        assert twisted.phi_Z(image, check=check) is z
        scratch = _phi_z_by_inverses(_phi_z_by_inverses(z))
        assert z._forms == scratch._forms
        _assert_same_point(z, scratch)
        assert twisted.stratum(image) == twisted.dual_stratum(v, wbar)
    assert len(strata) == 19 + 167 + 36 + 5 + 20


@pytest.mark.parametrize("check", [True, False])
def test_round_trip_of_other_points_builds_a_new_point(check):
    """phi_Z returns the source only when the first form it computes is the
    source's whole first form.  Otherwise it builds the point, with the
    values of phi_Z with nothing inherited: for a gauge-perturbed image,
    which keeps no source, and for a point whose kept source agrees with
    its computed first form in the first row only.  A point made by
    ``of_forms`` from doubled forms used to be a third case, closing its
    orbit on its first image; ``of_forms`` now keeps the forms in lowest
    terms, and its round trip ends at the point itself."""
    rng = random.Random(4321)
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    z = twisted.parametrize_cell(group.from_word((0,)), (w0, w0), twisted.random_params(5, rng))
    image = twisted.phi_Z(z, check=check)
    doubled = twisted.ZPoint.of_forms(
        [(tuple(tuple(2 * x for x in row) for row in m), 2 * d) for m, d in z._forms])
    assert doubled._forms == z._forms
    assert twisted.phi_Z(twisted.phi_Z(doubled, check=check), check=check) is doubled
    first = z._forms[0][0]
    other_first = (*first[:-1], tuple(a + b for a, b in zip(first[-1], first[0])))
    other = twisted.ZPoint.of_forms(((other_first, z._forms[0][1]), *z._forms[1:]))
    cases = [
        perturb_gauge(image, rng),
        twisted.ZPoint._of_parts(image._forms, image._flags, other),
    ]
    assert cases[1]._source is other
    for point in cases:
        out = twisted.phi_Z(point, check=check)
        assert out is not point._source and out._source is point
        _assert_same_point(out, _phi_z_by_inverses(point))
        assert twisted.phi_Z(out, check=check) is point


def _points_of_every_constructor(check):
    """(name, point) for each way a point is made: ZPoint(factors) with int
    and with Fraction entries, the chart, of_forms with forms scaled by 2 and
    by 6, from_json, double_bruhat_embed, and phi_Z images made through the
    chart's letters and through int_inv."""
    rng = random.Random(6060)
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    chart = twisted.parametrize_cell(group.from_word((0,)), (w0, w0),
                                     twisted.random_params(5, rng), check=check)
    ints = twisted.ZPoint([[[2, 1, 0], [1, 1, 0], [0, 3, 1]], [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]])
    fractions = twisted.ZPoint(tuple(_random_factor(3, rng) for _ in range(2)))
    yield "ZPoint of ints", ints
    yield "ZPoint of Fractions", fractions
    yield "chart", chart
    for c in (2, 6):
        yield f"of_forms times {c}", twisted.ZPoint.of_forms(
            [(tuple(tuple(c * x for x in row) for row in m), c * d) for m, d in chart._forms])
    yield "from_json", twisted.ZPoint.from_json(json.loads(json.dumps(fractions.to_json())))
    g = twisted.db_positive(3, (1, 2), (2, 1), [Fraction(1, 2), 2, 3, Fraction(5, 3)])
    yield "double_bruhat_embed", twisted.double_bruhat_embed(g)
    yield "image by letters", twisted.phi_Z(chart, check=check)
    yield "image by int_inv", twisted.phi_Z(fractions, check=check)


@pytest.mark.parametrize("check", [True, False])
def test_every_constructor_makes_lowest_terms_forms(check):
    """Lowest terms are an invariant of a point: whichever constructor made
    it, every form (m, d) has d > 0 and gcd(d, entries of m) = 1, so one
    matrix has one form, and the round trip of the point ends at the point
    itself, phi_Z(phi_Z(p)) is p.  An image ends its half of the round trip
    at its source, phi_Z(p) is p's source; the source keeps no image, so
    phi_Z of the source is a new point, equal to p form for form."""
    points = dict(_points_of_every_constructor(check))
    assert len(points) == 9
    assert points["image by letters"]._source._letters is not None
    assert points["image by int_inv"]._source._letters is None
    for name, point in points.items():
        for m, d in point._forms:
            assert d > 0 and gcd(d, *(x for row in m for x in row)) == 1, name
        if name.startswith("image"):
            source = twisted.phi_Z(point, check=check)
            assert source is point._source, name
            again = twisted.phi_Z(source, check=check)
            assert again._forms == point._forms and again == point, name
        else:
            assert twisted.phi_Z(twisted.phi_Z(point, check=check), check=check) is point, name
    for c in (2, 6):
        scaled = points[f"of_forms times {c}"]
        assert scaled._forms == points["chart"]._forms and scaled == points["chart"]


def test_gauge_eq_takes_equal_forms_without_elimination(monkeypatch):
    """Distinct points with equal forms, and a point and its round trip, which
    is the point itself, are gauge equal with no elimination and no alpha;
    a gauge-perturbed point and a point of another stratum still go through
    alpha, with the verdicts alpha gives."""
    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    rng = random.Random(77)
    z = twisted.parametrize_cell(group.from_word((0,)), (w0, w0), twisted.random_params(5, rng))
    other = twisted.parametrize_cell(group.identity, (w0, w0), twisted.random_params(6, rng))
    perturbed = perturb_gauge(z, rng)
    back = twisted.phi_Z(twisted.phi_Z(z))
    copies = [twisted.ZPoint(z.factors), twisted.ZPoint.of_forms(
        tuple((tuple(map(tuple, m)), d) for m, d in z._forms))]
    expected = {id(p): twisted.alpha(p) == twisted.alpha(z) for p in (perturbed, other)}
    assert expected == {id(perturbed): True, id(other): False}
    calls = {"alpha": 0, "_echelon": 0}
    for module, name in ((twisted, "alpha"), (slk, "_echelon")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    for copy in copies:
        assert copy is not z and copy._forms == z._forms
        assert twisted.gauge_eq(copy, z) and twisted.gauge_eq(z, copy)
    assert back is z and twisted.gauge_eq(back, z)
    assert calls == {"alpha": 0, "_echelon": 0}
    for point in (perturbed, other):
        assert twisted.gauge_eq(point, z) is expected[id(point)]
    assert calls["alpha"] == 4


def test_double_bruhat_embed_examples(S3):
    A1 = type_a_group(2)
    # identity: (id, w0dot) with factor labels e and w0
    z = twisted.double_bruhat_embed(ratlin.identity(3))
    v, wbar = twisted.stratum(z)
    assert [w.word for w in wbar] == [(), (0, 1, 0)]
    assert v == S3.from_word((0, 1, 0))
    assert (v, wbar) == twisted.db_stratum_convention(S3, S3.identity, S3.identity)
    # k = 2: y(a) x(b) lands in the recorded stratum for (s, s)
    g = twisted.db_positive(2, (1,), (1,), [Fraction(1), Fraction(2)])
    assert slk.is_tnn(g)
    assert slk.double_bruhat_labels(g) == ((2, 1), (2, 1))
    s = A1.simple(0)
    assert twisted.stratum(twisted.double_bruhat_embed(g)) == twisted.db_stratum_convention(
        A1, s, s
    )


def test_double_bruhat_embed_builds_w0dot_as_an_int_form():
    rng = random.Random(8)
    for k in range(2, 9):
        params = twisted.random_params(2 * k, rng)
        word = [(rng.choice("xy"), rng.randrange(k - 1), a) for a in params]
        g = slk.word_matrix(k, word)
        z = twisted.double_bruhat_embed(g)
        assert z._forms == (ratlin.int_form(g), ratlin.int_form(slk.w0_dot(k)))
        assert z == twisted.ZPoint((g, slk.w0_dot(k)))


def test_db_stratum_convention_on_all_of_s4_squared():
    """One exact positive sample per (v, w) in S4 x S4 lands in the recorded stratum."""
    rng = random.Random(44)
    group = type_a_group(4)
    elems = group.elements_up_to_length(6)
    assert len(elems) == 24
    for v, w in product(elems, repeat=2):
        params = twisted.random_params(v.length + w.length, rng)
        g = twisted.db_positive(
            4, [t + 1 for t in v.word], [t + 1 for t in w.word], params
        )
        got = twisted.stratum(twisted.double_bruhat_embed(g))
        assert got == twisted.db_stratum_convention(group, v, w), (v.word, w.word)


def test_db_positive_validation():
    with pytest.raises(ValueError):
        twisted.db_positive(2, (1,), (1,), [Fraction(1)])
    with pytest.raises(ValueError):
        twisted.db_positive(2, (1,), (1,), [Fraction(1), Fraction(-2)])
    # empty words still meet the size check; the identity is nonsingular, so
    # is_tnn decides it past K_MAX without reading a minor
    with pytest.raises(ValueError, match="^k must be >= 2$"):
        twisted.db_positive(1, (), (), [])
    big = slk.K_MAX + 1
    assert twisted.db_positive(big, (), (), []) == ratlin.identity(big)


def test_parameter_entry_points_read_int_string_and_fraction_alike(capsys):
    """parametrize_cell, slk.mr_matrix, db_positive and the cell command
    read their parameters through ``ratlin.positive_fractions``: int, "p/q"
    (decimals too) and Fraction parameters give the same points, 0 and
    negative ones of each kind are refused with one message, and a float,
    a bool, None, "1/0" or junk is refused with ValueError naming it (the
    command exits 2 with no traceback)."""
    from tnnflag import cli

    group = type_a_group(3)
    w0 = group.from_word((0, 1, 0))
    wbar = (w0, group.from_word((1,)))
    values = [Fraction(3), Fraction(1, 2), Fraction(5, 7), Fraction(4)]

    def entry_points(params):
        return (
            twisted.parametrize_cell(group.identity, wbar, params)._forms,
            slk.mr_matrix(3, (0, 1, 0), (None, None, None), params[:3]),
            twisted.db_positive(3, (1, 2), (2, 1), params),
        )

    def command(params):
        return cli.main(["cell", "--k", "3", "--n", "2", "--v", "e", "--w", "(1,2,1);(2)",
                         "--params=" + ",".join(map(str, params))])

    expected = entry_points(values)
    for params in ([3, "1/2", "5/7", 4], ["3", "2/4", Fraction(10, 14), "8/2"],
                   ["3.0", "0.5", "5/7", " 4 "]):
        assert entry_points(params) == expected
    assert command(["3", "0.5", "10/14", "4"]) == 0
    point = json.loads(capsys.readouterr().out)["points"][0]["point"]
    assert point == twisted.parametrize_cell(group.identity, wbar, values).to_json()

    def refused(params, message, typed=True):
        with pytest.raises(ValueError, match=message):
            twisted.parametrize_cell(group.identity, wbar, params)
        with pytest.raises(ValueError, match=message):
            slk.mr_matrix(3, (0, 1, 0), (None, None, None), params[:3])
        with pytest.raises(ValueError, match=message):
            twisted.db_positive(3, (1, 2), (2, 1), params)
        if typed:
            assert command(params) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    for bad in (0, "0", Fraction(0), "0/5", -1, "-1/2", Fraction(-3, 4), Fraction(1, -2)):
        refused([bad] + values[1:], "^parameters must be positive$")
    # typed on the command line, 1.5 is the decimal "1.5", read exactly as 3/2
    for bad in (1.5, True, None, "1/0", "abc"):
        refused([bad] + values[1:], f"^bad parameter {re.escape(repr(bad))}$", bad != 1.5)


def test_db_positive_matches_product_oracle():
    """Seeded double-Bruhat points against the product of y's, then x's."""
    rng = random.Random(41)
    for k in range(2, 6):
        group = type_a_group(k)
        elems = group.elements_up_to_length(k * (k - 1) // 2)
        for _ in range(4):
            v, w = rng.choice(elems), rng.choice(elems)
            params = twisted.random_params(v.length + w.length, rng)
            expected = oracles.word_product(
                k,
                [("y", j, p) for j, p in zip(w.word, params)]
                + [("x", i, p) for i, p in zip(v.word, params[w.length:])],
            )
            # db_positive takes 1-based letters
            v_word = [t + 1 for t in v.word]
            w_word = [t + 1 for t in w.word]
            assert twisted.db_positive(k, v_word, w_word, params) == expected


def generic_bounds(u, v, w):
    """Generic opposite/forward cells over a diagonal-orbit stratum.

    Returns (w circ_r u^{-1}, v * u): the labels of the dense pair of
    Schubert cells meeting the stratum indexed by (u, v, w).
    """
    group = u.group
    group.check_same(u, v, w)
    return group.circ_r(w, group.inverse(u)), group.demazure(v, u)


def test_generic_bounds(S3):
    e = S3.identity
    s1, s2 = S3.simple(0), S3.simple(1)
    w0 = S3.from_word((0, 1, 0))
    for v in S3.elements_up_to_length(3):
        for w in S3.elements_up_to_length(3):
            assert generic_bounds(e, v, w) == (w, v)
    assert generic_bounds(w0, e, w0) == (e, w0)
    # cross-check the defining brute-force min/max on all S3 triples
    for u in S3.elements_up_to_length(3):
        for v in S3.elements_up_to_length(3):
            for w in S3.elements_up_to_length(3):
                vp, wp = generic_bounds(u, v, w)
                assert vp == brute_circ_r(S3, w, S3.inverse(u))
                assert wp == brute_demazure(S3, v, u)


def test_zpoint_json_round_trip():
    z = twisted.ZPoint((oracles.y_gen(2, 0, Fraction(3, 2)), slk.sdot(2, 0)))
    assert twisted.ZPoint.from_json(z.to_json()) == z


@pytest.mark.parametrize("data, message", [
    ({"factors": [["12", "34"]]}, "^factors must be a list of matrices"),
    ({}, "^factors must be a list of matrices"),
    ({"factors": 5}, "^factors must be a list of matrices"),
    ({"factors": [[["1", None], ["0", "1"]]]}, "^factors must be a list of matrices"),
    ([[["1", "0"], ["0", "1"]]], "^factors must be a list of matrices"),
    ({"factors": [[["1", "1/0"], ["0", "1"]]]}, "^an entry has denominator 0$"),
], ids=["string-rows", "no-factors", "factors-not-a-list", "null-entry", "top-level-list",
        "zero-denominator"])
def test_zpoint_from_json_refuses_malformed_input(data, message):
    """Rows given as strings used to be read character by character, and the
    other inputs raised KeyError, TypeError or ZeroDivisionError; each is
    now a ValueError, which the command line reports as a usage error."""
    with pytest.raises(ValueError, match=message):
        twisted.ZPoint.from_json(data)


# -- properties over random points (hypothesis) --------------------------------

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def points(draw):
    """A point with random dense factors, or a positive point of a random
    stratum, k = 2..4 and n = 1..3, with a generator seeded for the test."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return twisted.ZPoint(tuple(_random_factor(k, rng) for _ in range(n))), rng
    group = type_a_group(k)
    wbar = tuple(
        group.from_word([rng.randrange(k - 1) for _ in range(rng.randint(0, k + 1))])
        for _ in range(n)
    )
    v = rng.choice(group.lower_interval(group.m_star(wbar)))
    dim = sum(w.length for w in wbar) - v.length
    return twisted.parametrize_cell(v, wbar, twisted.random_params(dim, rng)), rng


@PROPS
@given(points())
def test_flag_hash_agrees_with_equality(case):
    z, rng = case
    k = z.k
    g = ratlin.mat_mul(*z.factors)
    f = slk.FlagPoint(g)
    canonical = oracles.frac_echelon(g)[0]
    assert f.canonical() == canonical and f.rep == g
    assert f.cell == slk.bruhat_cell(g) == slk.bruhat_cell_by_elimination(g)
    fb = slk.FlagPoint(ratlin.mat_mul(g, random_gauge(k, rng)))
    assert fb == f and hash(fb) == hash(f) and fb.canonical() == canonical
    same_form = slk.FlagPoint.of_form(ratlin.int_form(g))
    assert same_form == f and hash(same_form) == hash(f) and same_form.rep == g
    step = slk.word_matrix(k, [(rng.choice("xy"), rng.randrange(k - 1), rng.randint(-3, 3))])
    h = ratlin.mat_mul(g, step)
    other = slk.FlagPoint(h)
    assert (other == f) is (oracles.frac_echelon(h)[0] == canonical)
    if other == f:
        assert hash(other) == hash(f)


@PROPS
@given(points())
def test_stratum_is_gauge_invariant(case):
    z, rng = case
    zp = perturb_gauge(z, rng)
    assert twisted.gauge_eq(z, zp)
    assert twisted.stratum(zp) == twisted.stratum(z)


@PROPS
@given(points())
def test_zpoint_json_round_trip_keeps_equality_hash_and_stratum(case):
    z, _ = case
    back = twisted.ZPoint.from_json(json.loads(json.dumps(z.to_json())))
    assert back == z and hash(back) == hash(z)
    assert twisted.stratum(back) == twisted.stratum(z)
