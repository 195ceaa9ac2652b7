"""Exact-matrix kernels: integer elimination against the Fraction oracles, and algebraic laws."""

import random
from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tnnflag import ratlin, slk


def rand_entry(rng):
    """A mixed int or Fraction entry; zero about a quarter of the time."""
    if rng.random() < 0.25:
        return rng.choice((0, Fraction(0)))
    num = rng.randint(-30, 30)
    if rng.random() < 0.3:
        return num
    den = rng.choice((rng.randint(1, 12), rng.randint(1, 10**6)))
    return Fraction(num, den)


def rand_matrix(rng, rows, cols):
    return tuple(tuple(rand_entry(rng) for _ in range(cols)) for _ in range(rows))


def degrade(rng, a):
    """a with a zero row, a zero column, or a row or column that is a combination of two others."""
    k = len(a)
    m = [list(row) for row in a]
    kind = rng.randrange(4)
    t = rng.randrange(k)
    if kind == 0:
        m[t] = [0] * k
    elif kind == 1:
        for row in m:
            row[t] = Fraction(0)
    elif k >= 3:
        i, j = rng.sample([r for r in range(k) if r != t], 2)
        s, u = rand_entry(rng), Fraction(rng.randint(-5, 5), rng.randint(1, 10**6))
        if kind == 2:
            m[t] = [s * x + u * y for x, y in zip(m[i], m[j])]
        else:
            for row in m:
                row[t] = s * row[i] + u * row[j]
    return tuple(tuple(row) for row in m)


def square_case(rng, k):
    a = rand_matrix(rng, k, k)
    return degrade(rng, a) if rng.random() < 0.35 else a


def outcome(f, a, error):
    try:
        return f(a)
    except error:
        return error


def test_integer_kernels_match_fraction_oracles():
    rng = random.Random(20261018)
    counts = {"singular": 0, "swap": 0, "non_square": 0}
    for case in range(2000):
        k = case % 8 + 1
        a = square_case(rng, k)
        d = ratlin.det(a)
        assert d == oracles.frac_det(a), a
        assert isinstance(d, Fraction)
        counts["singular"] += d == 0
        counts["swap"] += k >= 2 and a[0][0] == 0
        assert outcome(ratlin.mat_inv, a, ZeroDivisionError) == outcome(
            oracles.frac_mat_inv, a, ZeroDivisionError
        ), a
        expected = outcome(oracles.frac_echelon, a, ValueError)
        if expected is ValueError:
            with pytest.raises(ValueError):
                slk._echelon(ratlin.int_form(a)[0])
        else:
            canonical, pivots = expected
            assert slk._echelon(ratlin.int_form(a)[0])[1] == pivots
            assert slk.FlagPoint(a).canonical() == canonical, a

        dims = [rng.randint(1, 8) for _ in range(rng.randint(2, 5))]
        chain = [rand_matrix(rng, r, c) for r, c in zip(dims, dims[1:])]
        assert ratlin.mat_mul(*chain) == oracles.frac_mat_mul(*chain)
        counts["non_square"] += len(set(dims)) > 1
    # the cases reach every branch: row swaps, singular input, non-square chains
    assert counts["singular"] > 300 and counts["swap"] > 200 and counts["non_square"] > 1500


def test_shapes_are_checked():
    """det of a 2x3 matrix used to return -3."""
    wide = ((1, 2, 3), (4, 5, 6))
    with pytest.raises(ValueError, match="square"):
        ratlin.det(wide)
    with pytest.raises(ValueError, match="square"):
        ratlin.mat_inv(wide)
    with pytest.raises(ValueError, match="lengths"):
        ratlin.det(((1, 2), (3,)))
    with pytest.raises(ValueError, match="cannot multiply"):
        ratlin.mat_mul(wide, wide)
    assert ratlin.mat_mul(wide, tuple(zip(*wide))) == ((14, 32), (32, 77))


def test_integer_forms():
    """int_form clears one denominator; fractions and reduced invert and normalize it."""
    a = ((Fraction(1, 2), Fraction(2, 3)), (Fraction(0), Fraction(-5, 6)))
    form = ratlin.int_form(a)
    assert form == (((3, 4), (0, -5)), 6)
    assert ratlin.fraction_matrix(form) == a
    assert ratlin.reduced((((2, 4), (0, -6)), 4)) == (((1, 2), (0, -3)), 2)
    assert ratlin.int_form(((1, 2), (3, 4))) == (((1, 2), (3, 4)), 1)
    m, d = ratlin.int_inv(form)
    assert d > 0 and ratlin.fraction_matrix((m, d)) == ratlin.mat_inv(a) == oracles.frac_mat_inv(a)
    with pytest.raises(ZeroDivisionError):
        ratlin.int_inv((((1, 2), (2, 4)), 1))


def test_int_form_keeps_an_int_matrix():
    """A tuple of int tuples is its own form; other input is rebuilt over the lcm."""
    a = ((1, -2, 0), (3, 4, 5))
    m, d = ratlin.int_form(a)
    assert m is a and d == 1
    square = ((2, 0), (0, 3))
    assert ratlin.int_form(square, square=True)[0] is square
    for other in (
        [[1, 2], [3, 4]],
        ([1, 2], [3, 4]),
        ((True, False), (False, True)),
        ((Fraction(3, 1), 2), (0, 1)),
    ):
        m, d = ratlin.int_form(other)
        assert d == 1 and m is not other
        assert type(m) is tuple and all(type(row) is tuple for row in m)
        assert all(type(x) is int for row in m for x in row)
        assert m == tuple(tuple(int(x) for x in row) for row in other)
    with pytest.raises(ValueError, match="lengths"):
        ratlin.int_form(((1, 2), (3, 4), (5,)))
    with pytest.raises(ValueError, match="lengths"):
        ratlin.int_form(((1, 2), (3, 4), (5, Fraction(1, 2), 6)), square=True)
    with pytest.raises(ValueError, match="square"):
        ratlin.int_form(((1, 2, 3), (4, 5, 6)), square=True)


def test_int_form_matches_the_scan_oracle():
    """The C-level passes of int_form give the same form, or the same
    refusal, as the Python-level scans they replaced."""
    rng = random.Random(39)
    cases = [
        (), ((),), ((1, 2), (3, 4)), ((1, 2, 3), (4, 5, 6)), ([1, 2], [3, 4]), [[1, 2], [3, 4]],
        [(1, 2), (3, 4)], ((True, False), (False, True)), ((Fraction(3, 1), 2), (0, 1)),
        ((Fraction(1, 2), 2), (0, Fraction(-5, 6))), ((1, 2), (3, 4), (5,)), ((1,), (2, 3)),
        ((1, 2), [3, 4]), ((1, 2), (3, Fraction(1, 3), 4)), ((1, 2, 3),), ((1,), (2,)),
    ]
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        if rng.random() < 0.3:
            a = tuple(tuple(x.numerator if isinstance(x, Fraction) else x for x in row)
                      for row in a)
        if rng.random() < 0.2:
            a = tuple(list(row) for row in a)
        if rng.random() < 0.2:
            a = a[:-1] + (a[-1][:-1],) if cols > 1 else a + ((1, 2),)
        cases.append(a)
    def form_or_message(int_form, a, square):
        try:
            return int_form(a, square=square)
        except ValueError as error:
            return str(error)

    refused = kept = 0
    for a in cases:
        for square in (False, True):
            got = form_or_message(ratlin.int_form, a, square)
            assert got == form_or_message(oracles.int_form_by_scan, a, square), (a, square)
            if isinstance(got, str):
                refused += 1
                continue
            m, d = got
            assert type(m) is tuple and all(type(row) is tuple for row in m)
            assert set(type(x) for row in m for x in row) <= {int}
            kept += m is a
    # both refusals, ragged and non-square, and the int matrix kept as it is, are reached
    assert refused > 100 and kept > 50


BIG = 10**12
# numerators and denominators up to 10^12, and small ints, zero included
ENTRIES = st.one_of(
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)), st.integers(-3, 3)
)


def matrices(rows, cols):
    return st.lists(
        st.lists(ENTRIES, min_size=cols, max_size=cols).map(tuple), min_size=rows, max_size=rows
    ).map(tuple)


@st.composite
def square_pair(draw):
    k = draw(st.integers(1, 5))
    return draw(matrices(k, k)), draw(matrices(k, k))


@st.composite
def chain_of_three(draw):
    d = [draw(st.integers(1, 4)) for _ in range(4)]
    return tuple(draw(matrices(r, c)) for r, c in zip(d, d[1:]))


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(square_pair())
def test_det_is_multiplicative(pair):
    a, b = pair
    assert ratlin.det(ratlin.mat_mul(a, b)) == ratlin.det(a) * ratlin.det(b)


@SETTINGS
@given(square_pair())
def test_inverse_is_two_sided(pair):
    a = pair[0]
    assume(ratlin.det(a) != 0)
    inv = ratlin.mat_inv(a)
    one = ratlin.identity(len(a))
    assert ratlin.mat_mul(a, inv) == one
    assert ratlin.mat_mul(inv, a) == one


@SETTINGS
@given(chain_of_three())
def test_mat_mul_is_associative(chain):
    a, b, c = chain
    whole = ratlin.mat_mul(a, b, c)
    assert ratlin.mat_mul(ratlin.mat_mul(a, b), c) == whole
    assert ratlin.mat_mul(a, ratlin.mat_mul(b, c)) == whole


@SETTINGS
@given(square_pair())
def test_det_of_transpose(pair):
    a = pair[0]
    assert ratlin.det(tuple(zip(*a))) == ratlin.det(a)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(lambda c: matrices(r, c))))
def test_int_form_round_trips_through_fractions(a):
    """Both paths of int_form give int tuples over the lcm, in lowest terms."""
    form = ratlin.int_form(a)
    m, d = form
    assert d > 0 and ratlin.fraction_matrix(form) == a
    assert all(type(x) is int for row in m for x in row)
    assert ratlin.reduced(form) == form
