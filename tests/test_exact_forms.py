"""The integer forms of the exact layer against the Fraction oracles.

Seeded points with k = 2..8 and n = 1..3: word products, strata, alpha,
gauge equality and the duality map against ``tests/oracles.py``, and
the fraction-free Neville elimination against the Fraction one on
singular input and on rows whose pivots come out negative or zero.
"""

import random
from fractions import Fraction

import oracles
import pytest

from tnnflag import ratlin, slk, twisted
from tnnflag.weyl import perm_of


def rand_param(rng):
    """Zero, negative or positive, with a denominator up to 20 or up to 10^6."""
    u = rng.random()
    if u < 0.1:
        return 0
    den = rng.randint(1, 20) if rng.random() < 0.7 else rng.randint(1, 10**6)
    num = rng.randint(1, 30) * (-1 if u < 0.3 else 1)
    return Fraction(num, den)


def rand_word(k, rng, length):
    return [
        ("s", i, None) if kind == "s" else (kind, i, rand_param(rng))
        for kind, i in ((rng.choice("xxyys"), rng.randint(0, k - 2)) for _ in range(length))
    ]


def rand_point(k, n, rng):
    return twisted.ZPoint(tuple(
        slk.word_matrix(k, rand_word(k, rng, rng.randint(1, 2 * k))) for _ in range(n)
    ))


def gauged(z, rng):
    """(g_1 b_1, b_1^{-1} g_2 b_2, ...) with b_i upper triangular, by Fraction products."""
    k = z.k
    out, prev_inv = [], ratlin.identity(k)
    for g in z.factors:
        b = tuple(
            tuple(rand_param(rng) or Fraction(1) if r == c else rand_param(rng) if r < c else 0
                  for c in range(k))
            for r in range(k)
        )
        out.append(oracles.frac_mat_mul(prev_inv, g, b))
        prev_inv = oracles.frac_mat_inv(b)
    return twisted.ZPoint(tuple(out))


CASES = [(k, n) for k in range(2, 9) for n in (1, 2, 3)]


@pytest.mark.parametrize("k,n", CASES)
def test_twisted_layer_matches_fraction_oracles(k, n):
    rng = random.Random(1000 * k + n)
    for _ in range(4):
        word = rand_word(k, rng, rng.randint(0, 3 * k))
        assert slk.word_matrix(k, word) == oracles.word_product(k, word)
        assert ratlin.fraction_matrix(slk.word_form(k, word)) == oracles.word_product(k, word)

        z = rand_point(k, n, rng)
        assert tuple(ratlin.fraction_matrix(f) for f in z._forms) == z.factors
        v, wbar = twisted.stratum(z)
        assert (perm_of(v), tuple(perm_of(w) for w in wbar)) == oracles.frac_stratum(z)
        assert tuple(f.canonical() for f in twisted.alpha(z)) == oracles.frac_alpha(z)
        image = twisted.phi_Z(z, check=True)
        assert image.factors == oracles.frac_phi_Z(z)
        assert tuple(ratlin.fraction_matrix(f) for f in image._forms) == image.factors

        same = gauged(z, rng)
        assert twisted.gauge_eq(same, z) and oracles.gauge_eq_by_inverse(same, z)
        assert twisted.stratum(same) == (v, wbar)
        # move the last factor by a lower or upper generator: a different
        # gauge class unless the generator lies in B+
        i = rng.randint(0, k - 2)
        step = slk.word_matrix(k, [(rng.choice("xy"), i, rand_param(rng) or 1)])
        moved = twisted.ZPoint(z.factors[:-1] + (ratlin.mat_mul(z.factors[-1], step),))
        assert twisted.gauge_eq(moved, z) == oracles.gauge_eq_by_inverse(moved, z)


def rand_small_matrix(k, rng):
    """Entries in -2..3 with many zeros, a repeated row now and then (singular)."""
    m = [[rng.choice((0, 0, 0, 1, 1, 2, 3, -1, -2)) for _ in range(k)] for _ in range(k)]
    if rng.random() < 0.2:
        m[rng.randrange(k)] = list(m[rng.randrange(k)])
    return tuple(tuple(row) for row in m)


def rand_tnn_like(k, rng):
    """A positive generator word with rows scaled by positive, zero or negative factors."""
    word = [(rng.choice("xy"), rng.randint(0, k - 2), rand_param(rng)) for _ in range(k * k)]
    scale = [rng.choice((1, 1, 1, 2, Fraction(1, 3), 0, -1)) for _ in range(k)]
    g = slk.word_matrix(k, [(kind, i, abs(a)) for kind, i, a in word])
    return tuple(tuple(c * x for x in row) for c, row in zip(scale, g))


def sign(x):
    return (x > 0) - (x < 0)


def test_neville_pivots_match_fraction_oracle():
    rng = random.Random(61)
    seen = {"failed": 0, "negative": 0, "zero": 0, "positive": 0}
    singular = tnn = singular_tnn = 0
    for case in range(1600):
        k = case % 4 + 2
        g = rand_small_matrix(k, rng) if case % 2 else rand_tnn_like(k, rng)
        m = ratlin.int_form(g)[0]
        expected = oracles.frac_neville_pivots(g)
        got = slk._neville_pivots(m)
        if expected is None:
            assert got is None, g
            seen["failed"] += 1
        else:
            assert [sign(p) for p in got] == [sign(p) for p in expected], g
            seen["negative"] += any(p < 0 for p in expected)
            seen["zero"] += any(p == 0 for p in expected)
            seen["positive"] += all(p > 0 for p in expected)
        verdict = oracles.is_tnn_by_minors(g)
        assert slk.is_tnn(g) == verdict, g
        assert slk.is_tnn(m) == verdict, g
        is_singular = ratlin.int_det(m) == 0
        singular += is_singular
        tnn += verdict
        singular_tnn += is_singular and verdict
    # every branch is reached, singular TNN input included
    assert min(seen.values()) > 50, seen
    assert singular > 300 and tnn > 300 and singular_tnn > 100
