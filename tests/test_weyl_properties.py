"""Group laws of the Weyl layer on random words, with hypothesis.

Over A3, B3, C3, D4, affine A2 and the thickening of A2 for two factors:
chamber and co-chamber vectors, descents, canonical words, products and
inverses against the geometric-matrix oracle of ``oracles`` (full
products of reflection matrices built from the GCM alone), the
simple-reflection updates of both vectors, canonical words in fresh
groups built in random order against stripping to the identity past
interned elements, g * g^{-1} = I on the oracle and u u^{-1} = e in the
group, associativity of the product and of the Demazure product, the
uniqueness of positive subexpressions in random reduced words, and the
from_perm / perm_of bridge in type A.  The from_perm, Demazure and
product memos are driven past a small cap.
"""
from functools import cache

import oracles
import pytest
from oracles import column_sums, frac_mat_mul, geometric_matrices
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflag import weyl
from tnnflag.cartan import cartan_of_type
from tnnflag.weyl import (
    WeylGroup,
    from_perm,
    is_positive_subexpression,
    perm_of,
    type_a_group,
)

NAMES = ("A3", "B3", "C3", "D4", "affine-A2", "A2 thickened n=2")


def fresh_group(name):
    if name == "A2 thickened n=2":
        return WeylGroup(cartan_of_type("A", 2)).thickened(2)
    family, rank = name[:-1], int(name[-1])
    return WeylGroup(cartan_of_type(family, rank))


group = cache(fresh_group)


@st.composite
def words(draw, count):
    g = group(draw(st.sampled_from(NAMES)))
    letters = st.integers(0, g.rank - 1)
    return g, [draw(st.lists(letters, max_size=10)) for _ in range(count)]


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def left_descents(g, u):
    return {i for i in range(g.rank) if g.has_left_descent(u, i)}


def right_descents(g, u):
    return {i for i in range(g.rank) if g.has_right_descent(u, i)}


def assert_matches_oracle(g, u, mat, inv):
    """u is the element with geometric matrix mat and inverse inv."""
    assert (u.chamber, u.co_chamber) == (column_sums(inv), column_sums(mat))
    assert u.word == oracles.canonical_word(g.gcm, mat, inv)


@SETTINGS
@given(words(2))
def test_chamber_vectors_match_the_geometric_oracle(case):
    """The chamber vector of a word's product is the column sums of the
    oracle's inverse matrix, the co-chamber vector those of its matrix;
    the descents are the negative columns, and the canonical word,
    products and inverses agree with full matrix products."""
    g, (word, other) = case
    u, v = g.from_word(word), g.from_word(other)
    mat, inv = geometric_matrices(g.gcm, word)
    v_mat, v_inv = geometric_matrices(g.gcm, other)
    assert_matches_oracle(g, u, mat, inv)
    assert left_descents(g, u) == oracles.negative_columns(inv)
    assert right_descents(g, u) == oracles.negative_columns(mat)
    assert_matches_oracle(g, g.multiply(u, v), frac_mat_mul(mat, v_mat), frac_mat_mul(v_inv, inv))
    assert_matches_oracle(g, g.multiply(v, u), frac_mat_mul(v_mat, mat), frac_mat_mul(inv, v_inv))
    assert_matches_oracle(g, g.inverse(u), inv, mat)


@SETTINGS
@given(words(1))
def test_simple_reflection_updates_match_full_products(case):
    g, (word,) = case
    u = g.from_word(word)
    mat, inv = geometric_matrices(g.gcm, word)
    assert_matches_oracle(g, u, mat, inv)
    for i, s in enumerate(oracles.geometric_reflections(g.gcm)):
        # s_i acts on the chamber vector from the left, on the co-chamber vector from the right
        assert g._act((i,), u.chamber) == column_sums(frac_mat_mul(inv, s))
        assert g._act((i,), u.co_chamber) == column_sums(frac_mat_mul(mat, s))
        right = g.multiply(u, g.simple(i))
        assert_matches_oracle(g, right, frac_mat_mul(mat, s), frac_mat_mul(s, inv))
        left = g.multiply(g.simple(i), u)
        assert_matches_oracle(g, left, frac_mat_mul(s, mat), frac_mat_mul(inv, s))


@st.composite
def fresh_builds(draw):
    """A fresh group and words to build in it, in the order drawn."""
    g = fresh_group(draw(st.sampled_from(("A3", "B3", "affine-A2", "A2 thickened n=2"))))
    letters = st.integers(0, g.rank - 1)
    return g, draw(st.lists(st.lists(letters, max_size=10), min_size=1, max_size=6))


@SETTINGS
@given(fresh_builds())
def test_canonical_words_match_full_stripping(case):
    """Stripping on the chamber vector gives the word that stripping the
    geometric matrices to the identity gives, for every element interned
    while words, their products with the previous element and their
    inverses are built in random order in a fresh group."""
    g, word_list = case
    prev, prev_word, built = g.identity, [], []
    for word in word_list:
        u = g.from_word(word)
        built += [(u, word), (g.multiply(prev, u), prev_word + word), (g.inverse(u), word[::-1])]
        prev, prev_word = u, word
    for elt, word in built:
        assert elt.chamber == column_sums(geometric_matrices(g.gcm, word)[1])
    for elt in g._elts.values():
        assert_matches_oracle(g, elt, *geometric_matrices(g.gcm, elt.word))


@SETTINGS
@given(words(1))
def test_geom_times_inverse_is_identity(case):
    g, (word,) = case
    u = g.from_word(word)
    mat, inv = geometric_matrices(g.gcm, word)
    assert frac_mat_mul(mat, inv) == frac_mat_mul(inv, mat) == geometric_matrices(g.gcm, ())[0]
    assert (g.inverse(u).chamber, g.inverse(u).co_chamber) == (u.co_chamber, u.chamber)
    assert g.inverse(g.inverse(u)) is u
    assert g.multiply(u, g.inverse(u)) is g.identity is g.multiply(g.inverse(u), u)


@SETTINGS
@given(words(3))
def test_product_and_demazure_product_are_associative(case):
    g, word_list = case
    u, v, w = (g.from_word(word) for word in word_list)
    assert g.multiply(g.multiply(u, v), w) is g.multiply(u, g.multiply(v, w))
    assert g.multiply(u, v) is g.from_word(word_list[0] + word_list[1])
    assert g.demazure(g.demazure(u, v), w) is g.demazure(u, g.demazure(v, w))


@st.composite
def reduced_words(draw, max_len):
    """A group and a reduced word in it: random letters, each kept only
    when it raises the length."""
    g = group(draw(st.sampled_from(NAMES)))
    u, word = g.identity, []
    for t in draw(st.lists(st.integers(0, g.rank - 1), max_size=3 * max_len)):
        if len(word) < max_len and not g.has_right_descent(u, t):
            u = g.multiply(u, g.simple(t))
            word.append(t)
    return g, tuple(word)


@SETTINGS
@given(reduced_words(8))
def test_positive_subexpression_unique(case):
    """Every v below a reduced word has exactly one positive subexpression,
    the one ``positive_subexpression`` returns: all 2^L subexpressions are
    filtered by ``is_positive_subexpression`` and grouped by product."""
    g, word = case
    positive: dict = {}
    for mask in range(1 << len(word)):
        sub = tuple(t if mask >> i & 1 else None for i, t in enumerate(word))
        v = g.from_word(sub)
        positive.setdefault(v, [])
        if is_positive_subexpression(g, word, sub):
            positive[v].append(sub)
    for v, subs in positive.items():
        assert subs == [g.positive_subexpression(v, word)]


@SETTINGS
@given(st.integers(2, 6).flatmap(lambda k: st.permutations(range(1, k + 1))))
def test_from_perm_round_trips_through_perm_of(p):
    g = type_a_group(len(p))
    w = from_perm(g, p)
    assert perm_of(w) == tuple(p)
    assert from_perm(g, perm_of(w)) is w is from_perm(g, list(p))
    assert g.from_word(w.word) is w and w.length == len(w.word)


def test_from_perm_cache_clears_and_still_rejects(monkeypatch):
    monkeypatch.setattr(weyl, "_CACHE_CAP", 3)
    g = WeylGroup(cartan_of_type("A", 2))
    perms = [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1), (3, 1, 2)]
    for _ in range(2):
        for p in perms:
            assert perm_of(from_perm(g, p)) == p
            assert len(g._perm_cache) <= 4
    for bad in ((1, 1, 3), (1, 2), (0, 1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            from_perm(g, bad)


def test_demazure_cache_clears_and_still_matches_the_greedy_walk(monkeypatch):
    monkeypatch.setattr(weyl, "_CACHE_CAP", 3)
    g = WeylGroup(cartan_of_type("A", 2))
    elts = g.elements_up_to_length(3)

    def greedy(x, y):
        u = x
        for t in y.word:
            if not g.has_right_descent(u, t):
                u = g.multiply(u, g.simple(t))
        return u

    sizes = []
    for _ in range(2):
        for x in elts:
            for y in elts:
                assert g.demazure(x, y) is greedy(x, y)
                sizes.append(len(g._demazure_cache))
    assert max(sizes) <= 4 and sizes.count(1) > 1  # cleared, and more than once
    # a call adds at most one entry, so every drop in size is one clear
    drops = sum(after < before for before, after in zip(sizes, sizes[1:]))
    assert g.cache_stats()["demazure"] == {"size": sizes[-1], "clears": drops}


def test_multiply_cache_clears_and_still_multiplies(monkeypatch):
    g = WeylGroup(cartan_of_type("A", 2))
    elts = g.elements_up_to_length(3)
    assert g.cache_stats()["mul"]["clears"] == 0  # the real cap is far off
    inverses = {x: geometric_matrices(g.gcm, x.word)[1] for x in elts}
    monkeypatch.setattr(weyl, "_CACHE_CAP", 3)
    for _ in range(2):
        for x in elts:
            for y in elts:
                assert g.multiply(x, y).chamber == column_sums(frac_mat_mul(inverses[y], inverses[x]))
                assert len(g._mul_cache) <= 4
    stats = g.cache_stats()
    # 72 misses: the first clears the 6 products left by the walk above,
    # then every fourth finds 4 entries and clears them
    assert stats["mul"]["clears"] == 1 + 71 // 4
    assert stats["mul"]["size"] == len(g._mul_cache)
    assert set(stats) == {"mul", "bruhat", "lower", "cover", "demazure", "perm", "plan"}
