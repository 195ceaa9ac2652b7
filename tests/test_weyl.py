"""Group arithmetic, Bruhat order, Demazure calculus, positive subexpressions.

Oracles: the subword criterion for the Bruhat order, exhaustive max/min for
the monoid products, and full subexpression enumeration for positivity.
"""

import random
from itertools import permutations, product

import pytest

from oracles import (all_reduced_words, bruhat_by_subwords, canonical_words_by_lookup,
                     perm_by_swaps, positive_tuple_by_thickening)
from tnnflag import weyl
from tnnflag.cartan import cartan_of_type
from tnnflag.verify import brute_circ_r, brute_demazure, iter_qnodes
from tnnflag.weyl import (
    ContextMismatchError,
    WeylGroup,
    from_perm,
    i_embed,
    is_positive_subexpression,
    perm_of,
    positive_tuple,
    th_element,
    th_word,
    type_a_group,
)


def test_group_laws(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    assert A2.multiply(s1, s1) is A2.identity
    w = A2.multiply(s1, s2)
    assert w.length == 2 and w.word == (0, 1)
    assert A2.multiply(s1, A2.multiply(s2, s1)) == A2.multiply(s2, A2.multiply(s1, s2))
    assert A2.multiply(w, A2.inverse(w)) is A2.identity


def test_context_mismatch(A1, A2):
    with pytest.raises(ContextMismatchError):
        A2.multiply(A2.simple(0), A1.simple(0))


def test_interned_elements_compare_by_identity(A2):
    """Every route to an element gives the same object, which is what
    compares and hashes; the same word in another group is another element."""
    s1, s2 = A2.simple(0), A2.simple(1)
    w = A2.from_word((0, 1, 0))
    forms = (A2.multiply(A2.multiply(s1, s2), s1), A2.multiply(s2, A2.multiply(s1, s2)),
             A2.inverse(A2.inverse(w)), A2.inverse(w))  # w0 is an involution
    assert all(u is w for u in forms)
    found = {w: "w0"}
    assert [found.get(u) for u in forms] == ["w0"] * len(forms)
    other = WeylGroup(cartan_of_type("A", 2))
    foreign = other.from_word((0, 1, 0))
    assert (foreign.chamber, foreign.co_chamber, foreign.word) == (w.chamber, w.co_chamber, w.word)
    assert foreign != w and foreign not in found
    for call in (lambda: A2.multiply(w, foreign), lambda: A2.multiply(foreign, w),
                 lambda: A2.bruhat_leq(foreign, w), lambda: A2.bruhat_leq(s1, foreign),
                 lambda: A2.demazure(w, foreign), lambda: A2.demazure(foreign, s1),
                 lambda: A2.lower_interval(foreign), lambda: A2.lower_covers(foreign)):
        with pytest.raises(ContextMismatchError):
            call()


def _left_descents(group, w):
    return {i for i in range(group.rank) if group.has_left_descent(w, i)}


def test_left_descents(A1, A2):
    assert _left_descents(A2, A2.identity) == set()
    w = A2.multiply(A2.simple(0), A2.simple(1))  # s1 s2
    assert _left_descents(A2, w) == {0}
    # thickened A1 is the infinite dihedral group
    T = A1.thickened(2)
    w = T.from_word((0, 1, 0))
    assert _left_descents(T, w) == {0}
    # cross-validate the sign criterion against BFS lengths up to 4
    lengths = {e: e.length for e in T.elements_up_to_length(4)}
    for i in (0, 1):
        shorter = lengths[T.multiply(T.simple(i), w)] < w.length
        assert shorter == (i in _left_descents(T, w))


def test_bruhat_examples(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    s2s1 = A2.multiply(s2, s1)
    for w in A2.elements_up_to_length(3):
        assert A2.bruhat_leq(A2.identity, w)
    assert A2.bruhat_leq(s1, s2s1)
    assert not A2.bruhat_leq(A2.multiply(s1, s2), s2s1)


def test_bruhat_matches_subword_oracle(S4):
    elems = S4.elements_up_to_length(6)
    for v in elems:
        for w in elems:
            assert S4.bruhat_leq(v, w) == bruhat_by_subwords(S4, v, w)


def test_demazure_rules(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    assert A2.demazure(s1, s1) is s1
    assert A2.demazure(s1, s2) == A2.multiply(s1, s2)
    w0 = A2.from_word((0, 1, 0))
    assert A2.m_star([A2.multiply(s1, s2), A2.multiply(s2, s1)]) == w0


def test_demazure_circ_oracles_s3(S3):
    elems = S3.elements_up_to_length(3)
    for x in elems:
        for y in elems:
            assert S3.demazure(x, y) == brute_demazure(S3, x, y)
            assert S3.circ_r(x, y) == brute_circ_r(S3, x, y)


def test_demazure_associative(S3, S4):
    elems = S3.elements_up_to_length(3)
    for x in elems:
        for y in elems:
            for z in elems:
                assert S3.demazure(S3.demazure(x, y), z) == S3.demazure(x, S3.demazure(y, z))
    rng = random.Random(11)
    big = S4.elements_up_to_length(6)
    for _ in range(200):
        x, y, z = (rng.choice(big) for _ in range(3))
        assert S4.demazure(S4.demazure(x, y), z) == S4.demazure(x, S4.demazure(y, z))


def test_circ_r_examples(A2):
    s1 = A2.simple(0)
    w0 = A2.from_word((0, 1, 0))
    assert A2.circ_r(w0, A2.identity) is w0
    assert A2.circ_r(w0, s1) == A2.from_word((0, 1))
    for x in A2.elements_up_to_length(3):
        assert A2.circ_r(A2.identity, x) is A2.identity


def test_positive_subexpression_examples(A2):
    s1 = A2.simple(0)
    w0_word = (0, 1, 0)
    assert A2.positive_subexpression(s1, w0_word) == (None, None, 0)
    assert A2.positive_subexpression(A2.identity, w0_word) == (None, None, None)
    full = A2.positive_subexpression(A2.from_word(w0_word), w0_word)
    assert full == w0_word
    with pytest.raises(ValueError):
        # s2 s1 is not below the word (0, 1) = s1 s2
        A2.positive_subexpression(A2.from_word((1, 0)), (0, 1))


def test_positive_subexpression_unique_s3(S3):
    for w in S3.elements_up_to_length(3):
        word = w.word
        for v in S3.lower_interval(w):
            greedy = S3.positive_subexpression(v, word)
            matches = []
            for mask in range(1 << len(word)):
                sub = tuple(word[i] if mask & (1 << i) else None for i in range(len(word)))
                if S3.from_word(t for t in sub if t is not None) != v:
                    continue
                if is_positive_subexpression(S3, word, sub):
                    matches.append(sub)
            assert matches == [greedy]


def _tuple_is_positive(group, vbar, wbar):
    """Brute-force version of the positivity definition for tuples."""
    n = len(vbar)
    for i in range(1, n + 1):
        target = group.m_bullet(vbar[:i])
        pools = [group.lower_interval(vbar[j]) for j in range(i - 1)]
        pools.append(group.lower_interval(wbar[i - 1]))
        for cand in product(*pools):
            if group.m_bullet(cand) == target and tuple(cand) != tuple(vbar[:i]):
                return False
    return True


def test_positive_tuple_examples(A1, A2):
    e, s = A1.identity, A1.simple(0)
    assert positive_tuple(s, (s,)) == (s,)
    assert positive_tuple(s, (s, s)) == (e, s)
    assert _tuple_is_positive(A1, (e, s), (s, s))
    assert not _tuple_is_positive(A1, (s, e), (s, s))
    # A2 cross-check by exhausting factorizations below the factors
    s1, s2 = A2.simple(0), A2.simple(1)
    v = A2.multiply(s1, s2)
    wbar = (A2.multiply(s1, s2), A2.multiply(s2, s1))
    got = positive_tuple(v, wbar)
    candidates = [
        (a, b)
        for a in A2.lower_interval(wbar[0])
        for b in A2.lower_interval(wbar[1])
        if A2.m_bullet((a, b)) == v and _tuple_is_positive(A2, (a, b), wbar)
    ]
    assert candidates == [got]
    with pytest.raises(ValueError):
        positive_tuple(A2.from_word((0, 1, 0)), (s1, s1))


def test_positive_tuple_exhaustive_a2(A2):
    """Uniqueness of the positive factorization over all small tuples."""
    elems = A2.elements_up_to_length(3)
    rng = random.Random(5)
    pairs = [(a, b) for a in elems for b in elems]
    for wbar in rng.sample(pairs, 12):
        for v in A2.lower_interval(A2.m_star(wbar)):
            got = positive_tuple(v, wbar)
            assert A2.m_bullet(got) == v
            assert _tuple_is_positive(A2, got, wbar)


# (family, rank, n, factor-length cap, labels): the infinite groups are capped
POSITIVE_TUPLE_FAMILIES = [
    ("A", 2, 3, None, 1167), ("A", 3, 2, None, 9697), ("B", 2, 2, None, 401),
    ("affine-A", 1, 2, 4, 657), ("affine-A", 2, 2, 3, 4753), ("D", 4, 1, None, 9817),
    ("B", 3, 1, None, 847),
]


@pytest.mark.parametrize("family,rank,n,cap,count", POSITIVE_TUPLE_FAMILIES)
def test_positive_tuple_matches_thickened_route(family, rank, n, cap, count):
    """The base-group greedy against the positive subexpression in the
    thickened group, on every label of the family."""
    group = WeylGroup(cartan_of_type(family, rank))
    labels = 0
    for q in iter_qnodes(group, n, cap):
        labels += 1
        assert positive_tuple(q.v, q.wbar) == positive_tuple_by_thickening(q.v, q.wbar), q
    assert labels == count


def test_positive_tuple_refuses_what_the_thickened_route_refuses(A2):
    elems = A2.elements_up_to_length(3)
    refused = 0
    for wbar in product(elems, repeat=2):
        for v in elems:
            try:
                want = positive_tuple_by_thickening(v, wbar)
            except ValueError:
                refused += 1
                with pytest.raises(ValueError, match="not below the Demazure product"):
                    positive_tuple(v, wbar)
            else:
                assert positive_tuple(v, wbar) == want
    assert refused > 0


@pytest.mark.parametrize("family,rank,n,cap,count", POSITIVE_TUPLE_FAMILIES)
def test_the_cut_greedy_gives_each_factors_positive_subexpression(family, rank, n, cap, count):
    """One greedy over the concatenated words, cut at the factor boundaries,
    against independent routes, on sampled labels with up to three reduced
    words per factor: each piece is positive in its own word, the products
    are the thickened route's tuple, and on a word of length <= 6 the piece
    is the only positive subexpression for its product (all 2^L subwords)."""
    group = WeylGroup(cartan_of_type(family, rank))
    rng = random.Random(43)
    reduced_words: dict = {}
    labels = list(iter_qnodes(group, n, cap))
    for q in rng.sample(labels, min(len(labels), 300)):
        for w in q.wbar:
            if w not in reduced_words:
                reduced_words[w] = all_reduced_words(group, w)
        choices = [rng.sample(reduced_words[w], min(3, len(reduced_words[w]))) for w in q.wbar]
        want = positive_tuple_by_thickening(q.v, q.wbar)
        for j in range(max(map(len, choices))):
            words = [c[j % len(c)] for c in choices]
            subs, vbar = weyl._positive_split(q.v, q.wbar, words)
            assert vbar == want, (q, words)
            for word, sub, vi in zip(words, subs, vbar):
                assert is_positive_subexpression(group, word, sub), (q, words)
                assert group.from_word(sub) is vi
                if len(word) <= 6:
                    positive = [
                        other for mask in range(1 << len(word))
                        for other in [tuple(t if mask >> i & 1 else None
                                            for i, t in enumerate(word))]
                        if group.from_word(other) is vi
                        and is_positive_subexpression(group, word, other)
                    ]
                    assert positive == [sub], (q, words)


def test_the_cut_asserts_each_product_and_each_factor_interval(A2, monkeypatch):
    """A wrong ``m_star`` alone, a wrong ``m_bullet`` alone and a wrong
    Bruhat test each trip an internal assertion of the cut, so neither
    product check can stand in for the other."""
    s1, s2 = A2.simple(0), A2.simple(1)
    w0 = A2.from_word((0, 1, 0))
    v, wbar = A2.multiply(s1, s2), (w0, s2)
    assert positive_tuple(v, wbar) == (s1, s2)
    for name in ("m_star", "m_bullet"):
        with monkeypatch.context() as patch:
            patch.setattr(A2, name, lambda ws: w0)
            with pytest.raises(AssertionError, match="does not multiply back to v"):
                positive_tuple(v, wbar)
    with monkeypatch.context() as patch:
        patch.setattr(A2, "bruhat_leq", lambda x, y: False)
        with pytest.raises(AssertionError, match="escapes its factor interval"):
            positive_tuple(v, wbar)
    assert positive_tuple(v, wbar) == (s1, s2)


def test_th_word_and_embed(A1, A2):
    e, s = A1.identity, A1.simple(0)
    T = A1.thickened(2)
    assert th_word(T, (s, s)) == (0, 1, 0)
    assert th_element(T, (s, s)).length == 3
    # n = 1: nothing to interleave, the word of the single factor comes back
    assert th_word(A1, (s,)) == s.word
    with pytest.raises(ContextMismatchError):
        th_word(A1, (s, s))
    # the section-3.2-style instance: i(s) <= th((s, s)) and s <= m_star((s, s))
    assert T.bruhat_leq(i_embed(T, s), th_element(T, (s, s)))
    assert A1.bruhat_leq(s, A1.m_star((s, s)))
    # embedding preserves order on a sample (bullet (i))
    T2 = A2.thickened(2)
    elems = A2.elements_up_to_length(3)
    for v in elems:
        for u in elems:
            assert A2.bruhat_leq(v, u) == T2.bruhat_leq(i_embed(T2, v), i_embed(T2, u))


def test_tuple_positive_iff_interleaved_positive(A1, A2):
    """Positivity of a tuple matches positivity of its interleaved subexpression."""
    from itertools import product as iproduct

    T = A1.thickened(2)
    elems = A1.elements_up_to_length(1)
    for wbar in iproduct(elems, repeat=2):
        word = th_word(T, wbar)
        if T.from_word(word).length != len(word):
            continue  # interleaving of non-reduced data is out of scope
        for vbar in iproduct(*[A1.lower_interval(w) for w in wbar]):
            subs = []
            pos = 0
            ok = True
            for idx, (vi, wi) in enumerate(zip(vbar, wbar)):
                try:
                    sub_i = A1.positive_subexpression(vi, wi.word)
                except ValueError:
                    ok = False
                    break
                subs.extend(sub_i)
                if idx < len(wbar) - 1:
                    subs.append(None)
            if not ok:
                continue
            lhs = _tuple_is_positive(A1, vbar, wbar)
            rhs = is_positive_subexpression(T, word, tuple(subs))
            assert lhs == rhs, (vbar, wbar)
    # sampled A2 instances
    T2 = A2.thickened(2)
    rng = random.Random(3)
    elems2 = A2.elements_up_to_length(3)
    for _ in range(10):
        wbar = (rng.choice(elems2), rng.choice(elems2))
        word = th_word(T2, wbar)
        for _ in range(5):
            vbar = tuple(rng.choice(A2.lower_interval(w)) for w in wbar)
            subs = []
            ok = True
            for idx, (vi, wi) in enumerate(zip(vbar, wbar)):
                try:
                    sub_i = A2.positive_subexpression(vi, wi.word)
                except ValueError:
                    ok = False
                    break
                subs.extend(sub_i)
                if idx < len(wbar) - 1:
                    subs.append(None)
            if not ok:
                continue
            assert _tuple_is_positive(A2, vbar, wbar) == is_positive_subexpression(
                T2, word, tuple(subs)
            )


def test_canonical_word_is_lex_min(A2, B2, A1):
    rng = random.Random(17)
    groups = [A2, B2, A1.thickened(2)]
    for group in groups:
        for _ in range(40):
            w = group.from_word(rng.choices(range(group.rank), k=12))
            if w.length > 8:
                continue  # keep the reduced-word enumeration small
            words = all_reduced_words(group, w)
            assert w.word == min(words)
            assert all(len(word) == w.length for word in words)


def test_perm_bridge(S4):
    w0 = from_perm(S4, (4, 3, 2, 1))
    assert w0.length == 6
    assert perm_of(w0) == (4, 3, 2, 1)
    rng = random.Random(1)
    perms = [tuple(rng.sample(range(1, 5), 4)) for _ in range(20)]
    for p in perms:
        assert perm_of(from_perm(S4, p)) == p
    for bad in ((1, 1, 2, 3), (1, 2, 3), (1, 2, 3, 5), (0, 1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match="not a permutation of 1..4"):
            from_perm(S4, bad)
    # a chamber vector read off a one-line form is one of A_3 only
    b3 = WeylGroup(cartan_of_type("B", 3))
    for p in ((1, 2, 3, 4), (2, 1, 3, 4), (4, 3, 2, 1)):
        with pytest.raises(ValueError, match="type A_3"):
            from_perm(b3, p)
    assert b3.cache_stats()["perm"]["size"] == 0 and len(b3._elts) == 4


def test_from_perm_matches_the_swap_sort_oracle():
    """The chamber vector read off the one-line form interns the element that
    the sorting word multiplies out to: every permutation for k <= 6, and
    200 seeded ones each at k = 8, 12 and 16, on fresh groups."""
    rng = random.Random(39)
    for k in (2, 3, 4, 5, 6, 8, 12, 16):
        group = WeylGroup(cartan_of_type("A", k - 1))
        if k <= 6:
            perms = list(permutations(range(1, k + 1)))
        else:
            perms = [tuple(rng.sample(range(1, k + 1), k)) for _ in range(200)]
        for p in perms:
            w = from_perm(group, p)
            assert w is perm_by_swaps(group, p) and perm_of(w) == p
            assert from_perm(group, perm_of(w)) is w
    assert from_perm(type_a_group(16), tuple(range(16, 0, -1))).length == 120


def test_from_word_refuses_a_letter_outside_the_rank(S4):
    for letter in (-1, -3, 3, 4):
        with pytest.raises(ValueError, match=rf"letter {letter} is outside 0\.\.2"):
            S4.from_word((0, letter))
    assert S4.from_word((0, None, 2)) is S4.multiply(S4.simple(0), S4.simple(2))


def test_memo_hits_still_refuse_a_foreign_element():
    """The six memoized methods check the group on a miss only; a hit
    cannot come from another group's element, so every call with one raises,
    also where the memo of the group's own elements is warm and where a
    length shortcut of bruhat_leq would answer.  So do the kept masks and
    lists of a record of [e, w]."""
    group, other = WeylGroup(cartan_of_type("A", 2)), WeylGroup(cartan_of_type("A", 2))
    own = group.elements_up_to_length(3)
    for u in own:
        group.lower_interval(u)
        group.lower_covers(u)
        for v in own:
            group.multiply(u, v)
            group.bruhat_leq(u, v)
            group.demazure(u, v)
            group.interval(u).above(v)
            group.interval(u).below(v)
    assert all(group.cache_stats()[name]["size"] for name in ("mul", "bruhat", "lower", "cover",
                                                              "demazure"))
    for x in other.elements_up_to_length(3):
        for method in (group.lower_interval, group.lower_covers, group.interval):
            with pytest.raises(ContextMismatchError):
                method(x)
        for method in (group.multiply, group.bruhat_leq, group.demazure):
            for args in [(x, x)] + [pair for u in own for pair in ((u, x), (x, u))]:
                with pytest.raises(ContextMismatchError):
                    method(*args)
        for u in own:
            for method in (group.interval(u).above, group.interval(u).below):
                with pytest.raises(ContextMismatchError):
                    method(x)


@pytest.mark.parametrize("family, rank, cap, pairs", [
    ("A", 2, 3, 19), ("B", 2, 4, 33), ("A", 3, 6, 213), ("affine-A", 1, 5, 61),
])
def test_interval_records_match_lower_intervals_and_covers(family, rank, cap, pairs):
    """The record of every lower interval [e, w] (w of length <= cap)
    against an oracle that reads no record, built from
    elements_up_to_length, bruhat_leq and lower_covers: its elements are
    the x <= w, by length and then word, with their positions and lengths;
    its ``down`` and ``up`` offsets are lower_covers read from either end,
    ``scaled_down`` multiplies ``down``, ``below(m)`` lists the positions
    of the x <= m, for every m, and ``above(u)`` is the bitmask of those of
    the x >= u, for every u, which cuts [u, w] out of [e, w]; and the group
    hands out the one record per w.  ``pairs`` counts the pairs u <= w."""
    group = WeylGroup(cartan_of_type(family, rank))
    elts = group.elements_up_to_length(cap)
    cuts = 0
    for w in elts:
        record = group.interval(w)
        inside = sorted((x for x in elts if group.bruhat_leq(x, w)),
                        key=lambda x: (x.length, x.word))
        assert record.elements == tuple(inside)
        assert record.index == {x: p for p, x in enumerate(inside)}
        assert record.lengths == tuple(x.length for x in inside)
        covers = {x: list(group.lower_covers(x)) for x in inside}
        assert [[inside[p + o] for o in offsets] for p, offsets in enumerate(record.down)] \
            == list(covers.values())
        assert [sorted(p + o for o in offsets) for p, offsets in enumerate(record.up)] \
            == [[q for q, y in enumerate(inside) if x in covers[y]] for x in inside]
        assert record.scaled_down(3) == [tuple(3 * o for o in offs) for offs in record.down]
        for m in elts:
            assert record.below(m) == tuple(p for p, x in enumerate(inside)
                                            if group.bruhat_leq(x, m))
        for u in elts:
            between = [p for p, x in enumerate(inside) if group.bruhat_leq(u, x)]
            assert record.above(u) == sum(1 << p for p in between)
            assert bool(between) == group.bruhat_leq(u, w)
            cuts += bool(between)
        assert group.interval(w) is record and group.lower_interval(w) is record.elements
    assert cuts == pairs


def test_b2_group_structure(B2):
    s1, s2 = B2.simple(0), B2.simple(1)
    elems = B2.elements_up_to_length(10)
    assert len(elems) == 8
    w0 = B2.from_word((0, 1, 0, 1))
    assert w0.length == 4
    assert B2.multiply(w0, w0) is B2.identity


@pytest.mark.parametrize("family, rank, order, longest", [
    ("A", 6, 5040, 21), ("B", 5, 3840, 25), ("C", 5, 3840, 25), ("D", 5, 1920, 20),
])
def test_rank_five_and_six_groups_are_enumerated_faithfully(family, rank, order, longest):
    """Interning by chamber vector tells every element apart: the walk to
    length 64 finds the whole finite group, with distinct chamber vectors
    and words, and one longest element, which is its own inverse."""
    group = WeylGroup(cartan_of_type(family, rank))
    elems = group.elements_up_to_length(64)
    assert len(elems) == len({u.chamber for u in elems}) == len({u.word for u in elems}) == order
    top = max(u.length for u in elems)
    w0s = [u for u in elems if u.length == top]
    assert (top, len(w0s)) == (longest, 1)
    assert group.inverse(w0s[0]) is w0s[0]


def test_g2_group_is_dihedral_of_order_twelve():
    """W(G2) has 12 elements, one of each length but 0 and 6 twice, and a
    longest element of length 6 with canonical word s1 s2 s1 s2 s1 s2,
    its own inverse."""
    group = WeylGroup(cartan_of_type("G", 2))
    elems = group.elements_up_to_length(64)
    assert len(elems) == len({u.chamber for u in elems}) == 12
    assert sorted(u.length for u in elems) == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    w0 = max(elems, key=lambda u: u.length)
    assert (w0.length, w0.word) == (6, (0, 1, 0, 1, 0, 1))
    assert group.from_word((1, 0, 1, 0, 1, 0)) is w0 and group.inverse(w0) is w0


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("affine-A", 1)])
def test_lower_covers_match_definition(family, rank):
    """Lower covers are the u <= w of length l(w) - 1, listed once each."""
    group = WeylGroup(cartan_of_type(family, rank))
    shorter = 0  # one-letter deletions that drop the length by more than 1
    for w in group.elements_up_to_length(4):
        covers = group.lower_covers(w)
        expected = {u for u in group.lower_interval(w) if u.length == w.length - 1}
        assert len(covers) == len(set(covers))
        assert set(covers) == expected
        assert group.lower_covers(w) is covers  # memoized
        word = w.word
        shorter += sum(
            group.from_word(word[:p] + word[p + 1:]).length < w.length - 1
            for p in range(len(word))
        )
    assert shorter > 0


def test_canonical_word_strips_to_the_identity_as_the_lookup_did():
    """``_canonical_word`` strips to the identity with no lookup after each
    letter, and resumes its descent scan at the smallest vertex the
    stripped letter touches.  Its words are those of the stripping that
    stopped at the first known element (``canonical_words_by_lookup``), on
    every element up to length 8 of A4, B3, D4, G2 and affine A2, taken in a
    seeded order, and on 500 seeded elements of S16."""
    rng = random.Random(54)
    checked = 0
    for family, rank in (("A", 4), ("B", 3), ("D", 4), ("G", 2), ("affine-A", 2)):
        group = WeylGroup(cartan_of_type(family, rank))
        elts = group.elements_up_to_length(8)
        rng.shuffle(elts)
        chambers = [u.chamber for u in elts]
        words = [group._canonical_word(c) for c in chambers]
        assert words == [u.word for u in elts]
        assert words == canonical_words_by_lookup(group.gcm, chambers)
        checked += len(elts)
    s16 = WeylGroup(cartan_of_type("A", 15))
    elts = [from_perm(s16, rng.sample(range(1, 17), 16)) for _ in range(500)]
    chambers = [u.chamber for u in elts]
    assert [u.word for u in elts] == canonical_words_by_lookup(s16.gcm, chambers)
    assert [s16._canonical_word(c) for c in chambers] == [u.word for u in elts]
    assert checked == 115 + 47 + 162 + 12 + 109


def test_canonical_word_refuses_a_vector_it_cannot_strip_to_the_identity(A2):
    """A vector with no negative entry that is not the identity's has no
    left descent to strip: ArithmeticError, as before."""
    with pytest.raises(ArithmeticError, match="no left descent"):
        A2._canonical_word((2, 1))


def test_canonical_word_cap_in_infinite_thickened_group(monkeypatch):
    """The A1 n=2 thickening is infinite, so only ``_MAX_CANONICAL_LEN``
    bounds left-descent stripping: an alternating reduced word one letter
    longer than the cap raises, and the default cap gives its full length.
    Each group is fresh, so no element of the word is interned yet."""
    word = (0, 1) * 6

    def fresh():
        return WeylGroup(cartan_of_type("A", 1)).thickened(2)

    assert fresh().from_word(word).length == len(word)
    monkeypatch.setattr(weyl, "_MAX_CANONICAL_LEN", len(word))
    assert fresh().from_word(word).word == word
    monkeypatch.setattr(weyl, "_MAX_CANONICAL_LEN", len(word) - 1)
    with pytest.raises(ArithmeticError, match="safety cap"):
        fresh().from_word(word)
