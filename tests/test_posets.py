"""Face poset construction and the regularity checks on known shapes."""

import dataclasses
import gc
import random
from collections import Counter
from functools import partial
from itertools import combinations, permutations, product

import oracles
import pytest

from tnnflag import posets, verify, weyl
from tnnflag.cartan import cartan_of_type
from tnnflag.posets import (
    BOTTOM,
    CapExceededError,
    FacePoset,
    QNode,
    ShellingResult,
    braid_poset,
    build_interval,
    find_shelling,
    interval_labels,
    is_eulerian,
    is_pure,
    is_thin,
    link_poset,
    make_qnode,
    maximal_chains,
    members,
    mobius,
    open_boundary_euler,
    qnode_leq,
    shelling_of_facets,
    to_dot,
)
from tnnflag.verify import _hatQ_families, check_regular_ball, iter_qnodes
from tnnflag.weyl import WeylGroup


def relation_order(elements, pairs):
    """Nodes, ranks and ``below`` masks of the order generated by the
    relations lo < hi in ``pairs``, plus BOTTOM.

    Nodes are stored by height, with BOTTOM at node 0 below every element,
    and each element's rank is its height.
    """
    below = {e: set() for e in elements}
    for lo, hi in pairs:
        below[hi].add(lo)
    changed = True
    while changed:
        changed = False
        for e in elements:
            extra = set().union(*(below[d] for d in below[e])) - below[e]
            if extra:
                below[e] |= extra
                changed = True
    height = {}
    for e in sorted(elements, key=lambda e: len(below[e])):
        height[e] = max((height[d] + 1 for d in below[e]), default=0)
    order = sorted(elements, key=height.get)
    index = {e: i for i, e in enumerate(order, start=1)}
    return ([BOTTOM, *order], [-1, *(height[e] for e in order)],
            [0] + [1 | sum(1 << index[d] for d in below[e]) for e in order])


def from_covers(elements, pairs):
    """The poset of :func:`relation_order`, given by its masks alone."""
    return FacePoset(*relation_order(elements, pairs))


def chain_length_bounds(ups):
    """(minlen, maxlen) of cover paths from x to y, keyed by pairs (x, y),
    from the upper cover lists of nodes stored in rank order."""
    minlen, maxlen = {}, {}
    for x in range(len(ups)):
        minlen[x, x] = maxlen[x, x] = 0
        for z in range(x, len(ups)):  # rank order: everything above x
            if (x, z) not in minlen:
                continue
            for y in ups[z]:
                minlen[x, y] = min(minlen.get((x, y), len(ups)), minlen[x, z] + 1)
                maxlen[x, y] = max(maxlen.get((x, y), 0), maxlen[x, z] + 1)
    return minlen, maxlen


def oracle_up_covers(below):
    """The upper cover lists of ``oracles.oracle_covers``, one per node."""
    ups = [[] for _ in below]
    for lo, hi in oracles.oracle_covers(below):
        ups[lo].append(hi)
    return ups


def relation_is_pure(elements, pairs):
    """The chain-length table on the covers of the relations' order, read
    off its masks by the definition: every comparable pair has maximal
    chains of one length."""
    minlen, maxlen = chain_length_bounds(oracle_up_covers(relation_order(elements, pairs)[2]))
    return minlen == maxlen


def oracle_is_pure(poset):
    minlen, maxlen = chain_length_bounds(poset.up_covers())
    return minlen == maxlen


def oracle_is_thin(poset):
    minlen, maxlen = chain_length_bounds(poset.up_covers())
    return all(
        (poset.above[x] & poset.below[y]).bit_count() == 2
        for (x, y), longest in maxlen.items()
        if longest == 2 and minlen[x, y] == 2
    )


def oracle_mobius(poset, x, y, memo):
    """Mobius function of [x, y] by the standard recursion, memoized in
    ``memo`` (one dict per poset)."""
    if x == y:
        return 1
    if (x, y) not in memo:
        total = 1  # mu(x, x)
        for z in members(poset.above[x] & poset.below[y]):
            total += oracle_mobius(poset, x, z, memo)
        memo[x, y] = -total
    return memo[x, y]


def oracle_is_eulerian(poset):
    """The recursive Mobius function on every comparable pair."""
    memo = {}
    return all(
        oracle_mobius(poset, x, y, memo) == (-1) ** (poset.ranks[y] - poset.ranks[x])
        for x in range(len(poset))
        for y in members(poset.above[x])
    )


def oracle_open_boundary_euler(poset):
    """Chains of the proper part counted with alternating signs: g(x) sums
    (-1)^(size + 1) over the chains with minimum x, found in reverse rank
    order after every node above x."""
    top = len(poset) - 1
    g = {}
    for x in reversed(range(1, top)):
        g[x] = 1 - sum(g[y] for y in members(poset.above[x]) if y != top)
    return sum(g.values())


def tuple_key_build_interval(top):
    """``build_interval`` with each label keyed by the tuple of its elements:
    the lower covers of (v, wbar) are looked up by the keys of (u, wbar),
    u an upper cover of v, and of wbar with one factor moved down a cover."""
    group = top.v.group
    ups = {}  # v -> its upper covers
    for u in group.lower_interval(group.m_star(top.wbar)):
        for c in group.lower_covers(u):
            ups.setdefault(c, []).append(u)

    def key(q):
        return (q.v, *q.wbar)

    def candidates(q):
        v, *ws = key(q)
        out = [(u, *ws) for u in ups.get(v, ())]
        for f, w in enumerate(q.wbar):
            out.extend((v, *ws[:f], c, *ws[f + 1:]) for c in group.lower_covers(w))
        return out

    elements = sorted(interval_labels(top), key=lambda q: q.rank)
    index = {key(q): i for i, q in enumerate(elements, start=1)}
    lower = [()] + [[index[c] for c in candidates(q) if c in index] or [0] for q in elements]
    ranks = [elements[0].rank - 1, *(q.rank for q in elements)]
    return oracles.from_lower_covers([BOTTOM, *elements], ranks, lower)


def mask_scan_is_thin(poset):
    """``is_thin`` by masks alone: for every y two covers above x, [x, y]
    fails iff every node strictly between covers x and there are not two."""
    ups = poset.up_covers()
    for x, mids in enumerate(ups):
        covering = sum(1 << z for z in mids)
        for y in {y for z in mids for y in ups[z]}:
            between = poset.above[x] & poset.below[y]
            if not between & ~covering and between.bit_count() != 2:
                return False
    return True


def two_step_paths(poset, x, y):
    """The number of paths x < z < y of two covers."""
    ups = poset.up_covers()
    return sum(y in ups[z] for z in ups[x])


@pytest.fixture(scope="module")
def triangle(A1):
    e, s = A1.identity, A1.simple(0)
    return build_interval(make_qnode(e, (s, s)))


def test_make_qnode_validates(A1):
    e, s = A1.identity, A1.simple(0)
    node = make_qnode(s, (s, s))
    assert node.rank == 1
    with pytest.raises(ValueError):
        make_qnode(s, (e, e))


def test_qnode_record(A1):
    """A label equals and hashes as the label with equal fields, and has the
    dataclass repr it had; it is immutable and never equals a plain tuple
    of its fields."""
    e, s = A1.identity, A1.simple(0)
    node = make_qnode(s, (s, s))
    twin = posets.QNode(s, (s, s), 1)
    assert node == twin and not node != twin and hash(node) == hash(twin)
    assert len({node, twin, make_qnode(e, (s, s))}) == 2
    assert node != make_qnode(e, (s, s)) and node != make_qnode(s, (s, e))
    assert hash(node) == hash((s, (s, s), 1))
    assert repr(node) == "QNode(v=W[s1], wbar=(W[s1], W[s1]), rank=1)"
    fields = (node.v, node.wbar, node.rank)
    assert fields == (s, (s, s), 1)
    assert node != fields and fields != node and not node == fields and not fields == node
    assert node not in {fields} and fields not in {node}
    made = posets.QNode._make(fields)  # the decoder's way, without the field count check
    assert made == node and type(made) is posets.QNode and made.rank == 1
    for name in ("v", "wbar", "rank", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, e)
    assert node == twin


def test_members_matches_lowest_bit_oracle():
    """The one-pass bit listing against the lowest-bit loop it replaced, on
    0, 1, seeded sparse and dense masks, and an all-ones mask of 10^5 bits."""
    rng = random.Random(21)
    masks = [0, 1, 2, 1 << 200, (1 << 64) - 1]
    for width in (7, 64, 1168, 20_000):
        for density in (0.01, 0.1, 0.5, 0.9):
            masks.append(sum(1 << i for i in range(width) if rng.random() < density))
    masks.append((1 << 100_000) - 1)
    for mask in masks:
        assert members(mask) == oracles.members_by_lowest_bit(mask)
    assert members(masks[-1]) == list(range(100_000))


def test_triangle_f_vector(triangle):
    assert len(triangle) == 8
    assert triangle.f_vector() == (3, 3, 1)


def test_triangle_checks(triangle):
    assert is_pure(triangle)
    assert is_thin(triangle)
    assert is_eulerian(triangle)
    top = max(range(len(triangle)), key=lambda i: triangle.ranks[i])
    assert mobius(triangle, 0, top) == -1
    for lo, hi in triangle.covers:
        assert mobius(triangle, lo, hi) == -1
        assert triangle.ranks[hi] - triangle.ranks[lo] == 1
    assert open_boundary_euler(triangle) == 0
    assert find_shelling(triangle).shellable


def test_rank_zero_top_is_chain(A1):
    s = A1.simple(0)
    poset = build_interval(make_qnode(s, (s, A1.identity)))
    assert len(poset) == 2
    report = check_regular_ball(make_qnode(s, (s, A1.identity)))
    assert report.status == "pass"


def test_sl3_flag_interval(A2):
    w0 = A2.from_word((0, 1, 0))
    poset = build_interval(make_qnode(A2.identity, (w0,)))
    # 19 pairs v <= w in S3, plus the synthetic bottom
    assert len(poset) == 20
    assert is_pure(poset) and is_thin(poset) and is_eulerian(poset)


def test_interval_order_matches_defining_comparison(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    top = make_qnode(s1, (A2.multiply(s1, s2), s1))
    poset = build_interval(top)
    for i in range(1, len(poset)):
        for j in range(1, len(poset)):
            expected = i == j or qnode_leq(poset.nodes[i], poset.nodes[j])
            assert poset.leq(i, j) == expected


def test_node_cap(A2):
    w0 = A2.from_word((0, 1, 0))
    with pytest.raises(CapExceededError):
        build_interval(make_qnode(A2.identity, (w0, w0)), node_cap=10)


def test_node_cap_boundary(monkeypatch):
    """A cap of exactly the node count passes; one less raises while the
    labels are still being listed, before any cover is looked up and before
    any key table or mask is made, and a cap of half the count raises at
    the end of the factor combination whose labels pass it: the cap is
    checked once per combination, after its labels are listed.  A build
    with no plan for top.wbar takes one Demazure product per combination
    it lists, after the one of top.wbar, which count the combinations
    here; a refused build keeps no plan, and a build of a top whose plan is
    kept takes no Demazure product.  The group is fresh, so no interval
    record it reads holds cover offsets from an earlier build: the refused
    builds form none."""
    A2 = WeylGroup(cartan_of_type("A", 2))
    s1, s2 = A2.simple(0), A2.simple(1)
    top = make_qnode(A2.identity, (A2.multiply(s1, s2), A2.multiply(s2, s1)))
    # the factor combinations in listing order, and their label counts
    combos = list(product(*(A2.lower_interval(w) for w in top.wbar)))
    sizes = Counter(q.wbar for q in interval_labels(top))
    nodes = 1 + sum(sizes.values())

    listed = []
    demazure = A2.demazure

    def product_of(x, y):
        listed.append((x, y))
        return demazure(x, y)

    def no_index(*args):
        raise AssertionError("the index was built past the node cap")

    monkeypatch.setattr(A2, "demazure", product_of)
    monkeypatch.setattr(posets, "_cover_index", no_index)
    monkeypatch.setattr(A2, "lower_covers", no_index)
    with pytest.raises(CapExceededError):
        build_interval(top, node_cap=nodes - 1)
    # each combination was listed once, and its last label tipped the count over the cap
    assert listed == [top.wbar, *combos]

    # a cap well below the count stops the listing part way, in the
    # combination whose labels, with the bottom, pass the cap
    listed.clear()
    node_cap = nodes // 2
    with pytest.raises(CapExceededError) as raised:
        build_interval(top, node_cap=node_cap)
    done = listed[1:]
    assert done == combos[:len(done)] and len(done) < len(combos)
    labels = sum(sizes[c] for c in done)
    assert labels - sizes[done[-1]] < node_cap <= labels
    # after that whole combination: the builder counts the bottom and every label listed
    assert raised.traceback[-1].frame.f_locals["count"] == 1 + labels
    # the records read, those of the two factors among them, with no offsets
    # formed on any, and no plan kept
    records = A2._lower_cache
    assert set(top.wbar) <= records.keys()
    assert not any({"down", "up"} & vars(r).keys() for r in records.values())
    assert A2.cache_stats()["plan"] == {"size": 0, "clears": 0}

    monkeypatch.undo()
    poset = build_interval(top)
    assert len(poset) == nodes and A2.cache_stats()["plan"]["size"] == 1
    monkeypatch.setattr(A2, "demazure", product_of)
    listed.clear()
    assert_same_poset(build_interval(top, node_cap=nodes), poset)
    assert listed == []


def assert_same_poset(poset, other):
    """Equal nodes, ranks, masks and covers (read off the masks when
    ``other`` was built from them)."""
    assert poset.nodes == other.nodes
    assert poset.ranks == other.ranks
    assert poset.below == other.below
    assert poset.above == other.above
    assert poset.covers == other.covers


def assert_shared_index(poset):
    """A builder's up-cover index equals the one read off its masks alone,
    ``covers`` lists those cover pairs sorted, and both posets keep the
    mask of each node's upper covers."""
    masks_only = FacePoset(poset.nodes, poset.ranks, poset.below)
    assert poset.up_covers() == masks_only.up_covers()
    assert poset.covers == tuple(sorted(masks_only.covers))
    for p in (poset, masks_only):
        assert p.up_cover_masks() == tuple(sum(1 << y for y in ups) for ups in p.up_covers())


# family, rank, n, factor length cap, sampled tops
COVER_BUILDER_FAMILIES = [
    ("B", 3, 1, None, 8),
    ("B", 2, 2, None, 8),
    ("affine-A", 1, 2, 4, 8),
    ("A", 2, 3, None, 6),
]


@pytest.mark.parametrize("family, rank, n, cap, count", COVER_BUILDER_FAMILIES)
def test_cover_builder_matches_pairwise_order(family, rank, n, cap, count):
    """build_interval equals FacePoset.from_qnodes and the tuple-key builder
    on sampled tops, and its nodes are exactly the family's labels below the
    top by qnode_leq.  It and two of its links carry the index their masks
    give, and each link holds the nodes of its bottom's ``above`` mask."""
    group = WeylGroup(cartan_of_type(family, rank))
    labels = list(iter_qnodes(group, n, length_cap=cap))
    rng = random.Random(f"{family}{rank} n={n}")
    # the largest top and a spread of the others, rank 2 and up
    tops = sorted((q for q in labels if q.rank >= 2), key=lambda q: q.rank)
    for top in [tops[-1], *rng.sample(tops[:-1], count - 1)]:
        poset = build_interval(top)
        assert_same_poset(poset, FacePoset.from_qnodes(interval_labels(top)))
        assert_same_poset(poset, tuple_key_build_interval(top))
        assert set(poset.nodes[1:]) == {q for q in labels if qnode_leq(q, top)}
        assert_shared_index(poset)
        for b in rng.sample(range(1, len(poset) - 1), 2):
            link = link_poset(poset.nodes[b], top)
            assert set(link.nodes[1:]) == {poset.nodes[i] for i in members(poset.above[b])}
            assert_shared_index(link)


def test_integer_keys_match_tuple_key_builder():
    """build_interval, on integer keys, equals the tuple-key builder on every
    hatQ top."""
    tops = 0
    for _, group, ns in _hatQ_families():
        for n in ns:
            for top in iter_qnodes(group, n):
                assert_same_poset(build_interval(top), tuple_key_build_interval(top))
                tops += 1
    assert tops == 244


def test_interval_builder_matches_bucket_oracle():
    """build_interval (rank columns of keys, a dense key table, prefix
    Demazure products) equals the builder it replaced,
    ``oracles.bucket_build_interval``: the same nodes in the same order,
    ranks, masks, up-cover index and box flag, on every hatQ top, every top
    of rank >= 5 of the interval families (affine A1 up to length 4) and
    the rank-12 A3 n=2 top (e ; w0, w0)."""
    tops = [top for _, group, ns in _hatQ_families() for n in ns for top in iter_qnodes(group, n)]
    hatq = len(tops)
    for family, rank, n, cap in (("A", 2, 3, None), ("B", 3, 1, None), ("B", 2, 2, None),
                                 ("A", 3, 1, None), ("affine-A", 1, 2, 4)):
        group = WeylGroup(cartan_of_type(family, rank))
        tops += [top for top in iter_qnodes(group, n, length_cap=cap) if top.rank >= 5]
    A3 = WeylGroup(cartan_of_type("A", 3))
    w0 = A3.from_word((0, 1, 0, 2, 1, 0))
    tops.append(make_qnode(A3.identity, (w0, w0)))
    nodes = 0
    for top in tops:
        poset, oracle = build_interval(top), oracles.bucket_build_interval(top)
        assert poset.nodes == oracle.nodes
        assert poset.ranks == oracle.ranks
        assert poset.below == oracle.below
        assert poset.up_covers() == oracle.up_covers()
        assert poset._boxes is oracle._boxes is True
        nodes += len(poset.nodes)
    assert (hatq, len(tops), nodes) == (244, 873, 140_968)


def test_decoded_labels_match_the_interval_labels(A2):
    """A built interval keeps each label as its key and decodes it on
    read: its nodes are the bottom and then the labels of
    :func:`interval_labels`, stably sorted by rank (the node order of
    ``FacePoset.from_qnodes``), on every hatQ top, every braid poset of
    ``verify braid``, three sampled links of each of twelve A2 n=2 tops
    and the rank-12 A3 n=2 top (e ; w0, w0)."""
    def rank(q):
        return q.rank

    cases = [(top, None) for _, group, ns in _hatQ_families() for n in ns
             for top in iter_qnodes(group, n)]
    for length in range(1, 6):
        for letters in product(range(2), repeat=length):
            sbar = tuple(A2.simple(t) for t in letters)
            cases.append((make_qnode(A2.m_star(sbar), sbar), letters))
    links, _ = _links_and_relations(A2)
    A3 = WeylGroup(cartan_of_type("A", 3))
    w0 = A3.from_word((0, 1, 0, 2, 1, 0))
    cases += [*((top, bottom) for bottom, top in links), (make_qnode(A3.identity, (w0, w0)), None)]
    for top, extra in cases:
        labels = interval_labels(top)
        if isinstance(extra, QNode):  # the link above extra
            poset = link_poset(extra, top)
            labels = [q for q in labels if q != extra and qnode_leq(extra, q)]
        else:
            poset = braid_poset(A2, extra) if extra else build_interval(top)
        assert tuple(poset.nodes) == (BOTTOM, *sorted(labels, key=rank))
    assert len(cases) == 244 + 62 + 36 + 1


def test_decoded_labels_read_as_a_tuple(B2):
    """The nodes of a built interval answer every read as the tuple of its
    labels does: length, negative indices, slices, ``IndexError`` past
    either end, ``index`` of every node and ``ValueError`` on a label that
    is absent, and ``==`` / ``!=`` with the tuple from either side."""
    w = B2.from_word((0, 1, 0, 1))
    top = make_qnode(B2.identity, (w, w))
    poset = build_interval(top)
    nodes, labels = poset.nodes, (BOTTOM, *sorted(interval_labels(top), key=lambda q: q.rank))
    assert len(nodes) == len(labels) == 402 and labels[0] is BOTTOM
    assert nodes[-1] == labels[-1] == QNode(B2.identity, (w, w), 8)
    assert nodes[-len(nodes)] is BOTTOM and nodes[-2] == labels[-2]
    for part in (slice(1, 5), slice(None, None, -7), slice(-3, None), slice(5, 2), slice(None)):
        assert type(nodes[part]) is tuple and nodes[part] == labels[part]
    for i in (len(nodes), -len(nodes) - 1):
        with pytest.raises(IndexError):
            nodes[i]
    assert [poset.nodes.index(q) for q in labels] == list(range(len(labels)))
    assert labels[5] in nodes and BOTTOM in nodes
    s = B2.simple(0)
    absent = (QNode(s, (w, w), 9), make_qnode(s, (s, s, s)), "0^")
    for label in absent:
        assert label not in nodes
        with pytest.raises(ValueError):
            poset.nodes.index(label)
    assert nodes == labels and labels == nodes and not nodes != labels and not labels != nodes
    for other in (labels[:-1], labels[1:] + labels[:1], list(labels)):
        assert nodes != other and other != nodes and not nodes == other and not other == nodes
    assert nodes == build_interval(poset.nodes[-1]).nodes


def test_labels_are_decoded_once_on_first_read(B2, monkeypatch):
    """``len`` of a built interval's nodes decodes no label, and two full
    reads decode each key once: the first read keeps the labels.  The
    labels of one factor combination share one ``wbar`` tuple."""
    w = B2.from_word((0, 1, 0, 1))
    top = make_qnode(B2.identity, (w, w))
    poset = build_interval(top)
    decoded = []

    def make(cls, fields):
        decoded.append(fields)
        return tuple.__new__(cls, fields)

    monkeypatch.setattr(posets.QNode, "_make", classmethod(make))
    assert len(poset.nodes) == 402 and not decoded
    first, second = tuple(poset.nodes), list(poset.nodes)
    assert len(decoded) == 401 and len(set(decoded)) == 401
    assert first == tuple(second) == (BOTTOM, *sorted(interval_labels(top), key=lambda q: q.rank))
    labels = first[1:]
    assert len({id(q.wbar) for q in labels}) == len({q.wbar for q in labels}) < 401


def test_braid_cover_builder_matches_pairwise_order(A2, S4):
    """braid_poset equals the pairwise order on its labels, and carries the
    index its masks give, for every A2 word of length <= 5 and every A3
    word of length <= 4."""
    words = 0
    for group, letters_of, longest in ((A2, range(2), 5), (S4, range(3), 4)):
        for length in range(1, longest + 1):
            for letters in product(letters_of, repeat=length):
                poset = braid_poset(group, letters)
                assert_same_poset(poset, FacePoset.from_qnodes(poset.nodes[1:]))
                assert_shared_index(poset)
                words += 1
    assert words == 62 + 120


def test_braid_poset_square_word(A2):
    poset = braid_poset(A2, (0, 1, 0, 1))
    assert poset.f_vector() == (2, 1)
    # the two facets delete position 1 or position 4 of the word
    kept = sorted(
        tuple(w.length for w in node.wbar)
        for node in poset.nodes[1:]
        if node.rank == 0
    )
    assert kept == [(0, 1, 1, 1), (1, 1, 1, 0)]


def test_braid_poset_reduced_word_is_chain(A2):
    poset = braid_poset(A2, (0, 1, 0))
    assert len(poset) == 2  # bottom plus the full word


def test_braid_poset_a1_double_letter(A1):
    poset = braid_poset(A1, (0, 0))
    labels = {node.describe() for node in poset.nodes[1:]}
    assert labels == {"(s1 ; s1,s1)", "(s1 ; s1,e)", "(s1 ; e,s1)"}


def test_braid_equals_interval_slice(A2):
    """Every label below (m_star(sbar); sbar) has v = m_star(sbar), so the
    slice of that interval at v = m_star(sbar) is the whole interval, and
    the braid poset equals it: the same nodes, ranks, masks and covers, on
    every A2 word of length <= 4."""
    for length in range(1, 5):
        for letters in product(range(2), repeat=length):
            sbar = tuple(A2.simple(t) for t in letters)
            w = A2.m_star(sbar)
            interval = build_interval(make_qnode(w, sbar))
            assert all(node.v is w for node in interval.nodes[1:])
            assert_same_poset(braid_poset(A2, letters), interval)


def by_labels(poset):
    """The rank of each node, the order and the covers, as pairs of nodes
    rather than of indices."""
    nodes = poset.nodes
    order = {(nodes[lo], nodes[hi]) for hi, mask in enumerate(poset.below)
             for lo in members(mask)}
    covers = {(nodes[lo], nodes[hi]) for lo, hi in poset.covers}
    return dict(zip(nodes, poset.ranks)), order, covers


def test_braid_poset_matches_mask_oracle(A2, B2, S4):
    """braid_poset equals the mask builder it replaced,
    ``oracles.braid_poset_by_masks``, regardless of node order: the same
    labels with the same ranks, the same order and the same covers between
    labels, on every word of A2 and B2 of length <= 6 and of A3 of length
    <= 5.  Only the braid poset, an interval, carries the builder's fact."""
    words = 0
    for group, rank, longest in ((A2, 2, 6), (S4, 3, 5), (B2, 2, 6)):
        for length in range(1, longest + 1):
            for letters in product(range(rank), repeat=length):
                poset = braid_poset(group, letters)
                oracle = oracles.braid_poset_by_masks(group, letters)
                assert poset._boxes and not oracle._boxes
                assert len(poset) == len(oracle)
                assert by_labels(poset) == by_labels(oracle)
                words += 1
    assert words == 126 + 363 + 126 == 615


def test_braid_poset_honours_the_node_cap(A1):
    """Every one of the 32,767 nonempty subwords of s1^15 keeps the product
    s1, more than ``DEFAULT_NODE_CAP`` nodes, so the builder refuses it."""
    with pytest.raises(CapExceededError):
        braid_poset(A1, (0,) * 15)
    assert len(braid_poset(A1, (0,) * 10)) == 1 << 10


def test_link_posets(A1):
    e, s = A1.identity, A1.simple(0)
    top = make_qnode(e, (s, s))
    # cover pair: link is a single point plus bottom
    chain = link_poset(make_qnode(s, (s, s)), top)
    assert len(chain) == 2
    # link of a boundary vertex of the triangle: two edges and the 2-cell
    vertex_link = link_poset(make_qnode(s, (s, e)), top)
    assert vertex_link.f_vector() == (2, 1)
    assert is_pure(vertex_link) and is_thin(vertex_link)
    assert vertex_link._boxes and vertex_link.ranks == (-1, 0, 0, 1)


def test_link_poset_refuses_what_is_no_label_below_top(A1, A2):
    """A link's bottom must be a node of [0^, top] other than 0^ and top:
    the top, 0^, a label not below top, a label of an empty stratum and a
    label with a wrong rank are each refused, as is a label with another
    number of factors."""
    e, s = A1.identity, A1.simple(0)
    top = make_qnode(e, (s, s))
    s1, s2 = A2.simple(0), A2.simple(1)
    a2_top = make_qnode(s1, (A2.multiply(s1, s2), s1))
    for bottom, over in [
        (top, top),
        (BOTTOM, top),
        ("(e ; s1,s1)", top),
        (make_qnode(s, (s, s)), make_qnode(s, (s, e))),  # s is not below e in factor 2
        (make_qnode(e, (e, s)), make_qnode(s, (s, s))),  # v = e is not above top.v = s
        (posets.QNode(s, (e, e), -1), top),  # empty: s is not below m_star(e, e) = e
        (posets.QNode(s, (s, s), 2), top),  # (s ; s, s) has rank 1
        (make_qnode(s, (s,)), top),  # one factor, not two
        (make_qnode(s1, (s1, s2)), a2_top),  # s2 is not below s1 in the last factor
    ]:
        with pytest.raises(ValueError, match="strictly below top"):
            link_poset(bottom, over)
    assert len(link_poset(make_qnode(s1, (s1, s1)), a2_top)) > 1


def test_link_poset_bounds_its_own_size(S4, monkeypatch):
    """The double Bruhat link of (w0 ; e, w0) in the A3 n=2 interval below
    (e ; w0, w0) has 576 nodes, where the interval has 9,698: the node cap
    is checked against the link, which builds under a cap of 576 and not
    under 575."""
    w0 = S4.from_word((0, 1, 0, 2, 1, 0))
    e = S4.identity
    bottom, top = make_qnode(w0, (e, w0)), make_qnode(e, (w0, w0))
    monkeypatch.setattr(posets, "DEFAULT_NODE_CAP", 576)
    link = link_poset(bottom, top)
    assert len(link) == 576 and link._boxes
    assert is_eulerian(link) and open_boundary_euler(link) == 1 + (-1) ** (link.ranks[-1] + 1)
    monkeypatch.setattr(posets, "DEFAULT_NODE_CAP", 575)
    with pytest.raises(CapExceededError):
        link_poset(bottom, top)
    monkeypatch.undo()
    assert len(build_interval(top)) == 9_698


def test_every_builder_reads_the_node_cap_at_the_call(A2, monkeypatch):
    """``posets.DEFAULT_NODE_CAP``, set after import, bounds the four
    builders alike: the interval, the braid poset, the link and
    ``FacePoset.from_qnodes`` each build under a cap of their node count
    and refuse a cap one lower."""
    w0, s1 = A2.from_word((0, 1, 0)), A2.simple(0)
    top = make_qnode(A2.identity, (w0, w0))
    builders = {
        "build_interval": partial(build_interval, top),
        "braid_poset": partial(braid_poset, A2, (0, 1, 0, 1, 0)),
        "link_poset": partial(link_poset, make_qnode(s1, (s1, s1)), top),
        "from_qnodes": partial(FacePoset.from_qnodes, list(interval_labels(top))),
    }
    sizes = {name: len(build()) for name, build in builders.items()}
    for name, build in builders.items():
        monkeypatch.setattr(posets, "DEFAULT_NODE_CAP", sizes[name])
        assert len(build()) == sizes[name], name
        monkeypatch.setattr(posets, "DEFAULT_NODE_CAP", sizes[name] - 1)
        with pytest.raises(CapExceededError):
            build()
    assert sizes["braid_poset"] == 12 and sizes["from_qnodes"] == sizes["build_interval"]


def test_link_nodes_are_the_nodes_above_its_bottom():
    """A link, built as the box above its bottom, is byte for byte the
    interval restricted to the nodes of the bottom's ``above`` mask, in
    the interval's order, with ranks shifted so that the covers of the
    bottom have rank 0: the same nodes, ranks, masks and up-cover index, on
    every link of every hatQ top of rank >= 2."""
    links = 0
    for _, group, ns in _hatQ_families():
        for n in ns:
            for top in iter_qnodes(group, n):
                if top.rank < 2:
                    continue
                interval = build_interval(top)
                ups = interval.up_covers()
                for b in range(1, len(interval) - 1):
                    link = link_poset(interval.nodes[b], top)
                    keep = members(interval.above[b])
                    pos = {b: 0, **{old: new for new, old in enumerate(keep, start=1)}}
                    shift = interval.ranks[b] + 1
                    assert link.nodes == (BOTTOM, *(interval.nodes[i] for i in keep))
                    assert link.ranks == (-1, *(interval.ranks[i] - shift for i in keep))
                    assert link.below == (0, *(sum(1 << pos[j] for j in members(interval.below[i])
                                                   if j in pos) for i in keep))
                    assert link.up_covers() == tuple(tuple(pos[j] for j in ups[i])
                                                     for i in (b, *keep))
                    links += 1
    assert links == 3054


def test_link_boxes_match_the_pairwise_order(A2):
    """Every link of the A2 n=2 top (e ; w0, w0), built as a box from the
    group's interval records, equals ``FacePoset.from_qnodes`` on the
    labels strictly above its bottom, listed by :func:`interval_labels`:
    the same nodes in the same order, masks and up-cover index, and the
    ranks less the rank of the bottom's covers."""
    w0 = A2.from_word((0, 1, 0))
    top = make_qnode(A2.identity, (w0, w0))
    labels = list(interval_labels(top))
    for b in labels:
        if b == top:
            continue
        link = link_poset(b, top)
        oracle = FacePoset.from_qnodes(q for q in labels if q != b and qnode_leq(b, q))
        assert link.nodes == oracle.nodes and link._boxes
        assert link.ranks == tuple(r - b.rank - 1 for r in oracle.ranks)
        assert link.below == oracle.below and link.up_covers() == oracle.up_covers()
    assert len(labels) == 167


def test_interval_records_cleared_at_their_cap_build_the_same_posets(monkeypatch):
    """With the memos of lower-interval records and of plans capped at 3,
    every A2 n=2 top, built twice, builds the poset of the uncached builder
    ``oracles.bucket_build_interval``, while both memos are cleared on the
    way, the plans also with the records."""
    monkeypatch.setattr(weyl, "_LOWER_CACHE_CAP", 3)
    group = WeylGroup(cartan_of_type("A", 2))
    tops = 0
    for _ in range(2):
        for top in iter_qnodes(group, 2):
            assert_same_poset(build_interval(top), oracles.bucket_build_interval(top))
            stats = group.cache_stats()
            assert stats["lower"]["size"] <= 4 and stats["plan"]["size"] <= 4
            tops += 1
    stats = group.cache_stats()
    assert tops == 2 * 167 and stats["plan"]["clears"] >= stats["lower"]["clears"] > 0


def test_kept_plans_build_the_same_posets():
    """Every top of A2 n <= 2, B2 n <= 2, A3 n=1, affine A1 n=2 (length <=
    4) and G2 n=1, built on one group per family in a seeded shuffled
    order, so that most builds read a plan kept by an earlier one, equals
    ``oracles.bucket_build_interval``; and every link box of the A2 n=2
    top (e ; w0, w0), built twice in a shuffled order on the same group,
    equals ``FacePoset.from_qnodes`` on the labels above its bottom: the
    same nodes, ranks (less those of the bottom's covers in a link),
    masks and up-cover index."""
    rng = random.Random(50)
    builds = reused = 0
    for family, rank, ns, cap in (("A", 2, (1, 2), None), ("B", 2, (1, 2), None),
                                  ("A", 3, (1,), None), ("affine-A", 1, (2,), 4),
                                  ("G", 2, (1,), None)):
        group = WeylGroup(cartan_of_type(family, rank))
        tops = [top for n in ns for top in iter_qnodes(group, n, length_cap=cap)]
        rng.shuffle(tops)
        for top in tops:
            reused += (top.wbar, None) in group._plan_cache
            poset, oracle = build_interval(top), oracles.bucket_build_interval(top)
            assert poset.nodes == oracle.nodes and poset.ranks == oracle.ranks
            assert poset.below == oracle.below and poset.up_covers() == oracle.up_covers()
            builds += 1
        assert group.cache_stats()["plan"] == {
            "size": len({top.wbar for top in tops}), "clears": 0}
    # 231 factor tuples, each with its plan made by the first build over it
    assert (builds, reused) == (1563, 1563 - 231)

    group = WeylGroup(cartan_of_type("A", 2))
    w0 = group.from_word((0, 1, 0))
    top = make_qnode(group.identity, (w0, w0))
    labels = list(interval_labels(top))
    bottoms = [b for b in labels if b != top] * 2
    rng.shuffle(bottoms)
    for b in bottoms:
        reused += (top.wbar, b) in group._plan_cache
        link = link_poset(b, top)
        oracle = FacePoset.from_qnodes(q for q in labels if q != b and qnode_leq(b, q))
        assert link.nodes == oracle.nodes
        assert link.ranks == tuple(r - b.rank - 1 for r in oracle.ranks)
        assert link.below == oracle.below and link.up_covers() == oracle.up_covers()
    assert (len(bottoms), reused) == (2 * 166, 1563 - 231 + 166)


def test_interval_records_are_bounded_by_the_group():
    """Building every B3 n=1 top on a fresh group leaves at most one record
    per element w, that of [e, w], in all the group's memos: 48 = |W(B3)|,
    with the memo never cleared, so none was dropped to stay under the
    bound."""
    group = WeylGroup(cartan_of_type("B", 3))
    tops = 0
    for top in iter_qnodes(group, 1):
        build_interval(top)
        tops += 1
    stats = group.cache_stats()["lower"]
    records = [r for memo in group._memos.values() for r in memo.values()
               if isinstance(r, weyl.BruhatInterval)]
    assert tops == 847 and len(records) == stats["size"] <= 48 and stats["clears"] == 0


def assert_refused(elements, pairs):
    """The chain-length table finds the relations impure, and ``FacePoset``
    refuses their order, given by masks or with its up-cover index."""
    assert not relation_is_pure(elements, pairs)
    nodes, ranks, below = relation_order(elements, pairs)
    for index in (None, oracle_up_covers(below)):
        with pytest.raises(ValueError, match="not graded"):
            FacePoset(nodes, ranks, below, index)


def test_is_pure_counterexample():
    """A 4-chain with an extra element glued between its ends: the pair
    (a, d) has maximal chains of lengths 3 and 2, so the cover x < d skips
    a rank and the poset is refused."""
    assert_refused(
        ["a", "b", "c", "d", "x"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "x"), ("x", "d")],
    )


def test_face_poset_refuses_a_cover_that_skips_a_rank():
    """A cover that raises the rank by 2, or by 0 before one that raises it
    by 1, is refused, as are ranks that fall along the node order: there
    the first and last upper cover of the bottom have rank 0 and the one
    between them rank 2, which the first and last alone would let pass.
    Covers given as an index are refused likewise: a < c < t and b < t,
    with t at rank 3.  A chain with ranks that go up one at a time from
    any start is accepted."""
    for ranks, below in [
        ([-1, 0, 2, 3], [0, 1, 3, 7]),  # the cover a < b skips rank 1
        ([-1, 0, 0, 1], [0, 1, 3, 3]),  # a is covered by b at its rank, by c one up
        ([-1, 0, 2, 0], [0, 1, 1, 1]),  # three atoms, the middle one at rank 2
    ]:
        with pytest.raises(ValueError, match="not graded"):
            FacePoset([BOTTOM, *"abc"[:len(ranks) - 1]], ranks, below)
    with pytest.raises(ValueError, match="not graded"):
        oracles.from_lower_covers([BOTTOM, "a", "b", "c", "t"], [0, 1, 1, 2, 3],
                                  [[], [0], [0], [1], [2, 3]])
    for start in (-1, 0, 5):
        chain = FacePoset([BOTTOM, "a", "b"], [start, start + 1, start + 2], [0, 1, 3])
        assert is_pure(chain) and chain.covers == ((0, 1), (1, 2))


def test_boolean_lattice_pure_thin():
    # the bottom plays the empty set
    poset = from_covers(["a", "b", "ab"], [("a", "ab"), ("b", "ab")])
    assert is_pure(poset)
    assert is_thin(poset)
    assert is_eulerian(poset)
    assert mobius(poset, 0, poset.nodes.index("ab")) == 1
    assert open_boundary_euler(poset) == 2  # two points: the 0-sphere


def test_open_boundary_euler_needs_unique_maximum():
    # two maximal atoms; the bottom alone
    for elements in (["a", "b"], []):
        with pytest.raises(ValueError):
            open_boundary_euler(from_covers(elements, []))


@pytest.mark.parametrize(
    "elements, pairs",
    [
        # three atoms below a top: [0^, t] has three middle elements
        (["a", "b", "c", "t"], [("a", "t"), ("b", "t"), ("c", "t")]),
        # a chain: [0^, b] has one middle element
        (["a", "b"], [("a", "b")]),
        # a diamond with a tail: [a, t] has the single middle element c
        (["a", "b", "c", "t"], [("a", "c"), ("b", "c"), ("c", "t")]),
        # four atoms below a top: [0^, t] has the path count 4, even but
        # not 2
        (["a", "b", "c", "d", "t"], [(x, "t") for x in "abcd"]),
        # a path 1-2-3-4 under y and a triangle 5-6-7 under w: [1, y] has
        # the single middle element 12, and y ends a rank band that w,
        # not above 1, shares, so the walk from 1 reads that band in part
        ([*"1234567", "12", "23", "34", "56", "67", "57", "w", "y"],
         [(v, e) for e in ("12", "23", "34", "56", "67", "57") for v in e]
         + [(e, "w") for e in ("56", "67", "57")] + [(e, "y") for e in ("12", "23", "34")]),
    ],
)
def test_not_thin_not_eulerian(elements, pairs):
    poset = from_covers(elements, pairs)
    assert not is_thin(poset)
    assert not is_eulerian(poset)
    assert not oracle_is_thin(poset) and not mask_scan_is_thin(poset)


def test_path_count_three_on_a_length_two_interval():
    """Three atoms below a top: three paths of two covers into the top of a
    genuine length-2 interval."""
    poset = from_covers(["a", "b", "c", "t"], [("a", "t"), ("b", "t"), ("c", "t")])
    assert two_step_paths(poset, 0, poset.nodes.index("t")) == 3
    assert not is_thin(poset)


def test_path_count_off_two_on_a_longer_interval():
    """[0^, y] has one path of two covers (through r) but length 3 (through
    an edge): the cover r < y skips a rank, and the poset is refused."""
    assert_refused(
        ["p", "q", "e", "f", "r", "y"],
        [("p", "e"), ("q", "e"), ("p", "f"), ("q", "f"), ("e", "y"), ("f", "y"), ("r", "y")],
    )


def _links_and_relations(A2):
    """Three sampled links, as (bottom, top) pairs, of each of twelve
    sampled A2 n=2 tops, then 300 seeded relation sets (elements, pairs)
    on up to 8 elements: all drawn from one generator."""
    rng = random.Random(5)
    tops = [top for top in iter_qnodes(A2, 2) if top.rank >= 2]
    links = []
    for top in rng.sample(tops, 12):
        nodes = build_interval(top).nodes
        links += [(nodes[i], top) for i in rng.sample(range(1, len(nodes) - 1), 3)]
    relations = []
    for _ in range(300):
        size = rng.randint(1, 8)
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.35]
        relations.append((list(range(size)), pairs))
    return links, relations


def _differential_posets(A2):
    """Every hatQ interval, every A2 braid poset of a word of length <= 5,
    the sampled links, and the orders of the seeded relation sets that the
    chain-length table finds pure (``FacePoset`` refuses the others)."""
    for _, group, ns in _hatQ_families():
        for n in ns:
            for top in iter_qnodes(group, n):
                yield build_interval(top)
    for length in range(1, 6):
        for letters in product(range(2), repeat=length):
            yield braid_poset(A2, letters)
    links, relations = _links_and_relations(A2)
    for bottom, top in links:
        yield link_poset(bottom, top)
    for elements, pairs in relations:
        if relation_is_pure(elements, pairs):
            yield from_covers(elements, pairs)


def test_pure_and_thin_match_chain_length_oracle(A2):
    """The cover-based checks equal the chain-length table on every interval
    of the hatQ families, every short A2 braid word, sampled links and
    seeded random posets: all of them pure, thin or not."""
    thin_seen = set()
    for poset in _differential_posets(A2):
        assert is_pure(poset) is oracle_is_pure(poset) is True
        thin = is_thin(poset)
        assert thin == oracle_is_thin(poset)
        thin_seen.add(thin)
    assert thin_seen == {True, False}


def test_refusal_matches_chain_length_purity(A2):
    """``from_covers``, with height ranks, is refused exactly when the
    chain-length table, on the cover lists read off the masks by the
    definition, finds the relations impure, on the 300 seeded relation
    sets of the differential posets; the same order given with its
    up-cover index is refused likewise."""
    kinds = {True: 0, False: 0}
    for elements, pairs in _links_and_relations(A2)[1]:
        if relation_is_pure(elements, pairs):
            poset = from_covers(elements, pairs)
            assert FacePoset(poset.nodes, poset.ranks, poset.below,
                             poset.up_covers()).covers == poset.covers
            kinds[True] += 1
        else:
            assert_refused(elements, pairs)
            kinds[False] += 1
    assert kinds == {True: 220, False: 80}


def test_covers_view_is_kept_and_lists_once(A2):
    """Every read of ``covers`` returns the one view made on the first, so
    reads of its items share one listing: on the A2 n=2 top (e ; w0, w0),
    built and given by its masks alone."""
    w0 = A2.from_word((0, 1, 0))
    built = build_interval(make_qnode(A2.identity, (w0, w0)))
    for poset in (built, FacePoset(built.nodes, built.ranks, built.below)):
        view, listings = poset.covers, []
        listing = view._listing
        view._listing = lambda: listings.append(1) or listing()
        assert poset.covers is view and len(poset.covers) == 611
        assert poset.covers[0] == (0, 1) and list(poset.covers) == list(view)
        assert poset.covers[-1] == view[-1] and listings == [1]


def test_cover_count_lists_no_pair(A2, monkeypatch):
    """``len`` and truth of ``covers`` sum the up-cover index and list no
    pair, with the listing made to raise: the count is the definition's
    on a built interval, a braid poset, a link and posets given by their
    masks alone, the bottom alone among them.  The chain order of a
    certified shelling is counted likewise."""
    w0 = A2.from_word((0, 1, 0))
    top = make_qnode(A2.identity, (w0, w0))
    bottom = next(q for q in interval_labels(top) if q.rank == 1)
    chosen = [build_interval(top), braid_poset(A2, (0, 1, 0, 1)), link_poset(bottom, top),
              from_covers(["a", "b", "ab"], [("a", "ab"), ("b", "ab")]), from_covers([], [])]
    counts = [len(oracles.oracle_covers(poset.below)) for poset in chosen]
    order = find_shelling(chosen[0]).order

    def unlisted(view):
        raise AssertionError("items listed")

    monkeypatch.setattr(posets._LazyTuple, "_list", unlisted)
    assert [len(poset.covers) for poset in chosen] == counts
    assert [bool(poset.covers) for poset in chosen] == [True] * 4 + [False]
    assert counts[0] == 611 and len(order) == 8_160
    with pytest.raises(AssertionError, match="items listed"):
        chosen[0].covers[0]


def test_cover_view_reads_as_the_listed_tuple(A2):
    """On every differential poset ``covers`` equals the tuple of the
    definition's cover pairs, either way round, and another view of them,
    and iterates, indexes (negative indices and
    IndexError past either end included) and slices, to tuples, as it
    does; it equals no list and no shorter tuple."""
    for poset in _differential_posets(A2):
        listed = oracles.oracle_covers(poset.below)
        view = poset.covers
        assert view == listed and listed == view and view == poset.covers
        assert not view != listed
        assert view != list(listed) and view != listed[:-1] and poset.covers != listed[1:]
        assert len(view) == len(listed) and tuple(view) == listed and list(view) == list(listed)
        for i in range(-len(listed), len(listed), max(1, len(listed) // 7)):
            assert view[i] == listed[i]
        for part in (slice(1, 3), slice(-3, None), slice(None, None, -2), slice(5, 2)):
            assert type(view[part]) is tuple and view[part] == listed[part]
        for i in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                view[i]


def counted_f_vector(ranks):
    """Node counts per rank above the bottom, zeros between included, by a
    ``Counter`` over the ranks."""
    counts = Counter(ranks[1:])
    return tuple(counts[r] for r in range(min(counts), max(counts) + 1)) if counts else ()


def test_f_vector_matches_rank_counter(A2, B2):
    """``f_vector`` by rank band equals a ``Counter`` over the ranks on
    every differential poset (built intervals, braid posets, links and
    posets given by their masks alone), on posets of ``from_qnodes``, on
    the bottom alone and on a single rank of atoms."""
    posets_seen = list(_differential_posets(A2))
    for group in (A2, B2):
        for top in iter_qnodes(group, 1):
            posets_seen.append(FacePoset.from_qnodes(interval_labels(top)))
    posets_seen += [from_covers([], []), from_covers(list("abc"), [])]
    for poset in posets_seen:
        assert poset.f_vector() == counted_f_vector(poset.ranks)
    assert from_covers([], []).f_vector() == ()
    assert from_covers(list("abc"), []).f_vector() == (3,)


def test_thin_path_count_matches_mask_scan(A2):
    """Thinness by two-step path counts on the up-cover index equals the
    mask scan and the chain-length table, and forms neither ``above`` nor
    the up-cover masks: on the differential posets, the same posets given
    by their masks alone, ``from_qnodes`` posets and the random graded
    posets; both verdicts occur.  The boundary of a triangle and of a
    tetrahedron, each with an isolated vertex under the top, would be thin
    and not graded: they are refused."""
    differential = list(_differential_posets(A2))
    tops = [top for top in iter_qnodes(A2, 2) if top.rank >= 2]
    verdicts = set()
    for poset in [
        *differential,
        *(FacePoset(p.nodes, p.ranks, p.below) for p in differential),
        *(FacePoset.from_qnodes(interval_labels(top))
          for top in random.Random(29).sample(tops, 20)),
        *random_graded_posets(random.Random(3), 300),
    ]:
        thin = is_thin(poset)
        assert poset._above is None and poset._cover_masks is None
        assert thin == mask_scan_is_thin(poset) == oracle_is_thin(poset)
        verdicts.add(thin)
    assert verdicts == {True, False}
    for d in (2, 3):
        with pytest.raises(ValueError, match="not graded"):
            simplicial_face_poset([*map(frozenset, combinations(range(d + 1), d)),
                                   frozenset({d + 1})])


def test_eulerian_boundary_and_covers_match_oracles(A2, monkeypatch):
    """Rank parity equals the all-pairs Mobius test, Hall's theorem equals
    the signed chain count, and the bitmask covers equal the definition,
    on the same posets.  The shared up-cover index is tuples, lists the
    covers in order and gives ``above`` as the transpose of ``below``, on
    the builders' posets and on posets given by their masks alone.

    The Eulerian walk never calls ``is_thin``: with it made to raise, the
    verdict on each poset and on the same masks alone equals the all-pairs
    Mobius test.  Thin and not thin posets occur."""
    verdicts = set()
    kinds = set()
    maxima = 0

    def no_thin(poset):
        raise AssertionError("is_eulerian called is_thin")

    for poset in _differential_posets(A2):
        masks_only = FacePoset(poset.nodes, poset.ranks, poset.below)
        with monkeypatch.context() as m:
            m.setattr(posets, "is_thin", no_thin)
            eulerian = is_eulerian(poset)
            assert is_eulerian(masks_only) == eulerian == oracle_is_eulerian(poset)
        ups = poset.up_covers()
        assert type(ups) is tuple and all(type(u) is tuple for u in ups)
        assert poset.up_covers() is ups
        listed = tuple((lo, hi) for lo, his in enumerate(ups) for hi in his)
        assert poset.covers == listed == oracles.oracle_covers(poset.below)
        transpose = [0] * len(poset)
        for j, mask in enumerate(poset.below):
            for i in members(mask):
                transpose[i] |= 1 << j
        assert list(poset.above) == transpose
        assert masks_only.up_covers() == ups and masks_only.above == poset.above
        thin = mask_scan_is_thin(poset)
        assert is_thin(masks_only) == is_thin(poset) == thin
        kinds.add(thin)
        verdicts.add(eulerian)
        top = len(poset) - 1
        if top and poset.below[top] == (1 << top) - 1:
            maxima += 1
            assert open_boundary_euler(poset) == oracle_open_boundary_euler(poset)
    assert verdicts == {True, False}
    assert kinds == {True, False}
    assert maxima == 404


def simplicial_face_poset(facets, rank_of=lambda dim: dim):
    """The faces of the simplicial complex spanned by ``facets`` (frozensets),
    with the empty face as BOTTOM and, when the facets are several, a top
    above them, built by masks alone.  A face of dimension d has rank
    ``rank_of(d)``; the bottom has dimension -1 and the top one more than
    the largest facet."""
    faces = {frozenset(s) for f in facets for k in range(1, len(f) + 1)
             for s in combinations(sorted(f), k)}
    faces = sorted(faces, key=lambda f: (len(f), sorted(f)))
    nodes = [BOTTOM, *faces]
    below = [0] + [1 | sum(1 << j for j, g in enumerate(faces, start=1) if g < f)
                   for f in faces]
    dims = [-1, *(len(f) - 1 for f in faces)]
    if len(facets) > 1:
        nodes.append("top")
        below.append((1 << len(nodes) - 1) - 1)
        dims.append(max(dims) + 1)
    return FacePoset(nodes, [rank_of(d) for d in dims], below)


def two_spheres(d):
    """Two disjoint boundaries of the d-simplex: every proper interval of
    the poset with a top is Eulerian, and [0^, top], of length d + 1, is
    not (its proper part has Euler characteristic 4)."""
    return [frozenset(s) for copy in (0, d + 1)
            for s in combinations(range(copy, copy + d + 1), d)]


@pytest.mark.parametrize(
    "make, eulerian",
    [
        # the triangle's faces (B3) with ranks from 3 and from 4: both signs
        pytest.param(partial(simplicial_face_poset, [frozenset("abc")], lambda d: d + 4), True,
                     id="B3-from-3"),
        pytest.param(partial(simplicial_face_poset, [frozenset("abc")], lambda d: d + 5), True,
                     id="B3-from-4"),
        # rank gaps, refused (None): B3 with its top two ranks up and one
        # rank up, a diamond with ranks -1, 0, 0, 3, a chain -1, 0, 2, 3
        pytest.param(partial(simplicial_face_poset, [frozenset("abc")],
                             lambda d: d + 2 * (d == 2)), None, id="B3-gap-2"),
        pytest.param(partial(simplicial_face_poset, [frozenset("abc")], lambda d: d + (d == 2)),
                     None, id="B3-gap-1"),
        pytest.param(partial(simplicial_face_poset, [frozenset("ab")],
                             lambda d: d + 2 * (d == 1)), None, id="diamond-gap"),
        pytest.param(partial(FacePoset, [BOTTOM, "a", "b", "c"], [-1, 0, 2, 3], [0, 1, 3, 7]),
                     None, id="chain-gap"),
        # [0^, top] of length 4 and of length 6 fails and every proper
        # interval holds; shifted by one rank and by seven, and with the
        # rank below the top left empty (refused)
        pytest.param(partial(simplicial_face_poset, two_spheres(3)), False, id="length-4"),
        pytest.param(partial(simplicial_face_poset, two_spheres(3), lambda d: d + 1), False,
                     id="length-4-from-1"),
        pytest.param(partial(simplicial_face_poset, two_spheres(5), lambda d: d + 7), False,
                     id="length-6-from-6"),
        pytest.param(partial(simplicial_face_poset, two_spheres(5), lambda d: d + 2 * (d == 5)),
                     None, id="length-6-gap"),
        # one 4-sphere with a top is the 5-simplex: Eulerian, ranks from 1
        pytest.param(partial(simplicial_face_poset, [frozenset(range(6))], lambda d: d + 2),
                     True, id="simplex-from-1"),
    ],
)
def test_eulerian_on_rank_gaps_and_shifted_ranks(make, eulerian):
    """The band walk reads the nodes in rank order and keeps the sign of
    the count for ranks that start above 0.  A rank gap, a cover that
    skips a rank, is refused when the poset is made (``eulerian`` None)."""
    if eulerian is None:
        with pytest.raises(ValueError, match="not graded"):
            make()
    else:
        poset = make()
        assert is_eulerian(poset) == oracle_is_eulerian(poset) == eulerian


def test_eulerian_fails_first_on_a_long_interval():
    """Two 4-spheres with a top: only [0^, top], of length 6, fails, so the
    single-popcount rule decides there."""
    poset = simplicial_face_poset(two_spheres(5))
    top = len(poset) - 1
    memo = {}
    failing = [(x, y) for x in range(len(poset)) for y in members(poset.above[x])
               if oracle_mobius(poset, x, y, memo) != (-1) ** (poset.ranks[y] - poset.ranks[x])]
    assert failing == [(0, top)] and poset.ranks[top] - poset.ranks[0] == 6
    assert not is_eulerian(poset)


def test_intervals_above_the_bottom_are_bruhat_boxes(A2, B2):
    """The premise of the bottom-only walks: in a poset from
    ``build_interval``, every [x, y] with x above the bottom holds as many
    nodes as the box [v_y, v_x] x prod_i [w_{x,i}, w_{y,i}] of Bruhat
    intervals, each counted by ``lower_interval`` and ``bruhat_leq``; on
    every hatQ top and every top of A2 n=3 and B2 n=2 of rank >= 5."""
    tops = [top for _, group, ns in _hatQ_families() for n in ns for top in iter_qnodes(group, n)]
    tops += [top for group, n in ((A2, 3), (B2, 2)) for top in iter_qnodes(group, n)
             if top.rank >= 5]
    sizes = {}  # group -> {(u, w): |[u, w]|} for u <= w
    pairs = 0
    for top in tops:
        group = top.v.group
        if group not in sizes:
            sizes[group] = {
                (u, w): sum(group.bruhat_leq(u, z) for z in group.lower_interval(w))
                for w in group.elements_up_to_length(64) for u in group.lower_interval(w)
            }
        size = sizes[group]
        poset = build_interval(top)
        assert poset._boxes
        above, below = poset.above, poset.below
        vs = [None, *(q.v for q in poset.nodes[1:])]
        ws = [None, *(q.wbar for q in poset.nodes[1:])]
        for x in range(1, len(poset)):
            vx, wx = vs[x], ws[x]
            for y in members(above[x]):
                box = size[vs[y], vx]
                for pair in zip(wx, ws[y]):
                    box *= size[pair]
                assert (above[x] & below[y]).bit_count() + 2 == box
            pairs += above[x].bit_count()
    assert (len(tops), pairs) == (244 + 285 + 63, 1_496_256)


def test_bottom_only_walks_match_the_walks_over_every_x(A2, B2):
    """On every ``build_interval`` poset of the differential set and the
    rank-8 B2 n=2 (e; w0, w0) top, purity, thinness, Eulerian-ness and the
    boundary's Euler characteristic equal those of the walks over every x
    on the same masks, given without the builder's fact, and the all-pairs
    oracle; they leave ``above`` and the up-cover masks unformed.  The
    Eulerian verdict, from the bottom alone, is kept on the poset and
    mu(0^, top) is read off it; the masks-only copy walks every x."""
    built = [poset for poset in _differential_posets(A2) if poset._boxes]
    assert len(built) == 244 + 62 + 36  # the hatQ tops, braid posets and links
    for poset in [*built, rank8_top(B2)]:
        checks = (is_pure, is_thin, is_eulerian, open_boundary_euler)
        verdicts = [check(poset) for check in checks]
        assert poset._above is None and poset._cover_masks is None
        assert poset._eulerian is verdicts[2]
        plain = FacePoset(poset.nodes, poset.ranks, poset.below)
        assert not plain._boxes
        assert verdicts == [check(plain) for check in checks]
        assert verdicts[2] == oracle_is_eulerian(plain)


def test_lazy_masks_match_the_eager_reverse_pass(A2):
    """``above`` and ``up_cover_masks()`` are formed together on the first
    read of either (each read first on every other poset), equal the
    reverse pass that construction once ran, and are the same objects at
    every later read: on the differential posets (built intervals, braid
    posets, links and posets from covers), the same posets given by their
    masks alone, ``from_qnodes`` posets and the random graded posets."""
    differential = list(_differential_posets(A2))
    tops = [top for top in iter_qnodes(A2, 2) if top.rank >= 2]
    for i, poset in enumerate([
        *differential,
        *(FacePoset(p.nodes, p.ranks, p.below) for p in differential),
        *(FacePoset.from_qnodes(interval_labels(top))
          for top in random.Random(29).sample(tops, 20)),
        *random_graded_posets(random.Random(3), 300),
    ]):
        assert poset._above is None and poset._cover_masks is None
        first = poset.above if i % 2 else poset.up_cover_masks()
        assert poset._above is not None and poset._cover_masks is not None
        above, masks = poset.above, poset.up_cover_masks()
        assert first is (above if i % 2 else masks)
        assert (above, masks) == oracles.reverse_pass_masks(poset)
    assert i + 1 == 2 * len(differential) + 20 + 300


@pytest.mark.parametrize(
    "poset",
    [
        pytest.param(simplicial_face_poset(two_spheres(3)), id="length-4"),
        pytest.param(simplicial_face_poset(two_spheres(5), lambda d: d + 7), id="length-6"),
        pytest.param(from_covers(["a", "b", "c", "y"], [(x, "y") for x in "abc"]),
                     id="three-middle-nodes"),
        # mu(0^, y) = 2 below a top t: the first wrong sign is not the last
        # node, and mu(0^, t) = -1 counts y's value 2 (1 if it were dropped)
        pytest.param(from_covers(["a", "b", "c", "y", "z", "t"],
                                 [*((x, "y") for x in "abc"), ("a", "z"), ("b", "z"),
                                  ("y", "t"), ("z", "t")]),
                     id="three-middle-nodes-below-a-top"),
        # the poset of test_eulerian_fails_first_on_a_long_interval
        pytest.param(simplicial_face_poset(two_spheres(5)), id="length-6-from-0"),
        # the 7-vertex torus with a top: every mu(0^, z) is 1 or -1, and
        # mu(0^, top) = chi - 1 = -1 has the wrong sign for length 4
        pytest.param(simplicial_face_poset([frozenset({i, (i + d) % 7, (i + 3) % 7})
                                            for i in range(7) for d in (1, 2)]),
                     id="torus"),
    ],
)
def test_builder_fact_still_refuses_an_unbalanced_cell(poset):
    """The builder's fact spares only the intervals above the bottom: a
    graded poset that carries it and has an unbalanced [0^, y] is not
    Eulerian, and one with three nodes in [0^, y] of length 2 is not thin.
    The Mobius walk from the bottom goes on past the first wrong sign:
    mu(0^, top) and the boundary equal the value-class and chain oracles."""
    assert not oracle_is_eulerian(poset)
    poset._boxes = True
    assert not is_eulerian(poset)
    assert is_thin(poset) == oracle_is_thin(poset)
    top = len(poset) - 1
    assert mobius(poset, 0, top) == oracles.mobius_by_value_classes(poset, 0, top)
    assert open_boundary_euler(poset) == oracle_open_boundary_euler(poset)


def test_hatQ_counts_a_differing_verdict_as_a_builder_mismatch(monkeypatch):
    """``verify hatQ`` runs the walks over every x on the pairwise poset:
    a thinness verdict of the built poset that differs from it is a
    ``builder-matches-pairwise`` mismatch, on that top alone."""
    real = posets.is_thin

    def wrong_on_rank_6(poset):
        return real(poset) != (poset._boxes and poset.ranks[-1] - poset.ranks[0] == 7)

    monkeypatch.setattr(posets, "is_thin", wrong_on_rank_6)
    report = verify.suite_hatQ()
    by_name = {c["check"]: c for c in report.checks}
    entry = by_name["builder-matches-pairwise"]
    assert entry["status"] == "fail" and entry["witness"]["intervals"] == 244
    assert len(entry["witness"]["bad"]) == 1 and entry["witness"]["bad"][0].startswith("A2 n=2")


def test_hatQ_reports_a_pairwise_cover_that_skips_a_rank(monkeypatch):
    """``verify hatQ`` builds each top's pairwise order, which FacePoset
    refuses when a cover skips a rank: with every relation below the A1
    n=1 label (e ; s1) dropped from ``qnode_leq``, that top's one cover
    rises from 0^ by two ranks, and the report, with no traceback, has one
    ``cover-rank-drop`` entry on it and skips its builder comparison."""
    real = posets.qnode_leq

    def drop_below_e_s1(a, b):
        if b.v.group.rank == 1 and len(b.wbar) == 1 and b.rank == 1:
            return False
        return real(a, b)

    monkeypatch.setattr(posets, "qnode_leq", drop_below_e_s1)
    report = verify.suite_hatQ()
    failed = {c["check"]: c["witness"] for c in report.checks if c["status"] != "pass"}
    assert failed == {"A1-n1-intervals": {
        "intervals": 3, "shellings": 3,
        "bad": [{"top": "A1 n=1 top=(e ; s1)", "check": "cover-rank-drop"}]}}
    by_name = {c["check"]: c for c in report.checks}
    assert by_name["builder-matches-pairwise"]["witness"] == {"intervals": 244}


def test_thin_counts_one_and_three_fail_on_a_graded_poset():
    """From 0^, y1 has one path of two covers and y2 three: the mean count
    is 2, but on a graded poset any count other than 2 fails."""
    poset = from_covers(
        ["a", "b", "c", "y1", "y2"], [("a", "y1"), ("a", "y2"), ("b", "y2"), ("c", "y2")]
    )
    y1, y2 = poset.nodes.index("y1"), poset.nodes.index("y2")
    assert (two_step_paths(poset, 0, y1), two_step_paths(poset, 0, y2)) == (1, 3)
    ups = poset.up_covers()
    assert sum(len(ups[z]) for z in ups[0]) == 2 * len({y1, y2})
    assert not is_thin(poset) and not oracle_is_thin(poset) and not mask_scan_is_thin(poset)


def test_thin_odd_count_on_an_ungraded_poset_is_refused():
    """From 0^, y has three paths of two covers (through p, q, r) but also
    chains of length 3 (through e or f, then m or m'), so [0^, y] is no
    interval of length 2: the covers p, q, r < y skip a rank, and the
    poset is refused."""
    assert_refused(
        ["p", "q", "r", "e", "f", "m", "m'", "y"],
        [("e", "m"), ("f", "m"), ("e", "m'"), ("f", "m'"),
         ("p", "y"), ("q", "y"), ("r", "y"), ("m", "y"), ("m'", "y")],
    )


def test_boundary_and_mobius_agree_whichever_runs_first(A2):
    """mu(0^, last node) and the boundary's Euler characteristic are the
    same with ``is_eulerian`` run before them and after them, and equal
    the value-class and chain oracles, on every differential poset.
    ``mobius`` is the walk and leaves the verdict alone.  On a built
    interval the boundary asks for it, so run first it computes the
    verdict, which is the same either way and kept on the poset; on any
    other poset the boundary is the walk and leaves the verdict unset.  On
    a built interval it is True iff every mu(0^, z) has its Eulerian sign;
    on any poset a True verdict implies that."""
    maxima, verdicts = 0, set()
    for first, last in zip(_differential_posets(A2), _differential_posets(A2)):
        top = len(first) - 1
        unique = top and first.below[top] == (1 << top) - 1
        eulerian = is_eulerian(first)
        after = (mobius(first, 0, top), unique and open_boundary_euler(first))
        walk = mobius(last, 0, top)
        assert last._eulerian is None
        before = (walk, unique and open_boundary_euler(last))
        assert last._eulerian is (eulerian if unique and last._boxes else None)
        assert is_eulerian(last) is eulerian is first._eulerian is last._eulerian
        assert after == before
        assert after[0] == oracles.mobius_by_value_classes(first, 0, top)
        if unique:
            assert after[1] == oracle_open_boundary_euler(first)
        signs = all(mobius(last, 0, z) == (-1) ** (last.ranks[z] - last.ranks[0])
                    for z in range(1, top))
        signs = signs and before[0] == (-1) ** (last.ranks[top] - last.ranks[0])
        assert signs == eulerian if first._boxes else signs >= eulerian
        maxima += bool(unique)
        verdicts.add(eulerian)
    assert maxima == 404 and verdicts == {True, False}


@pytest.mark.parametrize("eulerian_first", [True, False])
def test_an_unbalanced_odd_interval_from_the_bottom_is_not_eulerian(eulerian_first):
    """0^ < a, b < u < z, with u covering a and b and z covering u: the
    even-length [0^, u] balances but [0^, z] of length 3 does not, and
    [a, z] of length 2 has one middle node.  The poset is not from the
    builder, so the verdict walks every x: it is False in either call
    order, mu(0^, z) is 0 and the boundary's chi is 1 where a 2-ball's
    boundary has 0."""
    def diamond_under_z():
        return from_covers(["a", "b", "u", "z"], [("a", "u"), ("b", "u"), ("u", "z")])

    poset = diamond_under_z()
    z = poset.nodes.index("z")
    assert z == len(poset) - 1 and not poset._boxes
    if eulerian_first:
        assert not is_eulerian(poset)
    assert mobius(poset, 0, z) == oracles.mobius_by_value_classes(poset, 0, z) == 0
    assert open_boundary_euler(poset) == oracle_open_boundary_euler(poset) == 1
    assert not is_eulerian(poset) and poset._eulerian is False
    names = ["eulerian", "boundary_sphere_euler"][::1 if eulerian_first else -1]
    by_name = {c["check"]: c for c in verify.regularity_checks(diamond_under_z(), names)}
    assert by_name["eulerian"]["status"] == "fail"
    assert by_name["boundary_sphere_euler"]["witness"] == {"chi": 1, "expected": 0}


def _order_posets(A2):
    """Makers of fresh posets with a unique top: a built interval, the same
    masks alone and the non-Eulerian, non-thin diamond under a chain."""
    top = make_qnode(A2.identity, (A2.from_word((0, 1, 0)),))
    diamond = (["a", "b", "u", "z"], [("a", "u"), ("b", "u"), ("u", "z")])

    def masks_only():
        built = build_interval(top)
        return FacePoset(built.nodes, built.ranks, built.below)

    return [partial(build_interval, top), masks_only, partial(from_covers, *diamond)]


def test_each_check_runs_once_whatever_the_order(A2, monkeypatch):
    """Every order of the five ball checks, alone and with ``ball`` at each
    place, gives the same entries by name, on a fresh built interval, the
    same masks alone and a poset that is neither Eulerian nor thin; the
    boundary, run before the Eulerian check or after it, is 1 + mu(0^,
    top) by the value-class oracle.  Each call runs the shelling search,
    the thinness walk and the boundary once, and the Eulerian walk, whose
    verdict is kept, once per poset, wherever ``ball`` and its checks are
    named."""
    calls = Counter()

    def counted(name, kernel):
        def wrapper(poset, *args, **kwargs):
            calls[name] += 1
            if name == "is_eulerian" and poset._eulerian is None:
                calls["eulerian walk"] += 1
            return kernel(poset, *args, **kwargs)
        return wrapper

    for name in ("find_shelling", "is_thin", "open_boundary_euler", "is_eulerian"):
        monkeypatch.setattr(posets, name, counted(name, getattr(posets, name)))
    orders = [*permutations(verify.BALL_CHECKS), *permutations([*verify.BALL_CHECKS, "ball"])]
    statuses = set()
    for make in _order_posets(A2):
        expected = None
        for names in orders:
            calls.clear()
            entries = verify.regularity_checks(make(), names)
            assert [c["check"] for c in entries] == list(names)
            by_name = {c["check"]: c for c in entries}
            if "ball" in by_name:
                parts = by_name.pop("ball")["witness"]["checks"]
                assert [c["check"] for c in parts] == list(verify.BALL_CHECKS)
                assert parts == [by_name[n] for n in verify.BALL_CHECKS]
            expected = expected or by_name
            assert by_name == expected, names
            assert max(calls[n] for n in ("find_shelling", "is_thin", "open_boundary_euler")) == 1
            assert calls["eulerian walk"] == 1
        poset = make()
        chi = 1 + oracles.mobius_by_value_classes(poset, 0, len(poset) - 1)
        assert expected["boundary_sphere_euler"]["witness"]["chi"] == chi
        statuses.add(tuple(c["status"] for c in expected.values()))
    assert len(orders) == 840 and len(statuses) == 2


def test_boundary_alone_on_a_masks_only_poset_forms_no_above(S4):
    """On the nodes, ranks, masks and up-cover index of the A3 n=2 top
    (e ; w0, w0), 9,698 nodes, without the builder's box premise, the
    boundary named alone is the Mobius walk over ``below``: it forms no
    ``above`` mask and leaves the Eulerian verdict unset (the verdict walks
    every x there).  Its chi is that of the built interval's checks with
    the Eulerian one first and 1 + the value-class oracle's mu(0^, top)."""
    w0 = S4.from_word((0, 1, 0, 2, 1, 0))
    built = build_interval(make_qnode(S4.identity, (w0, w0)))
    copy = FacePoset(built.nodes, built.ranks, built.below, built.up_covers())
    (boundary,) = verify.regularity_checks(copy, ["boundary_sphere_euler"])
    assert len(copy) == 9_698 and not copy._boxes
    assert copy._above is None and copy._eulerian is None
    _, first = verify.regularity_checks(built, ["eulerian", "boundary_sphere_euler"])
    chi = boundary["witness"]["chi"]
    assert chi == first["witness"]["chi"] == 1 + oracles.mobius_by_value_classes(copy, 0, 9_697)
    assert boundary["status"] == first["status"] == "pass"


def test_a_poset_with_no_nodes_is_refused():
    """Node 0 is the bottom, so ``FacePoset`` refuses a poset with no nodes,
    before the shelling search, the Eulerian and thin checks, the boundary
    or the ball checks could index it."""
    entry_points = [find_shelling, is_eulerian, open_boundary_euler, is_thin,
                    lambda p: verify.regularity_checks(p, ["ball"])]
    for entry in entry_points:
        with pytest.raises(ValueError, match="no bottom"):
            entry(FacePoset([], [], []))


@pytest.mark.parametrize(
    "elements, pairs, node, value",
    [
        # k atoms under one top: mu(0^, t) = k - 1, a third and a fourth value
        (["a", "b", "c", "t"], [("a", "t"), ("b", "t"), ("c", "t")], "t", 2),
        (["a", "b", "c", "d", "t"], [(x, "t") for x in "abcd"], "t", 3),
        # a chain 0^ < a < b < c: mu(0^, b) = 0, and b is below c
        (["a", "b", "c"], [("a", "b"), ("b", "c")], "b", 0),
    ],
)
def test_mobius_of_small_posets(elements, pairs, node, value):
    poset = from_covers(elements, pairs)
    assert mobius(poset, 0, poset.nodes.index(node)) == value
    for x in range(len(poset)):
        memo = {}
        for y in [x, *members(poset.above[x])]:
            assert mobius(poset, x, y) == oracle_mobius(poset, x, y, memo)
    with pytest.raises(ValueError):
        mobius(poset, len(poset) - 1, 0)


def mobius_values_poset():
    """Four atoms, y above three of them (mu(0^, y) = 2) and z above all
    four (mu(0^, z) = 3), below a top t: mu(0^, t) = -2 reads two values
    other than 1 and -1."""
    return from_covers(["a", "b", "c", "d", "y", "z", "t"],
                       [*((x, "y") for x in "abc"), *((x, "z") for x in "abcd"),
                        ("y", "t"), ("z", "t")])


def test_mobius_matches_recursion_oracle(A2):
    """The one-pass Mobius function equals the recursion on every comparable
    pair of the differential posets and :func:`mobius_values_poset`;
    non-Eulerian ones give other values."""
    values = set()
    for poset in [*_differential_posets(A2), mobius_values_poset()]:
        for x in range(len(poset)):
            memo = {}
            for y in members(poset.above[x]):
                mu = mobius(poset, x, y)
                assert mu == oracle_mobius(poset, x, y, memo)
                values.add(mu)
    assert {-2, -1, 0, 1, 2, 3} <= values


def test_mobius_matches_value_class_oracle(A2):
    """The walk over ``below`` equals the value classes read off ``above``
    on every comparable pair of the differential posets and
    :func:`mobius_values_poset`, and values other than 1 and -1 occur."""
    values = set()
    for poset in [*_differential_posets(A2), mobius_values_poset()]:
        for x in range(len(poset)):
            for y in [x, *members(poset.above[x])]:
                mu = mobius(poset, x, y)
                assert mu == oracles.mobius_by_value_classes(poset, x, y)
                values.add(mu)
    assert {-2, -1, 0, 1, 2, 3} <= values


def test_simplex_boundary_shells_in_any_order():
    facets = [frozenset({1, 2, 3}), frozenset({0, 2, 3}), frozenset({0, 1, 3}), frozenset({0, 1, 2})]
    from itertools import permutations

    assert oracles.shelling_search(facets).shellable
    for order in permutations(range(4)):
        assert shelling_of_facets([facets[i] for i in order], search=False).shellable


def test_two_triangles_glued_at_vertex_not_shellable():
    facets = [frozenset({0, 1, 2}), frozenset({2, 3, 4})]
    res = oracles.shelling_search(facets)
    assert res.status == "not_shellable"
    # each triangle starts a search that dead-ends on the other
    assert (res.attempts, res.backtracks) == (2, 2)


def test_order_validator_rejects_what_is_not_a_shelling(A2):
    """The pairwise validator rejects the two triangles glued at a vertex,
    accepts the order of every A2 n=2 rank-4 top, and rejects that order
    once the facet that meets the first facet least is moved to second.  It
    does not search."""
    facets = [frozenset({0, 1, 2}), frozenset({2, 3, 4})]
    assert shelling_of_facets(facets, search=False).status == "not_shellable"
    tops = [top for top in iter_qnodes(A2, 2) if top.rank == 4]
    for top in tops:
        order = list(find_shelling(build_interval(top)).order)
        assert shelling_of_facets(order, search=False).shellable, top.describe()
        first = set(order[0])
        k = min(range(1, len(order)), key=lambda i: len(first & set(order[i])))
        moved = [order[0], order[k], *order[1:k], *order[k + 1:]]
        res = shelling_of_facets(moved, search=False)
        assert (res.status, res.order, res.attempts) == ("not_shellable", None, 1), top.describe()
    assert len(tops) == 18
    with pytest.raises(ValueError, match="tests/oracles.py"):
        shelling_of_facets(facets, search=True)


def test_shelling_budget_inconclusive(triangle):
    res = find_shelling(triangle, budget=1)
    assert res.status == "inconclusive"


def test_check_regular_ball_a2_pair(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    top = make_qnode(A2.identity, (A2.multiply(s1, s2), A2.multiply(s2, s1)))
    report = check_regular_ball(top)
    assert report.status == "pass"
    assert all(c["status"] == "pass" for c in report.checks)


NOT_THIN = oracles.from_lower_covers(
    [BOTTOM, "a", "b", "c", "t"], [0, 1, 1, 1, 2], [[], [0], [0], [0], [1, 2, 3]])
# two disjoint edges ab and cd below a top: the proper part is disconnected
NOT_SHELLABLE = oracles.from_lower_covers(
    [BOTTOM, "a", "b", "c", "d", "ab", "cd", "t"], [0, 1, 1, 1, 1, 2, 2, 3],
    [[], [0], [0], [0], [0], [1, 2], [3, 4], [5, 6]])


def _ball_and_checks(pure, thin, eulerian, shelling, boundary):
    """The entries of every check name, in ``CHECKS`` order, with ``ball``
    listing the five of Bjorner's criterion."""
    entries = [
        {"check": "pure", "status": pure},
        {"check": "thin", "status": thin},
        {"check": "eulerian", "status": eulerian},
        {"check": "shelling", **shelling},
    ]
    boundary = {"check": "boundary_sphere_euler", **boundary}
    ball = {"check": "ball", "status": "fail", "witness": {"checks": [*entries, boundary]}}
    return [*entries, ball, boundary]


@pytest.mark.parametrize("poset, expected", [
    (NOT_THIN, _ball_and_checks(
        "pass", "fail", "fail",
        {"status": "pass", "witness": {"certificate": "rao", "facets": 3,
                                       "attempts": 3, "backtracks": 0}},
        {"status": "fail", "witness": {"chi": 3, "expected": 2}})),
    (NOT_SHELLABLE, _ball_and_checks(
        "pass", "fail", "fail",
        {"status": "inconclusive", "witness": {"certificate": "rao", "facets": 4,
                                               "attempts": 24, "backtracks": 6,
                                               "exhausted": True}},
        {"status": "fail", "witness": {"chi": 2, "expected": 0}})),
], ids=["three-middle-nodes", "not-shellable"])
def test_every_check_reports_its_failures(poset, expected):
    """Each check's entry on a poset that fails it: the ball rolls up to
    fail, and an exhausted search's shelling is inconclusive.  Purity holds
    on every poset that can be made."""
    assert verify.regularity_checks(poset, verify.CHECKS) == expected


def test_unknown_check_name_is_a_value_error_naming_the_checks(triangle):
    with pytest.raises(ValueError, match="unknown check 'thni'") as info:
        verify.regularity_checks(triangle, ["pure", "thni"])
    assert ", ".join(verify.CHECKS) in str(info.value)


def test_rank1_witness_case_analysis(A2, B2):
    """Single-letter deletions of the concatenated word: one or two hits,
    and the covered elements match the corresponding case."""
    for group, ns in ((A2, (1, 2)), (B2, (1, 2))):
        for n in ns:
            for node in iter_qnodes(group, n):
                if node.rank != 1:
                    continue
                blocks = [w.word for w in node.wbar]
                letters = [t for word in blocks for t in word]
                hits = [
                    l
                    for l in range(len(letters))
                    if group.from_word(letters[:l] + letters[l + 1:]) == node.v
                ]
                assert len(hits) in (1, 2), node.describe()

                def delete(pos):
                    out = []
                    offset = 0
                    for word in blocks:
                        chunk = list(word)
                        if offset <= pos < offset + len(word):
                            del chunk[pos - offset]
                        offset += len(word)
                        out.append(group.from_word(chunk))
                    return tuple(out)

                poset = build_interval(node)
                top_idx = poset.nodes.index(node)
                covered = {
                    poset.nodes[lo]
                    for lo, hi in poset.covers
                    if hi == top_idx and poset.nodes[lo] is not BOTTOM
                }
                if len(hits) == 1:
                    expected = {
                        make_qnode(node.v, delete(hits[0])),
                        make_qnode(group.m_star(node.wbar), node.wbar),
                    }
                else:
                    expected = {make_qnode(node.v, delete(h)) for h in hits}
                assert covered == expected, node.describe()


def test_hatQ_sweep_b2_n2_sampled(B2):
    """Spot-check purity and thinness beyond the acceptance families."""
    import random

    rng = random.Random(23)
    nodes = [node for node in iter_qnodes(B2, 2)]
    for node in rng.sample(nodes, 25):
        poset = build_interval(node)
        assert is_pure(poset), node.describe()
        assert is_thin(poset), node.describe()


@pytest.mark.parametrize("family, rank, n, cap, count", [
    ("A", 2, 3, None, 1167), ("B", 3, 1, None, 847), ("B", 2, 2, None, 401),
    ("A", 3, 1, None, 213), ("affine-A", 1, 2, 4, 657), ("A", 1, 3, None, 15),
])
def test_iter_qnodes_lists_the_validated_labels(family, rank, n, cap, count):
    """The labels that ``iter_qnodes`` makes without ``make_qnode``'s checks
    are those ``make_qnode`` gives, in the same order."""
    group = WeylGroup(cartan_of_type(family, rank))
    elems = group.elements_up_to_length(64 if cap is None else cap)
    validated = [make_qnode(v, wbar) for wbar in product(elems, repeat=n)
                 for v in group.lower_interval(group.m_star(wbar))]
    assert list(iter_qnodes(group, n, cap)) == validated and len(validated) == count


def test_dot_export(triangle):
    dot = to_dot(triangle)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(triangle.covers)
    assert "0^" in dot
    assert "| 2" in dot  # rank label of the top cell


def test_maximal_chains_shape(triangle):
    chains = maximal_chains(triangle)
    assert len(chains) == 6
    assert all(len(c) == 3 for c in chains)


def chain_fixture_posets(A2):
    """The differential posets (every builder, pure and not), intervals
    built pairwise (their covers read off the masks), one chain, and the
    bottom alone."""
    yield from _differential_posets(A2)
    tops = [top for top in iter_qnodes(A2, 2) if 2 <= top.rank <= 5]
    for top in random.Random(7).sample(tops, 6):
        yield FacePoset.from_qnodes(interval_labels(top))
    yield from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    yield FacePoset([BOTTOM], [0], [0])


def test_maximal_chains_are_sorted_index_tuples(A2):
    """Each chain is strictly increasing, goes up by covers from a cover of
    the bottom to a maximal node, and the list is strictly increasing in
    lexicographic order."""
    lengths = set()
    for poset in chain_fixture_posets(A2):
        chains = maximal_chains(poset)
        covers = set(poset.covers)
        for chain in chains:
            assert all(lo < hi and (lo, hi) in covers for lo, hi in zip((0, *chain), chain))
            assert poset.above[chain[-1]] == 0
        assert all(a < b for a, b in zip(chains, chains[1:]))
        lengths.add(len(chains))
    assert {0, 1} <= lengths


def random_graded_posets(rng, count, ranks=(2, 4), width=3):
    """Bounded graded posets of a rank in ``ranks`` (2 to 4 by default): one
    to ``width`` nodes on each inner rank and one top, each node covering
    some nodes of the rank below and covered by some of the rank above."""
    for _ in range(count):
        rank = rng.randint(*ranks)
        levels = [[(r, i) for i in range(rng.randint(1, width))] for r in range(1, rank)]
        levels.append([(rank, 0)])
        pairs = []
        for lower, upper in zip(levels, levels[1:]):
            for hi in upper:
                pairs += [(lo, hi) for lo in rng.sample(lower, rng.randint(1, len(lower)))]
            pairs += [(lo, rng.choice(upper)) for lo in lower if all(p[0] != lo for p in pairs)]
        yield from_covers([x for level in levels for x in level], pairs)


def with_top(poset):
    """The poset with one more node, one rank above its last, above every
    node: a bounded poset whose order complex is the cone over the
    poset's, shellable iff the poset's is."""
    n = len(poset)
    return FacePoset([*poset.nodes, "top"], [*poset.ranks, poset.ranks[-1] + 1],
                     [*poset.below, (1 << n) - 1])


def bounded(poset):
    """The poset itself when it has a unique top, else :func:`with_top` of
    it when its maximal nodes share a rank, else None."""
    ups = poset.up_covers()
    maximal = [x for x in range(len(poset)) if not ups[x]]
    if len(maximal) == 1:
        return poset
    return with_top(poset) if len({poset.ranks[x] for x in maximal}) == 1 else None


def test_atom_ordering_matches_chain_search(A2):
    """The recursive atom ordering against the chain search oracle, on the
    differential posets and seeded random bounded graded posets.

    A poset whose maximal nodes share a rank is searched with a top put
    above them (:func:`bounded`).  The oracle runs on the posets of at
    most 200 chains (the rest take seconds each in it; they are shellable,
    with no oracle verdict, None).  Where the maximal chains have one
    length the verdicts agree (an exhausted ordering search where the
    chain search finds no shelling), and every returned order is the set
    of maximal chains; up to 1,000 chains it is also validated pairwise.
    A poset whose maximal nodes lie at several ranks, so that its chains
    have several lengths, is refused with ``ValueError``, also where the
    chain search finds a non-pure shelling; so is the bottom alone.
    Budgets 0 and 1 leave every poset of two or more chains inconclusive,
    and not exhausted.
    """
    verdicts = {}
    posets_seen = [*_differential_posets(A2), *random_graded_posets(random.Random(3), 300)]
    for poset in posets_seen:
        closed = bounded(poset)
        chains = maximal_chains(poset if closed is None else closed)
        chain_search = None
        if len(chains) <= 200:
            chain_search = oracles.shelling_search([frozenset(c) for c in chains]).status
        one_length = len({len(c) for c in chains}) <= 1
        if closed is None:
            assert not one_length
            with pytest.raises(ValueError, match="no unique maximum"):
                find_shelling(poset)
            key = (one_length, "refused", chain_search)
            verdicts[key] = verdicts.get(key, 0) + 1
            continue
        res = find_shelling(closed)
        if res.shellable:
            assert one_length and len(res.order) == len(chains) == res.facets
            assert set(res.order) == set(chains)
            if len(chains) <= 1000:
                assert shelling_of_facets(res.order, search=False).shellable
        else:
            assert res.status == "inconclusive" and res.exhausted and res.order is None
        key = (one_length, res.status, chain_search)
        verdicts[key] = verdicts.get(key, 0) + 1
        if len(chains) >= 2:
            for budget in (0, 1):
                spent = find_shelling(closed, budget)
                assert spent.status == "inconclusive" and not spent.exhausted
    assert verdicts == {
        (True, "shellable", "shellable"): 710,
        (True, "shellable", None): 19,
        (True, "inconclusive", "not_shellable"): 30,
        (False, "refused", "shellable"): 90,
        (False, "refused", "not_shellable"): 13,
    }
    # the bottom alone has no top; one facet is a shelling without a test
    with pytest.raises(ValueError, match="no unique maximum"):
        find_shelling(FacePoset([BOTTOM], [0], [0]), budget=0)
    chain = from_covers(["a", "b"], [("a", "b")])
    assert find_shelling(chain, budget=0) == ShellingResult("shellable", [(1, 2)], 1, 0, 0)


def test_shelling_and_boundary_refuse_the_same_unbounded_posets():
    """``find_shelling`` and ``open_boundary_euler`` share one check for a
    unique top above the bottom: both refuse the bottom alone, two maximal
    nodes at one rank and maximal nodes at two ranks with the same
    ``ValueError``; both take the first two with a top put above."""
    unbounded = [
        FacePoset([BOTTOM], [0], [0]),
        from_covers(list("abcd"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
        from_covers(list("abc"), [("a", "b")]),
    ]
    for poset in unbounded:
        messages = []
        for kernel in (find_shelling, open_boundary_euler):
            with pytest.raises(ValueError) as info:
                kernel(poset)
            messages.append(str(info.value))
        assert messages == ["poset has no unique maximum above the bottom"] * 2
    for poset, chi in zip(map(with_top, unbounded[:2]), (0, 0)):
        assert find_shelling(poset).shellable and open_boundary_euler(poset) == chi


def test_exhausted_follows_from_the_attempts():
    """On every inconclusive result of the random graded posets,
    ``exhausted == (attempts <= budget)``, and it says whether the search
    ran to its end: an exhausted result is the unbounded search's, and
    otherwise the unbounded search takes more attempts than the budget.
    Each poset is searched at budgets 0, 1, half its unbounded attempts,
    one short of them, and at them."""
    seen = {True: 0, False: 0}
    for poset in random_graded_posets(random.Random(3), 300):
        full = find_shelling(poset)
        for budget in {0, 1, full.attempts // 2, max(full.attempts - 1, 0), full.attempts}:
            res = find_shelling(poset, budget)
            if res.status != "inconclusive":
                continue
            assert res.exhausted == (res.attempts <= budget)
            if res.exhausted:
                assert res == dataclasses.replace(full, budget=budget)
            else:
                assert full.attempts > budget
            seen[res.exhausted] += 1
    assert seen == {True: 20, False: 875}


def test_chain_walks_leave_no_reference_cycle(A2):
    """The chain listing, the search and the chain order it induces leave
    nothing for the cyclic collector: with it off, a collection after each
    result is dropped frees no object, on the A2 n=2 top (e ; w0, w0)."""
    w0 = A2.from_word((0, 1, 0))
    poset = build_interval(make_qnode(A2.identity, (w0, w0)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        chains = maximal_chains(poset)
        count = len(chains)
        del chains
        assert gc.collect() == 0
        res = find_shelling(poset)
        order = list(res.order)
        del res
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert count == len(order) == 8_160


def rank8_top(B2):
    """The B2 n=2 (e; w0, w0) top: 402 nodes, 309,120 chains."""
    w0 = B2.from_word((0, 1, 0, 1))
    return build_interval(make_qnode(B2.identity, (w0, w0)))


def test_atom_orderings_match_cover_scan_oracle(A2, B2, monkeypatch):
    """The search kernel equals the kernel it replaced, kept in
    ``tests/oracles.py``: the same certificate (entries in the same order),
    attempts and backtracks on every differential poset whose maximal
    nodes share a rank, with a top put above several (:func:`bounded`; the
    244 hatQ tops among them), the 300 random graded posets and the rank-8
    B2 n=2 (e; w0, w0) top; and the same attempts when a budget of 0, 1 or
    half the unbounded count stops the search.  The 30 searches that find no
    ordering backtrack, so the dead-end memo is compared too."""
    kernel = posets._atom_orderings
    runs = []

    def both(ups, cover, above, ranks, budget):
        got = kernel(ups, cover, above, ranks, budget)
        # the top is the last node
        want = oracles.atom_orderings_by_cover_scan(ups, cover, above, len(ups) - 1, budget)
        assert got[1:] == want[1:]
        assert (got[0] is None) == (want[0] is None)
        if got[0] is not None:
            assert list(got[0].items()) == list(want[0].items())
        runs.append(got)
        return got

    monkeypatch.setattr(posets, "_atom_orderings", both)
    searched = 0
    closed = map(bounded, [*_differential_posets(A2), *random_graded_posets(random.Random(3), 300),
                           rank8_top(B2)])
    for poset in filter(None, closed):
        res = find_shelling(poset)
        if not res.attempts:
            continue
        searched += 1
        for budget in (0, 1, res.attempts // 2):
            spent = find_shelling(poset, budget)
            assert spent.status == "inconclusive" and spent.attempts == runs[-1][1] > budget
    assert runs[-4][1:] == (3_483, 0) and len(runs[-4][0]) == 824
    assert (searched, len(runs)) == (594, 4 * 594)
    unbounded = runs[::4]  # the dead-end memo runs where no ordering exists
    assert sum(r[0] is None for r in unbounded) == sum(r[2] > 0 for r in unbounded) == 30


def test_certificate_is_a_recursive_atom_ordering(A2, B2):
    """A shellable result carries its certificate, and it is a recursive
    atom ordering by the definition (``oracles.check_rao``) on every hatQ
    top, the 300 random graded posets and the rank-8 B2 n=2 (e; w0, w0)
    top; an inconclusive one carries none.  The certificate is left out of
    equality and repr.  Each certificate
    with two or more atoms at the bottom fails the check with one of them
    dropped, and with Z_2 emptied.  Ninety wider posets (rank 3 or 4, up
    to six nodes a rank) end in one whose search steps back from a dead
    end with two atoms placed before it succeeds, so a certificate made
    after a backtrack is checked too."""
    checked = mutants = 0
    hatq = [build_interval(top) for _, group, ns in _hatQ_families()
            for n in ns for top in iter_qnodes(group, n)]
    wide = list(random_graded_posets(random.Random(49), 90, ranks=(3, 4), width=6))
    backtracked = []
    for poset in [*hatq, *random_graded_posets(random.Random(3), 300), rank8_top(B2), *wide]:
        res = find_shelling(poset)
        if not res.shellable:
            assert res.certificate is None
            continue
        cert = res.certificate
        assert oracles.check_rao(poset, cert)
        checked += 1
        if res.backtracks:
            backtracked.append((res.backtracks, res.attempts))
        root = cert.get((0, 0))
        if root and len(root) >= 4:
            for steps in (root[:-2], (*root[:3], 0, *root[4:])):
                assert not oracles.check_rao(poset, {**cert, (0, 0): steps})
            mutants += 2
    assert (len(hatq), checked, mutants) == (244, 610, 898)
    assert backtracked == [(1, 70)]
    res = find_shelling(hatq[-1])
    assert res == dataclasses.replace(res, certificate=None)
    assert "certificate" not in repr(res)


def test_find_shelling_keeps_the_poset_index():
    """The search reads the poset's own up-cover index and kept masks and
    changes none: they are the same objects with the same values after it,
    and a second search gives the same result."""
    poset = from_covers(list("abcde"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                                        ("c", "e"), ("d", "e")])
    ups, masks, above = poset.up_covers(), poset.up_cover_masks(), poset.above
    values = (list(ups), list(masks), list(above))
    first = find_shelling(poset)
    assert first.shellable and first.facets == 4
    assert poset.up_covers() is ups and poset.up_cover_masks() is masks and poset.above is above
    assert (list(ups), list(masks), list(above)) == values
    assert masks == tuple(sum(1 << y for y in u) for u in ups)
    second = find_shelling(poset)
    assert list(second.order) == list(first.order)


def test_atom_ordering_walls_match_h_vector():
    """On every hatQ top, the walls of the facets of the returned order
    count the h-vector computed from the chain counts, whose top entry is 0
    (the order complex is a ball)."""
    tops = 0
    for _, group, ns in _hatQ_families():
        for n in ns:
            for top in iter_qnodes(group, n):
                poset = build_interval(top)
                h = oracles.chain_h_vector(poset)
                res = find_shelling(poset)
                assert oracles.wall_counts(res.order, len(h)) == h
                assert h[-1] == 0 and sum(h) == res.facets
                tops += 1
    assert tops == 244
