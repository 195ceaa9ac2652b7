"""Face posets of totally nonnegative strata and the verdicts of Bjorner's
regularity checks on them.

A stratum label is a pair (v, wbar) with v below the Demazure product of
wbar; its rank is the total factor length minus the length of v.  The
order is (v', wbar') <= (v, wbar) iff v <= v' and wbar' <= wbar
componentwise.  Posets are finite, carry the synthetic bottom at node 0,
and are immutable after construction.

Every face poset here is built by :func:`build_interval`, from Bruhat
covers in key space: a braid poset is the interval below
(m_star(sbar); sbar), and the link of a label b is the box [b, top] with
b replaced by the bottom.  Each label has one integer key (mixed-radix
positions of its coordinates in the group's records of the intervals
[e, w], :meth:`WeylGroup.interval`, cut from below by ``above``), and its
lower covers are the labels at its key plus the records' offsets of its
coordinates' covers, read from a dense table with a slot per key.  What
depends on the factor tuple alone is planned once per group: the plan of
a tuple (kept in the group's ``plan`` memo, cleared with the records)
holds the records, the table's size and each factor combination's base
key, length and Demazure product.  An interval is listed in one pass per
label, into rank columns of keys, over the plan's combinations, made in
that pass when the plan is missing; the node cap is checked once per
combination.  One pass in rank order ORs the masks together, strict as
they are built, and fills the up-cover index; no cover pair is listed or
sorted on the way.  The poset keeps the keys, and its ``nodes`` decode
every label from its key, once, on the first read: no check reads a
label.  ``FacePoset.from_qnodes``, which compares every pair by
:func:`qnode_leq`, is their oracle.

Every poset holds ``below`` and indexes the upper covers of each node
once, as increasing tuples.  Every poset is graded, as Bjorner's
criterion (1984, "Posets, regular CW complexes and Bruhat order") needs:
:class:`FacePoset` refuses a cover that does not raise the rank by one.
The ``above`` masks and the masks of the upper covers are formed
together, in one reverse pass over the index, only when one of them is
first read: by the shelling search and by the Eulerian walk over every
x.  ``verify.regularity_checks`` turns the verdicts into report entries.
Purity (:func:`is_pure`) is the constructor's refusal, and always holds.
Thinness (:func:`is_thin`): the paths of two covers from x, counted on
the index; any count other than 2 fails.  Eulerian-ness
(:func:`is_eulerian`): a node count on the intervals of even length from
2, two ANDs and two popcounts per pair, with the y above x read rank
band by rank band from a slice of the mask of the nodes above x; the
verdict is kept.

Thinness and Eulerian-ness start from the bottom alone on a poset from
:func:`build_interval`.  There every interval [x, y] with x above
the bottom is the product [v_y, v_x]* x prod_i [w_{x,i}, w_{y,i}] of
Bruhat intervals, because the Demazure product is monotone, so every
label between x and y is in the interval.  Bruhat intervals are thin and
Eulerian (Verma 1971; Bjorner-Brenti 2005, Lemma 2.7.3 and Cor. 2.7.10),
and so are their products, mu being multiplicative (Stanley, EC1, Prop.
3.8.2).  So only the closed cells [0^, y], the subject of the paper's
first theorem, are tested, and for Eulerian-ness only those of even
length (the boxes balance the others; see :func:`is_eulerian`).  The
builder records the fact on the poset, braid posets and links included;
the posets of the other constructors take the walks over every x, which
stay the oracle.  From the bottom, which lies below every other node, no
walk forms a mask beyond ``below``.

The Euler characteristic of the open boundary
(:func:`open_boundary_euler`) is 1 + mu(0^, top) by Philip Hall's
theorem (Stanley, EC1, Sec. 3.8).  :func:`mobius` computes mu in one
pass in rank order over ``below``, with the nodes of value 1 and -1 in
two signed masks.  Once :func:`is_eulerian` has kept the verdict True,
mu(0^, top) is the Eulerian sign (-1)^(r(top) - r(0^)) and no pass runs;
before that check, or on a poset that failed it, the pass runs.  On a
built interval a True verdict, and so that mu, rests on the boxes above
the bottom, which ``verify hatQ`` checks against the pairwise order.

Shellability is certified on the poset, not on its chains:
:func:`find_shelling` searches a closed interval [0^, top] for a
recursive atom ordering (Bjorner-Wachs 1983, "On lexicographically
shellable posets", Thm 3.2: a bounded graded poset admits one iff it is
CL-shellable).  The search tells the intervals of length <= 2, which
take their atoms in any order, by rank, and its certificate is its memo,
read before each recursive call; the result carries it.  The
lexicographic order of the maximal chains it induces is a shelling; it
is listed only when it is read.  An exhausted search proves only "not
CL-shellable", so it reports ``inconclusive``.
``shelling_of_facets`` only validates a given order of explicit facets,
pairwise; the backtracking search over chain orders is a test oracle
(``tests/oracles.py``), off this path.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, product, repeat

from .weyl import WeylElt, WeylGroup

DEFAULT_NODE_CAP = 20_000
DEFAULT_SHELLING_BUDGET = 2_000_000


class CapExceededError(RuntimeError):
    """A configurable size or budget cap was hit."""


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


BOTTOM = _Sentinel("0^")


class QNode(namedtuple("QNode", ("v", "wbar", "rank"))):
    """Stratum label (v, wbar) with its rank: an immutable tuple-based
    record, equal only to a label with equal fields, never to a plain tuple."""

    __slots__ = ()
    # a label from a (v, wbar, rank) tuple, without namedtuple's check of
    # the field count: half the time of QNode(v, wbar, rank)
    _make = classmethod(tuple.__new__)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def describe(self) -> str:
        ws = ",".join(w.describe() for w in self.wbar)
        return f"({self.v.describe()} ; {ws})"


def make_qnode(v: WeylElt, wbar) -> QNode:
    """Validated node: requires v <= m_star(wbar)."""
    wbar = tuple(wbar)
    group = v.group
    group.check_same(v, *wbar)
    if not group.bruhat_leq(v, group.m_star(wbar)):
        raise ValueError(f"empty stratum: {v.describe()} not below the Demazure product")
    rank = sum(w.length for w in wbar) - v.length
    return QNode(v, wbar, rank)


def qnode_leq(a: QNode, b: QNode) -> bool:
    """Closure order: b.v <= a.v and a.wbar <= b.wbar componentwise."""
    group = a.v.group
    if len(a.wbar) != len(b.wbar):
        raise ValueError("tuples of different lengths are incomparable")
    if not group.bruhat_leq(b.v, a.v):
        return False
    return all(group.bruhat_leq(x, y) for x, y in zip(a.wbar, b.wbar))


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits as false and true bytes


def members(mask: int) -> list[int]:
    """The set bits of ``mask``, in increasing order: one C-level pass over
    its binary digits, lowest first."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


class FacePoset:
    """Finite augmented face poset with an explicit rank function.

    Node 0 is the synthetic bottom (the empty face, ``BOTTOM`` for every
    poset built here), below every other node, and the nodes are stored in
    rank order: ranks strictly increase along the order, so every node
    strictly below node ``i`` has an index smaller than ``i``.  ``nodes``
    is a tuple, except on a poset from :func:`build_interval`: there it is
    a :class:`_LazyTuple` that keeps each label as its integer key, decodes
    every label on the first read other than ``len`` and keeps the tuple of
    the labels, which it equals, in place of the keys.  The keys take about
    37 bytes per node (a list slot and an int); on the 9,698 nodes of the
    A3 n=2 top (e ; w0, w0) the poset takes 700 bytes per node before its
    labels are read, and 742 after: the labels of one factor combination
    share one ``wbar`` tuple.

    ``below[i]`` and ``above[i]`` are int bitmasks of the nodes strictly
    below and above node ``i``.  The upper covers of every node are
    indexed once, as increasing tuples (:meth:`up_covers`).  The builders
    pass the index in as ``ups`` (increasing lists, one per node); a poset
    given by its masks alone reads it off ``below``.  Only ``below`` and
    the index are formed at construction.  ``above`` is ORed over the index
    in one reverse pass, which also forms the mask of each node's upper
    covers (:meth:`up_cover_masks`), on the first read of either; the
    shelling search and the Eulerian walk over every x read them, the
    thinness and Eulerian checks of a poset from :func:`build_interval`
    do not.  ``below`` takes about 0.05 n^2 bytes for n nodes (508 bytes
    per node on the 9,698 nodes of the A3 n=2 top (e ; w0, w0)); the
    reverse pass adds about 0.23 n^2 bytes (2,202 bytes per node there).
    The poset is graded by construction: ``ValueError`` refuses ranks that
    decrease along the node order, or a cover that does not raise the rank
    by exactly one, read off the first and last upper cover of each node.
    The poset is immutable, so what is derived from it alone is kept once
    computed: the two mask tuples and the Eulerian verdict
    (:func:`is_eulerian`), off which :func:`mobius` reads mu(0^, last
    node) when it is True.
    :func:`build_interval` also records that every interval above the
    bottom is a box of Bruhat intervals (``_boxes``), so that
    :func:`is_thin` and :func:`is_eulerian` walk from the bottom alone.
    """

    def __init__(self, nodes, ranks, below, ups=None):
        self.nodes: Sequence = nodes if isinstance(nodes, _LazyTuple) else tuple(nodes)
        self.ranks: tuple[int, ...] = tuple(ranks)
        self.below: tuple[int, ...] = tuple(below)
        n = len(self.nodes)
        if ups is None:
            ups = [[] for _ in range(n)]
            # lo is covered by hi iff it lies below no node below hi
            for hi, mask in enumerate(self.below):
                mids = members(mask)
                inner = 0
                for mid in mids:
                    inner |= self.below[mid]
                for lo in mids:
                    if not inner >> lo & 1:
                        ups[lo].append(hi)
        self._ups = tuple(map(tuple, ups))
        # the upper covers of a node are increasing indices and ranks do not
        # decrease along the index, so both ends at r + 1 put every cover there
        ranks = self.ranks
        if list(ranks) != sorted(ranks):
            raise ValueError("not graded: the ranks fall along the node order")
        for r, his in zip(ranks, self._ups):
            if his and not ranks[his[0]] == ranks[his[-1]] == r + 1:
                raise ValueError("not graded: a cover does not raise the rank by one")
        # above and the up-cover masks, formed together when either is first read
        self._above = self._cover_masks = None
        self._eulerian = None  # the verdict of is_eulerian, kept at its first call
        # set by build_interval alone: every [x, y] with x above the bottom
        # is a product of Bruhat intervals
        self._boxes = False

    @classmethod
    def from_qnodes(cls, qnodes) -> "FacePoset":
        """Stratum labels ordered by :func:`qnode_leq` on every pair, plus the
        bottom: the pairwise oracle of :func:`build_interval` and
        :func:`braid_poset`.

        ``DEFAULT_NODE_CAP`` bounds the node count, bottom included; an
        iterator of labels is abandoned as soon as it passes the cap.
        """
        elements = []
        for q in qnodes:
            elements.append(q)
            if len(elements) + 1 > DEFAULT_NODE_CAP:
                raise CapExceededError(f"poset exceeds node cap {DEFAULT_NODE_CAP}")
        elements.sort(key=lambda q: q.rank)
        nodes = [BOTTOM, *elements]
        ranks = [min((q.rank for q in elements), default=0) - 1]
        ranks.extend(q.rank for q in elements)
        below = [0] + [
            1 | sum(1 << j for j in range(1, i)
                    if ranks[j] < ranks[i] and qnode_leq(nodes[j], nodes[i]))
            for i in range(1, len(nodes))
        ]
        return cls(nodes, ranks, below)

    # -- basic structure -----------------------------------------------------

    def __len__(self):
        return len(self.nodes)

    def leq(self, i: int, j: int) -> bool:
        return i == j or bool(self.below[j] >> i & 1)

    @property
    def covers(self) -> Sequence[tuple[int, int]]:
        """Cover pairs (lo, hi): lo < hi with nothing strictly between.

        Sorted, as a view of :meth:`up_covers`, which the builders pass in
        and a poset given by its masks alone reads off ``below``: its
        ``len`` sums the index's lists and lists no pair, and the first
        other read of the view lists the pairs once, as the tuple that the
        view equals (see :class:`_LazyTuple`).
        """
        ups = self._ups
        return _LazyTuple(sum(map(len, ups)),
                          lambda: [(lo, hi) for lo, his in enumerate(ups) for hi in his])

    def up_covers(self) -> tuple[tuple[int, ...], ...]:
        """The upper covers of each node, increasing; shared, not copied."""
        return self._ups

    @property
    def above(self) -> tuple[int, ...]:
        """The mask of the nodes strictly above each node: formed with
        :meth:`up_cover_masks` on the first read of either, then kept."""
        if self._above is None:
            self._reverse_pass()
        return self._above

    def up_cover_masks(self) -> tuple[int, ...]:
        """The upper covers of each node as one bitmask: formed with
        :attr:`above` on the first read of either, then kept, not copied."""
        if self._cover_masks is None:
            self._reverse_pass()
        return self._cover_masks

    def _reverse_pass(self) -> None:
        """OR ``above`` over the up-cover index, keeping each node's mask of
        upper covers on the way: every upper cover of lo has a larger index,
        so reverse index order completes above[hi] before it is read."""
        n = len(self.nodes)
        above, cover = [0] * n, [0] * n
        for lo in range(n - 1, -1, -1):
            mask = bits = 0
            for hi in self._ups[lo]:
                mask |= above[hi]
                bits |= 1 << hi
            above[lo], cover[lo] = mask | bits, bits
        self._above, self._cover_masks = tuple(above), tuple(cover)

    def f_vector(self) -> tuple[int, ...]:
        """Node counts per rank, bottom excluded, from the lowest rank above
        it to the highest: the ranks are sorted, so each rank's count is the
        width of its band, whose first index is found by bisection."""
        ranks = self.ranks
        if len(ranks) < 2:
            return ()
        starts = [bisect_left(ranks, r, 1) for r in range(ranks[1], ranks[-1] + 2)]
        return tuple(b - a for a, b in zip(starts, starts[1:]))


# -- builders ------------------------------------------------------------------


def _cover_index(keys, nv: int, vmoves, wmoves, size: int) -> tuple[list[int], list[list[int]]]:
    """``below`` and the up-cover index of the nodes 1, 2, ... (in rank
    order, above the bottom at node 0), in key space: node i has the key
    ``k = keys[i - 1]`` in ``range(size)``, and its lower covers are the
    nodes keyed by k plus a difference in ``vmoves[k % nv]`` or nv times
    one in ``wmoves[k // nv]``, or the bottom if there is none.  A dense
    table of ``size`` slots holds the node of each key, 0 where there is
    none.  One pass in node order ORs their masks into ``below[i]`` and
    appends i to their buckets, so every bucket fills in increasing order.
    """
    node = [0] * size  # node indices are >= 1
    for i, k in enumerate(keys, start=1):
        node[k] = i
    below = [0]
    ups: list[list[int]] = [[] for _ in range(len(keys) + 1)]
    for hi, k in enumerate(keys, start=1):
        mask = 0
        for o in vmoves[k % nv]:
            if lo := node[k + o]:
                mask |= below[lo] | 1 << lo
                ups[lo].append(hi)
        for o in wmoves[k // nv]:
            if lo := node[k + nv * o]:
                mask |= below[lo] | 1 << lo
                ups[lo].append(hi)
        if not mask:
            mask = 1
            ups[0].append(hi)
        below.append(mask)
    return below, ups


class _Plan:
    """What :func:`build_interval` lists for one factor tuple (and box
    bottom b), whatever top.v: v's record ([e, m_star(wbar)], or [e, v_b]
    in a box), the factors' records, the size of the key table, and each
    combination of the cut factor ranges, in listing order, as its base
    key, its length and its Demazure product, in three parallel lists.
    A build makes the plan while it lists its labels and keeps it in the
    group's ``plan`` memo, which is cleared with the records."""

    __slots__ = ("vrec", "frecs", "stride", "bases", "lengths", "products")

    def __init__(self, group: WeylGroup, wbar, bottom: QNode | None):
        # in the box [b, top] every combination has m_star above v_b
        self.vrec = group.interval(group.m_star(wbar) if bottom is None else bottom.v)
        self.frecs = tuple(map(group.interval, wbar))
        self.bases, self.lengths, self.products = [], [], []

    def listing(self, group: WeylGroup, bottom: QNode | None):
        """Yield each combination of the factor ranges [w_{b,i}, w_i] ([e,
        w_i] with no bottom), in listing order, as its base key, length and
        Demazure product, each appended to its list as it is yielded: a
        listing stopped by the node cap leaves the plan part made, and it
        is not kept."""
        factors, digits, stride = [], [], len(self.vrec.elements)
        for r, low in zip(self.frecs, repeat(group.identity) if bottom is None else bottom.wbar):
            kept = members(r.above(low))  # the positions in [e, w_i] of the x in [low, w_i]
            factors.append([r.elements[p] for p in kept])
            digits.append([stride * p for p in kept])
            stride *= len(r.elements)
        self.stride = stride
        bases, lengths, products, demazure = self.bases, self.lengths, self.products, group.demazure
        *heads, last = factors
        for head, hds in zip(product(*heads), product(*digits[:-1])):
            prefix = group.m_star(head) if head else None
            hbase, hlength = sum(hds), sum([w.length for w in head])
            for w, wd in zip(last, digits[-1]):
                base, length, m = hbase + wd, hlength + w.length, demazure(prefix, w) if head else w
                bases.append(base)
                lengths.append(length)
                products.append(m)
                yield base, length, m


def interval_labels(top: QNode):
    """The labels weakly below top: every wbar' <= top.wbar componentwise
    (in product order of the factor lower intervals), then every v' with
    top.v <= v' <= m_star(wbar') (in order of the lower interval)."""
    group = top.v.group
    # v' <= m_star(wbar') <= m_star(top.wbar): test top.v <= v' once per v'
    above_v = {
        u for u in group.lower_interval(group.m_star(top.wbar))
        if group.bruhat_leq(top.v, u)
    }
    for combo in product(*(group.lower_interval(w) for w in top.wbar)):
        length = sum(w.length for w in combo)
        for v in group.lower_interval(group.m_star(combo)):
            if v in above_v:
                yield QNode(v, combo, length - v.length)


def build_interval(top: QNode, node_cap: int = DEFAULT_NODE_CAP,
                   _bottom: QNode | None = None) -> FacePoset:
    """Closed interval [0^, top]: all labels weakly below top, plus a bottom.

    Above the bottom every interval is a box of Bruhat intervals.  Let x
    <= z <= y, with x a label: then v_y <= v_z <= v_x, each factor has
    w_{x,i} <= w_{z,i} <= w_{y,i}, and v_z <= v_x <= m_star(wbar_x) <=
    m_star(wbar_z), since the Demazure product is monotone in each factor;
    so z is a label (top.v <= v_y <= v_z), and [x, y] is the whole product
    [v_y, v_x]* x prod_i [w_{x,i}, w_{y,i}], the first factor with its
    order reversed.  Bruhat intervals are Eulerian in every Coxeter group
    (Verma 1971, "Mobius inversion for the Bruhat ordering on a Weyl
    group"; Bjorner-Brenti 2005, "Combinatorics of Coxeter Groups", Cor.
    2.7.10) and thin (ibid., Lemma 2.7.3), and so are their duals.  So is
    a product of them: ranks add, and mu is multiplicative on products
    (Stanley, EC1, Prop. 3.8.2), so mu(x, y) = (-1)^(r(y) - r(x)); an
    Eulerian graded poset is thin (an interval of length 2 with m middle
    nodes has mu = m - 1).  The poset returned records this fact
    (``_boxes``; no other constructor sets it), and :func:`is_thin` and
    :func:`is_eulerian` then test only the intervals [0^, y], the closed
    cells.  By the same monotony a braid poset is an interval (every label
    below (m_star(sbar); sbar) has v = m_star(sbar)) and a link is a box
    (every label between b and top is in [b, top]).  With ``_bottom`` a
    label b strictly below top, the box [b, top] is built with b as 0^: v
    over [top.v, v_b], factor i over [w_{b,i}, w_i], ranks from 0 at the
    covers of b.

    The lower covers of (v, wbar) are the labels (v', wbar) with v' an
    upper Bruhat cover of v, and (v, wbar) with one factor replaced by a
    lower Bruhat cover.  These are the covers of the boxes, so the order
    is their transitive closure and every cover raises the rank by one
    (``verify hatQ`` checks both on the pairwise order).

    A label's key is mixed radix: v's position in the group's record
    (:meth:`WeylGroup.interval`) of [e, m_star(top.wbar)] ([e, v_b] in a
    box), then each factor's in that of [e, w_i], each range cut from below
    by its record's ``above`` (of top.v; of w_{b,i} in a box, e otherwise),
    so ``divmod(key, len(vs))`` is the factor combination's digit, first
    factor fastest, and v's.  Everything but v's cut depends on top.wbar
    (and b) alone, so it is planned once per group (:class:`_Plan`, kept
    in the ``plan`` memo under the key (top.wbar, b or None)): the
    records, the table's size and, for each combination of the cut factor
    ranges in listing order, its base key, its length and its Demazure
    product, one :meth:`WeylGroup.demazure` of its prefix (the product of
    all factors but the last, taken once per prefix) with its last factor,
    or that factor itself when n = 1.  A build with no plan makes it in the
    same pass that lists the labels, and keeps it only when the listing
    passes the node cap; every build of intervals, link boxes and braid
    posets lists on this one path.  For each combination, v runs over the
    record's ``below`` of its Demazure product (kept across calls), tested
    against ``above(top.v)`` label by label, in the order of
    :func:`interval_labels`, into rank columns of keys; no label is made.
    ``node_cap`` is checked once per combination, after its labels are
    listed, before any cover is looked up.  The poset's ``nodes`` are a
    :class:`_LazyTuple` over the keys in node order: its ``len`` decodes
    nothing, and its first other read decodes every label from its key's
    digits, once.  The labels of one factor combination share one
    ``wbar`` tuple, decoded once in a dict held only while the labels are
    listed.  After the listing, the records' offsets of v's upper covers
    and of the factors' lower covers (in combination digits, joined once
    per combination on every build: kept in the plans, they took 3 MB more
    over the A3 n=2 tops) find the lower covers in a table of |vs| *
    prod_i |[e, w_i]| slots; an offset that leaves a range lands on an
    empty slot.
    """
    group = top.v.group
    key = (top.wbar, _bottom)
    plan = group._plan_cache.get(key)
    if fresh := plan is None:
        plan = _Plan(group, top.wbar, _bottom)
        combos = plan.listing(group, _bottom)
    else:
        combos = zip(plan.bases, plan.lengths, plan.products)
    vrec = plan.vrec
    nv, vlengths, below_m, vcut = len(vrec.elements), vrec.lengths, vrec.below, vrec.above(top.v)
    keys: list[list] = [[] for _ in range(top.rank + 1)]  # rank columns of keys
    count = 1 if _bottom is None else 0  # the bottom: 0^, or b, listed with the labels
    for base, length, m in combos:
        for d in below_m(m):
            if vcut >> d & 1:
                keys[length - vlengths[d]].append(base + d)
                count += 1
        if count > node_cap:
            raise CapExceededError(f"poset exceeds node cap {node_cap}")
    if fresh:
        group._remember("plan", key, plan)
    # a link drops b, alone in its rank column, so that its covers rest on 0^
    skip = 0 if _bottom is None else _bottom.rank + 1
    columns = keys[skip:]
    ranks = [next(rank for rank, column in enumerate(columns) if column) - 1]
    for rank, column in enumerate(columns):
        ranks += [rank] * len(column)
    keys = list(chain.from_iterable(columns))
    del columns
    # offsets, read only now: v moves up one cover, a factor down one (in
    # combination digits key // nv, first factor fastest: len(wmoves) per step)
    wmoves = [()]
    for r in plan.frecs:
        wmoves = [w + moves for moves in r.scaled_down(len(wmoves)) for w in wmoves]
    below, ups = _cover_index(keys, nv, vrec.up, wmoves, plan.stride)
    vs, frecs = vrec.elements, plan.frecs

    def labels():
        yield BOTTOM
        combos: dict[int, tuple] = {}  # combination digit -> (wbar, its length)
        for key in keys:
            c, d = divmod(key, nv)
            combo = combos.get(c)
            if combo is None:
                wbar, rest = [], c
                for r in frecs:
                    rest, p = divmod(rest, len(r.elements))
                    wbar.append(r.elements[p])
                combo = combos[c] = tuple(wbar), sum([w.length for w in wbar])
            v = vs[d]
            yield QNode._make((v, combo[0], combo[1] - v.length))

    nodes = _LazyTuple(len(keys) + 1, labels)
    poset = FacePoset(nodes, ranks, below, ups)
    poset._boxes = True
    return poset


def braid_poset(group: WeylGroup, letters) -> FacePoset:
    """Augmented poset of subwords whose Demazure product stays maximal.

    ``letters`` lists simple reflections as 0-based vertex positions; nodes
    are pairs (w, sbar') with sbar' a componentwise subword and
    m_star(sbar') = w = m_star(sbar).  The lower covers of a node drop one
    kept letter.  It is the interval below (w; sbar), built by
    :func:`build_interval` under ``DEFAULT_NODE_CAP``: a label (v, sbar')
    there has w <= v <= m_star(sbar') <= m_star(sbar) = w, so v = w.
    """
    letters = tuple(letters)
    if not letters:
        raise ValueError("empty word")
    sbar = tuple(group.simple(t) for t in letters)
    w = group.m_star(sbar)
    return build_interval(QNode(w, sbar, len(letters) - w.length))


def link_poset(bottom: QNode, top: QNode) -> FacePoset:
    """Face poset of the link: strata strictly above bottom, up to top.

    ``bottom`` must be a node of [0^, top] other than 0^ and top.  Every
    label between it and top is in that interval, so the link is the box
    [bottom, top] with bottom as 0^, built by :func:`build_interval`
    without the rest of the interval; ``DEFAULT_NODE_CAP`` bounds the link.
    """
    group = top.v.group
    if not (isinstance(bottom, QNode) and bottom != top and len(bottom.wbar) == len(top.wbar)
            and bottom.rank == sum(w.length for w in bottom.wbar) - bottom.v.length
            and group.bruhat_leq(bottom.v, group.m_star(bottom.wbar))
            and qnode_leq(bottom, top)):
        raise ValueError("bottom must be strictly below top")
    return build_interval(top, DEFAULT_NODE_CAP, bottom)


# -- regularity checks -----------------------------------------------------------


def is_pure(poset: FacePoset) -> bool:
    """All maximal chains between comparable pairs have equal length.

    Always True: :class:`FacePoset` refuses a poset with a cover that does
    not raise the rank by exactly one, so every chain of covers from x to y
    has length r(y) - r(x).  That refusal is the certificate; the function
    stays so that reports keep their ``pure`` entry.
    """
    return True


def is_thin(poset: FacePoset) -> bool:
    """Every interval of length 2 has exactly two intermediate elements.

    Count the paths x < z < y of two covers into each y two covers above
    x, on the up-cover index.  Every cover raises the rank by one (the
    constructor refuses any other poset), so every node strictly between x
    and y has rank r(x) + 1, covers x and is covered by y: the count is
    the number of elements between, and any count other than 2 fails.

    On a poset from :func:`build_interval` (``_boxes`` set) every interval
    [x, y] with x above the bottom is a product of Bruhat intervals, which
    is thin (the proof is in that function's docstring), so only x = 0^ is
    counted.  No mask is read.
    """
    ups = poset.up_covers()
    for x in range(1 if poset._boxes else len(ups)):
        paths: dict[int, int] = {}
        for z in ups[x]:
            for y in ups[z]:
                paths[y] = paths.get(y, 0) + 1
        if any(count != 2 for count in paths.values()):
            return False
    return True


def mobius(poset: FacePoset, x: int, y: int) -> int:
    """Mobius function of the interval [x, y], in one pass in rank order.

    mu(x, z) = -sum of mu(x, u) over x <= u < z.  The nodes z of [x, y] are
    visited in index order, which lists every u < z before z.  The nodes
    seen so far with mu = 1 (x first) and with mu = -1 are kept as two
    signed masks, so each z costs two ANDs and popcounts; the rare other
    nonzero values are kept in a dict of one mask per value, so a poset
    that is not Eulerian still gets exact values.  The nodes of [x, y] are
    read off ``below`` alone: those of ``below[y]`` and y whose own mask
    holds x, so the ``above`` masks are not formed.

    From the bottom to the last node, once :func:`is_eulerian` has kept
    the verdict True, mu is (-1)^(r(y) - r(x)) with no walk, as on every
    interval of an Eulerian poset; this call never runs that check.
    """
    if not poset.leq(x, y):
        raise ValueError("x is not below y")
    if poset._eulerian and x == 0 and y == len(poset.nodes) - 1:
        return -1 if (poset.ranks[y] - poset.ranks[x]) % 2 else 1
    plus, minus = 1 << x, 0  # the nodes u seen so far with mu(x, u) == 1, == -1
    others: dict[int, int] = {}  # any other nonzero value c -> its nodes so far
    below = poset.below
    mu = 1
    bit = 1 << x
    for z in members(below[y] | 1 << y):
        mask = below[z]
        if not mask & bit:  # z is not above x
            continue
        mu = (mask & minus).bit_count() - (mask & plus).bit_count()
        if others:
            mu -= sum(c * (mask & nodes).bit_count() for c, nodes in others.items())
        if mu == 1:
            plus |= 1 << z
        elif mu == -1:
            minus |= 1 << z
        elif mu:
            others[mu] = others.get(mu, 0) | 1 << z
    return mu


def is_eulerian(poset: FacePoset) -> bool:
    """mu(x, y) == (-1)^(r(y) - r(x)) on every interval, tested on the
    intervals of even length only.  The poset is immutable, so the verdict
    is kept on it at the first call and returned by every later one.

    Let S be the signed rank count, the sum of (-1)^r(z) over x <= z <= y.
    If the condition holds on every proper subinterval of [x, y], the
    recursion mu(x, y) = -sum over x <= z < y of mu(x, z) gives
    mu(x, y) = (-1)^(r(x) + r(y)) - (-1)^r(x) S, and the dual recursion
    mu(x, y) = -sum over x < z <= y of mu(z, y) gives
    mu(x, y) = (-1)^(r(x) + r(y)) - (-1)^r(y) S.  So [x, y] holds the
    condition iff S == 0, that is, iff it has as many nodes of even rank as
    of odd rank; and subtracting the two, S ((-1)^r(x) - (-1)^r(y)) == 0.
    When r(y) - r(x) is odd the bracket is +-2, so S == 0 follows.  Hence
    a smallest interval where the condition fails has even length, and by
    induction on the interval size it is enough to count the nodes of the
    intervals of length 2, 4, ...

    The count runs from each start x over the y above x.  On a poset
    from :func:`build_interval` (``_boxes`` set) the one start is the
    bottom, below every other node, so no ``above`` mask is formed: every
    [x, y] with x above the bottom is a product of Bruhat intervals, which
    is Eulerian (Verma's theorem, mu being multiplicative on products; the
    proof is in that function's docstring).  So a smallest failing
    interval is an even-length [0^, y], and the dual recursion balances
    the odd-length ones, which are not counted.  A True verdict thus puts
    mu(0^, y) = (-1)^(r(y) - r(0^)) at every y, and mu(0^, top), which
    :func:`mobius` reads off it, rests on the box premise as the verdict
    does.  The premise is checked against the pairwise order on every top
    by ``verify hatQ`` (``builder-matches-pairwise``) and on 1,496,256
    pairs by ``test_intervals_above_the_bottom_are_bruhat_boxes``.  Every
    other poset starts at every x, over ``above``, so its verdict rests on
    no premise; that walk is the oracle.

    Two popcounts decide a pair x < y of one rank parity.  Let F be the
    nodes z >= x and ``odd`` the mask of the nodes of odd rank.  F ^ odd
    is (F and even) plus (odd outside F), so the popcount of ``below[y]``
    masked by it, less that of ``below[y] & odd``, is E - O for the
    numbers E and O of nodes of even and of odd rank in [x, y).  [x, y]
    balances iff E - O is 1 for r(x) odd and -1 for r(x) even (r(y) has
    the parity of r(x)).

    Nodes are stored in rank order, so each rank is a contiguous band of
    indices, found once per call by bisection on ``ranks``.  The y above x
    are read band by band, at the ranks 2, 4, ... above x: off a slice of
    ``below`` for a band wholly above x (every band, from the bottom), else
    off a slice of the mask of the nodes above x.  ``odd`` is ORed from them.
    """
    if poset._eulerian is not None:
        return poset._eulerian
    ranks, below = poset.ranks, poset.below
    n, low = len(ranks), ranks[0]
    # by rank from the bottom's: (first index, end, all-ones mask of the band's width)
    bands, odd, lo = [], 0, 0
    for r in range(low, ranks[-1] + 1):
        hi = bisect_left(ranks, r + 1, lo)
        full = (1 << hi - lo) - 1
        bands.append((lo, hi, full))
        if r % 2:
            odd |= full << lo
        lo = hi
    # (x, the mask of the nodes above x): the bottom is below every other node
    starts = [(0, (1 << n) - 2)] if poset._boxes else enumerate(poset.above)
    for x, up in starts:
        flip, sign = (up | 1 << x) ^ odd, 1 if ranks[x] % 2 else -1
        for start, end, full in bands[ranks[x] - low + 2::2]:  # the ranks 2, 4, ... above x
            hits = up >> start & full  # the y of the band above x
            masks = below[start:end] if hits == full else [below[start + k] for k in members(hits)]
            for mask in masks:
                if (mask & flip).bit_count() - (mask & odd).bit_count() != sign:
                    poset._eulerian = False
                    return False
    poset._eulerian = True
    return True


def maximal_chains(poset: FacePoset) -> list[tuple[int, ...]]:
    """Maximal chains (as index tuples) of the poset minus its bottom.

    Each chain is strictly increasing (a cover goes up in index order), and
    the list is strictly increasing in lexicographic order: the walk takes
    the upper covers of each node in increasing order, and no maximal chain
    is a prefix of another.  The walk's stack is explicit: no reference cycle.
    """
    ups = poset.up_covers()
    chains: list[tuple[int, ...]] = []
    path: list[int] = []  # the chain so far
    stack = [iter(ups[0])]  # the covers not yet taken of 0 and of each node of path
    while stack:
        for j in stack[-1]:
            if ups[j]:
                path.append(j)
                stack.append(iter(ups[j]))
                break
            chains.append((*path, j))
        else:
            stack.pop()
            del path[-1:]
    return chains


@dataclass
class ShellingResult:
    status: str  # "shellable" | "inconclusive" | "not_shellable" (validator only)
    order: Sequence[tuple[int, ...]] | None
    facets: int
    attempts: int
    budget: int
    backtracks: int = 0  # dead ends the search stepped back from
    # shellable only: the recursive atom ordering, keyed by state as
    # _atom_orderings returns it; left out of == and repr
    certificate: dict | None = field(default=None, compare=False, repr=False)

    @property
    def shellable(self):
        return self.status == "shellable"

    @property
    def exhausted(self) -> bool:
        """Inconclusive, and the search ran to its end (no recursive atom
        ordering exists): it stops at the first attempt past the budget."""
        return self.status == "inconclusive" and self.attempts <= self.budget


class _LazyTuple(Sequence):
    """A tuple whose length is known before its items, listed on first read:
    the labels of a built interval, the cover pairs of a poset, the chains
    of a certified shelling.

    ``len`` (and truth) read the count given, without the listing.
    Indexing, slicing, iteration and ``==`` list the items once, as a
    tuple, and keep it: a slice is a tuple, and the view equals the tuple
    of its items and any view of the same items; unlike a tuple it is not
    hashable.
    """

    def __init__(self, count: int, listing):
        self._count = count
        self._listing = listing
        self._items = None

    def _list(self) -> tuple:
        if self._items is None:
            self._items, self._listing = tuple(self._listing()), None
        return self._items

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        if isinstance(other, (tuple, _LazyTuple)):
            return len(other) == self._count and tuple(other) == self._list()
        return NotImplemented

    def __repr__(self):
        return f"_LazyTuple({self._count} items)"


def _facet_vertices(facets) -> tuple[list[tuple], list[tuple[int, ...]]]:
    """Sorted members of each facet, and the indices of its distinct
    vertices (numbered by first appearance)."""
    universe: dict = {}
    members = []
    vertices = []
    for f in facets:
        try:
            mem = tuple(sorted(f))
        except TypeError:
            mem = tuple(sorted(f, key=repr))
        members.append(mem)
        vertices.append(tuple(universe.setdefault(x, len(universe)) for x in dict.fromkeys(mem)))
    return members, vertices


def _pairwise_rule(used: list[int], mask: int, vertices) -> bool:
    """Validity of the facet ``mask`` after the facets ``used``, scanning each of them."""
    walls = []
    for v in vertices:
        c = mask & ~(1 << v)
        if any(c & ~u == 0 for u in used):
            walls.append(c)
    if not walls:
        return False
    for u in used:
        it = mask & u
        if it and not any(it & ~c == 0 for c in walls):
            return False
    return True


def shelling_of_facets(facets, search: bool = False) -> ShellingResult:
    """Validate a given order of explicit facets (any hashable vertices) as a
    shelling, by the pairwise rule.

    A facet F may follow the earlier facets iff F meets their union in a
    pure subcomplex of codimension one: some ridge F - {x} lies in an
    earlier facet, and every intersection of F with an earlier facet lies
    in such a ridge.  Each facet is tested against every earlier one, so
    ``attempts`` counts the facets tested; ``not_shellable`` means this
    order is not a shelling, not that the complex has none.  Facets of any
    sizes are accepted.  ``order`` is each facet as a sorted tuple.

    ``search`` must be False: this module has no search over facet orders
    (``find_shelling`` certifies shellability on the poset).  The
    backtracking chain-order search is a test oracle, in
    ``tests/oracles.py``.
    """
    if search:
        raise ValueError("shelling_of_facets only validates a given order; "
                         "the chain-order search is a test oracle in tests/oracles.py")
    members, vertices = _facet_vertices(facets)
    n = len(members)
    masks = [sum(1 << v for v in vs) for vs in vertices]
    for idx in range(1, n):
        if not _pairwise_rule(masks[:idx], masks[idx], vertices[idx]):
            return ShellingResult("not_shellable", None, n, idx, DEFAULT_SHELLING_BUDGET)
    return ShellingResult("shellable", members, n, max(n - 1, 0), DEFAULT_SHELLING_BUDGET)


class _BudgetSpent(Exception):
    pass


def _atom_orderings(ups, cover, above, ranks, budget: int):
    """Depth-first search for a recursive atom ordering of [0, top].

    ``ups[x]`` lists the upper covers of node x, ``cover[x]`` is their mask
    and ``above[x]`` the mask of the nodes strictly above x, in a graded
    poset with bottom 0 and a maximum top, the last node, of rank
    ``ranks[-1]``.  A state (x, F) asks for an order a_1,
    ..., a_t of the atoms of [x, top] that begins with the atoms in F, such
    that for every j:

    - (i) the state (a_j, Z_j) has one, Z_j being the covers of a_j that
      also cover an earlier atom;
    - (ii) every y above a_j and above an earlier atom lies above some z in
      Z_j (z <= y), one mask test against the up-closure of Z_j.

    An interval of length <= 2, r(top) - r(x) <= 2 in the graded poset, has
    one in every order, so its state takes F first.  Each atom tested is one
    attempt.  The certificate doubles as the memo: a state is looked up
    there before it is searched, and sets of placed atoms that lead nowhere
    are remembered per state.  Returns ``(certificate, attempts,
    backtracks)``: for every state reached, the flat tuple (a_1, Z_1, a_2,
    Z_2, ...), or None if it has no ordering, keyed by ``(x, F)``; a set of
    covers of x is the mask of their positions in ``ups[x]``.  The
    certificate is None when there is no ordering or when attempts passed
    ``budget`` (then the search stopped).
    """
    short = ranks[-1] - 2  # x with r(x) >= short has an interval of length <= 2
    cert: dict[tuple[int, int], tuple[int, ...] | None] = {}
    known = cert.get
    attempts = backtracks = 0

    def admits(x: int, first: int) -> bool:
        nonlocal attempts, backtracks
        atoms = ups[x]
        if ranks[x] >= short:
            attempts += len(atoms)
            if attempts > budget:
                raise _BudgetSpent
            # the top covers every atom, so it is Z_j for all but the first
            steps = [1] * (2 * len(atoms))
            if first:
                head = [a for i, a in enumerate(atoms) if first >> i & 1]
                steps[::2] = head + [a for a in atoms if a not in head]
            else:
                steps[::2] = atoms
            steps[1] = 0
            cert[x, first] = tuple(steps)
            return True
        # place atoms greedily; a stack of the states before each placement
        # steps back from a dead end.  Sets of placed atoms are masks of
        # their positions in ``atoms``; ``dead`` holds those with no completion.
        order: list[int] = []  # a_1, Z_1, a_2, Z_2, ...
        stack: list[tuple[int, int, int, int]] = []
        dead: set[int] | tuple = ()  # a set from the first dead end on
        placed = covered = uppers = i = 0
        full = (1 << len(atoms)) - 1
        while placed != full:
            pending = first & ~placed
            for i in range(i, len(atoms)):
                bit = 1 << i
                if placed & bit or pending and not pending & bit or placed | bit in dead:
                    continue
                attempts += 1
                if attempts > budget:
                    raise _BudgetSpent
                a = atoms[i]
                zs = cover[a] & covered  # Z_j as a node mask
                z, closure = 0, zs  # Z_j as positions in ups[a], and its up-closure
                if zs:
                    for k, u in enumerate(ups[a]):
                        if zs >> u & 1:
                            z |= 1 << k
                            closure |= above[u]
                shared = above[a] & uppers
                if shared & closure != shared:
                    continue
                steps = known((a, z), False)
                if steps is False:  # not searched yet
                    steps = admits(a, z)
                if steps:
                    stack.append((placed, covered, uppers, i + 1))
                    order += (a, z)
                    placed, covered, uppers = placed | bit, covered | cover[a], uppers | above[a]
                    i = (placed ^ (placed + 1)).bit_length() - 1  # the first atom not placed
                    break
            else:
                dead = dead or set()
                dead.add(placed)
                if not stack:
                    cert[x, first] = None
                    return False
                del order[-2:]
                backtracks += 1
                placed, covered, uppers, i = stack.pop()
        cert[x, first] = tuple(order)
        return True

    try:
        found = admits(0, 0)
    except _BudgetSpent:
        found = False
    del admits  # it refers to itself: break the cycle
    return (cert if found else None), attempts, backtracks


def _induced_chains(cert, cover, top: int) -> list[tuple[int, ...]]:
    """The maximal chains in the lexicographic order of the atom orderings:
    the walk from the bottom visits the atoms of each state in the order of
    ``cert``, down to the states of intervals of length 2, whose atoms the
    top covers.  The walk's stack is explicit: no reference cycle."""
    top_bit = 1 << top
    chains: list[tuple[int, ...]] = []
    stack = [(0, 0, ())]  # (x, first, the chain up to x), the next state last
    while stack:
        x, first, prefix = stack.pop()
        steps = cert[x, first]
        if cover[steps[0]] == top_bit:
            chains.extend([(*prefix, a, top) for a in steps[::2]])
        else:  # the states of the atoms, last atom first
            stack.extend([(a, z, (*prefix, a)) for a, z in zip(steps[-2::-2], steps[::-2])])
    return chains


def _top(poset: FacePoset) -> int:
    """The last node if every other node lies below it, else ``ValueError``."""
    top = len(poset.nodes) - 1
    if top == 0 or poset.below[top] != (1 << top) - 1:
        raise ValueError("poset has no unique maximum above the bottom")
    return top


def find_shelling(poset: FacePoset, budget: int = DEFAULT_SHELLING_BUDGET) -> ShellingResult:
    """Shelling of the order complex of the closed interval [0^, top] minus
    its bottom, certified by a recursive atom ordering.

    A poset without a unique top above the bottom raises ``ValueError``:
    Bjorner-Wachs's criterion is for bounded graded posets.  ``facets``
    counts the maximal chains by a sum over the covers, top down.  One
    chain is a shelling as it is, and its certificate gives each node of
    the chain its one atom.  Otherwise :func:`_atom_orderings` searches
    the poset's own index and masks.  ``certificate`` is the search's dict
    of states, and ``order`` lists the chains in the order it induces, as
    :func:`maximal_chains` tuples, only when it is read.  The search never
    proves a poset not shellable: an exhausted search and a spent budget
    are ``inconclusive``, told apart by ``exhausted``, with no certificate.
    """
    top = _top(poset)
    ups = poset.up_covers()
    counts = [1] * (top + 1)
    for x in range(top - 1, -1, -1):
        counts[x] = sum([counts[u] for u in ups[x]])
    facets = counts[0]
    if facets == 1:
        # the chain, read up the index, is its own ordering: one atom per state
        path, x = [], 0
        while x != top:
            x = ups[x][0]
            path.append(x)
        cert = {(x, 0): (y, 0) for x, y in zip((0, *path), path)}
        return ShellingResult("shellable", [tuple(path)], facets, 0, budget, certificate=cert)
    cover = poset.up_cover_masks()
    cert, attempts, backtracks = _atom_orderings(ups, cover, poset.above, poset.ranks, budget)
    if cert is None:
        return ShellingResult("inconclusive", None, facets, attempts, budget, backtracks)
    order = _LazyTuple(facets, lambda: _induced_chains(cert, cover, top))
    return ShellingResult("shellable", order, facets, attempts, budget, backtracks, certificate=cert)


def open_boundary_euler(poset: FacePoset) -> int:
    """Euler characteristic of the order complex of the proper part.

    Proper part: all nodes strictly below the unique maximum, bottom
    excluded; a poset without one raises ``ValueError``, as in
    :func:`find_shelling`.  By Philip Hall's theorem (Stanley, EC1, Sec.
    3.8) its reduced Euler characteristic is mu(bottom, top).  The top is
    the last node, so after :func:`is_eulerian` has kept the verdict True,
    :func:`mobius` reads mu off it without a walk; before that check, or
    on a poset that failed it, the Mobius walk runs.
    """
    return 1 + mobius(poset, 0, _top(poset))


# -- export ----------------------------------------------------------------------


def to_dot(poset: FacePoset) -> str:
    """Hasse diagram in DOT format, one node per poset element."""
    lines = ["digraph face_poset {", "  rankdir=BT;"]
    for i, node in enumerate(poset.nodes):
        if isinstance(node, _Sentinel):
            label = node.name
        else:
            ws = ",".join(w.describe() for w in node.wbar)
            label = f"{node.v.describe()} | {ws} | {node.rank}"
        lines.append(f'  n{i} [label="{label}"];')
    for lo, his in enumerate(poset.up_covers()):
        lines.extend(f"  n{lo} -> n{hi};" for hi in his)
    lines.append("}")
    return "\n".join(lines)
