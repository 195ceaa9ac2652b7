"""Weyl-group arithmetic over any generalized Cartan matrix.

An element w is stored as two integer vectors of length m, the rank: its
chamber vector, whose entry i is the height of w^{-1}(alpha_i), and its
co-chamber vector, whose entry i is the height of w(alpha_i).  A root is
either positive or negative, so the negative entries of the chamber
vector are exactly the left descents of w, and those of the co-chamber
vector its right descents.  Since s_i(alpha_j) = alpha_j - a_ij alpha_i,
multiplying w by s_i on the left acts on the chamber vector by
y_j <- y_j - a_ij y_i, over the nonzero a_ij of row i of the GCM, and
multiplying on the right acts on the co-chamber vector in the same way.
The chamber vector is the position vector of the numbers game
(Bjorner-Brenti 2005, section 4.3) started from all ones.

The chamber vector determines the element, for every GCM: its negative
entries are the left descents, and the vector of s_i w is a function of
the vector of w, so by induction on the length two elements with the same
vector strip the same left descents down to the identity, the only
element with no negative entry.  (Equivalently, no element but e fixes a
point of the open fundamental chamber: Kac 1990, Prop. 3.12.)  So the
vectors also cover the infinite groups produced by thickening, where
one-line permutation models do not exist.

Each :class:`WeylGroup` interns its elements by chamber vector: equal
group elements are the same object and carry the same canonical reduced
word (the lexicographically smallest one, obtained by repeatedly
stripping the smallest left descent).  So an element compares and hashes
by identity, and elements of different groups are never equal.  A
product u v lets the canonical word of u act on the chamber vector of v;
the chamber vector of the inverse of u is the co-chamber vector of u.

The memoized methods (``multiply``, ``bruhat_leq``, ``demazure``,
``lower_covers``, ``interval``) read their memo first and run
``check_same`` only on a miss, before any shortcut: a memo key holds
interned elements, which compare by identity, and is stored only after
its check passed, so a hit proves that the arguments belong to the
group.  In type A, ``from_perm`` reads the chamber vector off the
one-line form (entry i is p^{-1}(i+2) - p^{-1}(i+1)) and interns it once.
The group also holds the ``plan`` memo of :func:`posets.build_interval`,
one build plan per factor tuple (and link bottom), which reads only
interned elements and the group's records; it shares the cap of the
``lower`` memo of records and is cleared with it.

Letters of words are 0-based positions into ``gcm.labels``.  A
subexpression of a word is a tuple of the same length whose entries are
either the original letter or ``None`` (the identity placeholder).
Positive subexpressions come from one descent greedy, ``_positive_split``:
a word's is the one-factor case of a tuple's, and its docstring proves
that cutting the greedy at the factor boundaries is exact.
"""

from __future__ import annotations

from functools import cached_property

from .cartan import GeneralizedCartanMatrix, cartan_of_type, thicken

Word = tuple[int, ...]
SubWord = tuple  # entries: int letter or None placeholder

# safety rail for runaway canonicalization, not a semantic limit
_MAX_CANONICAL_LEN = 10_000
# memo caches are cleared when they exceed this many entries
_CACHE_CAP = 1 << 21
# cap of the lower-interval and plan memos: each entry holds the record or the
# build plan of a whole interval, not one element
_LOWER_CACHE_CAP = 4096


class ContextMismatchError(ValueError):
    """Raised when elements from different Weyl groups are combined."""


class WeylElt:
    """Immutable group element: chamber and co-chamber vectors, canonical word.

    Interned by its group, so it compares and hashes by identity.
    """

    __slots__ = ("group", "chamber", "co_chamber", "word", "length")

    def __init__(self, group, chamber, co_chamber, word):
        self.group = group
        self.chamber = chamber
        self.co_chamber = co_chamber
        self.word = word
        self.length = len(word)

    def __repr__(self):
        return f"W[{self.describe()}]"

    def describe(self) -> str:
        """Human-readable word, e.g. ``s1*s2``; ``e`` for the identity."""
        if not self.word:
            return "e"
        labels = self.group.gcm.labels
        return "*".join(f"s{labels[i]}" for i in self.word)


class WeylGroup:
    """Context object owning element interning and memo caches."""

    def __init__(self, gcm: GeneralizedCartanMatrix, base: "WeylGroup | None" = None):
        self.gcm = gcm
        self.rank = gcm.rank
        self.base = base
        self.inf_positions = gcm.inf_positions()
        # row i of the GCM as its nonzero (j, a_ij) pairs, the support of s_i's action
        self._rows = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in gcm.entries)
        self._elts: dict[tuple[int, ...], WeylElt] = {}
        # the capped memo caches by name, plain dicts read with .get and
        # filled by _remember, and how often each was cleared at its cap
        self._memos = {name: {} for name in "mul bruhat lower cover demazure perm plan".split()}
        (self._mul_cache, self._bruhat_cache, self._lower_cache, self._cover_cache,
         self._demazure_cache, self._perm_cache, self._plan_cache) = self._memos.values()
        self._clears = dict.fromkeys(self._memos, 0)
        self._thickened: dict[int, WeylGroup] = {}
        ones = (1,) * self.rank
        self.identity = self._elts[ones] = WeylElt(self, ones, ones, ())
        self._simples = tuple(self._intern(self._act((i,), ones)) for i in range(self.rank))

    def __repr__(self):
        return f"WeylGroup({'x'.join(self.gcm.labels)})"

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Each capped memo cache's entry count and the number of times it
        was cleared on passing its cap (or, for ``plan``, with ``lower``):
        ``mul``, ``bruhat``, ``lower`` (the records of [e, w]), ``cover``,
        ``demazure``, ``perm`` and ``plan`` (the build plans of
        :func:`posets.build_interval`)."""
        return {name: {"size": len(cache), "clears": self._clears[name]}
                for name, cache in self._memos.items()}

    def _remember(self, name: str, key, value):
        """Store ``value`` at ``key`` in the named memo cache and return it,
        clearing the cache first when it holds more entries than its cap.
        ``lower`` and ``plan`` hold records of intervals, under the smaller
        cap; a plan reads records, so clearing them clears the plans too."""
        cache = self._memos[name]
        if len(cache) > (_LOWER_CACHE_CAP if name in ("lower", "plan") else _CACHE_CAP):
            for cleared in (name, "plan") if name == "lower" else (name,):
                self._memos[cleared].clear()
                self._clears[cleared] += 1
        cache[key] = value
        return value

    # -- interning and canonical words ------------------------------------

    def _act(self, letters, y: tuple[int, ...]) -> tuple[int, ...]:
        """Let s_i act for each letter i in turn: on a chamber vector that is
        left multiplication, on a co-chamber vector right multiplication."""
        y = list(y)
        rows = self._rows
        for i in letters:
            yi = y[i]
            for j, a in rows[i]:
                y[j] -= a * yi
        return tuple(y)

    def _intern(self, chamber: tuple[int, ...]) -> WeylElt:
        elt = self._elts.get(chamber)
        if elt is None:
            word = self._canonical_word(chamber)
            # the co-chamber vector of e, multiplied by the word's letters on the right
            elt = WeylElt(self, chamber, self._act(word, self.identity.chamber), word)
            self._elts[chamber] = elt
        return elt

    def _canonical_word(self, chamber: tuple[int, ...]) -> Word:
        """Lexicographically smallest reduced word, by left-descent stripping.

        The canonical word of w is its smallest left descent i followed by
        the canonical word of s_i w, so stripping stops at the first
        interned element (at the latest the identity, interned from the
        start) and appends that element's word.
        """
        letters = []
        y = list(chamber)
        rows = self._rows
        while (known := self._elts.get(tuple(y))) is None:
            for i, yi in enumerate(y):
                if yi < 0:
                    break
            else:
                raise ArithmeticError("non-identity element has no left descent")
            # s_i acts in place, not through _act: this loop is the cost of every new element
            for j, a in rows[i]:
                y[j] -= a * yi
            letters.append(i)
            if len(letters) > _MAX_CANONICAL_LEN:
                raise ArithmeticError("canonical word exceeds safety cap")
        word = tuple(letters) + known.word
        if len(word) > _MAX_CANONICAL_LEN:
            raise ArithmeticError("canonical word exceeds safety cap")
        return word

    # -- basic group operations -------------------------------------------

    def simple(self, i: int) -> WeylElt:
        return self._simples[i]

    def check_same(self, *elts: WeylElt) -> None:
        for e in elts:
            if e.group is not self:
                raise ContextMismatchError(f"{e!r} belongs to {e.group!r}, not {self!r}")

    def multiply(self, u: WeylElt, v: WeylElt) -> WeylElt:
        """u v: the letters of u act on the chamber vector of v, last letter first."""
        key = (u, v)
        out = self._mul_cache.get(key)
        if out is None:
            self.check_same(u, v)
            out = self._remember("mul", key, self._intern(self._act(reversed(u.word), v.chamber)))
        return out

    def inverse(self, u: WeylElt) -> WeylElt:
        self.check_same(u)
        return self._intern(u.co_chamber)

    def from_word(self, letters) -> WeylElt:
        """The product of the simple reflections of the letters, skipping ``None``;
        ValueError on a letter outside 0..rank-1."""
        out = self.identity
        rank = self.rank
        for i in letters:
            if i is None:
                continue
            if not 0 <= i < rank:
                raise ValueError(f"letter {i!r} is outside 0..{rank - 1}")
            out = self.multiply(out, self._simples[i])
        return out

    # -- descents and length comparisons ----------------------------------

    def has_left_descent(self, w: WeylElt, i: int) -> bool:
        """True iff l(s_i w) < l(w), read off the sign of w^{-1}(alpha_i)."""
        return w.chamber[i] < 0

    def has_right_descent(self, w: WeylElt, i: int) -> bool:
        """True iff l(w s_i) < l(w), read off the sign of w(alpha_i)."""
        return w.co_chamber[i] < 0

    # -- Bruhat order -------------------------------------------------------

    def bruhat_leq(self, v: WeylElt, w: WeylElt) -> bool:
        """Bruhat order via the left-descent recursion, memoized."""
        key = (v, w)
        cached = self._bruhat_cache.get(key)
        if cached is not None:
            return cached
        self.check_same(v, w)
        if v.length > w.length:
            return False
        if v.length == 0:
            return True
        if v.length == w.length:
            return v is w
        i = w.word[0]  # canonical word starts with the smallest left descent
        s = self._simples[i]
        sw = self.multiply(s, w)
        if self.has_left_descent(v, i):
            res = self.bruhat_leq(self.multiply(s, v), sw)
        else:
            res = self.bruhat_leq(v, sw)
        return self._remember("bruhat", key, res)

    def lower_interval(self, w: WeylElt) -> tuple[WeylElt, ...]:
        """All u <= w: the elements of the record of [e, w]."""
        return self.interval(w).elements

    def lower_covers(self, w: WeylElt) -> tuple[WeylElt, ...]:
        """The Bruhat lower covers of w, in order of the deleted position.

        By the strong exchange condition, u is covered by w iff u = w t
        for a reflection t with l(u) = l(w) - 1, and every such u deletes
        one letter of any reduced word of w; so the covers are the
        one-letter deletions of the canonical word of length l(w) - 1.
        """
        cached = self._cover_cache.get(w)
        if cached is None:
            self.check_same(w)
            word = w.word
            cached = self._remember("cover", w, tuple(dict.fromkeys(
                u for u in (self.from_word(word[:p] + word[p + 1:]) for p in range(len(word)))
                if u.length == w.length - 1
            )))
        return cached

    def interval(self, w: WeylElt) -> "BruhatInterval":
        """The record of the lower Bruhat interval [e, w], made once per group.

        >>> g = WeylGroup(cartan_of_type("A", 2))
        >>> r = g.interval(g.from_word((0, 1, 0)))
        >>> [x.describe() for p, x in enumerate(r.elements) if r.above(g.simple(0)) >> p & 1]
        ['s1', 's1*s2', 's2*s1', 's1*s2*s1']
        """
        if (record := self._lower_cache.get(w)) is None:
            self.check_same(w)
            record = self._remember("lower", w, BruhatInterval(self, w))
        return record

    def elements_up_to_length(self, cap: int) -> list[WeylElt]:
        """All elements of length <= cap (BFS; the group may be infinite)."""
        layer = [self.identity]
        seen = {self.identity}
        out = [self.identity]
        for _ in range(cap):
            nxt = []
            for u in layer:
                for i in range(self.rank):
                    if not self.has_right_descent(u, i):
                        v = self.multiply(u, self._simples[i])
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
            out.extend(nxt)
            layer = nxt
        return out

    # -- monoid structure ----------------------------------------------------

    def demazure(self, x: WeylElt, y: WeylElt) -> WeylElt:
        """Demazure product x * y, greedy over the canonical word of y, memoized."""
        key = (x, y)
        u = self._demazure_cache.get(key)
        if u is None:
            self.check_same(x, y)
            u = x
            for t in y.word:
                if not self.has_right_descent(u, t):
                    u = self.multiply(u, self._simples[t])
            self._remember("demazure", key, u)
        return u

    def m_star(self, ws) -> WeylElt:
        out = None
        for w in ws:
            out = w if out is None else self.demazure(out, w)
        if out is None:
            raise ValueError("empty tuple")
        return out

    def m_bullet(self, ws) -> WeylElt:
        out = None
        for w in ws:
            out = w if out is None else self.multiply(out, w)
        if out is None:
            raise ValueError("empty tuple")
        return out

    def circ_r(self, y: WeylElt, x: WeylElt) -> WeylElt:
        """min{y u : u <= x}, greedy over the canonical word of x."""
        self.check_same(y, x)
        u = y
        for t in x.word:
            if self.has_right_descent(u, t):
                u = self.multiply(u, self._simples[t])
        return u

    # -- positive subexpressions ----------------------------------------------

    def assert_reduced(self, word) -> WeylElt:
        w = self.from_word(word)
        if w.length != len(tuple(t for t in word if t is not None)):
            raise ValueError(f"word {word!r} is not reduced")
        return w

    def positive_subexpression(self, v: WeylElt, word) -> SubWord:
        """The unique positive subexpression for v in the reduced word, the
        one-factor case of :func:`_positive_split`."""
        self.check_same(v)
        word = tuple(word)
        w = self.assert_reduced(word)
        try:
            return _positive_split(v, (w,), (word,))[0][0]
        except ValueError:
            raise ValueError("element is not below the word in Bruhat order") from None

    # -- thickening ------------------------------------------------------------

    def thickened(self, n: int) -> "WeylGroup":
        """The Weyl group of thicken(gcm, n), cached per n."""
        if n == 1:
            return self
        tg = self._thickened.get(n)
        if tg is None:
            tg = WeylGroup(thicken(self.gcm, n), base=self)
            self._thickened[n] = tg
        return tg


class BruhatInterval:
    """[e, w]: the subword products of w's canonical word by length and word,
    ``index``, ``lengths``; ``down[p]``, ``up[p]``, the offsets of x_p's lower,
    upper covers (all in [e, w]), formed on first read; kept per argument,
    ``scaled_down(s)``, ``below(m)``: the x <= m, ``above(u)``: a mask of the x >= u."""

    def __init__(self, group: WeylGroup, w: WeylElt):
        self.group = group
        elems = {group.identity}
        for s in map(group.simple, w.word):
            elems |= {group.multiply(u, s) for u in elems}
        self.elements = tuple(sorted(elems, key=lambda u: (u.length, u.word)))
        self.index = {x: p for p, x in enumerate(self.elements)}
        self.lengths = tuple([x.length for x in self.elements])
        self._scaled, self._below, self._above = {}, {}, {}  # scale or element -> kept value

    @cached_property
    def down(self) -> tuple[tuple[int, ...], ...]:
        index = self.index
        return tuple(tuple(index[c] - p for c in self.group.lower_covers(x))
                     for p, x in enumerate(self.elements))

    @cached_property
    def up(self) -> tuple[tuple[int, ...], ...]:
        up = [()] * len(self.elements)
        for p, offsets in enumerate(self.down):
            for o in offsets:
                up[p + o] += (-o,)
        return tuple(up)

    def scaled_down(self, scale: int) -> list[tuple[int, ...]]:
        if (moves := self._scaled.get(scale)) is None:
            moves = self._scaled[scale] = [tuple(map(scale.__mul__, o)) for o in self.down]
        return moves

    def below(self, m: WeylElt) -> tuple[int, ...]:
        if (found := self._below.get(m)) is None:
            found = self._below[m] = tuple([self.index[x] for x in self.group.lower_interval(m)
                                            if x in self.index])
        return found

    def above(self, u: WeylElt) -> int:
        if (mask := self._above.get(u)) is None:
            leq = self.group.bruhat_leq
            mask = self._above[u] = sum([1 << p for p, x in enumerate(self.elements) if leq(u, x)])
        return mask


def is_positive_subexpression(group: WeylGroup, word, sub) -> bool:
    """Check the positivity condition of an arbitrary subexpression."""
    prefix = group.identity
    for pos, t in enumerate(word):
        if group.has_right_descent(prefix, t):
            return False
        if sub[pos] is not None:
            if sub[pos] != t:
                raise ValueError("subexpression letter differs from the word")
            prefix = group.multiply(prefix, group.simple(t))
    return True


# -- maps into a thickened group ------------------------------------------------
# The paper's embedding of a tuple into one thickened group; ``verify
# thickening-order``, the demo and the tests check it.  No computation on a
# stratum goes through it (see positive_tuple).


def i_embed(tgroup: WeylGroup, v: WeylElt) -> WeylElt:
    """Reinterpret v inside the parabolic on the original vertices."""
    if tgroup.base is None or v.group is not tgroup.base:
        raise ContextMismatchError("target is not a thickening of the element's group")
    out = tgroup.from_word(v.word)
    if out.length != v.length:
        raise AssertionError("parabolic embedding changed the length")
    return out


def th_word(tgroup: WeylGroup, wbar) -> Word:
    """Reduced words of the factors interleaved with the inf letters."""
    wbar = tuple(wbar)
    n = len(wbar)
    if n == 1 and wbar[0].group is tgroup:
        return wbar[0].word  # nothing to interleave
    if tgroup.base is None:
        raise ContextMismatchError("target group is not thickened")
    for w in wbar:
        if w.group is not tgroup.base:
            raise ContextMismatchError("tuple entry from a different group")
    if len(tgroup.inf_positions) != n - 1:
        raise ContextMismatchError(
            f"thickened group has {len(tgroup.inf_positions)} inf vertices, need {n - 1}"
        )
    letters: list[int] = []
    for idx, w in enumerate(wbar):
        letters.extend(w.word)
        if idx < n - 1:
            letters.append(tgroup.inf_positions[idx])
    return tuple(letters)


def th_element(tgroup: WeylGroup, wbar) -> WeylElt:
    """th(wbar); the interleaved word is checked to be reduced."""
    wbar = tuple(wbar)
    word = th_word(tgroup, wbar)
    out = tgroup.from_word(word)
    if out.length != sum(w.length for w in wbar) + len(wbar) - 1:
        raise AssertionError("interleaved word is not reduced")
    return out


def _positive_split(v: WeylElt, wbar, words) -> tuple[tuple[SubWord, ...], tuple[WeylElt, ...]]:
    """The positive tuple (v_1, ..., v_n) of v in wbar, and the positive
    subexpression for each v_i in ``words[i]``, a reduced word of w_i.

    The descent greedy (scan right to left keeping u = v, take a letter
    exactly when it is a right descent of u) over the concatenated words
    ends at e exactly when v <= m_star(wbar), ValueError otherwise; the
    letters taken are positive for v, and are cut at the factor
    boundaries.  The cut is exact: the taken letters form a reduced
    subword, so the product V of the pieces before piece i has
    l(V p) = l(V) + l(p) for every prefix p inside piece i, and
    l(p s) < l(p) would give l(V p s) < l(V p), against the positivity of
    the whole.  So each piece is positive in its own word, hence by
    uniqueness the positive subexpression for its product v_i.  The greedy
    over piece i takes u to circ_r(u, w_i^{-1}), which does not depend on
    the word, and v_i is read off u before and after it.  Checked on the
    output: the whole is positive, m_bullet(vbar) = m_star(vbar) = v, v_i <= w_i.
    """
    group = v.group
    group.check_same(v, *wbar)
    u, subs, vbar = v, [], []
    for word in reversed(words):
        before, taken = u, [None] * len(word)
        for pos in range(len(word) - 1, -1, -1):
            if group.has_right_descent(u, word[pos]):
                u = group.multiply(u, group._simples[word[pos]])
                taken[pos] = word[pos]
        subs.insert(0, tuple(taken))
        vbar.insert(0, group.multiply(group.inverse(u), before))
    if u is not group.identity:
        raise ValueError("empty stratum: v is not below the Demazure product of the tuple")
    if not is_positive_subexpression(group, sum(words, ()), sum(subs, ())):
        raise AssertionError("greedy output violates the positivity condition")
    if group.m_bullet(vbar) != v or group.m_star(vbar) != v:
        raise AssertionError("tuple does not multiply back to v")
    if not all(map(group.bruhat_leq, vbar, wbar)):
        raise AssertionError("tuple entry escapes its factor interval")
    return tuple(subs), tuple(vbar)


def positive_tuple(v: WeylElt, wbar) -> tuple[WeylElt, ...]:
    """The unique tuple below wbar, positive in wbar, with product v:
    :func:`_positive_split` on the canonical words; ValueError when v is
    not below m_star(wbar).  The paper reads it off the positive
    subexpression of v in th(wbar) (:func:`th_word`), whose greedy never
    leaves the base group and takes no inf letter: an element u there
    sends the simple root of an inf vertex to a positive root, and has an
    original letter as a right descent exactly when the base group says
    so.  ``tests/oracles.py`` keeps the thickened route.
    """
    wbar = tuple(wbar)
    return _positive_split(v, wbar, [w.word for w in wbar])[1]


# -- type A bridge ----------------------------------------------------------------

_TYPE_A: dict[int, WeylGroup] = {}


def type_a_group(k: int) -> WeylGroup:
    """The Weyl group of SL_k (the A_{k-1} context), cached per k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    g = _TYPE_A.get(k)
    if g is None:
        g = WeylGroup(cartan_of_type("A", k - 1))
        _TYPE_A[k] = g
    return g


def perm_of(w: WeylElt) -> tuple[int, ...]:
    """One-line permutation (1-based values) of a type A element."""
    k = w.group.rank + 1
    p = list(range(1, k + 1))
    for t in w.word:
        p[t], p[t + 1] = p[t + 1], p[t]
    return tuple(p)


def from_perm(group: WeylGroup, p) -> WeylElt:
    """Type A element with one-line form p (1-based values), memoized per group.

    Entry i of the chamber vector is the height of p^{-1}(alpha_i) =
    e_{p^{-1}(i+1)} - e_{p^{-1}(i+2)}, that is p^{-1}(i+2) - p^{-1}(i+1), so
    it is read off the inverse permutation and interned once.  ValueError
    unless p is a permutation of 1..rank+1 and the GCM of the group is that
    of A_rank.
    """
    p = tuple(p)
    cached = group._perm_cache.get(p)
    if cached is not None:
        return cached
    k = group.rank + 1
    # an entry in the memo proves that the GCM passed this test
    if not group._perm_cache and group.gcm.entries != cartan_of_type("A", k - 1).entries:
        raise ValueError(f"from_perm needs a group of type A_{k - 1}, not {group!r}")
    if sorted(p) != list(range(1, k + 1)):
        raise ValueError(f"not a permutation of 1..{k}: {p!r}")
    inv = [0] * (k + 1)
    for pos, x in enumerate(p):
        inv[x] = pos
    return group._remember("perm", p, group._intern(
        tuple(b - a for a, b in zip(inv[1:], inv[2:]))))
