"""Points and strata of the twisted product of SL_k flag varieties.

A point is a tuple of invertible rational matrices modulo the twisted
upper-triangular gauge (g_1, ..., g_n) ~ (g_1 b_1, b_1^{-1} g_2 b_2, ...).
Gauge classes are compared through ``alpha``, the flags of the partial
products.  Strata are labeled by (v, wbar): the factorwise Bruhat cells
and the opposite cell of the convolution product.  The positive
double-Bruhat products are one ``slk.word_form`` call.

Fractions at the interface only: a point keeps its factors as ``ratlin``
integer forms, and strata, alpha, the duality map and the positivity
test run on those.  Fractions are built once, on first read of a
point's public ``factors``, and for the result of ``db_positive``.

Each matrix of a point is eliminated once.  Making a point builds the
flag of each factor, which rejects a singular factor and gives its Bruhat
cell; the product of the factors, and the flag of the product P with
its rows reversed (J P), are built on first use.  The point keeps all
three, so ``stratum``, ``phi_Z``, ``alpha`` and ``convolution`` reuse
them and the twisted layer takes no determinant.  ``phi_Z`` needs the
factors iota(g_j^{-1}) and takes no matrix inverse where one of three
identities gives them:
(i) w0dot^{-1} = S J with S = diag((-1)^(k-1-r)), and iota is conjugation
by D = diag((-1)^r); as D S = (-1)^(k-1), iota(w0dot^{-1} P) =
(-1)^(k-1) J P D spans the flag of J P, which is the image's first flag.
(ii) phi_Z is an involution on matrices, not only on gauge classes: the
image's later factors iota(g_j^{-1}) have the inverses iota(g_j), and its
product is iota(w0dot^{-1} g_1), so the image of the image is the source
itself.  When the first form a second ``phi_Z`` computes is the source's
own first form, it returns the source point, with its kept flags and
stratum.
(iii) g -> iota(g^{-1}) reverses products and fixes each letter
y_i(t), x_i(t), sdot_i and sdot_i^{-1}: inverting a letter negates its
off-diagonal entries and iota negates them back.  So for g = L_1 ... L_m,
iota(g^{-1}) = L_m ... L_1, and a factor made by ``parametrize_cell`` is
inverted by ``slk.word_form`` of its letters reversed, in O(k) column
operations per letter.  This holds whichever of sdot_i and sdot_i^{-1}
the chart puts at a taken letter.  A point with no chart inverts by
``ratlin.int_inv``.

Every point holds its forms in lowest terms, whichever constructor made
it, so one matrix has one form: the image of an image is its source, and
``gauge_eq`` returns at once on points whose forms are equal.

``parametrize_cell`` and ``phi_Z`` assert theorem-level facts on every call
unless passed ``check=False``: the cell parametrization lands in its
stratum, and the duality map permutes strata by the book formula.

Reduced words carry 0-based letters here as in ``weyl`` and ``slk``; only
``db_positive`` takes 1-based ones (see its docstring).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import ratlin, slk
from .ratlin import IntForm, Mat
from .weyl import (ContextMismatchError, WeylElt, WeylGroup, _positive_split, from_perm, perm_of,
                   type_a_group)


class ZPoint:
    """Tuple of SL_k factors representing a point of the twisted product.

    A point keeps, for each factor, its integer form in lowest terms,
    ``_forms``, and its flag, ``_flags``: one column elimination per
    factor, made when the point is, which also rejects a singular factor
    (no determinant is taken).  Everything inside the layer reads those.
    The product of the factors, ``_product``, the flag of the product with
    its rows reversed, ``_reversed``, and the result of :func:`stratum` are
    computed on first use and kept; all depend on the factors alone.

    A point made by :func:`phi_Z` keeps the point it was made from as
    ``_source``, and has as first flag its source's ``_reversed``, with its
    own first form as ``rep`` (identity (i) of the module docstring).  A
    point made by :func:`parametrize_cell` keeps ``_letters``, the
    ``slk.word_form`` letters of g_2, ..., g_n, from which the later
    factors of its image are built (identity (iii)).  Other points keep
    None in both.  Kept values change neither equality, hashing nor
    ``repr``.

    The Fraction ``factors`` are the ones passed to ``ZPoint(factors)``,
    stored as a tuple of tuples of rows with the entries as given, or for
    a point made otherwise are built on first read and kept.  Equality and
    hashing are those of the forms, one per matrix; ``repr`` is that of
    ``factors``.
    """

    __slots__ = ("_forms", "_flags", "_factors", "_letters", "_product", "_reversed", "_source",
                 "_stratum")

    def __init__(self, factors):
        factors = tuple(tuple(map(tuple, g)) for g in factors)
        forms = tuple(ratlin.int_form(g, square=True) for g in factors)
        self._set(forms, _check_factors(forms), factors, None)

    @classmethod
    def of_forms(cls, forms) -> "ZPoint":
        """The point with these integer-form factors, each kept in lowest terms;
        its Fraction factors wait for a read.

        Each form (m, d) needs a square m, checked by ``ratlin.int_form``
        with its messages, and a positive int d; ValueError otherwise.
        """
        forms = tuple(map(_checked_form, forms))
        return cls._of_parts(forms, _check_factors(forms))

    @classmethod
    def _of_parts(cls, forms, flags, source=None) -> "ZPoint":
        """The point with these forms and flags of them, made by the caller;
        ``source`` is the point :func:`phi_Z` made it from."""
        z = cls.__new__(cls)
        z._set(forms, flags, None, source)
        return z

    def _set(self, forms, flags, factors, source) -> None:
        self._forms, self._flags, self._factors, self._source = forms, flags, factors, source
        self._letters = self._product = self._reversed = self._stratum = None

    @property
    def factors(self) -> tuple[Mat, ...]:
        if self._factors is None:
            self._factors = tuple(ratlin.fraction_matrix(f) for f in self._forms)
        return self._factors

    @property
    def k(self) -> int:
        return len(self._forms[0][0])

    @property
    def n(self) -> int:
        return len(self._forms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._forms == other._forms

    def __hash__(self):
        return hash(self._forms)

    def __repr__(self):
        return f"ZPoint(factors={self.factors!r})"

    def to_json(self) -> dict:
        """``{"factors": [matrix, ...]}``, each entry of a matrix a ``"p/q"`` string."""
        return {"factors": [[[str(x) for x in row] for row in g] for g in self.factors]}

    @classmethod
    def from_json(cls, data) -> "ZPoint":
        """The point ``to_json`` wrote.  ValueError on anything else: a
        malformed layout, an entry that is no rational, or a factor that
        ``ZPoint`` refuses."""
        factors = data.get("factors") if isinstance(data, dict) else None
        if not (isinstance(factors, list) and all(
                isinstance(g, list) and all(
                    isinstance(row, list) and all(isinstance(x, str) for x in row) for row in g)
                for g in factors)):
            raise ValueError("factors must be a list of matrices, each matrix a list of rows, "
                             "each row a list of strings")
        try:
            return cls(tuple(tuple(tuple(Fraction(x) for x in row) for row in g) for g in factors))
        except ZeroDivisionError:
            raise ValueError("an entry has denominator 0") from None


def _checked_form(form) -> IntForm:
    """The form (m, d) in lowest terms, with m checked square by
    ``ratlin.int_form`` and d an int > 0."""
    m, d = form
    m, e = ratlin.int_form(m, square=True)
    if not isinstance(d, int):
        raise ValueError(f"need an int denominator, got {d!r}")
    if d <= 0:
        raise ValueError(f"need a positive denominator, got {d}")
    return ratlin.reduced((m, d * e))


def _check_factors(forms) -> tuple[slk.FlagPoint, ...]:
    """The flag of each factor: at least one factor, all of one size k >= 2,
    none singular.

    Each form is square.  The flag is built from the factor's own form,
    so its ``rep`` is the factor; its elimination raises on a singular
    factor.
    """
    if not forms:
        raise ValueError("need at least one factor")
    k = len(forms[0][0])
    if any(len(m) != k for m, _ in forms):
        raise ValueError("factors of mixed sizes")
    slk._check_k(k)
    try:
        return tuple(slk.FlagPoint.of_form(form) for form in forms)
    except ValueError:
        raise ValueError("singular factor") from None


def _product(z: ZPoint) -> IntForm:
    """g_1 ... g_n as an integer form, computed once per point and kept."""
    if z._product is None:
        z._product = ratlin.int_mul(*(m for m, _ in z._forms)), prod(d for _, d in z._forms)
    return z._product


def _reversed_flag(z: ZPoint) -> slk.FlagPoint:
    """The flag of g_1 ... g_n with its rows reversed, made once per point and kept."""
    if z._reversed is None:
        m, d = _product(z)
        z._reversed = slk.FlagPoint.of_form((m[::-1], d))
    return z._reversed


def _inverse_flags(z: ZPoint) -> tuple[slk.FlagPoint, ...]:
    """Flags of iota(g_n^{-1}), ..., iota(g_2^{-1}), the later factors of the image.

    From the chart's letters reversed when the point keeps them (identity
    (iii) of the module docstring), by ``ratlin.int_inv`` otherwise.
    """
    if z._letters is not None:
        k = z.k
        forms = (slk.word_form(k, letters[::-1]) for letters in reversed(z._letters))
    else:
        forms = ((slk.iota(r), e) for r, e in map(ratlin.int_inv, reversed(z._forms[1:])))
    return tuple(map(slk.FlagPoint.of_form, forms))


def gauge_eq(z1: ZPoint, z2: ZPoint) -> bool:
    """Equality modulo the twisted gauge: the partial-product flags agree.

    h_i = b_{i-1}^{-1} g_i b_i (b_0 = 1) telescopes to h_1...h_i = g_1...g_i b_i, so the
    gauge exists iff every b_i = (g_1...g_i)^{-1}(h_1...h_i) is in B+, that is, iff
    g_1...g_i B+ = h_1...h_i B+ for every i: iff alpha(z1) == alpha(z2).  Equal forms
    are equal points, decided with no elimination.
    """
    if z1._forms == z2._forms:
        return True
    if z1.k != z2.k or z1.n != z2.n:
        return False
    return alpha(z1) == alpha(z2)


def stratum(z: ZPoint) -> tuple[WeylElt, tuple[WeylElt, ...]]:
    """(v, wbar): factorwise Bruhat cells and the opposite cell of the product.

    The Bruhat cells are the pivots of the flags the point keeps; the
    opposite cell is w0 times the cell of the kept flag of the product
    with rows reversed, as in ``slk.opposite_cell``, and :func:`phi_Z`
    hands that flag to the image (identity (i) of the module docstring).
    Computed once per point and kept on it, so the checks of
    ``parametrize_cell`` and ``phi_Z`` do not repeat it.
    """
    if z._stratum is None:
        group = type_a_group(z.k)
        wbar = tuple(from_perm(group, f.cell) for f in z._flags)
        v = from_perm(group, tuple(z.k + 1 - p for p in _reversed_flag(z).cell))
        z._stratum = v, wbar
    return z._stratum


def convolution(z: ZPoint) -> slk.FlagPoint:
    """The flag g_1 ... g_n B+, image of the point under the convolution map.

    Well defined on gauge classes: the twisted gauge changes the product
    to g_1 ... g_n b_n.  One elimination of the kept product per call.
    """
    return slk.FlagPoint.of_form(_product(z))


def alpha(z: ZPoint) -> tuple[slk.FlagPoint, ...]:
    """Partial-product flags (g_1 B+, g_1 g_2 B+, ...); gauge-invariant.

    The first is the kept flag of g_1 and the last that of the kept product.
    """
    out = [z._flags[0]]
    acc = z._forms[0]
    for m, d in z._forms[1:-1]:
        acc = ratlin.int_mul(acc[0], m), acc[1] * d
        out.append(slk.FlagPoint.of_form(acc))
    if z.n > 1:
        out.append(convolution(z))
    return tuple(out)


def parametrize_cell(
    v: WeylElt,
    wbar,
    params,
    words=None,
    check: bool = True,
) -> ZPoint:
    """Positive parametrization of the stratum (v, wbar) of SL_k products.

    Factor i is the Marsh-Rietsch point (``slk.mr_matrix``) of the positive
    subexpression for v_i in a reduced word of w_i, where (v_1, ..., v_n)
    is ``positive_tuple(v, wbar)``; one greedy over the concatenated words
    gives them all (``weyl._positive_split``).  ``words`` optionally fixes
    the reduced word per factor, each checked to be one; the canonical
    words, reduced by construction, are used otherwise.  ``params`` supplies
    one positive rational per skipped letter, across factors left to
    right, read once by ``ratlin.positive_fractions`` before any factor
    is built.  The letters come from ``slk._mr_letters``, the builder
    ``slk.mr_matrix`` calls, whose arguments the split and the count
    above have checked, and the point is made from the forms and flags
    built here, with no second check of either.  The point keeps the
    letters of its later factors, from which :func:`phi_Z` builds their
    inverses.
    With ``check`` on, each factor is asserted to lie in the opposite cell
    of its v_i, by one elimination of its form with rows reversed
    (``slk._opposite_cell``), and the point in the stratum (v, wbar),
    which includes the Bruhat cell w_i of each factor.
    The elements must come from ``type_a_group(k)``, which :func:`stratum`
    answers in: any other group raises ``ContextMismatchError``.
    """
    group = v.group
    wbar = tuple(wbar)
    k = group.rank + 1
    if group is not type_a_group(k):
        raise ContextMismatchError(f"parametrize_cell takes elements of type_a_group({k}), "
                                   f"not of {group!r}")
    group.check_same(*wbar)
    if words is None:  # the canonical words, reduced words of their factors
        words = [w.word for w in wbar]
    else:
        words = [tuple(word) for word in words]
        if len(words) != len(wbar):
            raise ValueError("need one reduced word per factor")
        for w, word in zip(wbar, words):
            if group.from_word(word) != w or len(word) != w.length:
                raise ValueError(f"{word!r} is not a reduced word of {w.describe()}")
    subs, vbar = _positive_split(v, wbar, words)  # ValueError on an empty stratum
    dim = sum(w.length for w in wbar) - v.length
    params = ratlin.positive_fractions(params)
    if len(params) != dim:
        raise ValueError(f"cell has dimension {dim}, got {len(params)} parameters")
    forms = []
    letters = []
    it = iter(params)
    for vi, word, sub in zip(vbar, words, subs):
        letters.append(slk._mr_letters(word, sub, it))
        form = slk.word_form(k, letters[-1])
        if check and slk._opposite_cell(form[0]) != perm_of(vi):
            raise AssertionError("cell point left its opposite Schubert cell")
        forms.append(form)
    z = ZPoint._of_parts(tuple(forms), tuple(map(slk.FlagPoint.of_form, forms)))
    z._letters = letters[1:]
    if check and stratum(z) != (v, wbar):
        raise AssertionError("parametrized point landed outside its stratum")
    return z


def dual_stratum(v: WeylElt, wbar) -> tuple[WeylElt, tuple[WeylElt, ...]]:
    """The stratum :func:`phi_Z` sends (v, (w_1,...,w_n)) to:
    (w0 w_1, (w0 v, w_n^{-1}, ..., w_2^{-1}))."""
    group = v.group
    w0 = from_perm(group, slk.w0_perm(group.rank + 1))
    return group.multiply(w0, wbar[0]), (
        (group.multiply(w0, v),) + tuple(group.inverse(w) for w in reversed(wbar[1:])))


def phi_Z(z: ZPoint, check: bool = True) -> ZPoint:
    """Duality: (g_1,...,g_n) -> (iota(w0dot^{-1} g_1...g_n), iota(g_n^{-1}), ...).

    The image's first flag is the source's flag of its reversed product,
    by identity (i) of the module docstring.  Its later factors and their
    flags are built from the chart's letters by identity (iii), or by
    ``ratlin.int_inv`` for a point with no chart.  The image keeps the
    source.

    Every point holds its forms in lowest terms, so on a point made by
    ``phi_Z`` the first form computed is its source's first form, and the
    image is the source (identity (ii)): that point is returned, and
    nothing is built.  So a round trip ends where it started:

    >>> from tnnflag.weyl import type_a_group
    >>> S2 = type_a_group(2)
    >>> s = S2.simple(0)
    >>> z = parametrize_cell(S2.identity, (s, s), [1, 2])
    >>> phi_Z(phi_Z(z)) is z
    True

    With ``check`` on, the stratum permutation of :func:`dual_stratum` is
    asserted on every call, against the kept stratum of the source when
    the source is returned.  Its first component w0 v, the Bruhat cell of
    the image's first factor, is read off the source's own elimination,
    so it holds by identity (i), a linear-algebra fact; the theorem's
    content is in v' = w0 w_1 and in the later factors.
    """
    if check:
        label = stratum(z)
    m, d = _product(z)
    first = ratlin.reduced((slk.iota(slk.w0_inverse_times(m)), d))
    source = z._source
    if source is not None and first == source._forms[0]:
        out = source
    else:
        rest = _inverse_flags(z)
        forms = (first, *(f._form for f in rest))
        out = ZPoint._of_parts(forms, (_reversed_flag(z).with_form(first), *rest), z)
    if check and stratum(out) != dual_stratum(*label):
        raise AssertionError("duality image landed outside the predicted stratum")
    return out


# w0dot's form and flag per k, made once each
_W0: dict[int, tuple[IntForm, slk.FlagPoint]] = {}


def double_bruhat_embed(g: Mat) -> ZPoint:
    """Embedding of the reduced double Bruhat cell: g -> (g, w0dot)."""
    form = ratlin.int_form(g, square=True)
    flags = _check_factors((form,))
    k = len(form[0])
    w0 = _W0.get(k)
    if w0 is None:
        w0_form = slk.w0_form(k)
        w0 = _W0[k] = w0_form, slk.FlagPoint.of_form(w0_form)
    return ZPoint._of_parts((form, w0[0]), (*flags, w0[1]))


def db_positive(k: int, v_word, w_word, params) -> Mat:
    """Totally positive double-Bruhat point: y's over the w word, x's over v's.

    ``v_word`` and ``w_word`` are reduced words with 1-based letters, the
    one exception in the library: the recorded benchmark workloads call
    this function with them, so the letters shift to ``slk``'s 0-based
    ones here.  The parameter list supplies l(w) values for the y's then
    l(v) values for the x's, read once by ``ratlin.positive_fractions``.
    The output is asserted totally nonnegative.
    """
    v_word = tuple(v_word)
    w_word = tuple(w_word)
    params = ratlin.positive_fractions(params)
    if len(params) != len(v_word) + len(w_word):
        raise ValueError(f"need {len(v_word) + len(w_word)} parameters")
    it = iter(params)
    form = slk.word_form(
        k,
        [("y", j - 1, next(it)) for j in w_word] + [("x", i - 1, next(it)) for i in v_word],
    )
    if not slk.is_tnn(form[0]):
        raise AssertionError("double Bruhat product is not totally nonnegative")
    return ratlin.fraction_matrix(form)


def db_stratum_convention(
    group: WeylGroup, v: WeylElt, w: WeylElt
) -> tuple[WeylElt, tuple[WeylElt, WeylElt]]:
    """Recorded stratum of the embedded cell with double-Bruhat labels (v, w).

    Observed on exact samples: (g, w0dot) lies in the stratum
    (v w0, (w, w0)).  It is checked for k <= 4: on one sample for each of
    the 576 pairs (v, w) in S4 x S4 by
    ``test_db_stratum_convention_on_all_of_s4_squared``, and on three per
    pair at k = 2, 3 by ``verify double-bruhat``.
    """
    w0 = from_perm(group, slk.w0_perm(group.rank + 1))
    return group.multiply(v, w0), (w, w0)


def random_params(count: int, rng) -> list[Fraction]:
    """Positive rationals p/q with 1 <= p, q <= 20 from a seeded generator."""
    return [Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(count)]
