"""Independent oracles: full-matrix ones for the exact SL_k layer, a
subword Bruhat test for the Weyl layer, and the h-vector of a shelling for
the poset layer.

The matrix kernels here are the plain ``Fraction`` loops: ``frac_mat_mul``,
``frac_det`` (Gaussian elimination), ``frac_mat_inv`` (Gauss-Jordan) and
``frac_echelon`` (column elimination with the pivots scaled to 1).  They
check the integer kernels of ``ratlin`` and ``slk._echelon``, and every
other oracle here uses them, never the code it checks.  The generator
constructors write out each matrix entry by entry, and products of
generators are taken one ``frac_mat_mul`` at a time.  The gauge test
solves for the chain of b_i with ``frac_mat_inv``.  These are independent
of the column operations and canonical flags used in ``src``.  Total
nonnegativity is tested by computing every minor, and the Neville
elimination is run on Fractions.

The twisted-layer oracles (``frac_stratum``, ``frac_alpha``,
``frac_phi_Z``) take the public Fraction factors of a point and multiply
them out, w0dot^{-1} included, where ``src`` works on integer forms.

``bruhat_by_subwords`` reads the Bruhat order off the lower interval.
The geometric representation is built from ``gcm.entries`` alone
(``geometric_reflections``, ``geometric_matrices``): an element is a pair
of integer matrices, multiplied out in full.  Column sums of the matrices
give the heights that ``WeylGroup`` keeps as chamber and co-chamber
vectors, their negative columns the descents, and ``canonical_word``
strips left descents on the matrices all the way to the identity, where
``WeylGroup`` stops at the first element it has interned.
``all_reduced_words`` lists every reduced word by stripping right descents.
``positive_tuple_by_thickening`` is the route of the paper to the positive
tuple of ``weyl.positive_tuple``: the positive subexpression of v inside
the interleaved word of the thickened group, split at the inf letters.
``chain_h_vector`` computes the h-vector of an order complex from chain
counts alone, and ``wall_counts`` reads the same numbers off a facet order
when it is a shelling; neither uses a shelling search.
``perm_by_swaps`` is the route that ``weyl.from_perm`` replaced: it sorts
the one-line form by swapping the values i+1 and i+2 at the smallest left
descent i and multiplies the swapped letters out with ``from_word``, where
``from_perm`` reads the chamber vector off the inverse permutation.
``int_form_by_scan`` is the shape and type test that ``ratlin.int_form``
replaced, one Python-level scan per row and per entry, with the same
refusals and rebuilds.
``members_by_lowest_bit`` lists the set bits of a mask by clearing the
lowest one at a time, the loop that ``posets.members`` replaced.
``oracle_covers`` lists the cover pairs of a poset by the definition, from
``below`` alone, where ``FacePoset.covers`` reads them off the up-cover
index.
``mobius_by_value_classes`` keeps one mask per value of mu, where
``posets.mobius`` keeps the values 1 and -1 in two signed masks.
``reverse_pass_masks`` is the pass that every ``FacePoset`` once ran at
construction, where it now forms ``above`` and the up-cover masks only
when one of them is first read.

``shelling_search`` is the repository's one search over orders of explicit
facets (depth first, a dead-end memo, a validity test that scans every
used facet).  It can answer ``not_shellable``, which the recursive atom
orderings of ``posets.find_shelling`` never do, so it is their
differential oracle on small posets.  ``atom_orderings_by_cover_scan`` is
the atom-ordering kernel that ``posets._atom_orderings`` replaced: it
tells an interval of length <= 2 by scanning the covers of its atoms and
reads its memo inside each call, and the two must return the same
certificate, attempts and backtracks.  ``check_rao`` checks a certificate
against the definition of a recursive atom ordering, reading the order
from ``below`` alone.

``bucket_build_interval`` is the interval builder that
``posets.build_interval`` replaced, kept as its differential oracle: it
buckets a 4-tuple per label, takes each combination's Demazure product
whole and looks the cover keys up in a dict (``dict_cover_index``).
``braid_poset_by_masks`` is the braid builder that ``posets.braid_poset``
replaced, kept as its differential oracle: it lists every subword of the
word as a mask of kept letters.  ``from_lower_covers`` makes a poset from
the lower covers of each node, by the same dict.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

from tnnflag import ratlin, slk
from tnnflag.posets import (
    BOTTOM,
    DEFAULT_NODE_CAP,
    DEFAULT_SHELLING_BUDGET,
    CapExceededError,
    FacePoset,
    QNode,
    ShellingResult,
    _BudgetSpent,
)
from tnnflag.weyl import i_embed, th_element, th_word


def frac_mat_mul(*ms):
    out = ms[0]
    for b in ms[1:]:
        n, mid, p = len(out), len(b), len(b[0])
        out = tuple(
            tuple(sum(out[i][t] * b[t][j] for t in range(mid)) for j in range(p))
            for i in range(n)
        )
    return out


def frac_det(a):
    """Determinant by Gaussian elimination with Fraction entries, on a copy."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / Fraction(m[c][c])
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return sign * out


def frac_mat_inv(a):
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / Fraction(m[c][c])
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def frac_echelon(g):
    """Column elimination of g B+: the echelon representative (rows) and its pivot rows.

    Column j is cleared at the pivot rows of earlier columns by adding
    multiples of those columns, then scaled so its lowest nonzero entry,
    its pivot, is 1.
    """
    k = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    pivots = []
    for j in range(k):
        for pj, pr in enumerate(pivots):
            if m[pr][j] != 0:
                f = m[pr][j] / m[pr][pj]
                for r in range(k):
                    m[r][j] -= f * m[r][pj]
        piv = max((r for r in range(k) if m[r][j] != 0), default=None)
        if piv is None:
            raise ValueError("singular matrix has no Bruhat cell")
        inv = 1 / m[piv][j]
        for r in range(k):
            m[r][j] *= inv
        pivots.append(piv)
    return tuple(tuple(row) for row in m), pivots


def x_gen(k, i, a):
    """Identity plus a in entry (i, i+1)."""
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i, i + 1) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def y_gen(k, i, a):
    """Identity plus a in entry (i+1, i)."""
    a = Fraction(a)
    return tuple(
        tuple(
            Fraction(1) if r == c else (a if (r, c) == (i + 1, i) else Fraction(0))
            for c in range(k)
        )
        for r in range(k)
    )


def sdot(k, i):
    """x_i(1) y_i(-1) x_i(1) as a product of three matrices."""
    return frac_mat_mul(x_gen(k, i, 1), y_gen(k, i, -1), x_gen(k, i, 1))


def word_product(k, word):
    """Product over ``(kind, i, a)`` letters, one matrix product per letter."""
    out = ratlin.identity(k)
    for kind, i, a in word:
        if kind == "x":
            gen = x_gen(k, i, a)
        elif kind == "y":
            gen = y_gen(k, i, a)
        else:
            gen = sdot(k, i)
        out = frac_mat_mul(out, gen)
    return out


def phi_flag(f):
    """Duality on flags, g B+ -> iota(w0dot^{-1} g) B+, with w0dot^{-1} multiplied out."""
    k = len(f.rep)
    return slk.FlagPoint(slk.iota(frac_mat_mul(tuple(zip(*slk.w0_dot(k))), f.rep)))


def is_upper_triangular(a):
    n = len(a)
    return all(a[i][j] == 0 for i in range(n) for j in range(i))


def gauge_eq_by_inverse(z1, z2):
    """Twisted gauge equality by solving for b_i = g_i^{-1} b_{i-1} h_i."""
    if z1.k != z2.k or z1.n != z2.n:
        return False
    b = ratlin.identity(z1.k)
    for g, h in zip(z1.factors, z2.factors):
        b = frac_mat_mul(frac_mat_inv(g), b, h)
        if not is_upper_triangular(b):
            return False
    return True


def is_tnn_by_minors(g):
    """Every minor of every size is nonnegative: C(2k, k) - 1 determinants."""
    k = len(g)
    return all(
        frac_det(ratlin.submatrix(g, rows, cols)) >= 0
        for size in range(1, k + 1)
        for rows in combinations(range(k), size)
        for cols in combinations(range(k), size)
    )


def frac_neville_pivots(a):
    """Diagonal pivots of the Neville elimination of a in Fractions, or None if it fails.

    Row i subtracts (a_ij / a_{i-1,j}) times row i-1, bottom up in each
    column j; it fails on a zero a_{i-1,j} below which a_ij is nonzero (a
    row exchange) and on a negative multiplier.
    """
    k = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    for j in range(k - 1):
        for i in range(k - 1, j, -1):
            row, above = m[i], m[i - 1]
            if row[j] == 0:
                continue
            if above[j] == 0:
                return None
            f = row[j] / above[j]
            if f < 0:
                return None
            for c in range(j, k):
                row[c] -= f * above[c]
    return [m[i][i] for i in range(k)]


def w0_word(k):
    """The reduced word (0, ..., k-2)(0, ..., k-3) ... (0) of the longest element of S_k."""
    return tuple(i for top in range(k - 1, 0, -1) for i in range(top))


def frac_w0_inv(k):
    """w0dot^{-1}, inverting the sdot product over ``w0_word``."""
    return frac_mat_inv(word_product(k, [("s", i, None) for i in w0_word(k)]))


def frac_iota(g):
    """D g D with D = diag(1, -1, 1, ...)."""
    k = len(g)
    d = tuple(tuple(Fraction((-1) ** r if r == c else 0) for c in range(k)) for r in range(k))
    return frac_mat_mul(d, g, d)


def frac_stratum(z):
    """(v, wbar) of a point as one-line permutations.

    wbar is read off the pivots of ``frac_echelon`` on each factor, and v
    is w0 times the Bruhat cell of w0dot^{-1} g_1 ... g_n.
    """
    k = z.k
    inner = frac_echelon(frac_mat_mul(frac_w0_inv(k), *z.factors))[1]
    return (
        tuple(k - p for p in inner),
        tuple(tuple(p + 1 for p in frac_echelon(g)[1]) for g in z.factors),
    )


def frac_alpha(z):
    """The echelon representatives of the partial products g_1 ... g_i."""
    out, acc = [], None
    for g in z.factors:
        acc = g if acc is None else frac_mat_mul(acc, g)
        out.append(frac_echelon(acc)[0])
    return tuple(out)


def frac_phi_Z(z):
    """(iota(w0dot^{-1} g_1 ... g_n), iota(g_n^{-1}), ..., iota(g_2^{-1}))."""
    first = frac_iota(frac_mat_mul(frac_w0_inv(z.k), *z.factors))
    return (first,) + tuple(frac_iota(frac_mat_inv(g)) for g in reversed(z.factors[1:]))


def bruhat_by_subwords(group, v, w) -> bool:
    """Subword-criterion oracle for the Bruhat order."""
    return v in group.lower_interval(w)


def all_reduced_words(group, w):
    """Every reduced word of w, by stripping each right descent in turn."""
    if w.length == 0:
        return [()]
    out = []
    for i in range(group.rank):
        if group.has_right_descent(w, i):
            shorter = group.multiply(w, group.simple(i))
            out.extend(word + (i,) for word in all_reduced_words(group, shorter))
    return out


def positive_tuple_by_thickening(v, wbar):
    """The positive tuple of v in wbar, read in the thickened group: the
    positive subexpression of i(v) in th(wbar), split at the inf letters,
    none of which may be taken.  ValueError when v is not below
    m_star(wbar)."""
    wbar = tuple(wbar)
    group = v.group
    if not group.bruhat_leq(v, group.m_star(wbar)):
        raise ValueError("v is not below the Demazure product of the tuple")
    tgroup = group.thickened(len(wbar))
    th_element(tgroup, wbar)  # the interleaved word is reduced
    tv = v if tgroup is group else i_embed(tgroup, v)
    sub = tgroup.positive_subexpression(tv, th_word(tgroup, wbar))
    parts, pos = [], 0
    for w in wbar:
        parts.append(group.from_word(sub[pos:pos + w.length]))
        pos += w.length
        if pos < len(sub):
            assert sub[pos] is None, "positive subexpression took an inf letter"
            pos += 1
    return tuple(parts)


def geometric_reflections(gcm):
    """The simple reflections of the geometric representation, from
    ``gcm.entries`` alone: column j of s_i is s_i(alpha_j) = alpha_j -
    a_ij alpha_i, in the basis of simple roots."""
    m, a = gcm.rank, gcm.entries
    return tuple(
        tuple(tuple((r == c) - (a[i][c] if r == i else 0) for c in range(m)) for r in range(m))
        for i in range(m)
    )


def geometric_matrices(gcm, word):
    """The matrices (g, g^{-1}) of the product of a word's letters (None
    entries are skipped), one full matrix product per letter."""
    refl = geometric_reflections(gcm)
    g = g_inv = tuple(tuple(int(r == c) for c in range(gcm.rank)) for r in range(gcm.rank))
    for i in word:
        if i is not None:
            g, g_inv = frac_mat_mul(g, refl[i]), frac_mat_mul(refl[i], g_inv)
    return g, g_inv


def column_sums(mat):
    """The heights of the roots in the columns of a geometric matrix: of
    w(alpha_i) for the matrix of w, of w^{-1}(alpha_i) for its inverse."""
    return tuple(sum(col) for col in zip(*mat))


def negative_columns(mat):
    """The i whose column is a negative root: the right descents of the
    element of a geometric matrix, the left descents of its inverse's."""
    return {i for i, col in enumerate(zip(*mat)) if all(x <= 0 for x in col)}


def canonical_word(gcm, g, g_inv):
    """Lexicographically smallest reduced word of the element with
    geometric matrix g and inverse g_inv: the smallest left descent is
    stripped by full matrix products until the identity is reached,
    without stopping at an element a group has interned."""
    refl = geometric_reflections(gcm)
    identity = geometric_matrices(gcm, ())[0]
    letters = []
    while g != identity:
        i = min(negative_columns(g_inv))
        g, g_inv = frac_mat_mul(refl[i], g), frac_mat_mul(g_inv, refl[i])
        letters.append(i)
    return tuple(letters)


def perm_by_swaps(group, p):
    """The type A element with one-line form p, by the word that sorts p
    one left descent at a time."""
    k = group.rank + 1
    if sorted(p) != list(range(1, k + 1)):
        raise ValueError(f"not a permutation of 1..{k}: {p!r}")
    q = list(p)
    word = []
    while True:
        for i in range(k - 1):
            if q.index(i + 1) > q.index(i + 2):
                break
        else:
            break
        a, b = q.index(i + 1), q.index(i + 2)
        q[a], q[b] = q[b], q[a]
        word.append(i)
    return group.from_word(word)


def int_form_by_scan(a, square=False):
    """``ratlin.int_form`` with its shape and type tests as Python-level scans."""
    width = len(a[0]) if a else 0
    if any(len(row) != width for row in a):
        raise ValueError("matrix rows have different lengths")
    if square and width != len(a):
        raise ValueError(f"need a square matrix, got {len(a)}x{width}")
    if (
        type(a) is tuple
        and all(type(row) is tuple for row in a)
        and {type(x) for row in a for x in row} <= {int}
    ):
        return a, 1
    d = lcm(*(x.denominator for row in a for x in row))
    if d == 1:
        return tuple(tuple(x.numerator for x in row) for row in a), 1
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in a), d


def members_by_lowest_bit(mask: int) -> list[int]:
    """The set bits of ``mask``, in increasing order, one lowest bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def oracle_covers(below) -> tuple[tuple[int, int], ...]:
    """Pairs lo < hi with no node strictly between them, sorted, from the
    masks ``below`` of the nodes strictly below each node."""
    below = [set(members_by_lowest_bit(mask)) for mask in below]
    return tuple(
        (lo, hi)
        for lo in range(len(below))
        for hi in range(len(below))
        if lo in below[hi] and not any(lo in below[mid] for mid in below[hi])
    )


def mobius_by_value_classes(poset, x: int, y: int) -> int:
    """Mobius function of [x, y] in one pass in rank order, with one
    bitmask per value of mu (x alone has the value 1): each z costs one AND
    and popcount per value.  The kernel that ``posets.mobius`` replaced."""
    if not poset.leq(x, y):
        raise ValueError("x is not below y")
    classes = {1: 1 << x}  # value c -> the nodes u seen so far with mu(x, u) == c
    mu = 1
    for z in members_by_lowest_bit(poset.above[x] & (poset.below[y] | 1 << y)):
        below = poset.below[z]
        mu = -sum(c * (below & mask).bit_count() for c, mask in classes.items())
        classes[mu] = classes.get(mu, 0) | 1 << z
    return mu


def reverse_pass_masks(poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``above`` and the mask of each node's upper covers, ORed over the
    up-cover index in one reverse pass: every upper cover of lo has a
    larger index, so reverse index order completes above[hi] before it is
    read."""
    ups = poset.up_covers()
    above, cover = [0] * len(ups), [0] * len(ups)
    for lo in range(len(ups) - 1, -1, -1):
        mask = bits = 0
        for hi in ups[lo]:
            mask |= above[hi]
            bits |= 1 << hi
        above[lo], cover[lo] = mask | bits, bits
    return tuple(above), tuple(cover)


def chain_h_vector(poset) -> list[int]:
    """h-vector of the order complex of a graded poset minus its bottom,
    from its chain counts per rank set.

    The strict order is closed up from the covers in index order.  The
    chains ending at y with rank set S are y alone, or a chain with rank
    set S - {r(y)} ending strictly below y.  Then f_(i-1) sums the counts
    over the rank sets of i ranks, and h_k is the sum over i of
    (-1)^(k-i) C(d-i, k-i) f_(i-1), with d the size of a maximal chain.
    """
    ranks = poset.ranks
    below = [set() for _ in poset.nodes]
    for lo, hi in poset.covers:  # sorted by lo: below[lo] is complete
        below[hi] |= below[lo] | {lo}
    ending = [{} for _ in poset.nodes]  # per node: rank-set mask -> chains ending there
    for y in range(1, len(poset.nodes)):
        bit = 1 << ranks[y] - ranks[0]
        counts = {bit: 1}
        for x in below[y] - {0}:
            for rank_set, count in ending[x].items():
                counts[rank_set | bit] = counts.get(rank_set | bit, 0) + count
        ending[y] = counts
    d = max(ranks) - ranks[0]
    f = [1] + [0] * d  # f[i]: chains of i nodes
    for counts in ending:
        for rank_set, count in counts.items():
            f[rank_set.bit_count()] += count
    return [
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    ]


def wall_counts(order, size: int) -> list[int]:
    """How many facets of ``order`` (sorted tuples) have k walls, for k <
    ``size``: vertices x with F - {x} inside an earlier facet.  In a
    shelling these are the h-numbers (Bjorner 1992, "Topological methods")."""
    seen: set[tuple] = set()
    out = [0] * size
    for facet in order:
        ridges = [facet[:i] + facet[i + 1:] for i in range(len(facet))]
        out[sum(r in seen for r in ridges)] += 1
        seen.update(ridges)
    return out


def shelling_search(facets, budget=DEFAULT_SHELLING_BUDGET) -> ShellingResult:
    """Depth-first search for a shelling order of explicit facets.

    Facets are sorted into tuples and tried in sorted order; a facet may
    follow the used ones iff some ridge F - {x} lies in a used facet and
    every intersection of F with a used facet lies in such a ridge.  Sets of
    used facets that lead nowhere are remembered (up to 2^18 of them).
    ``attempts`` counts validity tests and ``backtracks`` the dead ends
    stepped back from; ``not_shellable`` comes only from a search exhausted
    within ``budget``, and a spent budget is ``inconclusive``.
    """
    members = []
    for f in facets:
        try:
            members.append(tuple(sorted(f)))
        except TypeError:
            members.append(tuple(sorted(f, key=repr)))
    n = len(members)
    if n <= 1:
        return ShellingResult("shellable", members, n, 0, budget)
    sets = [frozenset(m) for m in members]
    attempts = backtracks = 0

    def valid(used, face):
        nonlocal attempts
        attempts += 1
        walls = [face - {x} for x in face if any(face - {x} <= u for u in used)]
        if not walls:
            return False
        return all(not face & u or any(face & u <= c for c in walls) for u in used)

    order_hint = sorted(range(n), key=lambda idx: members[idx])
    failed_states: set[frozenset] = set()
    used_idx: list[int] = []
    iter_stack = [iter(order_hint)]
    while iter_stack:
        if attempts > budget:
            return ShellingResult("inconclusive", None, n, attempts, budget, backtracks)
        advanced = False
        for cand in iter_stack[-1]:
            if cand in used_idx:
                continue
            if used_idx and not valid([sets[i] for i in used_idx], sets[cand]):
                continue
            if frozenset(used_idx) | {cand} in failed_states:
                continue
            used_idx.append(cand)
            iter_stack.append(iter(order_hint))
            advanced = True
            break
        if advanced:
            if len(used_idx) == n:
                order = [members[i] for i in used_idx]
                return ShellingResult("shellable", order, n, attempts, budget, backtracks)
            continue
        if len(failed_states) < (1 << 18):
            failed_states.add(frozenset(used_idx))
        iter_stack.pop()
        if used_idx:
            used_idx.pop()
            backtracks += 1
    return ShellingResult("not_shellable", None, n, attempts, budget, backtracks)


def atom_orderings_by_cover_scan(ups, cover, above, top: int, budget: int):
    """Depth-first search for a recursive atom ordering of [0, top]; the
    kernel that ``posets._atom_orderings`` replaced, kept as its oracle.

    ``ups[x]`` lists the upper covers of node x, ``cover[x]`` is their mask
    and ``above[x]`` the mask of the nodes strictly above x, in a graded
    poset with bottom 0 and maximum ``top``.  A state (x, F) asks for an
    order a_1, ..., a_t of the atoms of [x, top] that begins with the atoms
    in F, such that for every j:

    - (i) the state (a_j, Z_j) has one, Z_j being the covers of a_j that
      also cover an earlier atom;
    - (ii) every y above a_j and above an earlier atom lies above some z in
      Z_j (z <= y), one mask test against the up-closure of Z_j.

    An interval of length <= 2 (every atom's covers are maximal) has one in
    every order, so its state takes F first.  Each atom tested is one
    attempt, and sets of placed atoms that lead nowhere are remembered per
    state.  Returns ``(certificate, attempts, backtracks)``: for every state
    reached, the flat tuple (a_1, Z_1, a_2, Z_2, ...), keyed by ``(x, F)``;
    a set of covers of x is the mask of their positions in ``ups[x]``.  The
    certificate is None when there is no ordering or when attempts passed
    ``budget`` (then the search stopped).
    """
    not_top = ~(1 << top)
    cert: dict[tuple[int, int], tuple[int, ...] | None] = {}
    attempts = backtracks = 0

    def admits(x: int, first: int) -> bool:
        nonlocal attempts, backtracks
        key = (x, first)
        if key in cert:
            return cert[key] is not None
        atoms = ups[x]
        if not any(cover[a] & not_top for a in atoms):
            attempts += len(atoms)
            if attempts > budget:
                raise _BudgetSpent
            order = [atoms[i] for i in sorted(range(len(atoms)), key=lambda i: not first >> i & 1)]
            # the top covers every atom, so it is Z_j for all but the first
            cert[key] = (order[0], 0, *(v for a in order[1:] for v in (a, 1)))
            return True
        # place atoms greedily; a stack of the states before each placement
        # steps back from a dead end.  Sets of placed atoms are masks of
        # their positions in ``atoms``; ``dead`` holds those with no completion.
        order: list[int] = []  # a_1, Z_1, a_2, Z_2, ...
        stack: list[tuple[int, int, int, int]] = []
        dead: set[int] = set()
        placed = covered = uppers = i = 0
        while len(order) < 2 * len(atoms):
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
                for k, u in enumerate(ups[a]):
                    if zs >> u & 1:
                        z |= 1 << k
                        closure |= above[u]
                shared = above[a] & uppers
                if shared & closure == shared and admits(a, z):
                    stack.append((placed, covered, uppers, i + 1))
                    order += (a, z)
                    placed, covered, uppers, i = placed | bit, covered | cover[a], uppers | above[a], 0
                    break
            else:
                dead.add(placed)
                if not stack:
                    cert[key] = None
                    return False
                del order[-2:]
                backtracks += 1
                placed, covered, uppers, i = stack.pop()
        cert[key] = tuple(order)
        return True

    try:
        found = admits(0, 0)
    except _BudgetSpent:
        found = False
    return (cert if found else None), attempts, backtracks


def check_rao(poset, cert) -> bool:
    """Whether ``cert`` is a recursive atom ordering of the bounded graded
    poset, by Bjorner-Wachs 1983 ("On lexicographically shellable posets",
    Def. 3.1) read literally.

    The top is the one maximal node, found from ``below``; a poset with
    several raises ``ValueError``.  ``cert`` is keyed
    as ``posets.find_shelling`` keeps it: a state (x, F) maps to the flat
    tuple (a_1, Z_1, a_2, Z_2, ...), each set of covers of a node given as
    the mask of their positions in the increasing list of its covers.  From
    (bottom, {}), every state reached whose interval [x, top] has length 2
    or more must order all the atoms of [x, top] with those of F first;
    Z_j must be the atoms of [a_j, top] that cover some a_i, i < j; and by
    (ii) every y above both a_i and a_j, i < j, must lie above some z in
    Z_j.  Then each (a_j, Z_j) is a state.  The order is ``leq`` on
    ``below`` alone: covers are recomputed from it, and neither ``above``
    nor the poset's up-cover index or masks is read.
    """
    n = len(poset.nodes)
    below = poset.below
    under = 0  # every node below some node
    for mask in below:
        under |= mask
    (top,) = [m for m in range(n) if not under >> m & 1]
    nodes = range(n)

    def leq(i, j):
        return i == j or bool(below[j] >> i & 1)

    strictly_above: dict[int, list[int]] = {}
    covering: dict[int, list[int]] = {}

    def higher(x):  # the y with x < y, increasing
        if x not in strictly_above:
            strictly_above[x] = [y for y in nodes if y != x and leq(x, y)]
        return strictly_above[x]

    def atoms(x):  # the covers of x, increasing
        if x not in covering:
            inside = sum(1 << y for y in higher(x))
            covering[x] = [y for y in higher(x) if not below[y] & inside]
        return covering[x]

    def positions(mask, values):
        if mask >> len(values):
            return None
        return [v for p, v in enumerate(values) if mask >> p & 1]

    seen = set()
    todo = [(0, 0)]
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        x, first = state
        xs = atoms(x)
        if x == top or xs == [top]:  # length 0 or 1: nothing to order
            continue
        steps = cert.get(state)
        if not steps or len(steps) != 2 * len(xs):
            return False
        order = list(steps[::2])
        head = positions(first, xs)
        if sorted(order) != xs or head is None or sorted(order[:len(head)]) != head:
            return False
        for j, (a, zmask) in enumerate(zip(order, steps[1::2])):
            earlier = order[:j]
            zs = [z for z in atoms(a) if any(z in atoms(b) for b in earlier)]
            if positions(zmask, atoms(a)) != zs:
                return False
            for b in earlier:
                for y in higher(b):
                    if leq(a, y) and not any(leq(z, y) for z in zs):
                        return False
            todo.append((a, zmask))
    return True


def dict_cover_index(keys, offsets) -> tuple[list[int], list[list[int]]]:
    """The cover index of :func:`bucket_build_interval`, keyed by a dict:
    ``below`` and the up-cover index of the nodes 1, 2, ... (in rank
    order, above the bottom at node 0), in key space: node i has the key
    ``keys[i - 1]``, and its lower covers are the nodes keyed by its key
    plus a difference in ``offsets[i - 1]``, or the bottom if there is none.
    One pass in node order ORs their masks into ``below[i]`` and appends i
    to their buckets, so every bucket fills in increasing order.
    """
    get = {k: i for i, k in enumerate(keys, start=1)}.get  # node indices are >= 1
    below = [0]
    ups: list[list[int]] = [[] for _ in range(len(keys) + 1)]
    for hi, (k, offs) in enumerate(zip(keys, offsets), start=1):
        mask = 0
        for d in offs:
            if lo := get(k + d):
                mask |= below[lo] | 1 << lo
                ups[lo].append(hi)
        if not mask:
            mask = 1
            ups[0].append(hi)
        below.append(mask)
    return below, ups


def bucket_build_interval(top: QNode, node_cap: int = DEFAULT_NODE_CAP) -> FacePoset:
    """The builder that ``posets.build_interval`` replaced: each label is
    listed with its key, v digit and factor-combination index into buckets
    by rank, the Demazure product of each combination is taken whole, the
    lower-cover offsets of each label are one concatenated tuple, and
    :func:`dict_cover_index` looks the keys up in a dict."""
    group = top.v.group
    vs = [u for u in group.lower_interval(group.m_star(top.wbar)) if group.bruhat_leq(top.v, u)]
    vdigit = {u: p for p, u in enumerate(vs)}
    factors = [group.lower_interval(w) for w in top.wbar]
    digits, stride = [], len(vs)
    for values in factors:
        digits.append([p * stride for p in range(len(values))])
        stride *= len(values)
    buckets: list[list] = [[] for _ in range(top.rank + 1)]  # (label, key, v digit, wbar index)
    below_m: dict = {}  # m -> (v digit, v) for top.v <= v <= m
    count = 1  # the bottom
    for c, (wbar, ds) in enumerate(zip(product(*factors), product(*digits))):
        base = sum(ds)
        length = sum([w.length for w in wbar])
        m = group.m_star(wbar)
        pairs = below_m.get(m)
        if pairs is None:
            pairs = below_m[m] = [(vdigit[v], v) for v in group.lower_interval(m) if v in vdigit]
        for d, v in pairs:
            rank = length - v.length
            buckets[rank].append((QNode(v, wbar, rank), base + d, d, c))
            count += 1
            if count > node_cap:
                raise CapExceededError(f"poset exceeds node cap {node_cap}")
    # key offsets: v moves up one cover, a factor down one
    vmoves: list[tuple[int, ...]] = [()] * len(vs)
    for p, u in enumerate(vs):
        for cover in group.lower_covers(u):
            d = vdigit.get(cover)
            if d is not None:
                vmoves[d] += (p - d,)
    fmoves = []
    for values, ds in zip(factors, digits):
        digit = dict(zip(values, ds))
        fmoves.append([tuple(digit[cover] - d for cover in group.lower_covers(u))
                       for u, d in zip(values, ds)])
    wmoves = [sum(moves, ()) for moves in product(*fmoves)]
    labels = [entry for bucket in buckets for entry in bucket]
    nodes = [BOTTOM, *(q for q, _, _, _ in labels)]
    ranks = [labels[0][0].rank - 1, *(q.rank for q, _, _, _ in labels)]
    keys = [key for _, key, _, _ in labels]
    offsets = [vmoves[d] + wmoves[c] for _, _, d, c in labels]
    # the poset's masks can reuse what the label lists and move tables held
    del buckets, below_m, labels, vmoves, fmoves, wmoves
    below, ups = dict_cover_index(keys, offsets)
    del keys, offsets
    poset = FacePoset(nodes, ranks, below, ups)
    poset._boxes = True
    return poset


def from_lower_covers(nodes, ranks, lower) -> FacePoset:
    """Nodes in rank order with the bottom at node 0, and ``lower[i]`` the
    lower covers of node ``i`` (node 0 for a minimal node): the pass of
    :func:`dict_cover_index` with each node keyed by its index."""
    offsets = ([lo - hi for lo in lower[hi]] for hi in range(1, len(nodes)))
    return FacePoset(nodes, ranks, *dict_cover_index(range(1, len(nodes)), offsets))


def braid_poset_by_masks(group, letters) -> FacePoset:
    """The builder that ``posets.braid_poset`` replaced: every subword of
    ``letters`` is a mask of kept letters, a subword is a node when its
    Demazure product is that of the whole word, and the lower covers of a
    node drop one kept letter."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("empty word")
    sbar = tuple(group.simple(t) for t in letters)
    w = group.m_star(sbar)
    elements = []
    for mask in range(1 << len(letters)):
        combo = tuple(
            sbar[i] if mask & (1 << i) else group.identity for i in range(len(letters))
        )
        if group.m_star(combo) == w:
            elements.append(QNode(w, combo, mask.bit_count() - w.length))
    elements.sort(key=lambda q: q.rank)
    keys = [sum(1 << i for i, x in enumerate(q.wbar) if x.length) for q in elements]
    offsets = [[-(1 << i) for i in range(len(letters)) if k >> i & 1] for k in keys]
    below, ups = dict_cover_index(keys, offsets)
    ranks = [elements[0].rank - 1, *(q.rank for q in elements)]
    return FacePoset([BOTTOM, *elements], ranks, below, ups)
