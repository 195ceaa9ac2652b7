"""The duality involution on twisted products and the double Bruhat embedding.

The duality swaps strata by (v, (w1, w2)) -> (w0 w1, (w0 v, w2^{-1})) and
preserves total nonnegativity.  Reduced double Bruhat cells embed as
two-factor points (g, w0dot); positive products of elementary matrices
stay totally nonnegative and land in one consistent stratum per label.
"""

from fractions import Fraction

from tnnflag import ZPoint, phi_Z, stratum, type_a_group
from tnnflag.ratlin import int_form
from tnnflag.slk import double_bruhat_labels, is_tnn
from tnnflag.twisted import (
    db_positive,
    db_stratum_convention,
    double_bruhat_embed,
    gauge_eq,
    parametrize_cell,
)

group = type_a_group(3)
s1, s2 = group.simple(0), group.simple(1)
w0 = group.from_word((0, 1, 0))


def show(v, wbar):
    return f"({v.describe()}; {','.join(w.describe() for w in wbar)})"


print("duality orbit of some SL3 strata (n = 2):")
for v, wbar, dim in [
    (group.identity, (s1, s2), 2),
    (s1, (group.multiply(s1, s2), group.multiply(s2, s1)), 3),
    (w0, (w0, w0), 3),
]:
    params = [Fraction(i + 2, 3) for i in range(dim)]
    z = parametrize_cell(v, wbar, params)
    image = phi_Z(z)
    iv, iwbar = stratum(image)
    back = phi_Z(image)
    print(f"  {show(v, wbar):<28s} -> {show(iv, iwbar):<28s} involution: {gauge_eq(back, z)}")
print()

print("phi_Z twice gives back the point itself; a point given by integer forms")
print("(m, d), standing for m / d, not in lowest terms gets back an equal new point:")
z = parametrize_cell(s1, (w0, w0), [Fraction(i + 2, 3) for i in range(5)])
doubled = ZPoint.of_forms([(tuple(tuple(2 * x for x in row) for row in m), 2 * d)
                           for m, d in map(int_form, z.factors)])
for name, point in (("chart point", z), ("doubled forms", doubled)):
    back = phi_Z(phi_Z(point))
    print(f"  {name:<14s} round trip is the point: {back is point};  equal: {back == point}")
print()

print("positive double Bruhat points for SL3 (labels v, w; y's then x's):")
for v, w in [(s1, s2), (group.multiply(s1, s2), w0), (w0, w0)]:
    params = [Fraction(i + 1) for i in range(v.length + w.length)]
    g = db_positive(3, [t + 1 for t in v.word], [t + 1 for t in w.word], params)
    labels = double_bruhat_labels(g)
    emb = double_bruhat_embed(g)
    sv, swbar = stratum(emb)
    predicted = db_stratum_convention(group, v, w)
    print(f"  (v, w) = ({v.describe()}, {w.describe()})")
    print(f"    totally nonnegative: {is_tnn(g)};  matrix labels {labels}")
    print(f"    embedded stratum    {show(sv, swbar)}  ==  recorded convention "
          f"{show(predicted[0], predicted[1])}: {(sv, swbar) == predicted}")
