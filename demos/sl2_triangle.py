"""The totally nonnegative double flag of SL2 is a triangle.

The two-factor space over SL2 has chart image
{(a, b) : a, b in [0, inf], b - a >= 0}; its face poset is the augmented
poset of a 2-simplex.  This script builds that poset, runs the regular-CW
checks, and samples exact points of the open cell.
"""

from fractions import Fraction

from tnnflag import build_interval, check_regular_ball, make_qnode, type_a_group
from tnnflag.posets import to_dot
from tnnflag.twisted import alpha, parametrize_cell

group = type_a_group(2)
e, s = group.identity, group.simple(0)

top = make_qnode(e, (s, s))
poset = build_interval(top)
print(f"interval below {top.describe()}: {len(poset)} nodes, f-vector {poset.f_vector()}")
print()
print("Hasse diagram (DOT):")
print(to_dot(poset))
print()

report = check_regular_ball(top)
print(f"regular-ball report: {report.status}")
for check in report.checks:
    print(f"  {check['check']:24s} {check['status']}")
print()

print("sampled top-cell points (parameters t1, t2 > 0 give chart coords (t1, t1+t2)):")
for t1, t2 in [(Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(5, 2)), (Fraction(7, 4), Fraction(1, 8))]:
    z = parametrize_cell(e, (s, s), [t1, t2])
    coords = []
    for f in alpha(z):
        col = [row[0] for row in f.rep]
        coords.append(col[1] / col[0])
    a, b = coords
    print(f"  t = ({t1}, {t2})  ->  (a, b) = ({a}, {b}),  b - a = {b - a} > 0")
