"""Exact combinatorics of totally nonnegative twisted products of flag varieties.

Submodules:

- :mod:`tnnflag.cartan`: generalized Cartan matrices and thickening
- :mod:`tnnflag.weyl`: Weyl-group arithmetic, Demazure calculus, positive
  subexpressions, thickening word maps
- :mod:`tnnflag.posets`: face posets and the verdicts of the regularity checks
- :mod:`tnnflag.ratlin` / :mod:`tnnflag.slk`: exact rational SL_k pinning
- :mod:`tnnflag.twisted`: points and strata of the twisted product
- :mod:`tnnflag.verify`: every report: regularity checks, named verification suites
- :mod:`tnnflag.cli`: command-line entry point
"""

from .cartan import GeneralizedCartanMatrix, cartan_of_type, thicken
from .posets import (
    FacePoset,
    QNode,
    braid_poset,
    build_interval,
    find_shelling,
    is_eulerian,
    is_pure,
    is_thin,
    link_poset,
    make_qnode,
    mobius,
)
from .slk import FlagPoint
from .twisted import ZPoint, parametrize_cell, phi_Z, stratum
from .verify import check_regular_ball
from .weyl import WeylElt, WeylGroup, positive_tuple, type_a_group

__all__ = [
    "GeneralizedCartanMatrix",
    "cartan_of_type",
    "thicken",
    "WeylGroup",
    "WeylElt",
    "positive_tuple",
    "type_a_group",
    "QNode",
    "FacePoset",
    "make_qnode",
    "build_interval",
    "braid_poset",
    "link_poset",
    "is_pure",
    "is_thin",
    "is_eulerian",
    "mobius",
    "find_shelling",
    "check_regular_ball",
    "FlagPoint",
    "ZPoint",
    "stratum",
    "parametrize_cell",
    "phi_Z",
]

__version__ = "0.1.0"
