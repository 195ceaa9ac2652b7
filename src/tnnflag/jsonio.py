"""JSON encodings shared by the CLI and reports.

Words serialize as integer lists: vertices are 1-based positive integers
and the identity placeholder of a subexpression is 0.  The reports hold
only words of the type A groups of ``cell``; ``poset`` reports name their
labels with ``describe()``.
"""

from __future__ import annotations

from .weyl import WeylElt, WeylGroup


def word_to_json(word) -> list[int]:
    return [0 if t is None else t + 1 for t in word]


def word_from_json(group: WeylGroup, values) -> tuple:
    """The word a ``word_to_json`` list encodes; ValueError on a letter the group lacks.

    Public API with no caller in the package: it is the decoder of the
    word encoding of the CLI's JSON reports, so a reader can turn a
    reported word back into letters.
    """
    for v in values:
        if not 0 <= v <= group.rank:
            raise ValueError(f"letter {v} out of range")
    return tuple(None if v == 0 else v - 1 for v in values)


def element_to_json(w: WeylElt) -> list[int]:
    return word_to_json(w.word)


def stratum_to_json(v: WeylElt, wbar) -> dict:
    return {
        "v": element_to_json(v),
        "w": [element_to_json(w) for w in wbar],
    }
