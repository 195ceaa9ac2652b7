"""JSON encodings shared by the CLI and reports.

Words serialize as integer lists: base vertices are 1-based positive
integers, thickening letters inf_l are encoded as -l, and the identity
placeholder of a subexpression is 0.
"""

from __future__ import annotations

from .weyl import WeylElt, WeylGroup


def letter_to_json(group: WeylGroup, letter) -> int:
    if letter is None:
        return 0
    if letter in group.inf_positions:
        return -(group.inf_positions.index(letter) + 1)
    return letter + 1


def letter_from_json(group: WeylGroup, value: int):
    if value == 0:
        return None
    if value < 0:
        idx = -value - 1
        if idx >= len(group.inf_positions):
            raise ValueError(f"no thickening letter inf{-value}")
        return group.inf_positions[idx]
    if value > group.rank - len(group.inf_positions):
        raise ValueError(f"letter {value} out of range")
    return value - 1


def word_to_json(group: WeylGroup, word) -> list[int]:
    return [letter_to_json(group, t) for t in word]


def word_from_json(group: WeylGroup, values) -> tuple:
    """The word a ``word_to_json`` list encodes; ValueError on a letter the group lacks.

    Public API with no caller in the package: it is the decoder of the
    word encoding of the CLI's JSON reports, so a reader can turn a
    reported word back into letters, thickening letters included.
    """
    return tuple(letter_from_json(group, v) for v in values)


def element_to_json(w: WeylElt) -> list[int]:
    return word_to_json(w.group, w.word)


def stratum_to_json(v: WeylElt, wbar) -> dict:
    return {
        "v": element_to_json(v),
        "w": [element_to_json(w) for w in wbar],
    }
