"""Word and stratum JSON encodings."""

import pytest

from tnnflag import jsonio
from tnnflag.weyl import type_a_group


def test_word_round_trip_plain(S3):
    word = (0, 1, 0)
    data = jsonio.word_to_json(word)
    assert data == [1, 2, 1]
    assert jsonio.word_from_json(S3, data) == word


def test_placeholder_encoding(S3):
    sub = (None, 1, None)
    assert jsonio.word_to_json(sub) == [0, 2, 0]
    assert jsonio.word_from_json(S3, [0, 2, 0]) == sub


def test_bad_letters_rejected(S3):
    with pytest.raises(ValueError):
        jsonio.word_from_json(S3, [3])
    with pytest.raises(ValueError):
        jsonio.word_from_json(S3, [-1])
    with pytest.raises(ValueError):
        jsonio.word_from_json(S3, [1, -2])


def test_stratum_encoding(S3):
    v = S3.simple(0)
    wbar = (S3.from_word((0, 1)), S3.simple(1))
    assert jsonio.stratum_to_json(v, wbar) == {"v": [1], "w": [[1, 2], [2]]}
