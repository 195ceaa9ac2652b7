import pytest

from tnnflag.cartan import GeneralizedCartanMatrix, cartan_of_type, thicken


def test_type_a_matrices():
    assert cartan_of_type("A", 1).entries == ((2,),)
    assert cartan_of_type("A", 2).entries == ((2, -1), (-1, 2))
    a3 = cartan_of_type("A", 3).entries
    for i in range(3):
        for j in range(3):
            expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            assert a3[i][j] == expected


def test_bcd_and_affine():
    b2 = cartan_of_type("B", 2)
    c2 = cartan_of_type("C", 2)
    assert b2.entries == ((2, -2), (-1, 2))
    assert c2.entries == ((2, -1), (-2, 2))
    d4 = cartan_of_type("D", 4)
    assert d4.entries[1][3] == -1 and d4.entries[2][3] == 0
    aff1 = cartan_of_type("affine-A", 1)
    assert aff1.entries == ((2, -2), (-2, 2))
    aff2 = cartan_of_type("affine-A", 2)
    assert len(aff2.labels) == 3
    assert aff2.entries[0][2] == aff2.entries[2][0] == -1


def test_g2_matrix_and_its_rank():
    """G2 is the rank-2 type with the -3 entry; every other rank raises."""
    g2 = cartan_of_type("G", 2)
    assert g2.entries == ((2, -1), (-3, 2)) and g2.labels == ("1", "2")
    for rank in (1, 3, 4):
        with pytest.raises(ValueError, match="type G needs rank 2"):
            cartan_of_type("G", rank)


def test_unsupported_combinations():
    with pytest.raises(ValueError):
        cartan_of_type("B", 1)
    with pytest.raises(ValueError):
        cartan_of_type("E", 8)
    with pytest.raises(ValueError):
        cartan_of_type("A", 0)


def test_invariants_enforced():
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(("1",), ((3,),))
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(("1", "2"), ((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(("1", "2"), ((2, 0), (-1, 2)))


def test_thicken_a1_two_factors():
    out = thicken(cartan_of_type("A", 1), 2)
    assert out.labels == ("1", "inf1")
    assert out.entries == ((2, -2), (-2, 2))


def test_thicken_identity_when_single_factor():
    a = cartan_of_type("A", 3)
    assert thicken(a, 1) is a


def test_thicken_a3_three_factors_matches_diagram():
    a = cartan_of_type("A", 3)
    out = thicken(a, 3)
    assert out.labels == ("1", "2", "3", "inf1", "inf2")
    # original block preserved exactly
    assert tuple(row[:3] for row in out.entries[:3]) == a.entries
    # every inf vertex joined to every other vertex by a -2 pair
    for p in (3, 4):
        for q in range(5):
            if p != q:
                assert out.entries[p][q] == -2
                assert out.entries[q][p] == -2


@pytest.mark.parametrize("family,rank,n", [("A", 1, 3), ("A", 2, 2), ("B", 2, 4)])
def test_thicken_invariants(family, rank, n):
    a = cartan_of_type(family, rank)
    out = thicken(a, n)
    GeneralizedCartanMatrix(out.labels, out.entries)  # revalidates
    assert tuple(row[:a.rank] for row in out.entries[:a.rank]) == a.entries
    assert thicken(thicken(a, 1), n) == thicken(a, n)
