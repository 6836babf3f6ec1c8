import random
from fractions import Fraction

import pytest

from iwrlat.classes import (
    DeterminantSpec,
    GramMatrix,
    IwrLattice,
    MnPair,
    NotPositiveDefiniteError,
    NotWellRoundedError,
    SimilarityClass,
    angle_cos,
    angle_sin_sq,
    class_from_mn,
    classify_gram,
    e_exponent,
    gauss_reduce,
)

HEX = SimilarityClass(1, 1, 2, 3)
SQUARE = SimilarityClass(0, 1, 1, 1)
BIG = SimilarityClass(29, 24, 61, 5)


def test_similarity_class_validation():
    with pytest.raises(ValueError):
        SimilarityClass(2, 1, 3, 5)  # angle window 2p <= q fails
    with pytest.raises(ValueError):
        SimilarityClass(1, 1, 3, 5)  # equation fails
    with pytest.raises(ValueError):
        SimilarityClass(1, 1, 3, 8)  # D not squarefree
    with pytest.raises(ValueError):
        SimilarityClass(3, 3, 6, 3)  # gcd(p, q) = 3
    with pytest.raises(ValueError):
        SimilarityClass(0, 1, 1, 3)  # p = 0 forces q^2 = D r^2, so D = 1 only
    assert BIG.triple() == (29, 24, 61)
    assert SQUARE.triple() == (0, 1, 1)


def test_mn_pair_validation():
    MnPair(1, 1, 3)
    MnPair(3, 1, 3)  # endpoint m^2 = 3 D n^2 allowed
    with pytest.raises(ValueError):
        MnPair(2, 4, 5)  # not coprime
    with pytest.raises(ValueError):
        MnPair(1, 2, 5)  # below the band: 3 m^2 < D n^2
    with pytest.raises(ValueError):
        MnPair(9, 1, 5)  # above the band: m^2 > 3 D n^2


def test_e_exponent_examples():
    assert e_exponent(1, 1, 3) == 1
    assert e_exponent(2, 1, 5) == 0
    assert e_exponent(1, 1, 2) == 0


def test_class_from_mn_examples():
    assert class_from_mn(MnPair(1, 1, 3)).triple() == (1, 1, 2)
    assert class_from_mn(MnPair(15, 4, 5)).triple() == (29, 24, 61)
    assert class_from_mn(MnPair(1, 1, 1)).triple() == (0, 1, 1)


def test_class_from_mn_reciprocal_pairs_collapse():
    # m m' = D n n' pairs the two preimages of one class
    a = class_from_mn(MnPair(3, 2, 5))
    b = class_from_mn(MnPair(10, 3, 5))
    assert a == b == SimilarityClass(11, 12, 29, 5)
    assert class_from_mn(MnPair(3, 1, 3)) == class_from_mn(MnPair(1, 1, 3)) == HEX


def test_angle_values():
    assert angle_cos(HEX) == Fraction(1, 2)
    assert angle_cos(SQUARE) == 0
    assert angle_cos(BIG) == Fraction(29, 61)
    assert angle_sin_sq(BIG) == Fraction(2880, 3721)
    for cls in (HEX, SQUARE, BIG):
        assert angle_cos(cls) ** 2 + angle_sin_sq(cls) == 1


def test_lattice_gram_examples():
    assert IwrLattice(HEX, 1).gram() == GramMatrix(2, 1, 2)
    assert IwrLattice(SQUARE, 1).gram() == GramMatrix(1, 0, 1)
    assert IwrLattice(BIG, 1).gram() == GramMatrix(61, 29, 61)
    g = IwrLattice(BIG, 2).gram()
    assert g.det() == 4 * 24 * 24 * 5


def test_minimum_and_determinant():
    assert IwrLattice(HEX, 1).minimum == 2
    assert IwrLattice(HEX, 1).determinant == DeterminantSpec(1, 3)
    assert IwrLattice(BIG, 1).minimum == 61
    assert IwrLattice(BIG, 1).determinant == DeterminantSpec(24, 5)
    lat = IwrLattice(SimilarityClass(9, 8, 23, 7), 3)
    assert lat.minimum == 69
    assert lat.determinant == DeterminantSpec(24, 7)


def test_minimal_lattice():
    assert IwrLattice(HEX, 1).k == 1 and IwrLattice(HEX, 1).minimum == 2
    assert IwrLattice(BIG, 1).minimum == 61
    assert IwrLattice(SimilarityClass(2, 3, 7, 5), 1).minimum == 7


def test_gram_matrix_validation():
    with pytest.raises(NotPositiveDefiniteError):
        GramMatrix(1, 5, 1)
    with pytest.raises(NotPositiveDefiniteError):
        GramMatrix(-2, 0, 3)
    with pytest.raises(ValueError):
        GramMatrix(2, 0.5, 2)


def test_gauss_reduce_examples():
    reduced, u = gauss_reduce(GramMatrix(2, 1, 2))
    assert reduced == GramMatrix(2, 1, 2) and u == ((1, 0), (0, 1))
    reduced, _ = gauss_reduce(GramMatrix(5, 3, 2))
    assert reduced == GramMatrix(1, 0, 1)
    # determinant 2880 input lands on the Table-style form; the det-13 cousin
    # [[61,90],[90,133]] cannot (unimodular changes preserve the determinant)
    reduced, _ = gauss_reduce(GramMatrix(61, 90, 180))
    assert reduced == GramMatrix(61, 29, 61)
    reduced, _ = gauss_reduce(GramMatrix(61, 90, 133))
    assert reduced == GramMatrix(1, 0, 13)


def _apply(u, g):
    (u00, u01), (u10, u11) = u
    a = g.a * u00 * u00 + 2 * g.b * u00 * u10 + g.c * u10 * u10
    b = g.a * u00 * u01 + g.b * (u00 * u11 + u01 * u10) + g.c * u10 * u11
    c = g.a * u01 * u01 + 2 * g.b * u01 * u11 + g.c * u11 * u11
    return a, b, c


def test_gauss_reduce_randomized_transform_property():
    rng = random.Random(11)
    for _ in range(500):
        # random SL2(Z) word applied to a random diagonal form
        a0, c0 = rng.randint(1, 30), rng.randint(1, 30)
        g = (a0, 0, c0)
        for _ in range(rng.randint(1, 8)):
            t = rng.randint(-4, 4)
            a, b, c = g
            if rng.random() < 0.5:
                g = (a, b + a * t, c + 2 * b * t + a * t * t)
            else:
                g = (a + 2 * b * t + c * t * t, b + c * t, c)
        gm = GramMatrix(*g)
        reduced, u = gauss_reduce(gm)
        assert 0 <= 2 * reduced.b <= reduced.a <= reduced.c
        assert _apply(u, gm) == (reduced.a, reduced.b, reduced.c)
        (u00, u01), (u10, u11) = u
        assert abs(u00 * u11 - u01 * u10) == 1
        assert reduced.det() == gm.det()


def test_classify_gram_examples():
    assert classify_gram(GramMatrix(2, 1, 2)) == (HEX, 1)
    assert classify_gram(GramMatrix(1, 0, 1)) == (SQUARE, 1)
    assert classify_gram(GramMatrix(122, 58, 122)) == (BIG, 2)
    with pytest.raises(NotWellRoundedError):
        classify_gram(GramMatrix(1, 0, 2))


def test_classify_gram_handles_negative_b_and_unreduced_input():
    cls, k = classify_gram(GramMatrix(2, -1, 2))
    assert (cls, k) == (HEX, 1)
    cls, k = classify_gram(GramMatrix(61, 90, 180))
    assert (cls, k) == (BIG, 1)

