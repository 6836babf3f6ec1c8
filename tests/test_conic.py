import random
from fractions import Fraction

import pytest
from oracles import class_to_point, pell_add

from iwrlat.classes import DeterminantSpec, SimilarityClass
from iwrlat.conic import MismatchedTypeError, compose
from iwrlat.enumeration import enumerate_iwr

HEX = SimilarityClass(1, 1, 2, 3)


def test_pell_add_examples():
    assert pell_add((1, 0), (7, 4), 3) == (7, 4)
    assert pell_add((2, 1), (2, 1), 3) == (7, 4)
    with pytest.raises(ValueError):
        pell_add((9, 2), (2, 1), 5)  # 81 - 20 != 1


def test_pell_add_rational_points():
    p = (Fraction(7, 2), Fraction(3, 2))  # (7/2)^2 - 5 (3/2)^2 = 49/4 - 45/4 = 1
    x, y = pell_add(p, p, 5)
    assert x * x - 5 * y * y == 1
    assert pell_add(p, (1, 0), 5) == p


def test_compose_examples():
    assert compose(HEX, HEX) == SimilarityClass(1, 4, 7, 3)
    c = SimilarityClass(2, 3, 7, 5)
    assert compose(c, c) == SimilarityClass(2, 21, 47, 5)
    assert compose(c, SimilarityClass(1, 4, 9, 5)) == SimilarityClass(2, 55, 123, 5)


def test_compose_rejects_mismatched_type():
    with pytest.raises(MismatchedTypeError):
        compose(HEX, SimilarityClass(2, 3, 7, 5))


def test_compose_rejects_square_class():
    sq = SimilarityClass(0, 1, 1, 1)
    with pytest.raises(ValueError):
        compose(sq, sq)


def test_class_to_point_on_conic():
    for cls in (HEX, SimilarityClass(2, 3, 7, 5), SimilarityClass(29, 24, 61, 5)):
        x, y = class_to_point(cls)
        assert x * x - cls.D * y * y == 1
    with pytest.raises(ValueError):
        class_to_point(SimilarityClass(0, 1, 1, 1))


def _sample_classes(D: int, count: int, rng: random.Random) -> list[SimilarityClass]:
    pool = []
    for M in range(1, 60):
        for lat in enumerate_iwr(DeterminantSpec(M, D), include_square_class=False):
            if lat.k == 1 and lat.cls.p > 0:
                pool.append(lat.cls)
    seen = sorted(set(pool), key=lambda c: (c.q, c.p))
    return [rng.choice(seen) for _ in range(count)]


def test_compose_closure_commutativity_associativity():
    rng = random.Random(3)
    for D in (2, 3, 5, 7, 13):
        classes = _sample_classes(D, 30, rng)
        for _ in range(60):
            a, b, c = rng.choice(classes), rng.choice(classes), rng.choice(classes)
            ab = compose(a, b)
            assert 4 * ab.p <= ab.q  # closure tightens the angle window
            assert ab == compose(b, a)
            assert compose(ab, c) == compose(a, compose(b, c))


def test_compose_matches_pell_addition():
    rng = random.Random(4)
    for D in (3, 5, 11):
        classes = _sample_classes(D, 12, rng)
        for _ in range(30):
            a, b = rng.choice(classes), rng.choice(classes)
            composed = compose(a, b)
            added = pell_add(class_to_point(a), class_to_point(b), D)
            assert class_to_point(composed) == added
