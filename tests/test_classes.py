import copy
import pickle
import random
from fractions import Fraction

import pytest

from iwrlat.arith import Factorization
from iwrlat.classes import (
    DeterminantSpec,
    GramMatrix,
    IwrLattice,
    MnPair,
    NotIntegralError,
    NotPositiveDefiniteError,
    NotWellRoundedError,
    SimilarityClass,
    _gauss_reduce,
    class_from_mn,
    classify_gram,
    e_exponent,
)
from iwrlat.enumeration import CountReport, count_report

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


def _angle(cls):
    # cos = b / a and sin^2 = det / a^2, read off the Gram [[q, p], [p, q]] of the minimal lattice
    g = IwrLattice(cls, 1).gram()
    return Fraction(g.b, g.a), Fraction(g.det(), g.a * g.a)


def test_angle_values():
    assert _angle(HEX)[0] == Fraction(1, 2)
    assert _angle(SQUARE)[0] == 0
    assert _angle(BIG) == (Fraction(29, 61), Fraction(2880, 3721))
    for cls in (HEX, SQUARE, BIG):
        cos, sin_sq = _angle(cls)
        assert (cos, sin_sq) == (Fraction(cls.p, cls.q), Fraction(cls.r * cls.r * cls.D, cls.q * cls.q))
        assert cos**2 + sin_sq == 1


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
    reduced, u = _gauss_reduce(GramMatrix(2, 1, 2))
    assert reduced == GramMatrix(2, 1, 2) and u == ((1, 0), (0, 1))
    reduced, _ = _gauss_reduce(GramMatrix(5, 3, 2))
    assert reduced == GramMatrix(1, 0, 1)
    # determinant 2880 input lands on the Table-style form; the det-13 cousin
    # [[61,90],[90,133]] cannot (unimodular changes preserve the determinant)
    reduced, _ = _gauss_reduce(GramMatrix(61, 90, 180))
    assert reduced == GramMatrix(61, 29, 61)
    reduced, _ = _gauss_reduce(GramMatrix(61, 90, 133))
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
        reduced, u = _gauss_reduce(gm)
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



# --- the value classes behave as the frozen dataclasses they replaced ---------

# class, its fields by keyword in declaration order, and the dataclass repr
VALUES = [
    (Factorization, {"value": 360, "factors": ((2, 3), (3, 2), (5, 1))},
     "Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))"),
    (SimilarityClass, {"p": 29, "r": 24, "q": 61, "D": 5}, "SimilarityClass(p=29, r=24, q=61, D=5)"),
    (MnPair, {"m": 15, "n": 4, "D": 5}, "MnPair(m=15, n=4, D=5)"),
    (DeterminantSpec, {"M": 24, "D": 5}, "DeterminantSpec(M=24, D=5)"),
    (IwrLattice, {"cls": HEX, "k": 2}, "IwrLattice(cls=SimilarityClass(p=1, r=1, q=2, D=3), k=2)"),
    (GramMatrix, {"a": 61, "b": 29, "c": 61}, "GramMatrix(a=61, b=29, c=61)"),
    (CountReport,
     {"spec": DeterminantSpec(24, 5), "rows": ((1, 0, 1, 0), (24, 1, 4, 4)), "total": 4,
      "square_classes": 0, "bound": Fraction(21, 2), "diagnostic": 0.5},
     "CountReport(spec=DeterminantSpec(M=24, D=5), rows=((1, 0, 1, 0), (24, 1, 4, 4)), total=4, "
     "square_classes=0, bound=Fraction(21, 2), diagnostic=0.5)"),
]
VALUE_IDS = [case[0].__name__ for case in VALUES]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_class_equality_hash_and_repr(cls, fields, text):
    obj = cls(**fields)
    assert obj == cls(*fields.values()) and not obj != cls(**fields)
    assert hash(obj) == hash(cls(**fields)) == hash(tuple(fields.values()))
    assert repr(obj) == str(obj) == text
    assert cls.__match_args__ == tuple(fields)
    # every field takes part in ==
    for i in range(len(fields)):
        values = list(fields.values())
        values[i] = object()
        changed = cls.__new__(cls)
        changed.__setstate__(tuple(values))
        assert obj != changed
    # neither a tuple of the same fields nor another class holding them is equal
    twin = type(cls.__name__, (cls,), {})(**fields)
    for other in (tuple(fields.values()), twin):
        assert obj != other and other != obj and not obj == other
        assert obj.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_class_is_immutable_and_slotted(cls, fields, text):
    obj = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_class_pickles_and_copies_without_init(cls, fields, text, monkeypatch):
    obj = cls(**fields)
    blob = pickle.dumps(obj)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{cls.__name__}.__init__ ran")

    monkeypatch.setattr(cls, "__init__", refuse)
    for again in (pickle.loads(blob), copy.deepcopy(obj), copy.copy(obj)):
        assert type(again) is cls and again == obj and repr(again) == text


# (IwrLattice(SimilarityClass(1, 1, 2, 3), 2), count_report(DeterminantSpec(3, 3))) as
# pickled while the value classes were frozen dataclasses: their state is a dict
DATACLASS_PICKLE = bytes.fromhex(
    "80049544010000000000008c0e6977726c61742e636c6173736573948c0a4977724c6174746963659493942981947d94"
    "288c03636c739468008c0f53696d696c6172697479436c6173739493942981947d94288c0170944b018c0172944b018c"
    "0171944b028c0144944b0375628c016b944b0275628c126977726c61742e656e756d65726174696f6e948c0b436f756e"
    "745265706f72749493942981947d94288c04737065639468008c0f44657465726d696e616e7453706563949394298194"
    "7d94288c014d944b03680d4b0375628c04726f777394284b014b014b014b017494284b034b004b014b01749486948c05"
    "746f74616c944b018c0e7371756172655f636c6173736573944b008c05626f756e64948c096672616374696f6e73948c"
    "084672616374696f6e9493944b024b01869452948c0a646961676e6f7374696394474010000000000000756286942e"
)


def test_value_classes_unpickle_from_their_dataclass_form():
    lattice, report = pickle.loads(DATACLASS_PICKLE)
    assert lattice == IwrLattice(SimilarityClass(1, 1, 2, 3), 2)
    assert report == count_report(DeterminantSpec(3, 3))


# constructor, arguments, the exception class and its message
INVALID = [
    (SimilarityClass, (1.0, 1, 2, 3), NotIntegralError, "p must be an int, got 1.0"),
    (SimilarityClass, (1, 1, 2, True), NotIntegralError, "D must be an int, got True"),
    (SimilarityClass, (-1, 1, 1, 1), ValueError, "coordinates out of range: SimilarityClass(p=-1, r=1, q=1, D=1)"),
    (SimilarityClass, (1, 1, 3, 8), ValueError, "D must be squarefree, got 8"),
    (SimilarityClass, (1, 1, 3, 5), ValueError, "p^2 + D r^2 != q^2 for SimilarityClass(p=1, r=1, q=3, D=5)"),
    (SimilarityClass, (3, 3, 6, 3), ValueError, "gcd(p, q) != 1 for SimilarityClass(p=3, r=3, q=6, D=3)"),
    (SimilarityClass, (3, 4, 5, 1), ValueError,
     "2p > q for SimilarityClass(p=3, r=4, q=5, D=1) (angle outside [pi/3, pi/2])"),
    (MnPair, (0, 1, 3), ValueError, "m, n, D must be positive: MnPair(m=0, n=1, D=3)"),
    (MnPair, (1, 1, 4), ValueError, "D must be squarefree, got 4"),
    (MnPair, (2, 4, 5), ValueError, "gcd(m, n) != 1 for MnPair(m=2, n=4, D=5)"),
    (MnPair, (1, 2, 5), ValueError, "pair below band (D n^2 > 3 m^2): MnPair(m=1, n=2, D=5)"),
    (MnPair, (9, 1, 5), ValueError, "pair above band (m^2 > 3 D n^2): MnPair(m=9, n=1, D=5)"),
    (DeterminantSpec, (0, 5), ValueError, "M must be >= 1, got 0"),
    (DeterminantSpec, (24, 0), ValueError, "D must be squarefree >= 1, got 0"),
    (DeterminantSpec, (24, 12), ValueError, "D must be squarefree >= 1, got 12"),
    (IwrLattice, (HEX, 0), ValueError, "k must be a positive int, got 0"),
    (IwrLattice, (HEX, True), ValueError, "k must be a positive int, got True"),
    (IwrLattice, (HEX, 1.5), ValueError, "k must be a positive int, got 1.5"),
    (GramMatrix, (2, 0.5, 2), NotIntegralError, "Gram entry b must be an int, got 0.5"),
    (GramMatrix, (1, 2, 1), NotPositiveDefiniteError, "not positive definite: GramMatrix(a=1, b=2, c=1)"),
    (GramMatrix, (0, 0, 1), NotPositiveDefiniteError, "not positive definite: GramMatrix(a=0, b=0, c=1)"),
]


@pytest.mark.parametrize("cls, args, error, message", INVALID, ids=[str(case[1]) for case in INVALID])
def test_value_class_validation_messages(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message
