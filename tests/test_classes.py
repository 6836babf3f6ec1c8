import copy
import pickle
import random
from fractions import Fraction

import pytest

from iwrlat.arith import Factorization, _Value
from iwrlat.classes import (
    DeterminantSpec,
    GramMatrix,
    IwrLattice,
    NotIntegralError,
    NotPositiveDefiniteError,
    NotWellRoundedError,
    SimilarityClass,
    _gauss_reduce,
    classify_gram,
)
from iwrlat.enumeration import CountReport
from iwrlat.optimize import _mn_triples
from iwrlat.zeta import MonotonicityReport, ZetaResult

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


def test_class_from_mn_examples():
    # (m, n) = (1, 1) and its reciprocal (3, 1) give the hexagonal class for D = 3, and
    # (1, 1) the square class for D = 1; for D = 5, (15, 4) and (4, 3) give BIG with r = 24
    assert _mn_triples(DeterminantSpec(1, 3)) == {HEX.triple()}
    assert _mn_triples(DeterminantSpec(1, 1)) == {SQUARE.triple()}
    assert BIG.triple() in _mn_triples(DeterminantSpec(24, 5))


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
    (DeterminantSpec, {"M": 24, "D": 5}, "DeterminantSpec(M=24, D=5)"),
    (IwrLattice, {"cls": HEX, "k": 2}, "IwrLattice(cls=SimilarityClass(p=1, r=1, q=2, D=3), k=2)"),
    (GramMatrix, {"a": 61, "b": 29, "c": 61}, "GramMatrix(a=61, b=29, c=61)"),
    (CountReport,
     {"spec": DeterminantSpec(24, 5), "rows": ((1, 0, 1, 0), (24, 1, 4, 4)), "total": 4,
      "square_classes": 0, "bound": Fraction(21, 2), "diagnostic": 0.5},
     "CountReport(spec=DeterminantSpec(M=24, D=5), rows=((1, 0, 1, 0), (24, 1, 4, 4)), total=4, "
     "square_classes=0, bound=Fraction(21, 2), diagnostic=0.5)"),
    (ZetaResult,
     {"value": 1.9277864333306725, "abs_error_bound": 2.5e-10, "truncation_radius": 4, "s": 2.0, "T": 2.0,
      "Delta": 1.7320508075688772},
     "ZetaResult(value=1.9277864333306725, abs_error_bound=2.5e-10, truncation_radius=4, s=2.0, T=2.0, "
     "Delta=1.7320508075688772)"),
    (MonotonicityReport,
     {"spec": DeterminantSpec(24, 5), "s": 3.0, "mode": "asserted", "minima": (54, 56, 58, 61),
      "values": (3e-05, 2.8e-05, 2.7e-05, 2.6e-05), "errors": (6e-11, 1.2e-10, 2.4e-10, 5.6e-10),
      "decreasing_observed": True, "certified": False, "inconclusive": ((2, 3),)},
     "MonotonicityReport(spec=DeterminantSpec(M=24, D=5), s=3.0, mode='asserted', minima=(54, 56, 58, 61), "
     "values=(3e-05, 2.8e-05, 2.7e-05, 2.6e-05), errors=(6e-11, 1.2e-10, 2.4e-10, 5.6e-10), "
     "decreasing_observed=True, certified=False, inconclusive=((2, 3),))"),
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


# the records that take _Value's constructor, by position or by name
RECORDS = [case for case in VALUES if case[0].__init__ is _Value.__init__]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_constructor_takes_each_field_once(cls, fields, text):
    names, values = list(fields), list(fields.values())
    assert repr(cls(*values[:2], **dict(zip(names[2:], values[2:])))) == text
    for args, kwargs in (
        (values[:-1], {}),  # the last field missing
        (values[:1], dict(zip(names[2:], values[2:]))),  # the second missing
        (values + [None], {}),  # one field too many
        (values, {names[0]: values[0]}),  # the first field twice
        (values[:-1], {names[-1]: values[-1], "extra": None}),  # a name that is no field
    ):
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(*args, **kwargs)


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


# each of VALUES as pickled (protocol 4) by _Value.__reduce__ at 9eb1e29, ZetaResult and
# MonotonicityReport since they became _Value records: __newobj__ and a tuple of the fields,
# the form that pickles written before a change of the format hold
SLOT_TUPLE_PICKLES = {
    "Factorization":
        "8004953f000000000000008c0c6977726c61742e6172697468948c0d466163746f72697a6174696f6e9493942981944d"
        "68014b024b0386944b034b0286944b054b01869487948694622e",
    "SimilarityClass":
        "80049535000000000000008c0e6977726c61742e636c6173736573948c0f53696d696c6172697479436c617373949394"
        "298194284b1d4b184b3d4b057494622e",
    "DeterminantSpec":
        "80049530000000000000008c0e6977726c61742e636c6173736573948c0f44657465726d696e616e7453706563949394"
        "2981944b184b058694622e",
    "IwrLattice":
        "8004954e000000000000008c0e6977726c61742e636c6173736573948c0a4977724c61747469636594939429819468008c"
        "0f53696d696c6172697479436c617373949394298194284b014b014b024b037494624b028694622e",
    "GramMatrix":
        "8004952d000000000000008c0e6977726c61742e636c6173736573948c0a4772616d4d61747269789493942981944b3d4b"
        "1d4b3d8794622e",
    "CountReport":
        "800495a2000000000000008c126977726c61742e656e756d65726174696f6e948c0b436f756e745265706f7274949394"
        "298194288c0e6977726c61742e636c6173736573948c0f44657465726d696e616e74537065639493942981944b184b05"
        "869462284b014b004b014b007494284b184b014b044b04749486944b044b008c096672616374696f6e73948c08467261"
        "6374696f6e9493944b154b0286945294473fe00000000000007494622e",
    "ZetaResult":
        "80049554000000000000008c0b6977726c61742e7a657461948c0a5a657461526573756c7494939429819428473ffed836"
        "964d3e5a473df12e0be826d6954b04474000000000000000474000000000000000473ffbb67ae8584caa7494622e",
    "MonotonicityReport":
        "800495d3000000000000008c0b6977726c61742e7a657461948c124d6f6e6f746f6e69636974795265706f7274949394"
        "298194288c0e6977726c61742e636c6173736573948c0f44657465726d696e616e74537065639493942981944b184b05"
        "8694624740080000000000008c08617373657274656494284b364b384b3a4b3d749428473eff75104d551d69473efd5c"
        "31593e5fb7473efc4fc1df3300de473efb43526527a205749428473dd07e1fe91b0b70473de07e1fe91b0b70473df07e"
        "1fe91b0b70473e033dcfe54a3803749488894b024b03869485947494622e",
}


def test_slot_tuple_pickles_cover_every_value_class():
    assert set(SLOT_TUPLE_PICKLES) == set(VALUE_IDS)


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_class_unpickles_from_its_slot_tuple_form(cls, fields, text, monkeypatch):
    obj = cls(**fields)
    monkeypatch.setattr(cls, "__init__", None)  # loading must not call it
    again = pickle.loads(bytes.fromhex(SLOT_TUPLE_PICKLES[cls.__name__]))
    assert type(again) is cls and again == obj and repr(again) == text


def _dataclass_pickle(cls, fields):
    """A frozen dataclass's pickle, opcode by opcode: the class, NEWOBJ, the field dict, BUILD."""
    name = f"{cls.__module__}\n{cls.__qualname__}\n".encode()
    return b"\x80\x04c" + name + b")\x81" + pickle.dumps(fields, 2)[2:-1] + b"b."


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_class_refuses_a_state_other_than_its_field_tuple(cls, fields, text):
    # a dict state used to load with each field set to its own name
    with pytest.raises(TypeError, match=f"^{cls.__qualname__} has the fields "):
        pickle.loads(_dataclass_pickle(cls, fields))
    values = tuple(fields.values())
    for state in (values[:-1], values + (None,), list(values), fields, None):
        with pytest.raises(TypeError, match=f"^{cls.__qualname__} has the fields "):
            cls.__new__(cls).__setstate__(state)


# constructor, arguments, the exception class and its message
INVALID = [
    (SimilarityClass, (1.0, 1, 2, 3), NotIntegralError, "p must be an int, got 1.0"),
    (SimilarityClass, (1, 1, 2, True), NotIntegralError, "D must be an int, got True"),
    (SimilarityClass, (-1, 1, 1, 1), ValueError, "coordinates out of range: SimilarityClass(p=-1, r=1, q=1, D=1)"),
    (SimilarityClass, (1, 1, 3, 8), ValueError, "D must be squarefree >= 1, got 8"),
    (SimilarityClass, (1, 1, 3, 5), ValueError, "p^2 + D r^2 != q^2 for SimilarityClass(p=1, r=1, q=3, D=5)"),
    (SimilarityClass, (3, 3, 6, 3), ValueError, "gcd(p, q) != 1 for SimilarityClass(p=3, r=3, q=6, D=3)"),
    (SimilarityClass, (3, 4, 5, 1), ValueError,
     "2p > q for SimilarityClass(p=3, r=4, q=5, D=1) (angle outside [pi/3, pi/2])"),
    (DeterminantSpec, (2.5, 5), NotIntegralError, "M must be an int, got 2.5"),
    (DeterminantSpec, (True, 5), NotIntegralError, "M must be an int, got True"),
    (DeterminantSpec, (24, True), NotIntegralError, "D must be an int, got True"),
    (DeterminantSpec, (24, 5.0), NotIntegralError, "D must be an int, got 5.0"),
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
