import pickle
from collections import Counter
from fractions import Fraction
from math import gcd, isclose, isqrt, prod, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import divisors, enumerate_by_gram_scan, mobius, omega, tau, windowed_count

from iwrlat import classes, enumeration
from iwrlat.arith import is_squarefree
from iwrlat.classes import DeterminantSpec, IwrLattice, SimilarityClass, classify_gram
from iwrlat.enumeration import count_report, enumerate_iwr, mobius_identity_check
from iwrlat.optimize import enumerate_iwr_via_mn

# --- the answers for one r, as views of the determinant-level calls -----------


def solutions_for_r(r, D):
    """The classes (p, q) of r, ascending in q: the lattices of enumerate_iwr(DeterminantSpec(r, D)) with cls.r == r."""
    lattices = enumerate_iwr(DeterminantSpec(r, D), include_square_class=False)
    return [(lat.cls.p, lat.cls.q) for lat in lattices if lat.cls.r == r]


def _row_of_r(r, D):
    # count_report's rows ascend in r, so r's own row is the last
    return count_report(DeterminantSpec(r, D)).rows[-1]


def count_classes(r, D):
    return _row_of_r(r, D)[1]


def count_primitive(r, D):
    return _row_of_r(r, D)[2]


def count_windowed(r, D):
    return _row_of_r(r, D)[3]


def test_solutions_for_r_examples():
    assert solutions_for_r(24, 5) == [(29, 61)]
    assert solutions_for_r(4, 5) == [(1, 9)]
    # c = 3 window holds b = 3 with a = 1, both odd: the hexagonal witness
    assert solutions_for_r(1, 3) == [(1, 2)]
    assert solutions_for_r(1, 1) == []
    # the right angle p = 0 comes only with the square class
    assert enumerate_iwr(DeterminantSpec(1, 1)) == [IwrLattice(SimilarityClass(0, 1, 1, 1), 1)]


def test_count_classes_examples():
    assert count_classes(3, 5) == 1
    assert count_classes(24, 5) == 1
    assert count_classes(8, 5) == 0


def test_count_primitive_examples():
    assert count_primitive(3, 5) == 2  # witnesses (22,23) and (2,7)
    assert count_primitive(1, 2) == 0
    assert count_primitive(1, 1) == 0


def test_count_primitive_powers_of_two():
    # q^2 - p^2 = 2^j has a primitive solution only from j = 3 on
    assert [count_primitive(1, 2), count_primitive(2, 2)] == [0, 1]
    assert count_primitive(2, 1) == 0  # c = 4
    assert count_primitive(4, 1) == 1  # c = 16: (3, 5)
    assert count_primitive(8, 1) == 1  # c = 64: (15, 17)


def test_count_windowed_examples():
    assert count_windowed(24, 5) == 4  # b in {60, 72, 80, 90}
    assert count_windowed(12, 5) == 3  # b in {30, 36, 40}
    assert count_windowed(1, 3) == 1  # b = 3, both odd


def _brute_windowed(r, D):
    # every b up to isqrt(3c), with the parity test as stated
    c = r * r * D
    return sum(1 for b in range(1, isqrt(3 * c) + 1) if c % b == 0 and b * b > c and (b + c // b) % 2 == 0)


WINDOWED_R = list(range(1, 41)) + [210, 360, 720, 1260, 2310]
WINDOWED_D = (1, 2, 3, 5, 6, 7, 10, 29)


def test_count_windowed_matches_the_parity_test_on_every_b():
    kinds = set()
    for D in WINDOWED_D:
        for r in WINDOWED_R:
            c = r * r * D
            kinds.add("c odd" if c % 2 else "c = 2 mod 4" if c % 4 == 2 else "4 || c" if c % 8 else "8 | c")
            assert count_windowed(r, D) == windowed_count(r, D) == _brute_windowed(r, D), (r, D)
    assert kinds == {"c odd", "c = 2 mod 4", "4 || c", "8 | c"}


@pytest.mark.parametrize("r, D", [(24, 5), (60, 7), (180, 2), (210, 1)])
def test_mobius_identity_check_sees_one_wrong_count_on_a_weighed_row(monkeypatch, r, D):
    real_window, real_splits = enumeration._window_count, enumeration._splits

    def one_pair_too_many(row):
        return lambda c, *rest: real_window(c, *rest) + (c == row)

    def one_class_dropped(row):
        def splits(c, *rest):
            n, us = real_splits(c, *rest)
            return n, us[1:] if c == row else us

        return splits

    # the rows g whose mu(r/g) is non-zero, each with one count off
    weighed = [g for g in divisors(r) if mobius(r // g)]
    faults = [("_window_count", g, one_pair_too_many(g * g * D)) for g in weighed]
    faults += [("_splits", g, one_class_dropped(g * g * D)) for g in weighed if count_classes(g, D)]
    assert len(faults) > len(weighed)
    for name, g, fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, name, fault)
            assert not mobius_identity_check(r, D), (name, g)
    assert mobius_identity_check(r, D)


def test_mobius_identity_examples():
    assert mobius_identity_check(24, 5)
    assert mobius_identity_check(1, 7)
    assert mobius_identity_check(3, 5)
    # spot check the first identity by hand for (12, 5), against the direct scan
    total = sum(count_classes(12 // g, 5) for g in (1, 2, 3, 4, 6, 12))
    assert windowed_count(12, 5) == count_windowed(12, 5) == total == 3


def test_enumerate_iwr_24_root_5():
    lats = enumerate_iwr(DeterminantSpec(24, 5))
    assert [lat.minimum for lat in lats] == [54, 56, 58, 61]
    assert [(lat.cls.triple(), lat.k) for lat in lats] == [
        ((1, 4, 9), 6),
        ((2, 3, 7), 8),
        ((11, 12, 29), 2),
        ((29, 24, 61), 1),
    ]
    for lat in lats:
        assert lat.determinant == DeterminantSpec(24, 5)


def test_enumerate_iwr_small():
    lats = enumerate_iwr(DeterminantSpec(1, 3))
    assert len(lats) == 1 and lats[0].cls == SimilarityClass(1, 1, 2, 3) and lats[0].k == 1
    assert enumerate_iwr(DeterminantSpec(1, 2)) == []


def test_enumerate_square_class_flag():
    with_sq = enumerate_iwr(DeterminantSpec(12, 1))
    without = enumerate_iwr(DeterminantSpec(12, 1), include_square_class=False)
    sq = [lat for lat in with_sq if lat.cls.p == 0]
    assert len(sq) == 1 and sq[0].k == 12 and sq[0].minimum == 12
    assert [lat for lat in with_sq if lat.cls.p > 0] == without
    assert [(lat.cls.triple(), lat.k) for lat in without] == [((5, 12, 13), 1)]


def test_enumerate_via_mn_matches():
    for (M, D) in [(24, 5), (1, 3), (1, 2), (1, 1), (40, 6), (36, 7), (24, 17)]:
        a = enumerate_iwr(DeterminantSpec(M, D))
        b = enumerate_iwr_via_mn(DeterminantSpec(M, D))
        assert [(l.cls, l.k) for l in a] == [(l.cls, l.k) for l in b]


def test_count_bound_examples():
    assert count_report(DeterminantSpec(24, 5)).bound == 21
    assert count_report(DeterminantSpec(1, 3)).bound == 1
    assert count_report(DeterminantSpec(1, 1)).bound == Fraction(1, 2)


def test_count_diagnostic_examples():
    assert count_report(DeterminantSpec(1, 3)).diagnostic == pytest.approx(2.0)
    assert count_report(DeterminantSpec(2, 3)).diagnostic == pytest.approx(2 + 6 / 2**0.5 - 2)
    assert count_report(DeterminantSpec(1, 1)).diagnostic == 0.0


def test_count_report_structure():
    rep = count_report(DeterminantSpec(24, 5))
    assert rep.total == 4
    assert rep.bound == 21
    assert rep.square_classes == 0
    assert [row[0] for row in rep.rows] == [1, 2, 3, 4, 6, 8, 12, 24]
    for r, f, f1, f2 in rep.rows:
        assert f <= min(f1, f2)
    assert rep.total == sum(row[1] for row in rep.rows) <= rep.bound
    rep1 = count_report(DeterminantSpec(3, 1))
    assert rep1.square_classes == 1


def test_every_lattice_round_trips():
    for (M, D) in [(24, 5), (24, 7), (20, 11), (24, 13), (24, 17), (105, 19), (96, 23)]:
        for lat in enumerate_iwr(DeterminantSpec(M, D)):
            assert classify_gram(lat.gram()) == (lat.cls, lat.k)


def test_distinct_lattices_have_distinct_minima():
    # minimum and determinant pin the Gram matrix, so ties are impossible
    for (M, D) in [(24, 5), (40, 6), (36, 7), (105, 19)]:
        minima = [lat.minimum for lat in enumerate_iwr(DeterminantSpec(M, D))]
        assert len(minima) == len(set(minima))


def test_determinant_spec_validation():
    with pytest.raises(ValueError):
        DeterminantSpec(0, 5)
    with pytest.raises(ValueError):
        DeterminantSpec(24, 12)  # 12 = 4 * 3 not squarefree


ODD_PRIMES_TO_43 = prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))


def test_class_budget_answers_below_and_refuses_above():
    # bound 3^13 / 2 = 797161.5 is within the budget of 2^20 = 1048576 ...
    rep = count_report(DeterminantSpec(ODD_PRIMES_TO_43, 1))
    assert rep.bound == Fraction(3**13, 2) and rep.total <= rep.bound
    # ... and one more factor 3 makes it 5 * 3^12 / 2 = 1328602.5
    over = 3 * ODD_PRIMES_TO_43
    for call in (enumerate_iwr, count_report):
        with pytest.raises(ValueError, match="is 2657205/2, over the budget of 1048576"):
            call(DeterminantSpec(over, 1))
    for helper in (solutions_for_r, count_classes, count_windowed, count_primitive, mobius_identity_check):
        with pytest.raises(ValueError, match="over the budget"):
            helper(over, 1)


# --- factor-once: only M and D reach factorize --------------------------------


def _record_factorize(monkeypatch):
    seen = []
    real = enumeration.factorize

    def recording(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(enumeration, "factorize", recording)
    return seen


@pytest.mark.parametrize("M", [126360, 6078])
def test_enumeration_factors_only_M_and_D(monkeypatch, M):
    seen = _record_factorize(monkeypatch)
    for D in (1, 2, 3, 5, 17, 29):
        seen.clear()
        enumerate_iwr(DeterminantSpec(M, D))
        assert set(seen) == {M, D}
        seen.clear()
        count_report(DeterminantSpec(M, D))
        assert set(seen) == {M, D}


def test_per_r_helpers_never_factor_r_squared_D(monkeypatch):
    seen = _record_factorize(monkeypatch)
    for r, D in ((6078, 5), (2026, 3), (1013, 1), (24, 17)):
        for helper in (solutions_for_r, count_classes, count_windowed, count_primitive, mobius_identity_check):
            seen.clear()
            helper(r, D)
            assert r * r * D not in seen
            assert set(seen) == {r, D}


# --- equivalence with the formulas applied to the products directly -----------


def _oracle_window(r, D, include_p_zero=False):
    c = r * r * D
    out = []
    for b in divisors(c):
        if b * b < c or (b * b == c and not include_p_zero):
            continue
        if b * b > 3 * c:
            break
        a = c // b
        if (a + b) % 2 == 0:
            out.append(((b - a) // 2, (a + b) // 2))
    return out


def _oracle_solutions(r, D, include_p_zero=False):
    return [(p, q) for p, q in _oracle_window(r, D, include_p_zero) if gcd(p, q) == 1]


def _oracle_primitive(r, D):
    c = r * r * D
    if c == 1:
        return 0
    if c % 2 or (c % 8 == 0 and c & (c - 1)):
        return 2 ** (omega(c) - 1)
    return 1 if c & (c - 1) == 0 and c >= 8 else 0


def _oracle_enumeration(M, D, include_square_class=True):
    found = [
        (SimilarityClass(p, r, q, D), M // r)
        for r in divisors(M)
        for p, q in _oracle_solutions(r, D, include_square_class)
    ]
    found.sort(key=lambda ck: (ck[1] * ck[0].q, ck[0].q, ck[0].p))
    return found


def _oracle_report(M, D):
    rows = tuple(
        (r, len(_oracle_solutions(r, D)), _oracle_primitive(r, D), len(_oracle_window(r, D)))
        for r in divisors(M)
    )
    bound = Fraction(1, 2) * sum(2 ** omega(r * D) for r in divisors(M))
    # the double sum as defined; the library uses its Moebius-inverted closed form
    diagnostic = 0.0
    for r in divisors(M):
        for g in divisors(r):
            w = omega(g * D)
            if w:
                diagnostic += mobius(r // g) * tau(g * g * D) / sqrt(w)
    return rows, sum(row[1] for row in rows), bound, diagnostic


EQUIVALENCE_M = list(range(1, 61)) + [6078, 126360, 185089, 185130, 720720]
EQUIVALENCE_D = (1, 2, 3, 5, 6, 7, 17, 29)


@pytest.mark.parametrize("D", EQUIVALENCE_D)
def test_enumeration_and_counts_match_direct_formulas(D):
    for M in EQUIVALENCE_M:
        spec = DeterminantSpec(M, D)
        lattices = enumerate_iwr(spec)
        assert [(lat.cls, lat.k) for lat in lattices] == _oracle_enumeration(M, D)
        assert [(lat.cls, lat.k) for lat in enumerate_iwr(spec, include_square_class=False)] == (
            _oracle_enumeration(M, D, include_square_class=False)
        )
        rep = count_report(spec)
        rows, total, bound, diagnostic = _oracle_report(M, D)
        assert rep.rows == rows
        assert rep.total == total
        # the closed form of the bound is the sum, to the byte
        assert repr(rep.bound) == repr(bound)
        # the closed form and the double sum round differently, by at most 4.5e-15 relative here
        assert isclose(rep.diagnostic, diagnostic, rel_tol=1e-14)
        if M * sqrt(D) <= 3e4:
            via = enumerate_iwr_via_mn(spec)
            assert [(lat.cls, lat.k) for lat in via] == [(lat.cls, lat.k) for lat in lattices]


# --- property: the coprime splits against two independent routes ---------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(M=st.integers(1, 3000), D=st.sampled_from([d for d in range(1, 31) if is_squarefree(d)]))
def test_enumeration_matches_independent_routes(M, D):
    spec = DeterminantSpec(M, D)
    lattices = enumerate_iwr(spec)
    assert [(lat.cls.p, lat.cls.r, lat.cls.q, lat.k) for lat in lattices] == enumerate_by_gram_scan(M, D)
    # M sqrt(D) <= 3000 sqrt(30) < 1.7e4 keeps the (m, n) scan cheap
    via = enumerate_iwr_via_mn(spec)
    assert [(lat.cls, lat.k) for lat in via] == [(lat.cls, lat.k) for lat in lattices]
    per_r = Counter(lat.cls.r for lat in lattices if lat.cls.p > 0)
    for r, n_classes, _, n_windowed in count_report(spec).rows:
        assert n_windowed == windowed_count(r, D)
        assert n_classes == per_r[r]


# --- the answers for one r take a squarefree D only ----------------------------

# the views refuse through DeterminantSpec; mobius_identity_check, which takes
# (r, D) itself, must refuse alike
PER_R_HELPERS = (solutions_for_r, count_classes, count_primitive, count_windowed, mobius_identity_check)


@pytest.mark.parametrize("helper", PER_R_HELPERS)
@pytest.mark.parametrize("r, D", [(6, 8), (5, 12), (1, 9), (24, 4), (1, 50)])
def test_per_r_helpers_refuse_a_non_squarefree_D(helper, r, D):
    with pytest.raises(ValueError) as spec_error:
        DeterminantSpec(r, D)
    with pytest.raises(ValueError) as info:
        helper(r, D)
    assert str(info.value) == str(spec_error.value) == f"D must be squarefree >= 1, got {D}"


# --- enumeration builds its classes without re-checking D ---------------------


@pytest.mark.parametrize("D", EQUIVALENCE_D)
def test_enumerated_lattices_match_the_public_constructor(D):
    for M in range(1, 301):
        for lat in enumerate_iwr(DeterminantSpec(M, D)):
            c = lat.cls
            public = IwrLattice(SimilarityClass(c.p, c.r, c.q, c.D), lat.k)
            assert type(c) is SimilarityClass
            assert c == public.cls and hash(c) == hash(public.cls)
            assert lat == public and hash(lat) == hash(public)
            assert pickle.dumps(lat) == pickle.dumps(public)
            assert pickle.loads(pickle.dumps(lat)) == public


def test_enumeration_skips_only_the_squarefree_check(monkeypatch):
    def never(n):
        raise AssertionError(f"is_squarefree({n}) called")

    spec = DeterminantSpec(27720, 5)
    with monkeypatch.context() as patch:
        patch.setattr(classes, "is_squarefree", never)
        lattices = enumerate_iwr(spec)
    assert lattices == enumerate_iwr_via_mn(spec)
    # every other check of the constructor still runs on the private path
    make = SimilarityClass._of_squarefree_D
    for args, message in (
        ((1, 1, 2, True), "D must be an int, got True"),
        ((1, 0, 2, 3), "coordinates out of range: SimilarityClass(p=1, r=0, q=2, D=3)"),
        ((1, 1, 3, 3), "p^2 + D r^2 != q^2 for SimilarityClass(p=1, r=1, q=3, D=3)"),
        ((2, 4, 6, 2), "gcd(p, q) != 1 for SimilarityClass(p=2, r=4, q=6, D=2)"),
        ((7, 4, 9, 2), "2p > q for SimilarityClass(p=7, r=4, q=9, D=2) (angle outside [pi/3, pi/2])"),
    ):
        for build in (make, SimilarityClass):
            with pytest.raises(ValueError) as info:
                build(*args)
            assert str(info.value) == message


# --- one split table per determinant ------------------------------------------


def _count_splits(monkeypatch):
    calls = []
    real = enumeration._splits

    def counting(c, primes, x):
        calls.append(c)
        return real(c, primes, x)

    monkeypatch.setattr(enumeration, "_splits", counting)
    monkeypatch.setattr(enumeration, "_last_split_table", None)
    return calls


@pytest.mark.parametrize("M, D", [(720720, 1), (126360, 5), (6078, 29), (1, 1)])
def test_count_report_after_enumerate_splits_each_row_once(monkeypatch, M, D):
    calls = _count_splits(monkeypatch)
    spec = DeterminantSpec(M, D)
    lattices = enumerate_iwr(spec)
    report = count_report(spec)
    assert sorted(calls) == sorted(r * r * D for r in divisors(M))
    assert report.total + report.square_classes == len(lattices)
    # the identity check stays a fresh second route, off the memo
    calls.clear()
    assert mobius_identity_check(M, D)
    assert calls


def _fresh(monkeypatch, call, spec, **kwargs):
    monkeypatch.setattr(enumeration, "_last_split_table", None)
    return call(spec, **kwargs)


def test_interleaved_calls_match_a_fresh_computation_and_the_mn_oracle(monkeypatch):
    A, B = DeterminantSpec(27720, 1), DeterminantSpec(4620, 7)
    bare = {"include_square_class": False}
    plan = [
        (enumerate_iwr, A, {}),
        (count_report, A, {}),
        (count_report, B, {}),
        (enumerate_iwr, B, bare),
        (enumerate_iwr, A, bare),
        (enumerate_iwr, B, {}),
        (count_report, A, {}),
        (enumerate_iwr, A, {}),
    ]
    answers = [call(spec, **kwargs) for call, spec, kwargs in plan]
    for (call, spec, kwargs), answer in zip(plan, answers):
        assert answer == _fresh(monkeypatch, call, spec, **kwargs)
        if call is enumerate_iwr:
            via = enumerate_iwr_via_mn(spec)
            assert answer == (via if not kwargs else [lat for lat in via if lat.cls.p > 0])
        else:
            assert answer.total + answer.square_classes == len(enumerate_iwr_via_mn(spec))


@pytest.mark.parametrize("D", (1, 2, 3, 5, 6, 7))
def test_memo_answers_like_the_mn_oracle(D):
    for M in range(1, 400):
        spec = DeterminantSpec(M, D)
        report = count_report(spec)  # count before enumerate
        lattices = enumerate_iwr(spec)
        bare = enumerate_iwr(spec, include_square_class=False)
        assert lattices == enumerate_iwr_via_mn(spec)
        assert [lat for lat in lattices if lat.cls.p > 0] == bare
        assert report.total == len(bare) and report.total + report.square_classes == len(lattices)


def test_budget_is_checked_before_the_memo(monkeypatch):
    calls = _count_splits(monkeypatch)
    within = DeterminantSpec(720720, 1)
    enumerate_iwr(within)
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_CLASS_BUDGET", 1)
        for call in (enumerate_iwr, count_report):
            with pytest.raises(ValueError, match="over the budget of 1$"):
                call(within)
    over = DeterminantSpec(3 * ODD_PRIMES_TO_43, 1)
    for call in (enumerate_iwr, count_report):
        enumerate_iwr(within)
        calls.clear()
        with pytest.raises(ValueError, match="is 2657205/2, over the budget of 1048576"):
            call(over)
        assert not calls
