from fractions import Fraction

import pytest
from oracles import optimize_by_enumeration

from iwrlat.arith import is_squarefree
from iwrlat.classes import DeterminantSpec, MnPair, class_from_mn
from iwrlat.optimize import InadmissibleDeterminantError, admissible_pairs, enumerate_iwr_via_mn, optimize


def _bound_squared(spec):
    """Exact square 4 M^2 D / 3 of the bound 2 M sqrt(D) / sqrt(3) on any minimum."""
    return Fraction(4 * spec.M * spec.M * spec.D, 3)


def test_admissible_pairs_examples():
    assert {(p.m, p.n) for p in admissible_pairs(DeterminantSpec(1, 3))} == {(1, 1), (3, 1)}
    assert admissible_pairs(DeterminantSpec(1, 2)) == []
    got = {(p.m, p.n) for p in admissible_pairs(DeterminantSpec(24, 5))}
    assert got >= {(2, 1), (3, 1), (5, 2), (5, 3), (10, 3), (15, 4), (4, 3)}


def test_scan_over_the_step_budget_is_refused_up_front():
    # n_max^2 * isqrt(3 D) is about 10^27 for 2^89 - 1: the scan would never end
    spec = DeterminantSpec(2**89 - 1, 1)
    for call in (admissible_pairs, optimize, enumerate_iwr_via_mn):
        with pytest.raises(ValueError, match="over the budget of 1073741824") as info:
            call(spec)
        assert not isinstance(info.value, InadmissibleDeterminantError)


def test_admissible_pairs_complete_against_bruteforce():
    # sweep the whole band directly with generous limits and compare
    from math import gcd, isqrt

    for D in (1, 2, 3, 5, 7, 10, 13):
        if not is_squarefree(D):
            continue
        for M in (1, 2, 6, 24, 35):
            expected = set()
            for n in range(1, 4 * M + 40):
                for m in range(1, 4 * D * M + 40):
                    if gcd(m, n) != 1:
                        continue
                    if not (D * n * n <= 3 * m * m and m * m <= 3 * D * n * n):
                        continue
                    e = 0 if (D % 2 == 0 or (m * n) % 2 == 0) else 1
                    r2 = 2 * m * n
                    den = (1 << e) * gcd(m, D)
                    if r2 % den or M % (r2 // den):
                        continue
                    expected.add((m, n))
            got = {(p.m, p.n) for p in admissible_pairs(DeterminantSpec(M, D))}
            assert got == expected, (M, D, got ^ expected)


def test_objective_examples():
    # a pair's lattice has minimum (M/r) q = (M/2) (m^2 + D n^2)/(m n): the ratio optimize ranks by
    for (m, n, D), ratio in (((1, 1, 3), 4), ((15, 4, 5), Fraction(61, 12)), ((2, 1, 5), Fraction(9, 2))):
        cls = class_from_mn(MnPair(m, n, D))
        assert Fraction(m * m + D * n * n, m * n) == ratio == Fraction(2 * cls.q, cls.r)


def test_optimize_reference_rows():
    # (M, D) -> (minimum, class triple, k); the 24*sqrt(17) row is the
    # computed truth 106, strictly above the published 104
    rows = {
        (24, 5): (61, (29, 24, 61), 1),
        (24, 7): (69, (9, 8, 23), 3),
        (20, 11): (75, (7, 4, 15), 5),
        (24, 13): (98, (23, 12, 49), 2),
        (24, 17): (106, (19, 12, 53), 2),
        (105, 19): (510, (15, 7, 34), 15),
        (96, 23): (522, (41, 16, 87), 6),
    }
    for (M, D), (mn, triple, k) in rows.items():
        res = optimize(DeterminantSpec(M, D))
        assert res.lattice.minimum == mn
        assert res.lattice.cls.triple() == triple
        assert res.lattice.k == k
        assert res.maximizers[0] == res.lattice.cls


def test_24_root_17_template_beats_published_value():
    # direct witness that 106 is attainable and optimal for det 24*sqrt(17)
    res = optimize(DeterminantSpec(24, 17))
    brute = optimize_by_enumeration(DeterminantSpec(24, 17))
    assert res.lattice.minimum == brute.lattice.minimum == 106 > 104


def test_optimize_simple_cases():
    res = optimize(DeterminantSpec(1, 3))
    assert res.lattice.minimum == 2 and res.lattice.cls.triple() == (1, 1, 2)
    res = optimize(DeterminantSpec(3, 1))
    assert res.lattice.cls.triple() == (0, 1, 1) and res.lattice.minimum == 3


def test_optimize_inadmissible():
    with pytest.raises(InadmissibleDeterminantError):
        optimize(DeterminantSpec(1, 2))


def test_optimize_matches_bruteforce_on_grid():
    for D in range(1, 16):
        if not is_squarefree(D):
            continue
        for M in range(1, 21):
            spec = DeterminantSpec(M, D)
            try:
                fast = optimize(spec)
            except InadmissibleDeterminantError:
                with pytest.raises(InadmissibleDeterminantError):
                    optimize_by_enumeration(spec)
                continue
            brute = optimize_by_enumeration(spec)
            assert (fast.lattice.cls, fast.lattice.k) == (brute.lattice.cls, brute.lattice.k)
            assert fast.maximizers == brute.maximizers


def test_trivial_bound():
    assert _bound_squared(DeterminantSpec(24, 5)) == Fraction(3840)
    assert 3840 >= 61 * 61
    assert _bound_squared(DeterminantSpec(1, 3)) == 4
    assert _bound_squared(DeterminantSpec(24, 17)) == 13056  # 114.2628^2
    # equality in the bound happens exactly for hexagonal results (2p = q)
    res = optimize(DeterminantSpec(1, 3))
    assert res.lattice.minimum**2 == _bound_squared(DeterminantSpec(1, 3))


def test_bound_dominates_on_grid():
    for D in (1, 2, 3, 5, 6, 7):
        for M in range(1, 26):
            spec = DeterminantSpec(M, D)
            try:
                res = optimize(spec)
            except InadmissibleDeterminantError:
                continue
            mn = res.lattice.minimum
            assert Fraction(mn * mn) <= _bound_squared(spec)
            cls = res.lattice.cls
            if mn * mn == _bound_squared(spec):
                assert 2 * cls.p == cls.q
