import math
import random
import time
from decimal import Decimal, localcontext

import mpmath
import pytest
from make_goldens import digest_grid_lattices
from oracles import shell_sum

from iwrlat.classes import DeterminantSpec, IwrLattice, SimilarityClass
from iwrlat.zeta import (
    _DECIMAL,
    _DECIMAL_FOR_FLOAT,
    _LN_PRIMES,
    _hurwitz,
    _lattice_zeta,
    _zeta_pair,
    epstein_bounds,
    epstein_zeta,
    monotonicity_check,
    packing_density,
    snr,
)

HEX = SimilarityClass(1, 1, 2, 3)
SQUARE = SimilarityClass(0, 1, 1, 1)


def _closed_forms(T: float, s: float):
    """(E_square, E_hex) at minimum T as 30-digit mpmath numbers."""
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        scale = mpmath.zeta(s) * mpmath.mpf(T) ** (-s)
        # 4 zeta(s) beta(s) with beta(s) = 4^-s (zeta(s,1/4) - zeta(s,3/4))
        beta = mpmath.mpf(4) ** (-s) * (mpmath.zeta(s, mpmath.mpf(1) / 4) - mpmath.zeta(s, mpmath.mpf(3) / 4))
        # 6 zeta(s) L_{-3}(s) with L_{-3}(s) = 3^-s (zeta(s,1/3) - zeta(s,2/3))
        L3 = mpmath.mpf(3) ** (-s) * (mpmath.zeta(s, mpmath.mpf(1) / 3) - mpmath.zeta(s, mpmath.mpf(2) / 3))
        return 4 * scale * beta, 6 * scale * L3


def _hex_closed_form(s: float) -> float:
    return float(_closed_forms(1.0, s)[1])


def _square_closed_form(s: float) -> float:
    return float(_closed_forms(1.0, s)[0])


def test_hexagonal_closed_form_at_s2():
    z = epstein_zeta(1.0, math.sqrt(3) / 2, 2.0, 1e-6)
    assert z.abs_error_bound <= 1e-6
    assert z.value == pytest.approx(7.711145, abs=2e-6)
    assert z.value == pytest.approx(_hex_closed_form(2.0), abs=z.abs_error_bound + 1e-9)


def test_square_closed_form_at_s2():
    z = epstein_zeta(1.0, 1.0, 2.0, 1e-6)
    assert z.value == pytest.approx(6.026812, abs=2e-6)
    assert z.value == pytest.approx(_square_closed_form(2.0), abs=z.abs_error_bound + 1e-9)


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_closed_forms_multiple_s(s):
    zh = epstein_zeta(1.0, math.sqrt(3) / 2, s, 5e-7)
    assert zh.value == pytest.approx(_hex_closed_form(s), abs=zh.abs_error_bound + 1e-10)
    zs = epstein_zeta(1.0, 1.0, s, 5e-7)
    assert zs.value == pytest.approx(_square_closed_form(s), abs=zs.abs_error_bound + 1e-10)


def test_scaled_hexagonal_matches_homogeneity():
    z = epstein_zeta(2.0, math.sqrt(3), 2.0, 1e-6)
    assert z.value == pytest.approx(7.711145 / 4, abs=1e-6)


def test_homogeneity_random_scales():
    rng = random.Random(5)
    for _ in range(10):
        T = rng.uniform(1.0, 4.0)
        delta = rng.uniform(math.sqrt(3) / 2 * T, T)
        s = rng.choice([2.0, 2.5, 3.0])
        c2 = rng.uniform(1.5, 9.0)  # c^2 for lattice scaling by c
        # tolerance follows the value's own scale so the radius stays modest
        eps = 1e-6 * (2.0 / T) ** s
        z1 = epstein_zeta(T, delta, s, eps)
        z2 = epstein_zeta(c2 * T, c2 * delta, s, eps / c2**s)
        assert z2.value == pytest.approx(z1.value / c2**s, rel=2e-6)


def test_doubling_certificate():
    # the shell-sum oracle at radius N and 2N: both intervals hold the
    # certified value, and the 2N sum lies within the N sum's own bound
    for (T, delta, s, eps) in [
        (1.0, 0.9, 1.5, 5e-3),
        (2.0, math.sqrt(3), 2.0, 1e-6),
        (5.0, 4.8, 3.0, 1e-8),
    ]:
        z = epstein_zeta(T, delta, s, eps)
        assert z.abs_error_bound <= eps
        half, full = shell_sum(T, delta, s, 32), shell_sum(T, delta, s, 64)
        for o in (half, full):
            assert abs(z.value - o.value) <= z.abs_error_bound + o.error_bound, (T, s, o.radius)
        assert abs(half.value - full.value) <= half.error_bound + full.rounding


def test_epstein_zeta_input_validation():
    with pytest.raises(ValueError):
        epstein_zeta(1.0, 1.0, 1.0, 1e-6)  # s <= 1 diverges
    with pytest.raises(ValueError):
        epstein_zeta(1.0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        epstein_zeta(1.0, 0.5, 2.0, 1e-6)  # determinant below sqrt(3)/2 * T
    with pytest.raises(ValueError):
        epstein_zeta(1.0, 1.2, 2.0, 1e-6)  # determinant above T


def test_epstein_zeta_former_budget_inputs_answer_within_1s():
    # the shell sum refused all of these (N ~ 8e9 shells at s = 1.5, eps =
    # 1e-9; none at all near s = 1); the K-terms fall off like e^(-5.4 n)
    T, delta = 2.0, math.sqrt(3)
    for args in ((T, delta, 1.5, 1e-9), (T, delta, 1.5, 1e-6), (T, delta, 2.0, 1e-6), (1.0, 1.0, 1.05, 1e-9)):
        start = time.perf_counter()
        z = epstein_zeta(*args)
        assert time.perf_counter() - start < 1.0
        assert z.abs_error_bound <= args[3]
        assert 1 <= z.truncation_radius <= 10


def test_truncation_radius_counts_k_terms():
    # a smaller eps needs more K-terms, never fewer
    radii = [epstein_zeta(1.0, 0.95, 2.0, eps).truncation_radius for eps in (1e-1, 1e-4, 1e-8, 1e-12)]
    assert radii == sorted(radii) and radii[0] < radii[-1]


@pytest.mark.parametrize("shape", ("square", "hexagonal"))
def test_eps_below_the_certified_accuracy_is_refused(shape):
    # walk eps down to the refusal: every bound granted holds the exact value,
    # and 1e-17 lies below the float rounding of E(2) ~ 7 alone
    square, hexagonal = _closed_forms(1.0, 2.0)
    delta, exact = {"square": (1.0, square), "hexagonal": (math.sqrt(3) / 2, hexagonal)}[shape]
    for k in range(6, 18):
        try:
            z = epstein_zeta(1.0, delta, 2.0, 10.0**-k)
        except ValueError as exc:
            assert "below the certified accuracy" in str(exc)
            break
        with mpmath.workdps(30):
            assert abs(z.value - exact) <= z.abs_error_bound <= 10.0**-k, k
    else:
        pytest.fail("eps = 1e-17 was certified")


def test_out_of_float_range_raises_value_error():
    # T^-s overflows; a tiny minimum used to escape as OverflowError
    with pytest.raises(ValueError, match="exceeds the float range"):
        epstein_zeta(1e-300, 1e-300, 2.0, 1e-6)
    with pytest.raises(ValueError, match="exceeds the float range"):
        epstein_zeta(1.0, 1.0, 1e6, 1.0)
    with pytest.raises(ValueError, match="below the float range"):
        epstein_zeta(1e300, 1e300, 2.0, 1e-6)
    # a minimum beyond the float range used to escape float() as OverflowError
    with pytest.raises(ValueError, match="minimum exceeds the float range"):
        snr(IwrLattice(HEX, 10**400))
    with pytest.raises(ValueError, match="minimum exceeds the float range"):
        monotonicity_check(DeterminantSpec(10**400, 1), 3.0)


def test_large_s_cancellation_is_refused():
    # hexagonal shape: the largest term is 37 E(s) at s = 20 and 1.6e11 E(s)
    # at s = 100, so the rounding allowance rules out eps = 1e-6 E(s) there
    for s, refused in ((20.0, False), (100.0, True)):
        hexagonal = _closed_forms(1.0, s)[1]
        eps = 1e-6 * float(hexagonal)
        if refused:
            with pytest.raises(ValueError, match="below the certified accuracy"):
                epstein_zeta(1.0, math.sqrt(3) / 2, s, eps)
        else:
            z = epstein_zeta(1.0, math.sqrt(3) / 2, s, eps)
            with mpmath.workdps(30):
                assert abs(z.value - hexagonal) <= z.abs_error_bound <= eps


CROSS_S = (1.05, 1.5, 2.0, 2.5, 3.0, 4.0, 10.0)


def _cross_shapes():
    rng = random.Random(20261018)
    shapes = [(1.0, math.sqrt(3) / 2), (1.0, 1.0)]
    for _ in range(30):
        T = rng.uniform(1.0, 50.0)
        shapes.append((T, T * rng.uniform(math.sqrt(3) / 2, 1.0)))
    return shapes


@pytest.mark.parametrize("s", CROSS_S)
def test_chowla_selberg_agrees_with_the_shell_sum_oracle(s):
    for T, delta in _cross_shapes():
        z = epstein_zeta(T, delta, s, 1e-10 * T**-s)
        o = shell_sum(T, delta, s, 32)
        assert abs(z.value - o.value) <= z.abs_error_bound + o.error_bound, (T, delta, s)


@pytest.mark.parametrize("s", CROSS_S)
def test_chowla_selberg_holds_the_closed_forms(s):
    # no allowance beyond abs_error_bound, which covers rounding
    for T in (1.0, 37.0):
        square, hexagonal = _closed_forms(T, s)
        for delta, exact in ((T * math.sqrt(3) / 2, hexagonal), (T, square)):
            z = epstein_zeta(T, delta, s, 1e-11 * float(exact))
            with mpmath.workdps(30):
                assert abs(z.value - exact) <= z.abs_error_bound, (T, delta, s)


def test_prime_logarithms_are_correctly_rounded():
    with mpmath.workdps(60):
        for p, ln_p in _LN_PRIMES:
            assert abs(mpmath.mpf(str(ln_p)) / mpmath.log(p) - 1) < mpmath.mpf("1e-44"), p


NON_FINITE = (math.nan, math.inf, -math.inf)


def test_epstein_zeta_rejects_non_finite_and_non_positive_inputs():
    T, delta = 2.0, math.sqrt(3)
    for bad in NON_FINITE + (0.0, -1.0):
        for args in ((bad, delta, 2.0, 1e-6), (T, bad, 2.0, 1e-6), (T, delta, bad, 1e-6), (T, delta, 2.0, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                epstein_zeta(*args)


def test_epstein_bounds_rejects_non_finite_and_non_positive_inputs():
    for bad in NON_FINITE + (0.0, -1.0):
        for args in ((bad, 2.0, 1e-6), (2.0, bad, 1e-6), (2.0, 2.0, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                epstein_bounds(*args)


def test_snr_rejects_non_finite_and_non_positive_eps():
    lat = IwrLattice(HEX, 1)
    for bad in NON_FINITE + (0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            snr(lat, bad)


def test_epstein_bounds_bracket_closed_forms():
    lo, hi = epstein_bounds(1.0, 2.0)
    assert lo < _square_closed_form(2.0) < hi
    assert lo < _hex_closed_form(2.0) < hi
    for s in (1.5, 2.0, 3.0):
        lo, hi = epstein_bounds(1.0, s)
        assert lo < hi


BRACKET_S = (1 + 1e-6, 1 + 1e-4, 1.05, 1.3, 1.5, 2.0, 2.5, 3.0, 10.0)


@pytest.mark.parametrize("s", BRACKET_S)
def test_epstein_bounds_are_the_closed_forms_rounded_outward(s):
    # no allowance on top: the returned floats themselves must hold the
    # exact square and hexagonal values, and sit within 1e-12 of them
    for T in (0.5, 1.0, 37.0):
        square, hexagonal = _closed_forms(T, s)
        for eps in (1e-2, 1e-6):
            lo, hi = epstein_bounds(T, s, eps)
            with mpmath.workdps(30):
                assert lo <= square and hexagonal <= hi, (T, s, eps, lo, hi)
                assert abs(lo - square) <= 1e-12 * square
                assert abs(hi - hexagonal) <= 1e-12 * hexagonal


@pytest.mark.parametrize("s", (1 + 1e-6, 1.05, 2.0, 10.0, 100.0))
def test_hurwitz_error_bound_holds(s):
    # near s = 1 the truncation remainder dominates the bound, at s = 100 the
    # rounding allowance does; each must cover the error against 60 digits.
    # The five sums share one table of p^-s, as in epstein_bounds, and each
    # matches the same sum run with a table of its own
    shared = {}
    for p, q in ((1, 1), (1, 4), (3, 4), (1, 3), (2, 3)):
        with localcontext(_DECIMAL):
            value, error = _hurwitz(Decimal(s), p, q, shared)
            assert (value, error) == _hurwitz(Decimal(s), p, q, {}), (s, p, q)
        with mpmath.workdps(60):
            exact = mpmath.mpf(q) ** -mpmath.mpf(s) * mpmath.zeta(mpmath.mpf(s), mpmath.mpf(p) / q)
            assert abs(mpmath.mpf(str(value)) - exact) <= mpmath.mpf(str(error)), (s, p, q)
    assert sorted(shared) == [p for p in range(2, 52) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("s", (1 + 2e-6, 1.1, 3.0, 4.0, 20.0))
def test_hurwitz_error_bound_holds_at_20_digits(s):
    # epstein_zeta takes zeta(2s) and zeta(2s-1) from the 20-digit context
    with localcontext(_DECIMAL_FOR_FLOAT):
        value, error = _hurwitz(Decimal(s), 1, 1, {})
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(str(value)) - mpmath.zeta(s)) <= mpmath.mpf(str(error)), s
    assert error < Decimal("1e-16") * value  # below the rounding to float


def test_epstein_bounds_near_one_returns_floats():
    lo, hi = epstein_bounds(2.0, 1.05)
    assert type(lo) is float and type(hi) is float
    assert 0 < lo < hi


def test_epstein_bounds_sandwich_random():
    rng = random.Random(20260815)
    for _ in range(50):
        T = rng.uniform(1.0, 50.0)
        delta = rng.uniform(math.sqrt(3) / 2 * T, T)
        for s in (1.5, 2.0, 3.0):
            eps = 0.02 * (2.0 / T) ** s
            z = epstein_zeta(T, delta, s, eps)
            lo, hi = epstein_bounds(T, s)
            assert lo - z.abs_error_bound <= z.value <= hi + z.abs_error_bound


def test_snr_examples():
    assert snr(IwrLattice(SQUARE, 1)) == pytest.approx(-17.343, abs=2e-3)
    assert snr(IwrLattice(HEX, 1)) == pytest.approx(-12.393, abs=2e-3)


def test_snr_scaling_law():
    # k -> 4k scales the lattice by c = 2: SNR shifts by 40 log10(2)
    base = snr(IwrLattice(HEX, 1), eps=1e-9)
    scaled = snr(IwrLattice(HEX, 4), eps=1e-9)
    assert scaled - base == pytest.approx(40 * math.log10(2), abs=1e-5)
    big = SimilarityClass(29, 24, 61, 5)
    # E(2) at minimum 549 is ~2e-5, so the 1e-9 certificate leaves ~1e-4 dB
    assert snr(IwrLattice(big, 9), eps=1e-9) - snr(IwrLattice(big, 1), eps=1e-9) == pytest.approx(
        40 * math.log10(3), abs=1e-3
    )


def test_packing_density_examples():
    assert packing_density(IwrLattice(HEX, 1)) == pytest.approx(math.pi / (2 * math.sqrt(3)))
    assert packing_density(IwrLattice(HEX, 7)) == pytest.approx(math.pi / (2 * math.sqrt(3)))
    assert packing_density(IwrLattice(SQUARE, 1)) == pytest.approx(math.pi / 4)
    big = IwrLattice(SimilarityClass(29, 24, 61, 5), 1)
    assert packing_density(big) == pytest.approx(61 * math.pi / (96 * math.sqrt(5)))
    assert packing_density(big) <= math.pi / (2 * math.sqrt(3))


def test_packing_density_within_its_stated_bound():
    # 5u relative, u = 2^-53, for q, r and D below 2^53 (the docstring's rounding count), against 40 digits
    classes = {lat.cls for lattices in digest_grid_lattices().values() for lat in lattices}
    assert len(classes) > 2000 and max(c.q for c in classes) < 2**53
    with mpmath.workdps(40):
        for c in classes:
            exact = mpmath.pi * c.q / (4 * c.r * mpmath.sqrt(c.D))
            assert abs(packing_density(IwrLattice(c, 1)) - exact) <= 5 * 2.0**-53 * exact, c


def test_monotonicity_asserted_at_s3():
    rep = monotonicity_check(DeterminantSpec(24, 5), 3.0)
    assert rep.mode == "asserted"
    assert rep.minima == (54, 56, 58, 61)
    assert rep.decreasing_observed and rep.certified
    assert rep.inconclusive == ()
    # zeta(2s) and zeta(2s-1) are taken once for the report; per lattice they give the same values
    from iwrlat.enumeration import enumerate_iwr

    alone = [_lattice_zeta(lat, 3.0, 1e-9, _zeta_pair(3.0)) for lat in enumerate_iwr(DeterminantSpec(24, 5))]
    assert rep.values == tuple(z.value for z in alone)
    assert rep.errors == tuple(z.abs_error_bound for z in alone)


def test_monotonicity_observational_at_s2():
    rep = monotonicity_check(DeterminantSpec(24, 5), 2.0)
    assert rep.mode == "observational"
    assert len(rep.values) == 4


def test_monotonicity_trivial_when_single_class():
    rep = monotonicity_check(DeterminantSpec(1, 3), 3.0)
    assert rep.decreasing_observed and rep.certified


def test_argmax_equivalence_min_norm_vs_e3():
    # the minimum-norm maximizer is also the E(3) minimizer
    from iwrlat.enumeration import enumerate_iwr

    for (M, D) in [(24, 5), (40, 6), (36, 7), (105, 19)]:
        lats = enumerate_iwr(DeterminantSpec(M, D))
        if len(lats) < 2:
            continue
        delta = M * math.sqrt(D)
        vals = [epstein_zeta(float(l.minimum), delta, 3.0, 1e-9).value for l in lats]
        best_by_min = max(range(len(lats)), key=lambda i: lats[i].minimum)
        best_by_zeta = min(range(len(vals)), key=vals.__getitem__)
        assert best_by_min == best_by_zeta
