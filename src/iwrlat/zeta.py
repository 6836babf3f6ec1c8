"""Epstein zeta values for well-rounded planar lattices, with certified error bounds.

The quadratic form of a WR lattice with minimum T and determinant Delta is
Q(x, y) = T (x^2 + y^2 + 2 x y cos(theta)) with cos(theta) = sqrt(1 - Delta^2/T^2)
in [0, 1/2], and E(s) = sum over (x, y) != 0 of Q^-s.

epstein_zeta uses the Chowla-Selberg expansion (Chowla & Selberg, J. reine
angew. Math. 227, 1967; Borwein et al., Lattice Sums Then and Now, 2013).  For
a x^2 + b x y + c y^2 with d = 4ac - b^2,

    Z(s) = 2 zeta(2s) a^-s
         + 2^(2s) a^(s-1) sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) d^(s-1/2))
         + 2^(s+5/2) pi^s / (Gamma(s) sqrt(a) d^(s/2-1/4))
           * sum_{n>=1} n^(s-1/2) sigma_{1-2s}(n) cos(pi n b/a) K_{s-1/2}(pi n sqrt(d)/a).

E(s) is T^-s times Z(s) at a = c = 1, b = 2 cos(theta), d = 4 sin(theta)^2,
so the n-th K-term has argument 2 pi n sin(theta) >= pi sqrt(3) n and the
series falls off like e^(-5.4 n).  zeta(2s) and zeta(2s-1) come from _hurwitz,
on prime logarithms that decimal computes, correctly rounded to 45 digits, and
K_nu from the trapezoidal rule (_bessel_k); monotonicity_check evaluates the
two once for all the lattices of its determinant.  The returned abs_error_bound
covers the K-terms left out, the trapezoid errors, the Hurwitz errors and
float rounding (see _U), the latter taken relative to the sum of the terms'
magnitudes, which is what cancellation leaves exposed: for the hexagonal shape
the largest term is 37 E(s) at s = 20 and 1.6e11 E(s) at s = 100.  An eps
below that bound is refused with ValueError; so is any value or term outside
the float range.

epstein_bounds sums no lattice.  At fixed T the term pair (x, y), (x, -y) is
an even convex function of c = cos(theta), so E(s) does not decrease as c
grows from 0 to 1/2, and every WR form lies between the square and the
hexagonal one: E_square = 4 zeta(s) beta(s) T^-s <= E(s) <= E_hex =
6 zeta(s) L_-3(s) T^-s, with beta(s) = 4^-s (zeta(s,1/4) - zeta(s,3/4)) and
L_-3(s) = 3^-s (zeta(s,1/3) - zeta(s,2/3)).  The five Hurwitz sums share one
table of p^-s, so a call computes each of the 15 prime powers once (15 exps,
not 44).  Its certificate, too, covers rounding down to the returned floats.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext

from .arith import _SMALL_PRIMES, _Value
from .classes import DeterminantSpec, IwrLattice

__all__ = [
    "ZetaResult",
    "MonotonicityReport",
    "epstein_zeta",
    "epstein_bounds",
    "snr",
    "packing_density",
    "monotonicity_check",
]

_COS_MAX = 0.5
_SIN_MIN = math.sqrt(0.75)
_ANGLE_SLACK = 1e-9


class ZetaResult(_Value):
    """E(s) within abs_error_bound; truncation_radius counts the K-terms summed."""

    __slots__ = ("value", "abs_error_bound", "truncation_radius", "s", "T", "Delta")


def _require_finite_positive(**values: float) -> None:
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _shape(T: float, Delta: float) -> tuple[float, float]:
    """(sin(theta), cos(theta)) of the WR form with minimum T and determinant Delta.

    A ratio Delta/T within the 1e-9 slack outside [sqrt(3)/2, 1] is taken
    as the nearest end, the hexagonal or the square shape.
    """
    ratio = Delta / T
    if ratio > 1.0 + _ANGLE_SLACK or ratio < _SIN_MIN * (1.0 - _ANGLE_SLACK):
        raise ValueError(
            f"Delta={Delta} outside the well-rounded range [sqrt(3)/2*T, T] for T={T}"
        )
    cos = min(_COS_MAX, math.sqrt(max(0.0, 1.0 - ratio * ratio)))
    return min(1.0, max(_SIN_MIN, ratio)), cos


# Every decimal operation below rounds to P digits, a relative error of at
# most h = 5 10^-P; with the widest exponent range nothing under- or overflows
# for s <= _S_MAX.  The bracket keeps 40 digits; 20 are ample for the zeta
# values of epstein_zeta, which are rounded to floats.
_DECIMAL = Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)
_DECIMAL_FOR_FLOAT = Context(prec=20, Emin=MIN_EMIN, Emax=MAX_EMAX)
_S_MAX = 1e15
_HEAD = 12
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330))  # B_2 .. B_20


# ln p for the primes p <= 52, computed by decimal and correctly rounded to 45
# significant digits (relative error under 1e-44): every base q k + p of
# _hurwitz is a product of these p
_LN_PRIMES = tuple((p, Context(prec=45).ln(p)) for p in _SMALL_PRIMES if p < 52)


def _inverse_powers(s: Decimal, bases: list[int], prime_powers: dict[int, Decimal]) -> list[Decimal]:
    """n^-s for each base 1 <= n <= 52, as products of p^-s = exp(-s ln p) over its prime factors.

    prime_powers is the table of p^-s at this s, shared by every sum at s:
    each prime costs one exp, computed on first use and stored there.
    """
    out = []
    for n in bases:
        value = Decimal(1)
        for p, ln_p in _LN_PRIMES:
            while n % p == 0:
                n //= p
                if p not in prime_powers:
                    prime_powers[p] = (-s * ln_p).exp()
                value *= prime_powers[p]
            if n == 1:
                break
        out.append(value)
    return out


def _hurwitz(s: Decimal, p: int, q: int, prime_powers: dict[int, Decimal]) -> tuple[Decimal, Decimal]:
    """q^-s zeta(s, p/q) = sum of (q k + p)^-s over k >= 0, as (value, abs_error).

    For 1 <= p <= q <= 4 and 1 < s <= _S_MAX, in a context like _DECIMAL;
    p/q comes as integers so every base q k + p <= 52 is exact.  prime_powers
    is the table of p^-s that _inverse_powers fills, one per s and context:
    epstein_bounds passes its five sums one table, so a call runs 15 exps
    where a table per sum ran 44, on the same values.  Euler-Maclaurin:
    _HEAD terms, then with y = q _HEAD + p the integral y^(1-s) / (q (s-1)),
    y^-s / 2 and B_2j / (2j)! (s)_(2j-1) q^(2j-1) y^(1-s-2j) for j = 1..9.
    For real s > 1 the remainder is at most the first omitted term, j = 10
    (Backlund).  Rounding: with ln p within 1e-44 relative, p^-s =
    exp(-s ln p) is off by under 1.0001 s h ln p + h, so n^-s, n <= 52, a
    product of at most five of them, by under 4 s h + 11 h; a correction adds under 60 h and the sum
    25 h of the summands' magnitudes, so (8 s + 200) h times those bounds it.
    Near s = 1 the integrals grow like 1/(s-1) and cancel in beta and L_-3;
    the allowance grows with them.
    """
    *terms, w = _inverse_powers(s, [q * k + p for k in range(_HEAD + 1)], prime_powers)
    y = q * _HEAD + p
    terms += [w * y / (q * (s - 1)), w / 2]
    g = s * q * w / y  # (s)_(2j-1) q^(2j-1) y^(1-s-2j) at j = 1
    step = (Decimal(q) / y) ** 2
    for j, (num, den) in enumerate(_BERNOULLI, start=1):
        terms.append(Decimal(num) / (den * math.factorial(2 * j)) * g)
        g *= (s + 2 * j - 1) * (s + 2 * j) * step
    remainder = abs(terms.pop())
    rounding = (8 * s + 200) * Decimal(5).scaleb(-getcontext().prec)
    return sum(terms), remainder + rounding * (remainder + sum(abs(t) for t in terms))


# Float stages.  Rounding model: each float operation is within u = 2^-53
# relative of its exact result, and each libm call (exp, log, cos, cosh, sinh,
# lgamma) within U = 4u, lgamma within U (1 + |lgamma|) absolute.  Then a term
# exp(L) whose log L adds logs of total magnitude |L|_1 is within
# (|L|_1 + k) U relative, k counting the calls and operations, to first order
# (the second-order terms lie far inside the factor 4 of U over u).
_U = 2.0**-50
_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
# trapezoidal rule for K_nu: step h = 1/8, so every node k h is exact, and the
# strip |Im t| < pi/3 for its error bound, 1 / (e^(2 pi (pi/3) / h) - 1) ~ 1.4e-23
_STEP = 0.125
_TRAPEZOID_GAIN = 1.0 / math.expm1(2.0 * math.pi * (math.pi / 3.0) / _STEP)
_K_TERMS_MAX = 256


def _k_poly(m: int, z: float) -> float:
    """sum over k <= m of (m+k)! / (k! (m-k)!) z^k, or inf once it overflows.

    K_{m+1/2}(x) = sqrt(pi/(2x)) e^-x _k_poly(m, 1/(2x)) (DLMF 10.49.12), and
    K_nu(x) <= K_{m+1/2}(x) for 0 <= nu <= m + 1/2.
    """
    term = total = 1.0
    for k in range(m):
        term *= (m + k + 1) * (m - k) * z / (k + 1)
        total += term
        if math.isinf(total):
            break
    return total


def _bessel_k(nu: float, x: float, m: int) -> tuple[float, float, float]:
    """K_nu(x) for 1/2 < nu <= m + 1/2 and x >= pi sqrt(3), as (value, abs_error, rounding).

    abs_error bounds the discretisation and the nodes left out, U rounding
    the float rounding.

    Trapezoidal rule with step h = _STEP on K_nu(x) = int_0^inf f(t) dt,
    f(t) = e^(-x cosh t) cosh(nu t).  Since |f(t + iy)| <= e^(-x cosh(t) cos y)
    cosh(nu t), Theorem 5.1 of Trefethen & Weideman (SIAM Rev. 56, 2014) on the
    strip |y| < pi/3 bounds the discretisation error by
    2 K_nu(x/2) / (e^(2 pi (pi/3) / h) - 1), with K_nu <= K_{m+1/2}.  The sum
    stops at a node t with x sinh t > nu, past which f decreases, so the nodes
    left out add at most e^(nu t - x cosh t) / (x sinh t - nu), doubled for its
    own rounding.  Rounding: node k is within (2 (x cosh t + nu t) + k + 4) U,
    its share of the running sum included; x = 2 pi n sin(theta) is within 2U
    relative, and |d ln K_nu / d ln x| <= x + nu for nu >= 1/2.
    """
    total = 0.5 * math.exp(-x)
    weight = 4 * total
    k = 0
    while True:
        k += 1
        t = k * _STEP
        cosh_t = math.cosh(t)
        up = math.exp(nu * t - x * cosh_t)
        node = 0.5 * (up + math.exp(-nu * t - x * cosh_t))
        total += node
        weight += node * (2 * (x * cosh_t + nu * t) + k + 4)
        slope = x * math.sinh(t) - nu
        if slope > 0 and up <= 2.0**-60 * slope * total:
            left_out = up / slope
            break
    value = _STEP * total
    half = 0.5 * x
    discretisation = 2 * math.sqrt(math.pi / (2 * half)) * math.exp(-half) * _k_poly(m, 1 / x) * _TRAPEZOID_GAIN
    return value, 2 * left_out + discretisation, _STEP * weight + 2 * (x + nu) * value


def _k_tail(n: int, x1: float, s: float, m: int, log_coef: float) -> float:
    """Bound on the K-terms after the n-th, given |term_j| <= e^log_coef j^(s-1/2) K_{s-1/2}(j x1).

    With K_{s-1/2} <= K_{m+1/2}, whose polynomial factor is largest at
    j = n + 1, |term_j| <= C j^(s-1) e^(-j x1) for j > n, a series whose term
    ratio is at most rho = ((n+2)/(n+1))^(s-1) e^-x1 from there on; the bound
    is doubled for its own rounding, and inf while rho >= 1.
    """
    rho = math.exp((s - 1) * math.log1p(1 / (n + 1)) - x1)
    poly = _k_poly(m, 0.5 / ((n + 1) * x1))
    if rho >= 1 or math.isinf(poly):
        return math.inf
    log_bound = (log_coef + 0.5 * math.log(math.pi / (2 * x1)) + math.log(poly)
                 + (s - 1) * math.log(n + 1) - (n + 1) * x1 - math.log1p(-rho))
    return 2 * math.exp(log_bound) if log_bound < 700 else math.inf


def _zeta_pair(s: float) -> tuple[float, float, float, float]:
    """(zeta(2s), error, zeta(2s-1), error) as floats, for the first two Chowla-Selberg terms.

    ValueError unless 1 < s <= _S_MAX / 2.  Each value is within u of the
    decimal one, a share of the allowance, and each error is doubled to cover
    its own rounding.
    """
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1, got s={s}")
    if s > _S_MAX / 2:
        raise ValueError(f"s must be at most {_S_MAX / 2:g}, got s={s}")
    with localcontext(_DECIMAL_FOR_FLOAT):
        zeta_2s, err_2s = _hurwitz(Decimal(2 * s), 1, 1, {})
        zeta_1, err_1 = _hurwitz(Decimal(2 * s - 1), 1, 1, {})
    return float(zeta_2s), 2 * float(err_2s), float(zeta_1), 2 * float(err_1)


def _chowla_selberg(T: float, Delta: float, s: float, eps: float, sine: float, num: int, den: int,
                    zetas: tuple[float, float, float, float]) -> ZetaResult:
    """E(s) of T (x^2 + y^2 + 2 (num/den) x y), whose sin(theta) is sine, within eps.

    zetas is _zeta_pair(s).  Sums K-terms until the certified bound is at
    most eps; ValueError when no number of terms up to _K_TERMS_MAX gets
    there, or a value leaves the float range.
    """
    zeta_2s, err_2s, zeta_1, err_1 = zetas
    try:
        scale = math.exp(-s * math.log(T))  # T^-s
        scale_weight = s * abs(math.log(T)) + 6  # its rounding, fsum's and the product's
        nu = s - 0.5
        m = math.ceil(nu - 0.5)
        lg_s, lg_nu = math.lgamma(s), math.lgamma(nu)
        ln_d = 2 * math.log(2 * sine)
        # 2^(2s) sqrt(pi) Gamma(s-1/2) / (Gamma(s) d^(s-1/2)) and
        # 2^(s+5/2) pi^s / (Gamma(s) d^(s/2-1/4)), as logs with their |L|_1 + k
        log_2 = 2 * s * _LN2 + 0.5 * _LN_PI + lg_nu - lg_s - nu * ln_d
        mag_2 = 2 * s * _LN2 + 0.5 * _LN_PI + abs(lg_nu) + abs(lg_s) + nu * (abs(ln_d) + 2) + 8
        log_k = (s + 2.5) * _LN2 + s * _LN_PI - lg_s - (0.5 * s - 0.25) * ln_d
        mag_k = (s + 2.5) * _LN2 + s * _LN_PI + abs(lg_s) + (0.5 * s - 0.25) * (abs(ln_d) + 2) + 6
        factor_2 = math.exp(log_2)
        terms = [2 * zeta_2s, factor_2 * zeta_1]
        error = 2 * err_2s + factor_2 * err_1
        weight = terms[0] + abs(terms[1]) * (mag_2 + 1)  # float rounding, in units of U
        log_coef = log_k + math.log(zeta_1 + err_1)  # sigma_{1-2s}(n) <= zeta(2s-1)
        x1 = 2 * math.pi * sine

        def certified(tail: float) -> float:
            rounding = _U * (weight + scale_weight * math.fsum(map(abs, terms)))
            return scale * (error + rounding + tail) * (1 + _U)

        for n in range(1, _K_TERMS_MAX + 1):
            ln_n = math.log(n)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            # n^(s-1/2) sigma_{1-2s}(n) times the prefactor, one exp per divisor
            amplitude = sum(math.exp(log_k + nu * ln_n + (1 - 2 * s) * math.log(d)) for d in divisors)
            k, k_error, k_weight = _bessel_k(nu, n * x1, m)
            # cos(pi n b/a) = cos(2 pi n num/den), reduced exactly mod 1; within
            # ((2 pi n)^2 + 8) U of the exact cos(theta), also when num/den is the
            # rounded sqrt(1 - (Delta/T)^2): cos(2 pi n c) is a function of c^2
            phase = math.cos(2 * math.pi * ((n * num) % den) / den)
            terms.append(amplitude * k * phase)
            error += amplitude * k_error
            weight += amplitude * (k_weight + k * (mag_k + 4 * s * ln_n + len(divisors) + (2 * math.pi * n) ** 2 + 14))
            bound = certified(_k_tail(n, x1, s, m, log_coef))
            if bound <= eps:
                break
            floor = certified(0.0)
            if floor > eps:
                raise ValueError(
                    f"eps={eps:g} is below the certified accuracy of E(s) at T={T}, s={s}:"
                    f" rounding and zeta errors alone bound it by {floor:.3g}; raise eps"
                )
        else:
            raise ValueError(
                f"E(s) at T={T}, s={s} needs more than {_K_TERMS_MAX} Chowla-Selberg terms for eps={eps:g}"
            )
        value = scale * math.fsum(terms)
        if math.isinf(value) or math.isinf(bound):
            raise ValueError(f"E(s) at T={T}, s={s} exceeds the float range")
        if value < sys.float_info.min:
            raise ValueError(f"E(s) at T={T}, s={s} falls below the float range")
        return ZetaResult(value, bound + 4 * math.ulp(0.0), n, float(s), float(T), float(Delta))
    except OverflowError as exc:
        raise ValueError(f"a term of E(s) at T={T}, s={s} exceeds the float range") from exc


def epstein_zeta(T: float, Delta: float, s: float, eps: float) -> ZetaResult:
    """E(s) for the WR form with minimum T and determinant Delta, error <= eps.

    The bound holds for the floats returned (see the module docstring).
    ValueError for s <= 1, Delta/T outside [sqrt(3)/2, 1], an eps below what
    the bound can certify, and values or terms outside the float range.
    """
    _require_finite_positive(T=T, Delta=Delta, s=s, eps=eps)
    sine, cos = _shape(T, Delta)
    num, den = cos.as_integer_ratio()
    return _chowla_selberg(T, Delta, s, eps, sine, num, den, _zeta_pair(s))


def _lattice_zeta(lat: IwrLattice, s: float, eps: float, zetas: tuple[float, float, float, float]) -> ZetaResult:
    """epstein_zeta for an IWR lattice, whose cos(theta) = p/q is exact, given zetas = _zeta_pair(s).

    s and eps are checked by the caller.  ValueError when the minimum or the
    determinant is beyond the float range.
    """
    c = lat.cls
    root = c.r * math.sqrt(c.D)
    try:
        T, Delta = float(lat.minimum), lat.k * root
    except OverflowError as exc:
        raise ValueError("the lattice's minimum exceeds the float range") from exc
    return _chowla_selberg(T, Delta, s, eps, root / c.q, c.p, c.q, zetas)


# float() rounds to within 2^-53 relative, or 2^-1075 below the normal range;
# twice that also covers the decimal rounding of T^-s and of _bracket_end,
# under 1e-20 relative for s <= _S_MAX.
_TO_FLOAT = Decimal(2.0**-52)
_TO_SUBNORMAL = Decimal(math.ulp(0.0))


def _bracket_end(scale: Decimal, zeta, plus, minus, side: int) -> float:
    """scale * zeta * (plus - minus) of _hurwitz results, moved by its error to side -1 or +1."""
    z, z_err = zeta
    d, d_err = plus[0] - minus[0], plus[1] + minus[1]
    value = scale * z * d
    margin = scale * (z * d_err + d * z_err + z_err * d_err) + value * _TO_FLOAT + _TO_SUBNORMAL
    return float(value + side * margin)


def epstein_bounds(T: float, s: float, eps: float = 1e-6) -> tuple[float, float]:
    """Angle-free bracket lower <= E(s) <= upper for every WR form with minimum T.

    The ends are the square and hexagonal values, which bound every WR form
    because each term pair of E(s) is an even convex function of cos(theta),
    moved outward by a margin for truncation, decimal rounding and rounding
    to float: a true bracket, within about 2^-52 relative of the closed forms.
    eps must be finite and positive but no longer changes the work done.
    ValueError unless 1 < s <= 1e15 and E_hex(T) is within the float range.
    """
    _require_finite_positive(T=T, s=s, eps=eps)
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1, got s={s}")
    if s > _S_MAX:
        raise ValueError(f"s must be at most {_S_MAX:g} for the certified bracket, got s={s}")
    with localcontext(_DECIMAL):
        s_dec = Decimal(float(s))
        powers: dict[int, Decimal] = {}  # p^-s, one table for the five sums
        zeta = _hurwitz(s_dec, 1, 1, powers)
        scale = (-s_dec * Decimal(float(T)).ln()).exp()  # T^-s
        lower = _bracket_end(4 * scale, zeta, _hurwitz(s_dec, 1, 4, powers), _hurwitz(s_dec, 3, 4, powers), -1)
        upper = _bracket_end(6 * scale, zeta, _hurwitz(s_dec, 1, 3, powers), _hurwitz(s_dec, 2, 3, powers), +1)
    if math.isinf(upper):
        raise ValueError(f"E(s) at T={T}, s={s} exceeds the float range")
    return lower, upper


def packing_density(lat: IwrLattice) -> float:
    """Disc packing density pi * minimum / (4 * determinant) = pi q / (4 r sqrt(D)).

    Within 5u = 5 * 2^-53 relative for q, r, D < 2^53 (7u above, where each
    conversion to float adds u): math.pi is within 0.36u of pi, and the two
    products, the correctly rounded sqrt and the quotient add u each.
    """
    c = lat.cls
    return math.pi * c.q / (4.0 * c.r * math.sqrt(c.D))


def snr(lat: IwrLattice, eps: float = 1e-6) -> float:
    """Interference figure 10*log10(1/(9 E(2))) in dB for the given lattice.

    E(2) is certified to within eps, which must be finite and positive
    (ValueError otherwise, as from epstein_zeta, and for a minimum beyond
    the float range).
    """
    _require_finite_positive(eps=eps)
    z = _lattice_zeta(lat, 2.0, eps, _zeta_pair(2.0))
    return 10.0 * math.log10(1.0 / (9.0 * z.value))


class MonotonicityReport(_Value):
    """E(s) across all lattices of one determinant, ordered by minimum.

    decreasing_observed compares raw values; certified additionally requires
    each adjacent gap to exceed the two error bounds, so a True value is a
    rigorous ordering statement.  Pairs listed in inconclusive are closer than
    the combined error and prove nothing either way.
    """

    __slots__ = ("spec", "s", "mode", "minima", "values", "errors", "decreasing_observed", "certified",
                 "inconclusive")


def monotonicity_check(spec: DeterminantSpec, s: float, eps: float = 1e-9) -> MonotonicityReport:
    """Check that E(s) decreases as the minimum grows, at fixed determinant.

    The report's mode is "asserted" for s >= 3, where the ordering provably
    holds, and "observational" below (the report is returned, nothing is
    claimed).  ValueError for an s or eps that epstein_zeta refuses, and
    for a minimum beyond the float range.
    """
    from .enumeration import enumerate_iwr

    _require_finite_positive(s=s, eps=eps)
    zetas = _zeta_pair(s)  # shared by every lattice: zeta(2s) and zeta(2s-1) do not depend on the shape
    minima, values, errors = [], [], []
    for lat in enumerate_iwr(spec):
        z = _lattice_zeta(lat, s, eps, zetas)
        minima.append(lat.minimum)
        values.append(z.value)
        errors.append(z.abs_error_bound)
    decreasing = all(values[i] > values[i + 1] for i in range(len(values) - 1))
    inconclusive = tuple(
        (i, i + 1)
        for i in range(len(values) - 1)
        if abs(values[i] - values[i + 1]) <= errors[i] + errors[i + 1]
    )
    certified = decreasing and not inconclusive
    return MonotonicityReport(
        spec=spec,
        s=float(s),
        mode="asserted" if s >= 3 else "observational",
        minima=tuple(minima),
        values=tuple(values),
        errors=tuple(errors),
        decreasing_observed=decreasing,
        certified=certified,
        inconclusive=inconclusive,
    )
