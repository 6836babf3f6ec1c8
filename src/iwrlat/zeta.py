"""Epstein zeta values for well-rounded planar lattices, with certified error bounds.

The quadratic form of a WR lattice with minimum T and determinant Delta is
Q(x, y) = T (x^2 + y^2 + 2 x y cos(theta)) with cos(theta) = sqrt(1 - Delta^2/T^2)
in [0, 1/2], and E(s) = sum over (x, y) != 0 of Q^-s.

epstein_zeta sums E(s) over square shells max(|x|, |y|) = 1..N in a fixed
order; the returned error bound covers the discarded tail:

    Q >= T (x^2 + y^2 - |x y|) >= T (x^2 + y^2) / 2,
    sum_{max=j} (x^2+y^2)^-s <= 8 j^(1-2s),
    sum_{j>N} 8 j^(1-2s) <= 8 [(N+1)^(1-2s) + (N+1)^(2-2s) / (2s-2)],

so tail <= (2/T)^s * 8 [(N+1)^(1-2s) + (N+1)^(2-2s)/(2s-2)].  Floating point
rounding (~1e-13 relative here) is not part of this certificate.

The shell sum costs O(N^2) terms, so epstein_zeta has a work budget: a radius
N over 2**17 shells, whether needed for eps or passed as radius=, is refused
with ValueError before numpy (imported only there) builds any array.

epstein_bounds sums no lattice.  At fixed T the term pair (x, y), (x, -y) is
an even convex function of c = cos(theta), so E(s) does not decrease as c
grows from 0 to 1/2, and every WR form lies between the square and the
hexagonal one: E_square = 4 zeta(s) beta(s) T^-s <= E(s) <= E_hex =
6 zeta(s) L_-3(s) T^-s, with beta(s) = 4^-s (zeta(s,1/4) - zeta(s,3/4)) and
L_-3(s) = 3^-s (zeta(s,1/3) - zeta(s,2/3)).  Unlike the shell sum's, the
bracket's certificate covers rounding down to the returned floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

from .classes import DeterminantSpec, IwrLattice
from .enumeration import enumerate_iwr

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
_ANGLE_SLACK = 1e-9
_RADIUS_BUDGET = 1 << 17


@dataclass(frozen=True)
class ZetaResult:
    value: float
    abs_error_bound: float
    truncation_radius: int
    s: float
    T: float
    Delta: float


def _tail_bound(T: float, s: float, n: int) -> float:
    u = float(n + 1)
    return (2.0 / T) ** s * 8.0 * (u ** (1.0 - 2.0 * s) + u ** (2.0 - 2.0 * s) / (2.0 * s - 2.0))


def _min_radius(T: float, s: float, eps: float) -> int | None:
    """Smallest n in [1, 2**17] with _tail_bound(T, s, n) <= eps, or None if there is none."""
    lo, hi = 0, _RADIUS_BUDGET + 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _tail_bound(T, s, mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi if hi <= _RADIUS_BUDGET else None


def _require_finite_positive(**values: float) -> None:
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _cos_theta(T: float, Delta: float) -> float:
    ratio = Delta / T
    if ratio > 1.0 + _ANGLE_SLACK or ratio < math.sqrt(3.0) / 2.0 * (1.0 - _ANGLE_SLACK):
        raise ValueError(
            f"Delta={Delta} outside the well-rounded range [sqrt(3)/2*T, T] for T={T}"
        )
    c2 = max(0.0, 1.0 - ratio * ratio)
    return min(_COS_MAX, math.sqrt(c2))


def epstein_zeta(T: float, Delta: float, s: float, eps: float, radius: int | None = None) -> ZetaResult:
    """E(s) for the WR form with minimum T and determinant Delta, error <= eps.

    radius overrides the automatic truncation (used for doubling checks); the
    reported abs_error_bound always certifies whatever radius was summed.
    The radius summed, automatic or given, must lie in [1, 2**17]; ValueError
    otherwise, also when eps needs more shells than that.
    """
    _require_finite_positive(T=T, Delta=Delta, s=s, eps=eps)
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1, got s={s}")
    cos = _cos_theta(T, Delta)
    if radius is None:
        n = _min_radius(T, s, eps)
        if n is None:
            raise ValueError(
                f"eps={eps} needs a shell radius over the work budget of {_RADIUS_BUDGET} shells"
                f" (s={s}); raise eps or s"
            )
    elif isinstance(radius, int) and radius >= 1:
        n = radius
    else:
        raise ValueError(f"radius must be an int >= 1, got {radius!r}")
    if n > _RADIUS_BUDGET:
        raise ValueError(
            f"shell radius {n} exceeds the work budget of {_RADIUS_BUDGET} shells"
            f" (s={s}, eps={eps}); raise eps or s"
        )
    import numpy as np

    c2 = 2.0 * T * cos
    xs = np.arange(-n, n + 1, dtype=np.float64)
    mid = n
    shells = []
    for j in range(1, n + 1):
        x = xs[mid - j : mid + j + 1]
        top = T * (x * x + j * j) + (c2 * j) * x
        y = xs[mid - j + 1 : mid + j]
        right = T * (j * j + y * y) + (c2 * j) * y
        shells.append(2.0 * (np.power(top, -s).sum() + np.power(right, -s).sum()))
    return ZetaResult(
        value=math.fsum(shells),
        abs_error_bound=_tail_bound(T, s, n),
        truncation_radius=n,
        s=float(s),
        T=float(T),
        Delta=float(Delta),
    )


# Every decimal operation below rounds to 40 digits, a relative error of at
# most h = 5e-40; with the widest exponent range nothing under- or overflows
# for s <= _S_MAX.
_DECIMAL = Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)
_S_MAX = 1e15
_HEAD = 12
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330))  # B_2 .. B_20


def _hurwitz(s: Decimal, p: int, q: int) -> tuple[Decimal, Decimal]:
    """q^-s zeta(s, p/q) = sum of (q k + p)^-s over k >= 0, as (value, abs_error).

    For 1 <= p <= q and 1 < s <= _S_MAX, in the _DECIMAL context; p/q comes
    as integers so every base q k + p is exact.  Euler-Maclaurin: _HEAD
    terms, then with y = q _HEAD + p the integral y^(1-s) / (q (s-1)), y^-s / 2
    and B_2j / (2j)! (s)_(2j-1) q^(2j-1) y^(1-s-2j) for j = 1..9.  For real
    s > 1 the remainder is at most the first omitted term, j = 10 (Backlund).
    Rounding: n^-s = exp(-s ln n), n <= 52, is off by under 8 s h + h; a
    correction adds under 60 h and the sum 25 h of the summands' magnitudes,
    so (8 s + 200) h times those bounds it.  Near s = 1 the integrals grow
    like 1/(s-1) and cancel in beta and L_-3; the allowance grows with them.
    """
    terms = [(-s * Decimal(q * k + p).ln()).exp() for k in range(_HEAD)]
    y = Decimal(q * _HEAD + p)
    w = (-s * y.ln()).exp()
    terms += [w * y / (q * (s - 1)), w / 2]
    g = s * q * w / y  # (s)_(2j-1) q^(2j-1) y^(1-s-2j) at j = 1
    step = (q / y) ** 2
    for j, (num, den) in enumerate(_BERNOULLI, start=1):
        terms.append(Decimal(num) / (den * math.factorial(2 * j)) * g)
        g *= (s + 2 * j - 1) * (s + 2 * j) * step
    remainder = abs(terms.pop())
    rounding = (8 * s + 200) * Decimal("5e-40")
    return sum(terms), remainder + rounding * (remainder + sum(abs(t) for t in terms))


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
    to float: a true bracket, within about 2^-52 relative of the closed forms
    (epstein_zeta's bound, by contrast, still leaves its rounding out).
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
        zeta = _hurwitz(s_dec, 1, 1)
        scale = (-s_dec * Decimal(float(T)).ln()).exp()  # T^-s
        lower = _bracket_end(4 * scale, zeta, _hurwitz(s_dec, 1, 4), _hurwitz(s_dec, 3, 4), -1)
        upper = _bracket_end(6 * scale, zeta, _hurwitz(s_dec, 1, 3), _hurwitz(s_dec, 2, 3), +1)
    if math.isinf(upper):
        raise ValueError(f"E(s) at T={T}, s={s} exceeds the float range")
    return lower, upper


def packing_density(lat: IwrLattice) -> float:
    """Disc packing density pi * minimum / (4 * determinant) = pi q / (4 r sqrt(D))."""
    c = lat.cls
    return math.pi * c.q / (4.0 * c.r * math.sqrt(c.D))


def snr(lat: IwrLattice, eps: float = 1e-6) -> float:
    """Interference figure 10*log10(1/(9 E(2))) in dB for the given lattice.

    eps must be finite and positive (ValueError otherwise, from epstein_zeta).
    """
    c = lat.cls
    delta = lat.k * c.r * math.sqrt(c.D)
    z = epstein_zeta(float(lat.minimum), delta, 2.0, eps)
    return 10.0 * math.log10(1.0 / (9.0 * z.value))


@dataclass(frozen=True)
class MonotonicityReport:
    """E(s) across all lattices of one determinant, ordered by minimum.

    decreasing_observed compares raw values; certified additionally requires
    each adjacent gap to exceed the two error bounds, so a True value is a
    rigorous ordering statement.  Pairs listed in inconclusive are closer than
    the combined error and prove nothing either way.
    """

    spec: DeterminantSpec
    s: float
    mode: str
    minima: tuple[int, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]
    decreasing_observed: bool
    certified: bool
    inconclusive: tuple[tuple[int, int], ...]


def monotonicity_check(
    spec: DeterminantSpec, s: float, eps: float = 1e-9, mode: str = "auto"
) -> MonotonicityReport:
    """Check that E(s) decreases as the minimum grows, at fixed determinant.

    Asserted mode is only meaningful for s >= 3 where the ordering provably
    holds; s = 2 and other s in (1, 3) run observationally (the report is
    returned, nothing is claimed).
    """
    if mode == "auto":
        mode = "asserted" if s >= 3 else "observational"
    elif mode == "asserted" and s < 3:
        raise ValueError("asserted mode requires s >= 3")
    elif mode not in ("asserted", "observational"):
        raise ValueError(f"unknown mode {mode!r}")
    lattices = enumerate_iwr(spec)
    delta = spec.M * math.sqrt(spec.D)
    minima, values, errors = [], [], []
    for lat in lattices:
        z = epstein_zeta(float(lat.minimum), delta, s, eps)
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
        mode=mode,
        minima=tuple(minima),
        values=tuple(values),
        errors=tuple(errors),
        decreasing_observed=decreasing,
        certified=certified,
        inconclusive=inconclusive,
    )
