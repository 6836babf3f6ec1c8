"""Epstein zeta values for well-rounded planar lattices, with certified truncation.

The quadratic form of a WR lattice with minimum T and determinant Delta is
Q(x, y) = T (x^2 + y^2 + 2 x y cos(theta)) with cos(theta) = sqrt(1 - Delta^2/T^2)
in [0, 1/2].  E(s) = sum over (x, y) != 0 of Q^-s is summed over square shells
max(|x|, |y|) = 1..N in a fixed order; the returned error bound covers the
discarded tail:

    Q >= T (x^2 + y^2 - |x y|) >= T (x^2 + y^2) / 2,
    sum_{max=j} (x^2+y^2)^-s <= 8 j^(1-2s),
    sum_{j>N} 8 j^(1-2s) <= 8 [(N+1)^(1-2s) + (N+1)^(2-2s) / (2s-2)],

so tail <= (2/T)^s * 8 [(N+1)^(1-2s) + (N+1)^(2-2s)/(2s-2)].  Floating point
rounding (~1e-13 relative here) is not part of the certificate.

The shell sum costs O(N^2) terms, so epstein_zeta has a work budget: a radius
N over 2**17 shells, whether chosen from eps or passed as radius=, is refused
with ValueError before any array is built.

numpy is the only third-party import and only the shell sums use it, so it is
imported inside the functions that build arrays: importing this module (or
iwrlat) does not load it, and the first sum does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _min_radius(bound, eps: float) -> int:
    """Smallest n >= 1 with bound(n) <= eps (bound decreasing in n)."""
    n = 1
    while bound(n) > eps:
        n *= 2
        if n > 1 << 40:
            raise ValueError("tolerance unreachable")
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return max(hi, 1)


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
    otherwise.
    """
    _require_finite_positive(T=T, Delta=Delta, s=s, eps=eps)
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1, got s={s}")
    cos = _cos_theta(T, Delta)
    if radius is None:
        n = _min_radius(lambda m: _tail_bound(T, s, m), eps)
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


def _zeta_certified(a: float) -> tuple[float, float]:
    """Riemann zeta(a) for a > 1 as (midpoint, error): partial sum + integral bracket."""
    import numpy as np

    n0 = 100_000
    k = np.arange(1, n0 + 1, dtype=np.float64)
    partial = float(np.power(k, -a).sum())
    lo = (n0 + 1.0) ** (1.0 - a) / (a - 1.0)
    hi = n0 ** (1.0 - a) / (a - 1.0)
    return partial + 0.5 * (lo + hi), 0.5 * (hi - lo) + 1e-12 * partial


def _beta_certified(a: float) -> tuple[float, float]:
    """Dirichlet beta(a) as (midpoint, error); alternating, error <= first omitted term."""
    import numpy as np

    n0 = 100_000
    k = np.arange(n0, dtype=np.float64)
    terms = np.power(2.0 * k + 1.0, -a)
    partial = float(terms[::2].sum() - terms[1::2].sum())
    return partial, (2.0 * n0 + 1.0) ** (-a) + 1e-12


_BOX_CAP = 3000


@lru_cache(maxsize=64)
def _bound_constants(s: float, eps: float) -> tuple[float, float, float, float, float]:
    # The two quadrant sums are truncated to the box [1, n]^2.  Their joint
    # tail is certified without summing further: each term pair is at most
    # (1 + 2^s)(x^2+y^2)^-s since both denominators are >= (x^2+y^2)/2, and
    # the quadrant remainder of sum (x^2+y^2)^-s equals
    # zeta(s) beta(s) - zeta(2s) - (box partial), exact by the classical
    # two-squares identity sum_{Z^2 \ 0} (x^2+y^2)^-s = 4 zeta(s) beta(s).
    # For s near 1 the remainder decays only like n^(2-2s), so brute
    # truncation alone could never certify small eps; the box is capped and
    # the bracket simply widens by the certified tail.
    def est(m: int) -> float:
        u = float(m + 1)
        return (1.0 + 2.0**s) * 2.0 * (u ** (1 - 2 * s) + u ** (2 - 2 * s) / (2 * s - 2))

    import numpy as np

    n = min(_min_radius(est, eps), _BOX_CAP)
    s_plus = 0.0
    s_minus = 0.0
    box = 0.0
    ys = np.arange(1, n + 1, dtype=np.float64)
    for x0 in range(1, n + 1, 256):
        x = np.arange(x0, min(x0 + 256, n + 1), dtype=np.float64)[:, None]
        d0 = x * x + ys * ys
        xy = x * ys
        base = np.power(d0, -s).sum()
        box += base
        s_minus += base + np.power(d0 - xy, -s).sum()
        s_plus += base + np.power(d0 + xy, -s).sum()
    zs, zs_err = _zeta_certified(s)
    bs, bs_err = _beta_certified(s)
    z_mid, z_err = _zeta_certified(2.0 * s)
    quad_hi = (zs + zs_err) * (bs + bs_err) - (z_mid - z_err)
    tail = (1.0 + 2.0**s) * max(0.0, quad_hi - box) + 1e-12
    return s_plus, s_minus, tail, z_mid, z_err


def epstein_bounds(T: float, s: float, eps: float = 1e-6) -> tuple[float, float]:
    """Angle-free bracket lower <= E(s) <= upper for every WR form with minimum T.

    Each off-axis term (x^2 + y^2 +- 2 x y cos)^-s is replaced by its extreme
    over cos in [0, 1/2], the axis contribution 4 zeta(2s) is added exactly,
    and the constants (one pair per s) are rounded outward by their own
    certified tails, so the returned pair is a true outer bracket.
    """
    _require_finite_positive(T=T, s=s, eps=eps)
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1, got s={s}")
    s_plus, s_minus, tail, z_mid, z_err = _bound_constants(float(s), float(eps))
    ts = T**s
    lower = (2.0 * s_plus + 4.0 * (z_mid - z_err)) / ts
    upper = (2.0 * (s_minus + tail) + 4.0 * (z_mid + z_err)) / ts
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
