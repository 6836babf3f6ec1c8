"""Enumerate and count the well-rounded classes sharing a determinant M*sqrt(D).

Every class with second coordinate r comes from a divisor b of c = r^2 D in
the half-open window sqrt(c) < b <= sqrt(3c): writing a = c/b, the candidate
is p = (b-a)/2, q = (b+a)/2, which needs a = b (mod 2) and gcd(p, q) = 1.
Window membership is tested exactly on integers (b^2 > c, b^2 <= 3c).

Each call factors M and D once.  The factorizations of every r | M and of
r^2 D are merged from those two, so r^2 D is never trial divided, and the
per-divisor quantities (the divisors of r^2 D, omega) are computed
once per divisor of M, not once per (r, g) pair.  The per-r helpers
build r^2 D the same way from factorize(r) and factorize(D), and share one
implementation of each count with count_report.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, sqrt

from .arith import Factorization, factorize
from .classes import DeterminantSpec, IwrLattice, SimilarityClass, class_from_mn
from .optimize import admissible_pairs

__all__ = [
    "CountReport",
    "solutions_for_r",
    "count_classes",
    "count_primitive",
    "count_windowed",
    "mobius_identity_check",
    "enumerate_iwr",
    "enumerate_iwr_via_mn",
    "count_report",
]


def _factor_pair(r: int, D: int) -> tuple[Factorization, Factorization]:
    if r < 1 or D < 1:
        raise ValueError("r and D must be positive")
    return factorize(r), factorize(D)


def _r2d(r: int, D: int) -> Factorization:
    fr, fD = _factor_pair(r, D)
    return fr * fr * fD


def _divisor_table(fM: Factorization, fD: Factorization) -> list[tuple[int, Factorization, Factorization]]:
    """(r, factorization of r, factorization of r^2 D) for each r | M, ascending."""
    table = []
    for r in fM.divisors():
        fr = fM.divisor(r)
        table.append((r, fr, fr * fr * fD))
    return table


def _spec_table(spec: DeterminantSpec) -> list[tuple[int, Factorization, Factorization]]:
    return _divisor_table(factorize(spec.M), factorize(spec.D))


def _window_pairs(c: Factorization, include_p_zero: bool = False) -> list[tuple[int, int]]:
    """(p, q) for each divisor b of c in the angle window with matching parity, ascending in q.

    No gcd filter.  include_p_zero widens the window to b = sqrt(c).
    """
    n = c.value
    ds = c.divisors()
    # b^2 > n  <=>  b > isqrt(n);  b^2 >= n  <=>  b > isqrt(n - 1);  b^2 <= 3n  <=>  b <= isqrt(3n)
    lo = bisect_right(ds, isqrt(n - 1) if include_p_zero else isqrt(n))
    hi = bisect_right(ds, isqrt(3 * n), lo)
    out = []
    for b in ds[lo:hi]:
        a = n // b
        if (a + b) % 2 == 0:
            out.append(((b - a) // 2, (a + b) // 2))
    return out


def _coprime(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(p, q) for p, q in pairs if gcd(p, q) == 1]


def _solutions(c: Factorization, include_p_zero: bool = False) -> list[tuple[int, int]]:
    return _coprime(_window_pairs(c, include_p_zero))


def _primitive(c: Factorization) -> int:
    n = c.value
    if n == 1:
        return 0
    w = c.omega()
    if n % 2:
        return 2 ** (w - 1)
    if n % 8 == 0:
        if n & (n - 1) == 0:  # a power of two
            return 1 if n >= 8 else 0
        return 2 ** (w - 1)
    return 0


def _row(r: int, c: Factorization) -> tuple[int, int, int, int]:
    """(r, n_classes, n_primitive, n_windowed) from c = r^2 D; one window scan for both counts."""
    pairs = _window_pairs(c)
    return r, len(_coprime(pairs)), _primitive(c), len(pairs)


def solutions_for_r(r: int, D: int) -> list[tuple[int, int]]:
    """Primitive (p, q) with q^2 - p^2 = r^2 D and angle in [pi/3, pi/2), ascending in q."""
    return _solutions(_r2d(r, D))


def count_classes(r: int, D: int) -> int:
    """Classes of type D with second coordinate exactly r (p > 0)."""
    return len(solutions_for_r(r, D))


def count_primitive(r: int, D: int) -> int:
    """Primitive p > 0 solutions of q^2 - p^2 = r^2 D with no angle constraint.

    Closed form from the factor-pair structure of c = r^2 D:
      - c odd, c > 1:                        2^(omega(c) - 1)
      - 8 | c with an odd prime divisor:     2^(omega(c) - 1)
      - c = 2^j:                             1 if j >= 3 else 0
      - otherwise (c = 1, or 2 | c, 8 !| c): 0
    """
    return _primitive(_r2d(r, D))


def count_windowed(r: int, D: int) -> int:
    """Divisors of r^2 D in the angle window with matching parity (no gcd filter)."""
    return len(_window_pairs(_r2d(r, D)))


def mobius_identity_check(r: int, D: int) -> bool:
    """Both inversion identities tying the gcd-filtered and unfiltered counts.

    count_windowed(r) = sum over g | r of count_classes(r/g), and back via Moebius.
    """
    table = _divisor_table(*_factor_pair(r, D))
    rows = {g: _row(g, c) for g, _, c in table}
    mu = {g: fg.mobius() for g, fg, _ in table}
    if sum(rows[r // g][1] for g in rows) != rows[r][3]:
        return False
    return sum(mu[r // g] * rows[g][3] for g in rows) == rows[r][1]


def enumerate_iwr(spec: DeterminantSpec, include_square_class: bool = True) -> list[IwrLattice]:
    """All integral well-rounded lattices with determinant M*sqrt(D).

    One lattice per class with r | M, scaled by k = M/r; sorted by
    (minimum, q, p).  The square lattice sqrt(M)*Z^2 appears only for D = 1
    and only when include_square_class is set.
    """
    M, D = spec.M, spec.D
    found = []
    for r, _, c in _spec_table(spec):
        k = M // r
        for p, q in _solutions(c, include_p_zero=include_square_class):
            found.append(IwrLattice(SimilarityClass(p, r, q, D), k))
    found.sort(key=lambda lat: (lat.minimum, lat.cls.q, lat.cls.p))
    return found


def enumerate_iwr_via_mn(spec: DeterminantSpec) -> list[IwrLattice]:
    """Same list as enumerate_iwr but generated from coprime (m, n) pairs.

    Independent route: admissible pairs -> classes -> dedup; used to
    cross-check the divisor-window sweep.
    """
    seen: dict[tuple[int, int, int], IwrLattice] = {}
    for pair in admissible_pairs(spec):
        cls = class_from_mn(pair)
        if cls.triple() not in seen:
            seen[cls.triple()] = IwrLattice(cls, spec.M // cls.r)
    out = list(seen.values())
    out.sort(key=lambda lat: (lat.minimum, lat.cls.q, lat.cls.p))
    return out


@dataclass(frozen=True)
class CountReport:
    """Per-divisor counting table for one determinant.

    rows hold (r, n_classes, n_primitive, n_windowed) for each r | M;
    total sums n_classes (square class excluded), square_classes counts the
    p = 0 lattice separately (1 iff D = 1).

    bound = (1/2) * sum over r | M of 2^omega(r D) is an exact upper bound on
    total for D > 1 (for D = 1 the square class escapes it).  diagnostic is
    the heuristic size estimate sum_{r|M} sum_{g|r} mu(r/g) f(g) with
    f(g) = tau(g^2 D)/sqrt(omega(g D)), which Moebius inversion reduces to
    f(M), and 0 when M = D = 1.  It is reported only, never asserted.
    """

    spec: DeterminantSpec
    rows: tuple[tuple[int, int, int, int], ...]
    total: int
    square_classes: int
    bound: Fraction
    diagnostic: float


def count_report(spec: DeterminantSpec) -> CountReport:
    table = _spec_table(spec)
    rows = tuple(_row(r, c) for r, _, c in table)
    top = table[-1][2]  # M^2 D
    return CountReport(
        spec=spec,
        rows=rows,
        total=sum(row[1] for row in rows),
        square_classes=1 if spec.D == 1 else 0,
        # omega(r D) = omega(r^2 D): the same primes
        bound=Fraction(1, 2) * sum(2 ** c.omega() for _, _, c in table),
        diagnostic=top.tau() / sqrt(top.omega()) if top.omega() else 0.0,
    )
