"""Maximize the minimum norm (equivalently packing density) over IWR(M*sqrt(D)).

The search space is the finite set of coprime pairs (m, n) inside the angle
band whose generated r divides M; the minimum of the generated lattice is
M*q/r = M*(m^2 + D n^2)/(2mn) * (normalizer cancels), so maximizing the exact
rational objective (m^2 + D n^2)/(m n) maximizes the minimum norm.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, sqrt
from typing import NamedTuple

from .classes import DeterminantSpec, IwrLattice, MnPair, SimilarityClass, class_from_mn, e_exponent
from .enumeration import enumerate_iwr

__all__ = [
    "InadmissibleDeterminantError",
    "OptimizeResult",
    "admissible_pairs",
    "objective",
    "optimize",
    "optimize_bruteforce",
    "trivial_bound",
    "trivial_bound_squared",
]


class InadmissibleDeterminantError(ValueError):
    """No integral well-rounded lattice has this determinant."""


class OptimizeResult(NamedTuple):
    lattice: IwrLattice
    maximizers: list[SimilarityClass]


def _iroot4(x: int) -> int:
    return isqrt(isqrt(x))


def admissible_pairs(spec: DeterminantSpec) -> list[MnPair]:
    """All coprime (m, n) in the band whose generated r divides M.

    Loop bounds: r = 2mn/(2^e gcd(m, D)) | M and 2^e gcd(m, D) <= 2D give
    mn <= D*M; combining with the band D n^2 <= 3 m^2 <= 9 D n^2 yields
    m^4 <= 3 D^3 M^2 and n^4 <= 3 D M^2.  Within those bounds the band and
    divisibility tests below are exact, so no pair is missed.
    """
    M, D = spec.M, spec.D
    cap = D * M
    n_max = _iroot4(3 * D * M * M)
    pairs = []
    for n in range(1, n_max + 1):
        dnn = D * n * n
        m = isqrt(dnn // 3)
        while 3 * m * m < dnn or m < 1:
            m += 1
        m_hi = min(isqrt(3 * dnn), cap // n)
        while m <= m_hi:
            if gcd(m, n) == 1:
                den = (2 ** e_exponent(m, n, D)) * gcd(m, D)
                r = 2 * m * n // den
                if M % r == 0:
                    pairs.append(MnPair(m, n, D))
            m += 1
    return pairs


def objective(pair: MnPair) -> Fraction:
    """(m^2 + D n^2)/(m n), exactly twice the generated q/r ratio."""
    m, n = pair.m, pair.n
    return Fraction(m * m + pair.D * n * n, m * n)


def optimize(spec: DeterminantSpec, order: str = "heuristic") -> OptimizeResult:
    """Lattice of maximal minimum norm with determinant M*sqrt(D).

    order only changes the candidate visiting sequence ("heuristic" visits
    large |m^2 - D n^2| first, which tends to reach the optimum immediately);
    the returned result is an argmax over the full candidate set either way.
    Ties (not observed: classes sharing a determinant have distinct minima)
    would all be reported in maximizers, with the lattice taken from the
    lexicographically smallest (q, p).
    """
    if order not in ("heuristic", "lex"):
        raise ValueError(f"unknown order {order!r}")
    pairs = admissible_pairs(spec)
    if order == "heuristic":
        pairs.sort(key=lambda t: abs(t.m * t.m - t.D * t.n * t.n), reverse=True)
    classes: dict[tuple[int, int, int], SimilarityClass] = {}
    for pair in pairs:
        cls = class_from_mn(pair)
        classes.setdefault(cls.triple(), cls)
    if not classes:
        raise InadmissibleDeterminantError(f"IWR({spec.M}*sqrt({spec.D})) is empty")
    best = max((spec.M // c.r) * c.q for c in classes.values())
    maximizers = sorted(
        (c for c in classes.values() if (spec.M // c.r) * c.q == best),
        key=lambda c: (c.q, c.p),
    )
    lat = IwrLattice(maximizers[0], spec.M // maximizers[0].r)
    return OptimizeResult(lat, maximizers)


def optimize_bruteforce(spec: DeterminantSpec) -> OptimizeResult:
    """Independent oracle: scan the full enumeration and take the argmax."""
    lattices = enumerate_iwr(spec, include_square_class=True)
    if not lattices:
        raise InadmissibleDeterminantError(f"IWR({spec.M}*sqrt({spec.D})) is empty")
    best = max(lat.minimum for lat in lattices)
    winners = sorted(
        (lat for lat in lattices if lat.minimum == best),
        key=lambda lat: (lat.cls.q, lat.cls.p),
    )
    return OptimizeResult(winners[0], [lat.cls for lat in winners])


def trivial_bound(spec: DeterminantSpec) -> float:
    """Upper bound 2*M*sqrt(D)/sqrt(3) on any minimum; attained only by hexagonal classes."""
    return 2.0 * spec.M * sqrt(spec.D) / sqrt(3.0)


def trivial_bound_squared(spec: DeterminantSpec) -> Fraction:
    """Exact square 4 M^2 D / 3 of the trivial bound, for integer comparisons."""
    return Fraction(4 * spec.M * spec.M * spec.D, 3)
