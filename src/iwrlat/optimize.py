"""The (m, n) route through IWR(M*sqrt(D)), and the lattice of maximal minimum norm on it.

The route scans the finite set of coprime pairs (m, n) inside the angle band
whose generated r divides M (admissible_pairs), and keeps one class per
triple.  enumerate_iwr_via_mn lists those classes as lattices, an independent
check on enumeration's coprime splits; optimize takes their argmax.  The
minimum of the generated lattice is M*q/r = M*(m^2 + D n^2)/(2mn)
(normalizer cancels), so maximizing the exact rational objective
(m^2 + D n^2)/(m n) maximizes the minimum norm, equivalently the packing
density.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .classes import DeterminantSpec, IwrLattice, MnPair, SimilarityClass, class_from_mn, e_exponent

__all__ = [
    "InadmissibleDeterminantError",
    "OptimizeResult",
    "admissible_pairs",
    "enumerate_iwr_via_mn",
    "optimize",
]


# The most steps, by n_max^2 * isqrt(3 D), that one (m, n) scan may take.  A
# step costs about 90 ns (2 cores, Python 3.11.7), so a scan at the budget
# takes about 100 s; the largest determinant of the query benchmark,
# 3 * 10^5 * sqrt(29), takes 2.5 * 10^7 units and 2.3 s.
_STEP_BUDGET = 2**30


class InadmissibleDeterminantError(ValueError):
    """No integral well-rounded lattice has this determinant."""


# lattice: IwrLattice, maximizers: list[SimilarityClass].  A namedtuple rather
# than a typing.NamedTuple, so that `import iwrlat` does not load typing.
OptimizeResult = namedtuple("OptimizeResult", ("lattice", "maximizers"))


def admissible_pairs(spec: DeterminantSpec) -> list[MnPair]:
    """All coprime (m, n) in the band whose generated r divides M.

    Loop bounds: r = 2mn/(2^e gcd(m, D)) | M and 2^e gcd(m, D) <= 2D give
    mn <= D*M; combining with the band D n^2 <= 3 m^2 <= 9 D n^2 yields
    m^4 <= 3 D^3 M^2 and n^4 <= 3 D M^2.  Within those bounds the band and
    divisibility tests below are exact, so no pair is missed.  Raises
    ValueError, before the scan, when n_max^2 * isqrt(3 D), a bound on its
    steps, exceeds _STEP_BUDGET.
    """
    M, D = spec.M, spec.D
    cap = D * M
    n_max = isqrt(isqrt(3 * D * M * M))
    steps = n_max * n_max * isqrt(3 * D)
    if steps > _STEP_BUDGET:
        raise ValueError(f"the (m, n) scan for {M}*sqrt({D}) may take {steps} steps, over the budget of {_STEP_BUDGET}")
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


def _mn_classes(spec: DeterminantSpec) -> list[SimilarityClass]:
    """The classes the admissible pairs generate, one per triple, in the order of their first pair."""
    classes: dict[tuple[int, int, int], SimilarityClass] = {}
    for pair in admissible_pairs(spec):
        cls = class_from_mn(pair)
        classes.setdefault(cls.triple(), cls)
    return list(classes.values())


def enumerate_iwr_via_mn(spec: DeterminantSpec) -> list[IwrLattice]:
    """Same list as enumerate_iwr, generated from coprime (m, n) pairs.

    Independent route: admissible pairs -> classes -> dedup; used to
    cross-check enumeration's coprime splits.
    """
    out = [IwrLattice(cls, spec.M // cls.r) for cls in _mn_classes(spec)]
    out.sort(key=lambda lat: (lat.minimum, lat.cls.q, lat.cls.p))
    return out


def optimize(spec: DeterminantSpec) -> OptimizeResult:
    """Lattice of maximal minimum norm with determinant M*sqrt(D).

    An argmax over every class the admissible pairs generate.  Ties (not
    observed: classes sharing a determinant have distinct minima) would all
    be reported in maximizers, with the lattice taken from the
    lexicographically smallest (q, p).
    """
    # the private scan, not enumerate_iwr_via_mn, so that a tracer wrapping the
    # public functions sees class_from_mn called under optimize itself
    classes = _mn_classes(spec)
    if not classes:
        raise InadmissibleDeterminantError(f"IWR({spec.M}*sqrt({spec.D})) is empty")
    best = max((spec.M // c.r) * c.q for c in classes)
    maximizers = sorted(
        (c for c in classes if (spec.M // c.r) * c.q == best),
        key=lambda c: (c.q, c.p),
    )
    lat = IwrLattice(maximizers[0], spec.M // maximizers[0].r)
    return OptimizeResult(lat, maximizers)

