"""The (m, n) route through IWR(M*sqrt(D)), and the lattice of maximal minimum norm on it.

The route is the paper's parameterization of p^2 + D r^2 = q^2: a coprime
pair (m, n) inside the angle band D n^2 <= 3 m^2 <= 9 D n^2 gives the class
(|m^2 - D n^2|, 2mn, m^2 + D n^2) / g, where g = 2^e gcd(m, D) and e = 1
exactly when D, m and n are all odd.  _mn_triples scans the finite set of
pairs whose r divides M and keeps one triple per class; enumerate_iwr_via_mn
lists those classes as lattices, sorted as enumerate_iwr sorts them, an
independent check on enumeration's coprime splits.  optimize reads the last
lattice of that list: the minimum of the generated lattice is
M*q/r = M*(m^2 + D n^2)/(2mn), so the largest minimum is the densest packing.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .classes import DeterminantSpec, IwrLattice, SimilarityClass

__all__ = [
    "InadmissibleDeterminantError",
    "OptimizeResult",
    "enumerate_iwr_via_mn",
    "optimize",
]


# The most steps, by n_max^2 * isqrt(3 D), that one (m, n) scan may take.  A
# step costs about 50 ns (2 cores, Python 3.11.7), so a scan at the budget
# takes about 50 s; the largest determinant of the query benchmark,
# 3 * 10^5 * sqrt(29), takes 2.5 * 10^7 units and 1.2 s.
_STEP_BUDGET = 2**30


class InadmissibleDeterminantError(ValueError):
    """No integral well-rounded lattice has this determinant."""


# lattice: IwrLattice, maximizers: list[SimilarityClass].  A namedtuple rather
# than a typing.NamedTuple, so that `import iwrlat` does not load typing.
OptimizeResult = namedtuple("OptimizeResult", ("lattice", "maximizers"))


def _mn_triples(spec: DeterminantSpec) -> set[tuple[int, int, int]]:
    """The class triples (p, r, q) of the coprime (m, n) in the band whose r divides M.

    Loop bounds: r = 2mn/g | M and g <= 2D give mn <= D*M; combining with
    the band D n^2 <= 3 m^2 <= 9 D n^2 yields m^4 <= 3 D^3 M^2 and
    n^4 <= 3 D M^2.  Within those bounds the band and divisibility tests
    below are exact, so no pair is missed.  Raises ValueError, before the
    scan, when n_max^2 * isqrt(3 D), a bound on its steps, exceeds
    _STEP_BUDGET.
    """
    M, D = spec.M, spec.D
    cap = D * M
    n_max = isqrt(isqrt(3 * D * M * M))
    steps = n_max * n_max * isqrt(3 * D)
    if steps > _STEP_BUDGET:
        raise ValueError(f"the (m, n) scan for {M}*sqrt({D}) may take {steps} steps, over the budget of {_STEP_BUDGET}")
    triples = set()
    for n in range(1, n_max + 1):
        dnn = D * n * n
        m_lo = isqrt(dnn // 3)
        while 3 * m_lo * m_lo < dnn or m_lo < 1:
            m_lo += 1
        for m in range(m_lo, min(isqrt(3 * dnn), cap // n) + 1):
            if gcd(m, n) == 1:
                g = gcd(m, D) << (D & m & n & 1)
                r = 2 * m * n // g
                if M % r == 0:
                    mm = m * m
                    triples.add((abs(mm - dnn) // g, r, (mm + dnn) // g))
    return triples


def enumerate_iwr_via_mn(spec: DeterminantSpec) -> list[IwrLattice]:
    """Same list as enumerate_iwr, generated from coprime (m, n) pairs.

    Each lattice is built by the public constructors, every check included,
    so this route shares no construction step with enumeration.
    """
    M, D = spec.M, spec.D
    out = [IwrLattice(SimilarityClass(p, r, q, D), M // r) for p, r, q in _mn_triples(spec)]
    out.sort(key=lambda lat: (lat.minimum, lat.cls.q, lat.cls.p))
    return out


def optimize(spec: DeterminantSpec) -> OptimizeResult:
    """Lattice of maximal minimum norm with determinant M*sqrt(D).

    The last lattice of enumerate_iwr_via_mn, whose order is (minimum, q, p),
    and its class, the only maximizer.  A WR lattice with minimum T and angle
    theta in [pi/3, pi/2] between its minimal vectors has determinant
    Delta = T sin(theta), and sin is one-to-one on that interval: at a fixed
    Delta the minimum fixes theta, and theta the class, whose cos(theta) is
    p/q in lowest terms.  So the classes of one determinant have distinct
    minima, and the largest is unique.
    """
    lattices = enumerate_iwr_via_mn(spec)
    if not lattices:
        raise InadmissibleDeterminantError(f"IWR({spec.M}*sqrt({spec.D})) is empty")
    return OptimizeResult(lattices[-1], [lattices[-1].cls])
