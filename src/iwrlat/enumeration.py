"""Enumerate and count the well-rounded classes sharing a determinant M*sqrt(D).

A class with second coordinate r is a primitive (p, q) with q^2 - p^2 = c for
c = r^2 D, p > 0 and 2p <= q.  Writing q + p = b and q - p = c/b, the angle
window is sqrt(c) < b <= sqrt(3c), and primitivity makes the split coprime:

  - c odd:   b = u for a unitary divisor u of c (gcd(u, c/u) = 1), and
             (p, q) = ((u - c/u)/2, (u + c/u)/2);
  - 8 | c:   b = 2u for a unitary divisor u of c' = c/4, and
             (p, q) = (u - c'/u, u + c'/u);
  - else (c = 2 mod 4, or c = 4 mod 8): no primitive pair.

So the classes of r are the unitary divisors u of n = c or c/4 with
n < u^2 <= 3n, tested exactly on integers.  They are built from the prime
powers of n and pruned at isqrt(3n): at most 2^omega(c) candidates instead of
the tau(c) divisors, and gcd(p, q) = 1 holds by construction.

Each call factors M and D once.  One table lists (r, r^2 D, exponents of
r^2 D) for every r | M in mixed-radix order over the primes of M, read off
the two factorizations.  The windowed count of r (the window pairs without
the gcd condition) needs no second scan: a window pair with gcd g is g times
a class of r/g, and g | r because D is squarefree, so it is the divisor sum
of the class counts, one prefix sum along each prime axis of the table.  The
per-r helpers build the same table for r.  Only count_windowed, whose
definition it is, and mobius_identity_check, which ties it to the splits,
list every divisor of r^2 D.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod, sqrt

from .arith import Factorization, _Value, factorize
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

Row = tuple[int, int, tuple[int, ...]]

# The most classes, by _class_bound, that one call may build.  The bound also
# caps the rows of the table (tau(M) <= 2 * bound) and the divisors that
# count_windowed scans (tau(r^2 D) = 2 * bound of r).  Work is under a
# microsecond per unit of bound: enumerate_iwr takes 0.64 s at the product of
# the odd primes 3..43 with D = 1, bound 1594323/2 (2 cores, Python 3.11.7).
_CLASS_BUDGET = 2**20


def _class_bound(fM: Factorization, fD: Factorization) -> Fraction:
    """(1/2) * sum over r | M of 2^omega(r D), read off the exponents of M.

    omega(r D) = omega(D) + the primes of r outside D, so a prime p^e of M
    contributes a factor e + 1 when p | D and 1 + 2e otherwise.
    """
    eD = dict(fD.factors)
    n = 2 ** len(eD)
    for p, e in fM.factors:
        n *= e + 1 if p in eD else 1 + 2 * e
    return Fraction(n, 2)


def _divisor_table(fM: Factorization, fD: Factorization) -> tuple[tuple[int, ...], list[Row]]:
    """The primes of M D, and (r, r^2 D, exponents of r^2 D on those primes) for each r | M.

    Rows are in mixed-radix order over the primes of M, the first fastest:
    r = prod p_i^a_i sits at index sum a_i s_i, where s_i is the product of
    (e_j + 1) over the primes p_j of M before p_i.  So M is the last row.
    Raises ValueError, before building a row, when the class bound of M and D
    exceeds _CLASS_BUDGET.
    """
    bound = _class_bound(fM, fD)
    if bound > _CLASS_BUDGET:
        raise ValueError(
            f"the class bound of IWR({fM.value}*sqrt({fD.value})) is {bound}, over the budget of {_CLASS_BUDGET}"
        )
    eD = dict(fD.factors)
    primes = tuple(sorted(eD.keys() | dict(fM.factors).keys()))
    table = [(1, fD.value, tuple(eD.get(p, 0) for p in primes))]
    for p, e in fM.factors:
        i = primes.index(p)
        block = table
        for k in range(1, e + 1):
            pk = p**k
            table = table + [(r * pk, c * pk * pk, x[:i] + (x[i] + 2 * k,) + x[i + 1 :]) for r, c, x in block]
    return primes, table


def _divisor_sums(counts: list[int], fM: Factorization) -> list[int]:
    """At each row of the table of M, the sum of counts over the rows of the divisors of its r."""
    out = list(counts)
    stride = 1
    for _, e in fM.factors:
        span = stride * (e + 1)
        for i in range(len(out)):
            if i % span >= stride:
                out[i] += out[i - stride]
        stride = span
    return out


def _r_table(r: int, D: int) -> tuple[tuple[int, ...], list[Row]]:
    if r < 1 or D < 1:
        raise ValueError("r and D must be positive")
    return _divisor_table(factorize(r), factorize(D))


def _r_row(r: int, D: int) -> tuple[tuple[int, ...], Row]:
    primes, table = _r_table(r, D)
    return primes, table[-1]


def _splits(c: int, primes: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, list[int]]:
    """(n, us): n = c (c odd) or c/4 (8 | c), and its unitary divisors u with n < u^2 <= 3n.

    us is unsorted, and empty when c has no primitive pair.
    """
    powers = [p**e for p, e in zip(primes, x) if e]
    if c % 2 == 0:
        if c % 8:
            return c, []
        c //= 4
        powers[0] //= 4  # the power of 2, the smallest prime
    top = isqrt(3 * c)
    us = [1]
    for pk in powers:
        us += [u * pk for u in us if u * pk <= top]
    low = isqrt(c)
    return c, [u for u in us if u > low]


def _pairs(c: int, primes: tuple[int, ...], x: tuple[int, ...]) -> list[tuple[int, int]]:
    """The classes (p, q) of q^2 - p^2 = c in the angle window, ascending in q."""
    n, us = _splits(c, primes, x)
    us.sort()
    if n == c:
        return [((u - n // u) // 2, (u + n // u) // 2) for u in us]
    return [(u - n // u, u + n // u) for u in us]


def _window_count(c: int, primes: tuple[int, ...], x: tuple[int, ...]) -> int:
    """Divisors b of c with c < b^2 <= 3c and c/b of b's parity: the window pairs, no gcd filter."""
    top = isqrt(3 * c)
    ds = [1]
    for p, e in zip(primes, x):
        ds += [d * pk for pk in [p**k for k in range(1, e + 1)] for d in ds if d * pk <= top]
    low = isqrt(c)
    return sum(1 for b in ds if b > low and (b + c // b) % 2 == 0)


def _omega(x: tuple[int, ...]) -> int:
    return sum(1 for e in x if e)


def _primitive(c: int, x: tuple[int, ...]) -> int:
    # one class per unordered coprime split {a, b} of c or c/4 with a < b
    if c % 2 and c > 1 or c % 8 == 0:
        return 2 ** (_omega(x) - 1)
    return 0


def solutions_for_r(r: int, D: int) -> list[tuple[int, int]]:
    """Primitive (p, q) with q^2 - p^2 = r^2 D and angle in [pi/3, pi/2), ascending in q."""
    primes, (_, c, x) = _r_row(r, D)
    return _pairs(c, primes, x)


def count_classes(r: int, D: int) -> int:
    """Classes of type D with second coordinate exactly r (p > 0)."""
    primes, (_, c, x) = _r_row(r, D)
    return len(_splits(c, primes, x)[1])


def count_primitive(r: int, D: int) -> int:
    """Primitive p > 0 solutions of q^2 - p^2 = r^2 D with no angle constraint.

    Closed form from the factor-pair structure of c = r^2 D:
      - c odd, c > 1:                        2^(omega(c) - 1)
      - 8 | c with an odd prime divisor:     2^(omega(c) - 1)
      - c = 2^j:                             1 if j >= 3 else 0
      - otherwise (c = 1, or 2 | c, 8 !| c): 0
    """
    _, (_, c, x) = _r_row(r, D)
    return _primitive(c, x)


def count_windowed(r: int, D: int) -> int:
    """Divisors of r^2 D in the angle window with matching parity (no gcd filter)."""
    primes, (_, c, x) = _r_row(r, D)
    return _window_count(c, primes, x)


def mobius_identity_check(r: int, D: int) -> bool:
    """Both inversion identities tying the class counts to the direct window scan.

    count_windowed(r) = sum over g | r of count_classes(r/g), and back via
    Moebius.  The class counts come from the coprime splits, the windowed
    counts from the scan over every divisor, so the identities tie the two
    routes together.
    """
    primes, table = _r_table(r, D)
    classes = [len(_splits(c, primes, x)[1]) for _, c, x in table]
    windowed = [_window_count(c, primes, x) for _, c, x in table]
    # the exponent of g in g^2 D is e // 2 (D squarefree); r/g sits at top - i when g sits at i
    mu = [0 if any(e > 3 for e in x) else (-1) ** sum(e // 2 for e in x) for _, _, x in table]
    top = len(table) - 1
    if sum(classes) != windowed[top]:
        return False
    return sum(mu[top - i] * w for i, w in enumerate(windowed)) == classes[top]


def enumerate_iwr(spec: DeterminantSpec, include_square_class: bool = True) -> list[IwrLattice]:
    """All integral well-rounded lattices with determinant M*sqrt(D).

    One lattice per class with r | M, scaled by k = M/r; sorted by
    (minimum, q, p).  The square lattice sqrt(M)*Z^2 appears only for D = 1
    and only when include_square_class is set.
    """
    M, D = spec.M, spec.D
    primes, table = _divisor_table(factorize(M), factorize(D))
    found = []
    for r, c, x in table:
        k = M // r
        if c == 1 and include_square_class:
            found.append(IwrLattice(SimilarityClass(0, 1, 1, 1), k))
        for p, q in _pairs(c, primes, x):
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


class CountReport(_Value):
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

    __slots__ = ("spec", "rows", "total", "square_classes", "bound", "diagnostic")

    def __init__(
        self,
        spec: DeterminantSpec,
        rows: tuple[tuple[int, int, int, int], ...],
        total: int,
        square_classes: int,
        bound: Fraction,
        diagnostic: float,
    ):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "square_classes", square_classes)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "diagnostic", diagnostic)


def count_report(spec: DeterminantSpec) -> CountReport:
    fM, fD = factorize(spec.M), factorize(spec.D)
    primes, table = _divisor_table(fM, fD)
    classes = [len(_splits(c, primes, x)[1]) for _, c, x in table]
    windowed = _divisor_sums(classes, fM)
    rows = sorted((r, n, _primitive(c, x), w) for (r, c, x), n, w in zip(table, classes, windowed))
    top = table[-1][2]  # exponents of M^2 D
    w_top = _omega(top)
    return CountReport(
        spec=spec,
        rows=tuple(rows),
        total=sum(classes),
        square_classes=1 if spec.D == 1 else 0,
        bound=_class_bound(fM, fD),
        diagnostic=prod(e + 1 for e in top) / sqrt(w_top) if w_top else 0.0,
    )
