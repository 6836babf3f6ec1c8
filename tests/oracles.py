"""Independent routes the tests compare the library against.

shell_sum is the direct lattice sum of E(s) over square shells, the route
epstein_zeta took before the Chowla-Selberg expansion replaced it.  It shares
no code with the library and costs O(N^2) terms, so the tests call it only at
modest radius.

optimize_by_enumeration is the argmax of the minimum over enumerate_iwr's
coprime-split list, a route that shares no step with optimize's (m, n) scan.

enumerate_by_gram_scan lists the lattices of a determinant by scanning the
reduced Gram matrices themselves; it shares no code with the library.

smallest_prime_factors and factor_by_sieve factor integers from a sieve,
sharing no step with factorize's trial division, Miller-Rabin and rho.

divisors, mobius, omega and tau are the textbook functions of n, read off a
plain trial division by 2 and every odd d with d^2 <= n; they share no code
with iwrlat.arith.

windowed_count is the direct scan of the angle window over every divisor of
r^2 D, the count that count_report's n_windowed column reads off the class
counts.  pell_add and class_to_point are the group law on the Pell conic and
the point of a class, the route compose clears the denominators of.  All
three share no code with iwrlat.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from iwrlat import DeterminantSpec, InadmissibleDeterminantError, OptimizeResult, enumerate_iwr

U = 2.0**-53


def optimize_by_enumeration(spec: DeterminantSpec) -> OptimizeResult:
    """optimize's result read off the full enumeration: all lattices of the largest minimum."""
    lattices = enumerate_iwr(spec, include_square_class=True)
    if not lattices:
        raise InadmissibleDeterminantError(f"IWR({spec.M}*sqrt({spec.D})) is empty")
    best = max(lat.minimum for lat in lattices)
    winners = sorted((lat for lat in lattices if lat.minimum == best), key=lambda lat: (lat.cls.q, lat.cls.p))
    return OptimizeResult(winners[0], [lat.cls for lat in winners])


def enumerate_by_gram_scan(M: int, D: int) -> list[tuple[int, int, int, int]]:
    """(p, r, q, k) of every IWR lattice with determinant M*sqrt(D), ascending in the minimum k q.

    Every IWR Gram reduces to [[n, b], [b, n]] with 0 <= 2b <= n and
    n^2 - b^2 = M^2 D, so n runs from ceil(sqrt(M^2 D)) while 3 n^2 <= 4 M^2 D
    and is kept when n^2 - M^2 D is a square b^2.  k = gcd(n, b) splits the
    Gram into k [[q, p], [p, q]], and k r = M.  The square class (0, 1, 1)
    appears for D = 1 as n = M, b = 0.  About 0.15 M sqrt(D) steps.
    """
    det2 = M * M * D
    out = []
    n = math.isqrt(det2 - 1) + 1
    while 3 * n * n <= 4 * det2:
        b = math.isqrt(n * n - det2)
        if b * b == n * n - det2:
            k = math.gcd(n, b)
            out.append((b // k, M // k, n // k, k))
        n += 1
    return out


def smallest_prime_factors(limit: int) -> array:
    """spf[n], the smallest prime factor of n, for 2 <= n <= limit (spf[0] = 0, spf[1] = 1).

    Striking the multiples of every p from isqrt(limit) down to 2, composites
    included, from p^2 on leaves each n with the smallest p that divides it
    and has p^2 <= n: its smallest prime factor.  A prime keeps n itself.
    """
    spf = array("l", range(limit + 1))
    for p in range(math.isqrt(limit), 1, -1):
        spf[p * p :: p] = array("l", [p]) * len(range(p * p, limit + 1, p))
    return spf


def factor_by_sieve(n: int, spf: array) -> tuple[tuple[int, int], ...]:
    """The ((prime, exponent), ...) of n >= 1, ascending, read off the sieve spf.

    While n exceeds the sieve, it is trial divided by the sieve's primes; a
    prime p with p^2 > n, or every prime of the sieve once (limit + 1)^2 > n,
    proves n prime.  Raises ValueError when the sieve is too short for n.
    """
    limit = len(spf) - 1
    out = []
    primes = (p for p in range(2, limit + 1) if spf[p] == p)
    while n > limit:
        p = next(primes, limit + 1)
        if p * p > n:
            p = n
        elif p > limit:
            raise ValueError(f"a sieve up to {limit} cannot factor {n}")
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _trial_factors(n: int) -> tuple[tuple[int, int], ...]:
    """The ((prime, exponent), ...) of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def windowed_count(r: int, D: int) -> int:
    """Divisors b of c = r^2 D with c < b^2 <= 3c and b + c/b even: the window pairs, no gcd condition.

    The divisors come from the trial factors of r and D, so c itself is
    never factored.
    """
    exponents = dict(_trial_factors(D))
    for p, e in _trial_factors(r):
        exponents[p] = exponents.get(p, 0) + 2 * e
    c = r * r * D
    bs = [1]
    for p, e in exponents.items():
        bs = [b * p**k for b in bs for k in range(e + 1)]
    return sum(1 for b in bs if c < b * b <= 3 * c and (b + c // b) % 2 == 0)


def pell_add(p1, p2, D: int) -> tuple[Fraction, Fraction]:
    """Group law on x^2 - D y^2 = 1: coefficient multiplication in Z[sqrt(D)]."""
    (x1, y1), (x2, y2) = [(Fraction(x), Fraction(y)) for x, y in (p1, p2)]
    for x, y in ((x1, y1), (x2, y2)):
        if x * x - D * y * y != 1:
            raise ValueError(f"point ({x}, {y}) is not on x^2 - {D} y^2 = 1")
    return (x1 * x2 + D * y1 * y2, x1 * y2 + x2 * y1)


def class_to_point(cls) -> tuple[Fraction, Fraction]:
    """The conic point (q/p, r/p) of a class with p > 0."""
    if cls.p == 0:
        raise ValueError("square class (p = 0) has no conic representative")
    return (Fraction(cls.q, cls.p), Fraction(cls.r, cls.p))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in _trial_factors(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def omega(n: int) -> int:
    """Number of distinct prime divisors (omega(1) = 0)."""
    return len(_trial_factors(n))


def tau(n: int) -> int:
    """Number of positive divisors."""
    return math.prod(e + 1 for _, e in _trial_factors(n))


def mobius(n: int) -> int:
    """0 when a square > 1 divides n, else (-1)**omega(n)."""
    factors = _trial_factors(n)
    if any(e > 1 for _, e in factors):
        return 0
    return (-1) ** len(factors)


@dataclass(frozen=True)
class ShellSum:
    """E(s) over the shells up to radius; the exact sum lies within tail_bound + rounding of value."""

    value: float
    tail_bound: float
    rounding: float
    radius: int

    @property
    def error_bound(self) -> float:
        return self.tail_bound + self.rounding


def true_cos(T: float, Delta: float) -> float:
    """cos(theta) = sqrt(1 - (Delta/T)^2) of the float inputs, correctly rounded to a float."""
    w = 1 - (Fraction(Delta) / Fraction(T)) ** 2
    if w <= 0:
        return 0.0
    with mpmath.workdps(40):
        return float(mpmath.sqrt(mpmath.mpf(w.numerator) / w.denominator))


def shell_sum(T: float, Delta: float, s: float, radius: int) -> ShellSum:
    """E(s) of T (x^2 + y^2 + 2 c x y), c = true_cos(T, Delta), over max(|x|, |y|) <= radius.

    Tail: c <= 1/2 gives Q >= T (x^2 + y^2 - |x y|) >= T (x^2 + y^2) / 2, and
    one shell j holds 8 j vectors with x^2 + y^2 >= j^2, so its terms add at
    most (2/T)^s 8 j^(1-2s) and the shells beyond N at most
    (2/T)^s 8 [(N+1)^(1-2s) + (N+1)^(2-2s) / (2s-2)].
    Rounding: c is within u = 2^-53 relative, so each Q within 6u, each Q^-s
    (pow within 4u) within (6s + 4)u and the fsum of the positive terms within
    (6s + 5)u of the exact sum; the allowance is (8s + 8)u times the value.
    """
    if not (isinstance(radius, int) and 1 <= radius <= 512):
        raise ValueError(f"radius must be an int in [1, 512], got {radius!r}")
    c2 = 2.0 * T * true_cos(T, Delta)
    terms = []
    for j in range(1, radius + 1):
        # half of each shell; the other half is its mirror image (x, y) -> (-x, -y)
        terms += [(T * (x * x + j * j) + c2 * (x * j)) ** -s for x in range(-j, j + 1)]
        terms += [(T * (j * j + y * y) + c2 * (j * y)) ** -s for y in range(-j + 1, j)]
    value = 2.0 * math.fsum(terms)
    u = float(radius + 1)
    tail = (2.0 / T) ** s * 8.0 * (u ** (1.0 - 2.0 * s) + u ** (2.0 - 2.0 * s) / (2.0 * s - 2.0))
    return ShellSum(value, tail, (8.0 * s + 8.0) * U * value, radius)
