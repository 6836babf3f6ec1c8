"""Exact integer arithmetic: factorization and multiplicative functions.

Everything here works on plain Python ints (arbitrary precision) and is
deterministic: trial division by a fixed prime table, then odd candidates,
with a Miller-Rabin certificate to stop early once the cofactor is prime.

Trial division is the expensive step, so it runs once per input and
nothing is cached between calls.  A product such as r^2 D is never trial
divided: its Factorization is built by merging exponents (``fr * fr * fD``
for ``fr = factorize(r)``, ``fD = factorize(D)``), a divisor's
Factorization is read off its parent's primes (``Factorization.divisor``),
and every divisor list, tau, omega and Moebius value comes from the
exponents of one Factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

__all__ = [
    "Factorization",
    "factorize",
    "divisors",
    "squarefree_part",
    "is_squarefree",
    "mobius",
    "omega",
    "tau",
    "is_prime",
]

# witnesses proven sufficient for every n < 3.3e24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(1000)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, exact below 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor_tuple(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        if not is_prime(m):
            # rare path: composite cofactor with prime factors > 1000
            f = 1009
            while f * f <= m:
                if m % f == 0:
                    e = 0
                    while m % f == 0:
                        m //= f
                        e += 1
                    out.append((f, e))
                    if m > 1 and is_prime(m):
                        break
                f += 2
        if m > 1:
            out.append((m, 1))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer, exponents sorted by prime.

    Products, divisors and the multiplicative functions are all computed
    from the exponents; none of them factors anything again.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def __mul__(self, other: Factorization) -> Factorization:
        """Factorization of the product, exponents merged."""
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return Factorization(self.value * other.value, tuple(sorted(exps.items())))

    def divisor(self, d: int) -> Factorization:
        """Factorization of a divisor d of this value, read off its primes."""
        if d < 1 or self.value % d:
            raise ValueError(f"{d} does not divide {self.value}")
        out = []
        m = d
        for p, _ in self.factors:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                out.append((p, e))
        return Factorization(d, tuple(out))

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        ds = [1]
        for p, e in self.factors:
            powers = [p**k for k in range(e + 1)]
            ds = [d * pk for d in ds for pk in powers]
        ds.sort()
        return ds

    def omega(self) -> int:
        """Number of distinct prime divisors."""
        return len(self.factors)

    def tau(self) -> int:
        """Number of positive divisors."""
        t = 1
        for _, e in self.factors:
            t *= e + 1
        return t

    def mobius(self) -> int:
        """0 when a square divides the value, else (-1)**omega."""
        if any(e > 1 for _, e in self.factors):
            return 0
        return -1 if len(self.factors) % 2 else 1


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1.  factorize(1) has no factors."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    return Factorization(n, _factor_tuple(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return factorize(n).divisors()


def squarefree_part(n: int) -> tuple[int, int]:
    """Split n = s * f**2 with s squarefree; returns (s, f)."""
    s = f = 1
    for p, e in factorize(n).factors:
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    return s, f


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for _, e in factorize(n).factors)


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)**omega(n)."""
    return factorize(n).mobius()


def omega(n: int) -> int:
    """Number of distinct prime divisors (omega(1) = 0)."""
    return factorize(n).omega()


def tau(n: int) -> int:
    """Number of positive divisors."""
    return factorize(n).tau()
