"""Exact integer arithmetic: factorization, primality and squarefree tests.

Everything here works on plain Python ints (arbitrary precision) and is
deterministic.  Trial division by the primes below 1000 stops at the first
prime p with p^2 > m, m what is left; that certifies m prime (or 1) without
a further test.  Only a cofactor that reaches 997 with 997^2 <= m is left
to Miller-Rabin, a perfect-square check and Brent's rho.  Primality is
certified only below _PRIME_BOUND; a cofactor at or above it that no prime
base below 1000 shows to be composite is refused with ValueError, and so is
a composite that rho cannot split within _RHO_BUDGET steps.

Trial division is the expensive step, so each caller factors its inputs
once, and nothing in this module is cached between calls; the one memo is
enumeration's split table of its latest determinant (`enumeration`).  A
product is not trial divided again: enumeration reads the exponents of
r^2 D off those of r and D, and builds its divisors, splits and counts from
those exponents.

Factorization, the value classes of `classes` and `enumeration` and the
results of `zeta` are immutable and slotted, and compared, hashed and shown
by their fields, as frozen dataclasses were: assigning or deleting a field
raises AttributeError, no longer its subclass dataclasses.FrozenInstanceError.
They derive from `_Value` below instead of using `@dataclass`, whose import
loads `inspect` and `ast` and whose generated methods are compiled from
source as each class is defined: more than half of the time of
`import iwrlat`.
"""

from __future__ import annotations

from copyreg import __newobj__
from itertools import count, repeat
from math import gcd, isqrt
from operator import attrgetter

__all__ = [
    "Factorization",
    "factorize",
    "squarefree_part",
    "is_squarefree",
    "is_prime",
]

# Sorenson & Webster (Math. Comp. 86, 2017): the smallest strong pseudoprime
# to every prime base up to 41 is psi_13 = 3317044064679887385961981, so these
# witnesses decide primality exactly below it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(1000)


def _strong_probable_prime(n: int, bases) -> bool:
    """Odd n > max(bases) passes the strong Fermat test to every base."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin to the prime bases up to 41).

    Exact for every n < 3317044064679887385961981; raises ValueError from
    there on, where a strong pseudoprime to all thirteen bases exists.
    """
    if n >= _PRIME_BOUND:
        raise ValueError(f"primality is certified only below {_PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n, _MR_WITNESSES)


# The most steps y -> y^2 + c that one rho split may take.  Rho needs about
# sqrt(p) steps for the smallest prime factor p: psi_13, a product of two
# 41-bit primes, splits after 1.83 * 10^6 steps (0.55 s, 2 cores, Python
# 3.11.7), while a product of two 52-bit primes would need about 10^8.  A
# 104-bit n is refused after 1.5 s.
_RHO_BUDGET = 2**22


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Brent, BIT 20, 1980).

    Raises ValueError, before a round of 2r steps that would take it over
    _RHO_BUDGET steps in all, when no divisor has turned up.
    """
    steps = 0
    for c in count(1):
        x = y = ys = 2
        g = q = r = 1
        while g == 1:
            if steps + 2 * r > _RHO_BUDGET:
                raise ValueError(f"cannot split {n}: Pollard rho found no factor in {_RHO_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps += r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: step back one value at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _split(m: int) -> list[int]:
    """Prime factors, with multiplicity, of an m > 1 with no prime factor below 1000."""
    if m < _PRIME_BOUND:
        if is_prime(m):
            return [m]
    elif _strong_probable_prime(m, _SMALL_PRIMES):
        raise ValueError(f"cannot certify the factor {m}: primality is certified only below {_PRIME_BOUND}")
    root = isqrt(m)
    if root * root == m:  # rho would find the square, then split each equal half again
        return _split(root) * 2
    d = _rho(m)
    return _split(d) + _split(m // d)


def _factor_tuple(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    m = n
    root = isqrt(m)
    for p in _SMALL_PRIMES:
        if p > root:  # no prime factor of m up to sqrt(m): m is 1 or prime
            if m > 1:
                out.append((m, 1))
            return tuple(out)
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
            root = isqrt(m)
    if m > 1:  # every prime below 1000 tried; what is left has no factor below 1000
        big = _split(m)
        out += [(p, big.count(p)) for p in sorted(set(big))]
    return tuple(out)


class _Value:
    """An immutable record whose fields are its `__slots__`, in that order.

    A subclass names two or more fields in `__slots__`.  Its constructor
    takes them by position or by name, as a frozen dataclass's does; a
    subclass that checks its fields defines its own `__init__`, which sets
    them through this one or `object.__setattr__`.  As for a frozen
    dataclass, instances compare equal only to instances of the same class
    with equal fields, hash as the tuple of their fields, and show, match,
    pickle and copy by their fields; unpickling and copying skip `__init__`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        cls._astuple = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs:
            # each name is taken once, in field order, so a missing field leaves the tuple short
            args += tuple(kwargs.pop(name) for name in self.__slots__[len(args):] if name in kwargs)
            if kwargs:
                name = next(iter(kwargs))
                raise TypeError(f"{self.__class__.__qualname__}() got an unexpected or repeated field {name!r}")
        self.__setstate__(args)

    # Read through attrgetter, == and hash take 1.5 to 1.9 times as long as a
    # dataclass's, whose generated code names each field; no timed path of the
    # library compares or hashes records in bulk.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # __reduce_ex__ rather than __reduce__: object.__reduce_ex__ would only
    # call __reduce__ back, and skipping it makes dumps 8% faster
    def __reduce_ex__(self, protocol):
        return __newobj__, (self.__class__,), self._astuple(self)

    def __setstate__(self, values):
        names = self.__slots__
        # anything else, a frozen dataclass's dict state among them, would set fields to the wrong values
        if values.__class__ is not tuple or len(values) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} has the fields {names}, got {values!r}")
        # object.__setattr__ mapped in C: a Python loop made loads 15% slower
        any(map(object.__setattr__, repeat(self), names, values))


class Factorization(_Value):
    """Prime factorization of a positive integer: value and its (prime, exponent) pairs, ascending."""

    __slots__ = ("value", "factors")

    # named, not _Value's generic constructor: factorize builds about 30 per
    # census row, and in timeit the generic one took twice as long (1.0 us)
    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factors", factors)


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1.  factorize(1) has no factors."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    return Factorization(n, _factor_tuple(n))


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
