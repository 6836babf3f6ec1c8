"""Exact integer arithmetic: factorization and multiplicative functions.

Everything here works on plain Python ints (arbitrary precision) and is
deterministic.  Trial division by the primes below 1000 stops at the first
prime p with p^2 > m, m what is left; that certifies m prime (or 1) without
a further test.  Only a cofactor that reaches 997 with 997^2 <= m is left
to Miller-Rabin, a perfect-square check and Brent's rho.  Primality is
certified only below _PRIME_BOUND; a cofactor at or above it that no prime
base below 1000 shows to be composite is refused with ValueError.

Trial division is the expensive step, so it runs once per input and
nothing is cached between calls.  A product need not be trial divided: its
Factorization is built by merging exponents (``fa * fb``), and every divisor
list, tau, omega and Moebius value comes from the exponents of one
Factorization.

Factorization and the value classes of `classes` and `enumeration` are
immutable and slotted, and compared, hashed and shown by their fields, as
frozen dataclasses were: assigning or deleting a field raises AttributeError,
no longer its subclass dataclasses.FrozenInstanceError.  They derive from
`_Value` below instead of using `@dataclass`, whose import loads `inspect`
and `ast` and whose generated methods are compiled from source as each class
is defined: more than half of the time of `import iwrlat`.  The zeta layer's
results stay dataclasses, because callers use `dataclasses.replace` on them.
"""

from __future__ import annotations

from copyreg import __newobj__
from itertools import count, repeat
from math import gcd, isqrt
from operator import attrgetter

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


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Brent, BIT 20, 1980)."""
    for c in count(1):
        x = y = ys = 2
        g = q = r = 1
        while g == 1:
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

    A subclass names two or more fields in `__slots__` and sets each one in
    its `__init__` with `object.__setattr__`.  As for a frozen dataclass,
    instances compare equal only to instances of the same class with equal
    fields, hash as the tuple of their fields, and show, match, pickle and
    copy by their fields; unpickling and copying do not run `__init__`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        cls._astuple = attrgetter(*cls.__slots__)

    # Read through attrgetter, == and hash take 1.5 to 1.9 times as long as a
    # dataclass's, whose generated code names each field.  SimilarityClass and
    # IwrLattice, built and compared in bulk, name theirs in their own methods.
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

    def __reduce__(self):
        return __newobj__, (self.__class__,), self._astuple(self)

    def __setstate__(self, values):
        if isinstance(values, dict):  # pickled while these classes were dataclasses
            values = [values[name] for name in self.__slots__]
        # object.__setattr__ mapped in C: a Python loop made loads 15% slower
        any(map(object.__setattr__, repeat(self), self.__slots__, values))


class Factorization(_Value):
    """Prime factorization of a positive integer, exponents sorted by prime.

    Products, divisors and the multiplicative functions are all computed
    from the exponents; none of them factors anything again.
    """

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factors", factors)

    def __mul__(self, other: Factorization) -> Factorization:
        """Factorization of the product, exponents merged."""
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return Factorization(self.value * other.value, tuple(sorted(exps.items())))

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
