"""Similarity-class coordinates for planar integral well-rounded lattices.

A similarity class is an integer tuple (p, r, q, D) with D squarefree,
p^2 + D r^2 = q^2, gcd(p, q) = 1 and 2p <= q.  The minimal lattice of the
class has Gram matrix [[q, p], [p, q]]; scaling by k gives every integral
well-rounded lattice in the class, with minimum k*q and determinant k*r*sqrt(D).
"""

from __future__ import annotations

from math import gcd

from .arith import _Value, is_squarefree, squarefree_part

__all__ = [
    "NotIntegralError",
    "NotPositiveDefiniteError",
    "NotWellRoundedError",
    "SimilarityClass",
    "MnPair",
    "IwrLattice",
    "GramMatrix",
    "DeterminantSpec",
    "e_exponent",
    "class_from_mn",
    "classify_gram",
]


class NotIntegralError(ValueError):
    """Gram entries must be plain integers."""


class NotPositiveDefiniteError(ValueError):
    """Gram matrix must be positive definite."""


class NotWellRoundedError(ValueError):
    """Lattice has distinct successive minima, so no class coordinates exist."""


class SimilarityClass(_Value):
    """Coordinates (p, r, q, D) of a well-rounded similarity class.

    p = 0 is the square class: it forces D = 1 and q = r = 1 (gcd(0, q) = q).
    """

    __slots__ = ("p", "r", "q", "D")

    def __init__(self, p: int, r: int, q: int, D: int):
        self._init(p, r, q, D, check_D=True)

    @classmethod
    def _of_squarefree_D(cls, p: int, r: int, q: int, D: int) -> SimilarityClass:
        """The class (p, r, q, D) for a D already known squarefree: every check but that one."""
        self = object.__new__(cls)
        self._init(p, r, q, D, check_D=False)
        return self

    def _init(self, p: int, r: int, q: int, D: int, check_D: bool) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "D", D)
        # each check named: enumeration builds classes in bulk, and a loop over getattr cost twice as much
        if not isinstance(p, int) or isinstance(p, bool):
            raise NotIntegralError(f"p must be an int, got {p!r}")
        if not isinstance(r, int) or isinstance(r, bool):
            raise NotIntegralError(f"r must be an int, got {r!r}")
        if not isinstance(q, int) or isinstance(q, bool):
            raise NotIntegralError(f"q must be an int, got {q!r}")
        if not isinstance(D, int) or isinstance(D, bool):
            raise NotIntegralError(f"D must be an int, got {D!r}")
        if p < 0 or r < 1 or q < 1 or D < 1:
            raise ValueError(f"coordinates out of range: {self}")
        if check_D and not is_squarefree(D):
            raise ValueError(f"D must be squarefree >= 1, got {D}")
        if p * p + D * r * r != q * q:
            raise ValueError(f"p^2 + D r^2 != q^2 for {self}")
        if gcd(p, q) != 1:
            raise ValueError(f"gcd(p, q) != 1 for {self}")
        if 2 * p > q:
            raise ValueError(f"2p > q for {self} (angle outside [pi/3, pi/2])")

    # each field named, as fast as the dataclass methods (see arith._Value)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.r, self.q, self.D) == (other.p, other.r, other.q, other.D)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.r, self.q, self.D))

    def triple(self) -> tuple[int, int, int]:
        return (self.p, self.r, self.q)


class MnPair(_Value):
    """Coprime generator pair (m, n) for classes of type D.

    The band D n^2 <= 3 m^2 and m^2 <= 3 D n^2 keeps the generated angle
    inside [pi/3, pi/2].
    """

    __slots__ = ("m", "n", "D")

    def __init__(self, m: int, n: int, D: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "D", D)
        if self.m < 1 or self.n < 1 or self.D < 1:
            raise ValueError(f"m, n, D must be positive: {self}")
        if not is_squarefree(self.D):
            raise ValueError(f"D must be squarefree >= 1, got {self.D}")
        if gcd(self.m, self.n) != 1:
            raise ValueError(f"gcd(m, n) != 1 for {self}")
        if self.D * self.n * self.n > 3 * self.m * self.m:
            raise ValueError(f"pair below band (D n^2 > 3 m^2): {self}")
        if self.m * self.m > 3 * self.D * self.n * self.n:
            raise ValueError(f"pair above band (m^2 > 3 D n^2): {self}")


class DeterminantSpec(_Value):
    """Determinant M * sqrt(D) of an integral well-rounded lattice."""

    __slots__ = ("M", "D")

    def __init__(self, M: int, D: int):
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "D", D)
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.D < 1 or not is_squarefree(self.D):
            raise ValueError(f"D must be squarefree >= 1, got {self.D}")


class IwrLattice(_Value):
    """Scaled class representative sqrt(k/q) * (minimal lattice), Gram k[[q,p],[p,q]]."""

    __slots__ = ("cls", "k")

    def __init__(self, cls: SimilarityClass, k: int):
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "k", k)
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be a positive int, got {self.k!r}")

    # each field named, as fast as the dataclass methods (see arith._Value)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.cls, self.k) == (other.cls, other.k)
        return NotImplemented

    def __hash__(self):
        return hash((self.cls, self.k))

    @property
    def minimum(self) -> int:
        """Squared length of the shortest nonzero vectors."""
        return self.k * self.cls.q

    @property
    def determinant(self) -> DeterminantSpec:
        return DeterminantSpec(self.k * self.cls.r, self.cls.D)

    def gram(self) -> "GramMatrix":
        k, c = self.k, self.cls
        return GramMatrix(k * c.q, k * c.p, k * c.q)


class GramMatrix(_Value):
    """Positive definite integral binary form [[a, b], [b, c]]."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise NotIntegralError(f"Gram entry {name} must be an int, got {v!r}")
        if self.a <= 0 or self.a * self.c - self.b * self.b <= 0:
            raise NotPositiveDefiniteError(f"not positive definite: {self}")

    def det(self) -> int:
        return self.a * self.c - self.b * self.b

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.b, self.c]]


def e_exponent(m: int, n: int, D: int) -> int:
    """Normalization exponent: 0 if 2 | D, or if D is odd and mn is even; else 1."""
    if D % 2 == 0 or ((D + 1) % 2 == 0 and (m * n) % 2 == 0):
        return 0
    return 1


def class_from_mn(pair: MnPair) -> SimilarityClass:
    """Class generated by a coprime pair: divide (|m^2-Dn^2|, 2mn, m^2+Dn^2) by 2^e*gcd(m,D)."""
    m, n, D = pair.m, pair.n, pair.D
    g = (2 ** e_exponent(m, n, D)) * gcd(m, D)
    num_p = abs(m * m - D * n * n)
    num_r = 2 * m * n
    num_q = m * m + D * n * n
    if num_p % g or num_r % g or num_q % g:
        raise ValueError(f"normalizer {g} does not divide the raw triple for {pair}")
    return SimilarityClass(num_p // g, num_r // g, num_q // g, D)


def _mat_mul(u, v):
    return (
        u[0] * v[0] + u[1] * v[2],
        u[0] * v[1] + u[1] * v[3],
        u[2] * v[0] + u[3] * v[2],
        u[2] * v[1] + u[3] * v[3],
    )


def _gauss_reduce(g: GramMatrix) -> tuple[GramMatrix, tuple[tuple[int, int], tuple[int, int]]]:
    """Lagrange-Gauss reduction of a positive definite integral binary form.

    Returns (reduced, U) with U integral, det U = +-1, U^T g U = reduced and
    0 <= 2 b <= a <= c in the reduced form.  The sign of b is canonicalized to
    be nonnegative, so equivalent inputs land on one representative.
    """
    a, b, c = g.a, g.b, g.c
    u = (1, 0, 0, 1)
    while True:
        if abs(2 * b) > a:
            # shift the second basis vector by -t times the first: b -> b - t a
            t = (2 * b + a) // (2 * a)
            c = c - 2 * t * b + t * t * a
            b = b - t * a
            u = _mat_mul(u, (1, -t, 0, 1))
        if c < a:
            a, c = c, a
            u = _mat_mul(u, (0, 1, 1, 0))
            continue
        break
    if b < 0:
        b = -b
        u = _mat_mul(u, (1, 0, 0, -1))
    return GramMatrix(a, b, c), ((u[0], u[1]), (u[2], u[3]))


def classify_gram(g: GramMatrix) -> tuple[SimilarityClass, int]:
    """Recover (class, k) from an integral Gram matrix.

    Reduces first; a well-rounded reduced form has equal diagonal k*q with
    off-diagonal k*p, so k = gcd(diagonal, off-diagonal) and D, r come from
    the squarefree split of q^2 - p^2.
    """
    reduced, _ = _gauss_reduce(g)
    a, b = reduced.a, reduced.b
    if reduced.c != a:
        raise NotWellRoundedError(
            f"reduced form {reduced.rows()} has distinct successive minima {a} < {reduced.c}"
        )
    if b == 0:
        p, q, k = 0, 1, a
    else:
        k = gcd(a, b)
        p, q = b // k, a // k
    D, r = squarefree_part(q * q - p * p)
    return SimilarityClass(p, r, q, D), k

