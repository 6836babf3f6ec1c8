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

Each call factors M and D once and checks the class budget on integers:
_class_bound returns twice the bound, which is compared with twice the
budget, so a Fraction is built only for CountReport.bound and for the
refusal's message.  One table lists (r, r^2 D, the power of each prime of
M D in r^2 D) for every r | M in mixed-radix order over the primes of M,
read off the two factorizations.  enumerate_iwr and count_report share one
step, _split_table, which builds the table and runs _splits on each row.
It keeps the table and the splits of the latest determinant in a one-entry
memo keyed by (M, D), so a count_report right after an enumerate_iwr of the
same determinant, or the other way round, reads the class counts instead of
splitting every row again.  The memo holds one determinant's table, capped
by the class budget like the call itself, and is replaced whole by one
assignment.  Factoring and the budget check still run on every call, before
the memo is read.  enumerate_iwr sorts plain (minimum, q, p, r, k) tuples of
the rows that split, and builds the lattices only after that sort.  Its
classes skip only the constructor's re-check that D is squarefree, which
DeterminantSpec already made.

The windowed count of r (the window pairs without the gcd condition) needs
no second scan: a window pair with gcd g is g times a class of r/g, and
g | r because D is squarefree, so it is the divisor sum of the class counts,
one prefix sum along each prime axis of the table.  The answers for one r
are views of the determinant-level calls on DeterminantSpec(r, D): its
classes are the lattices of enumerate_iwr with cls.r == r, and its counts
are the row of r in count_report.

Only mobius_identity_check takes (r, D) itself: it builds the table of r off
the memo, refuses a D that is not squarefree as DeterminantSpec does, and
ties the class counts to a scan of every divisor in the window, with the
parity test restated: c odd lists the divisors of c, 4 | c those of c/4,
and c = 2 mod 4 none.  It scans only the rows its two identities weigh: r
itself, and the g | r with mu(r/g) != 0.  It stays in the library because
the benchmark's checker (perfbench/verify.py) calls it on every census
answer; once that checker reads an independent route instead, it can move
to the test oracles.
"""

from __future__ import annotations

from math import isqrt, prod, sqrt

from .arith import Factorization, _Value, factorize
from .classes import DeterminantSpec, IwrLattice, SimilarityClass
from .optimize import enumerate_iwr_via_mn  # perfbench/verify.py calls it from this module

__all__ = [
    "CountReport",
    "mobius_identity_check",
    "enumerate_iwr",
    "count_report",
]

Row = tuple[int, int, tuple[int, ...]]

# The most classes, by _class_bound, that one call may build.  The bound also
# caps the rows of the table (tau(M) <= 2 * bound) and the divisors that
# mobius_identity_check scans (tau(r^2 D) = 2 * bound of r).  Work is under a
# microsecond per unit of bound: enumerate_iwr takes 0.28 s at the product of
# the odd primes 3..43 with D = 1, bound 1594323/2 (2 cores, Python 3.11.7).
_CLASS_BUDGET = 2**20


def _class_bound(fM: Factorization, fD: Factorization) -> int:
    """Twice the class bound: sum over r | M of 2^omega(r D), read off the exponents of M.

    omega(r D) = omega(D) + the primes of r outside D, so a prime p^e of M
    contributes a factor e + 1 when p | D and 1 + 2e otherwise.
    """
    eD = dict(fD.factors)
    n = 2 ** len(eD)
    for p, e in fM.factors:
        n *= e + 1 if p in eD else 1 + 2 * e
    return n


def _budgeted_bound(fM: Factorization, fD: Factorization) -> int:
    """Twice the class bound of M and D; raises ValueError when the bound exceeds _CLASS_BUDGET."""
    twice = _class_bound(fM, fD)
    if twice > 2 * _CLASS_BUDGET:
        from fractions import Fraction

        raise ValueError(
            f"the class bound of IWR({fM.value}*sqrt({fD.value})) is {Fraction(twice, 2)}, "
            f"over the budget of {_CLASS_BUDGET}"
        )
    return twice


def _divisor_table(fM: Factorization, fD: Factorization) -> tuple[tuple[int, ...], list[Row]]:
    """The primes of M D, and (r, r^2 D, the power of each of those primes in r^2 D) for each r | M.

    The powers are 1 for the primes that do not divide r^2 D.

    Rows are in mixed-radix order over the primes of M, the first fastest:
    r = prod p_i^a_i sits at index sum a_i s_i, where s_i is the product of
    (e_j + 1) over the primes p_j of M before p_i.  So M is the last row.
    The caller checks the budget (_budgeted_bound) before building it.
    """
    eD = dict(fD.factors)
    primes = tuple(sorted(eD.keys() | dict(fM.factors).keys()))
    table = [(1, fD.value, tuple(p ** eD.get(p, 0) for p in primes))]
    for p, e in fM.factors:
        i = primes.index(p)
        block = table
        for k in range(1, e + 1):
            pk = p**k
            pk2 = pk * pk
            table = table + [(r * pk, c * pk2, w[:i] + (w[i] * pk2,) + w[i + 1 :]) for r, c, w in block]
    return primes, table


def _divisor_sums(counts: list[int], fM: Factorization) -> list[int]:
    """At each row of the table of M, the sum of counts over the rows of the divisors of its r.

    Along the axis of a prime p^e with stride s, the table falls into runs of
    (e + 1) s rows, and each row past the first s of its run adds the row s before it.
    """
    out = list(counts)
    stride = 1
    for _, e in fM.factors:
        span = stride * (e + 1)
        for start in range(0, len(out), span):
            for i in range(start + stride, start + span):
                out[i] += out[i - stride]
        stride = span
    return out


def _r_table(r: int, D: int) -> tuple[Factorization, tuple[int, ...], list[Row]]:
    if r < 1 or D < 1:
        raise ValueError("r and D must be positive")
    fr, fD = factorize(r), factorize(D)
    # the window count and the unitary splits both need D squarefree
    if any(e > 1 for _, e in fD.factors):
        raise ValueError(f"D must be squarefree >= 1, got {D}")
    _budgeted_bound(fr, fD)
    return (fr, *_divisor_table(fr, fD))


def _splits(c: int, primes: tuple[int, ...], powers: tuple[int, ...]) -> tuple[int, list[int]]:
    """(n, us): n = c (c odd) or c/4 (8 | c), and its unitary divisors u with n < u^2 <= 3n.

    powers is the row's power of each prime in c.  us is unsorted, and empty
    when c has no primitive pair.
    """
    if c % 2 == 0:
        if c % 8:
            return c, []
        c //= 4
        powers = (powers[0] // 4,) + powers[1:]  # the power of 2, the smallest prime
    top = isqrt(3 * c)
    us = [1]
    for pk in powers:
        if 1 < pk <= top:  # a larger pk takes every u past top
            us += [u * pk for u in us if u * pk <= top]
    low = isqrt(c)
    return c, [u for u in us if u > low]


def _classes(c: int, n: int, us: list[int]) -> list[tuple[int, int]]:
    """The (p, q) of q^2 - p^2 = c split by each u of us, the unitary divisors of n from _splits."""
    if n == c:
        return [((u - n // u) // 2, (u + n // u) // 2) for u in us]
    return [(u - n // u, u + n // u) for u in us]


# The split table of the latest determinant: ((M, D), 2 * bound, table, splits),
# replaced whole by one assignment, so a thread reads an old or a new entry,
# never half of one.
_last_split_table = None


def _split_table(fM: Factorization, fD: Factorization) -> tuple[int, list[Row], list[tuple[int, list[int]]]]:
    """Twice the class bound, the divisor table of M and D, and each row's (n, us) from _splits.

    The budget is checked on every call, before the memo of the latest
    determinant is read; the lists returned are shared with it, read only.
    """
    global _last_split_table
    twice_bound = _budgeted_bound(fM, fD)
    key = (fM.value, fD.value)
    last = _last_split_table
    if last is not None and last[0] == key:
        return last[1:]
    primes, table = _divisor_table(fM, fD)
    splits = [_splits(c, primes, w) for _, c, w in table]
    _last_split_table = (key, twice_bound, table, splits)
    return twice_bound, table, splits


def _window_count(c: int, primes: tuple[int, ...], powers: tuple[int, ...]) -> int:
    """Divisors b of c with c < b^2 <= 3c and c/b of b's parity: the window pairs, no gcd filter.

    b and c/b share their parity only when c is odd, or when 4 | c and
    b = 2b' with b' | c/4, and then c/4 < b'^2 <= 3c/4.  So the count is
    that of every divisor of n = c or c/4 in n's window, and 0 when
    c = 2 mod 4.
    """
    if c % 4 == 2:
        return 0
    if c % 2 == 0:
        c //= 4
        powers = (powers[0] // 4,) + powers[1:]  # the power of 2, the smallest prime
    top = isqrt(3 * c)
    ds = [1]
    for p, w in zip(primes, powers):
        if w > 1:
            pks = []
            pk = p
            while pk <= w and pk <= top:  # p, p^2, ..., up to the power w of p in c
                pks.append(pk)
                pk *= p
            ds += [d * pk for pk in pks for d in ds if d * pk <= top]
    low = isqrt(c)
    return len([b for b in ds if b > low])


def mobius_identity_check(r: int, D: int) -> bool:
    """Both inversion identities tying the class counts to the direct window scan.

    The windowed count of r is the sum over g | r of the class count of
    r/g, and back via Moebius.  The class counts come from the coprime
    splits, the windowed counts from the scan over every divisor, so the
    identities tie the two routes together.  The first identity scans only the row of r; the
    second scans only the rows g with mu(r/g) != 0, since the others add 0.
    """
    fr, primes, table = _r_table(r, D)
    classes = [len(_splits(c, primes, w)[1]) for _, c, w in table]
    _, c_top, w_top = table[-1]
    n_top = _window_count(c_top, primes, w_top)
    if sum(classes) != n_top:
        return False
    # mu of each row's g, in the table's mixed-radix order: a prime p^a of r
    # extends it by -mu and a - 1 blocks of 0
    mu = [1]
    for _, a in fr.factors:
        mu += [-m for m in mu] + [0] * (len(mu) * (a - 1))
    # r/g sits at top - i when g sits at i; the top row, mu(1) = 1, is n_top
    inverted = n_top + sum(m * _window_count(c, primes, w) for m, (_, c, w) in zip(reversed(mu), table[:-1]) if m)
    return inverted == classes[-1]


def enumerate_iwr(spec: DeterminantSpec, include_square_class: bool = True) -> list[IwrLattice]:
    """All integral well-rounded lattices with determinant M*sqrt(D).

    One lattice per class with r | M, scaled by k = M/r; sorted by
    (minimum, q, p).  The square lattice sqrt(M)*Z^2 appears only for D = 1
    and only when include_square_class is set.
    """
    M, D = spec.M, spec.D
    _, table, splits = _split_table(factorize(M), factorize(D))
    # (minimum, q, p, r, k) of each class: the sort key first, and unique
    found = []
    for (r, c, _), (n, us) in zip(table, splits):
        if us:
            k = M // r
            found += [(k * q, q, p, r, k) for p, q in _classes(c, n, us)]
    if D == 1 and include_square_class:
        found.append((M, 1, 0, 1, M))  # the square class, at r = 1
    found.sort()
    make = SimilarityClass._of_squarefree_D  # spec's D is squarefree
    return [IwrLattice(make(p, r, q, D), k) for _, q, p, r, k in found]


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
    from fractions import Fraction

    fM, fD = factorize(spec.M), factorize(spec.D)
    twice_bound, table, splits = _split_table(fM, fD)
    classes = [len(us) for _, us in splits]
    # primitive p > 0 solutions of q^2 - p^2 = c, no angle window: one per
    # unordered coprime split {a, b} of c or c/4 with a < b, so 2^(omega(c) - 1)
    # for c odd above 1 or 8 | c, and none else (c = 2^j: 1 from j = 3 on)
    primitive = [
        1 << (len(w) - w.count(1) - 1) if c % 8 == 0 or c % 2 and c > 1 else 0 for _, c, w in table
    ]
    rows = sorted(zip([r for r, _, _ in table], classes, primitive, _divisor_sums(classes, fM)))
    # tau and omega of M^2 D, whose primes are those of M D
    eM, eD = dict(fM.factors), dict(fD.factors)
    primes = eM.keys() | eD.keys()
    tau = prod(2 * eM.get(p, 0) + eD.get(p, 0) + 1 for p in primes)
    return CountReport(
        spec=spec,
        rows=tuple(rows),
        total=sum(classes),
        square_classes=1 if spec.D == 1 else 0,
        bound=Fraction(twice_bound, 2),
        diagnostic=tau / sqrt(len(primes)) if primes else 0.0,
    )
