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
refusal's message.  Twice the bound is also tau(M^2 D), which count_report's
diagnostic reads instead of a product over the primes.  One table holds three
columns over the r | M: r, c = r^2 D, and the power of each prime of M D in
c.  itertools.product builds them, with no Python step per row, from one axis
per prime (its powers in r, and in c), the last prime fastest.
enumerate_iwr and count_report share one step, _split_table, which builds
the table and maps _splits over its rows.  It keeps the table and the splits
of the latest determinant in a one-entry memo keyed by (M, D), so a
count_report right after an enumerate_iwr of the same determinant, or the
other way round, reads the class counts instead of splitting every row
again.  The memo holds one determinant's table, capped by the class budget
like the call itself, and is replaced whole by one assignment.  Factoring
and the budget check still run on every call, before the memo is read.
enumerate_iwr sorts plain (minimum, q, p, r, k) tuples of the rows that
split, and builds the lattices only after that sort, in one call of
classes._lattices_of_squarefree_D: every constructor check runs but the
re-check that D is squarefree, which DeterminantSpec already made.

The windowed count of r (the window pairs without the gcd condition) needs
no second scan: a window pair with gcd g is g times a class of r/g, and
g | r because D is squarefree, so it is the divisor sum of the class counts,
one prefix sum along each prime axis of the table (none when every count
is 0, as for 2 in 5 census determinants).  The answers for one r
are views of the determinant-level calls on DeterminantSpec(r, D): its
classes are the lattices of enumerate_iwr with cls.r == r, and its counts
are the row of r in count_report.

Only mobius_identity_check takes (r, D) itself: it builds the table of r off
the memo, refuses a D that is not squarefree as DeterminantSpec does, and
ties the class counts to a scan of every divisor in the window, with the
parity test restated: c odd lists the divisors of c, 4 | c those of c/4,
and c = 2 mod 4 none.  It scans only the rows its two identities weigh: r
itself, and the r/g for the squarefree g | r.  Each of their n divides the
n of r, so it lists the divisors of r's n once, and each row tests those in
its own window, found by bisection.  It stays in the library because
the benchmark's checker (perfbench/verify.py) calls it on every census
answer; once that checker reads an independent route instead, it can move
to the test oracles.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product, repeat
from math import isqrt, prod, sqrt
from operator import itemgetter

from .arith import Factorization, _Value, factorize
from .classes import DeterminantSpec, IwrLattice, _lattices_of_squarefree_D
from .optimize import enumerate_iwr_via_mn  # perfbench/verify.py calls it from this module

__all__ = [
    "CountReport",
    "mobius_identity_check",
    "enumerate_iwr",
    "count_report",
]

# the divisor table: the primes of M D, and the columns r, r^2 D and the power of each prime in r^2 D
Table = tuple[tuple[int, ...], list[int], list[int], list[tuple[int, ...]]]

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


def _divisor_table(fM: Factorization, fD: Factorization) -> Table:
    """The primes of M D, and three columns over the r | M: r, c = r^2 D, and the power of each of those primes in c.

    The powers are 1 for the primes that do not divide c.

    Rows are in the order of itertools.product over each prime's powers, the
    last prime fastest: r = prod p_i^a_i sits at index sum a_i s_i, where s_i
    is the product of (e_j + 1) over the primes p_j of M after p_i.  So M is
    the last row.
    The caller checks the budget (_budgeted_bound) before building it.
    """
    eM, eD = dict(fM.factors), dict(fD.factors)
    primes = tuple(sorted(eM.keys() | eD.keys()))
    # along each prime p: its powers in r, and p^(e_D) times their squares
    r_axes, c_axes = [], []
    for p in primes:
        pD = p if p in eD else 1
        r_axis, c_axis = [1], [pD]
        pk = 1
        for _ in range(eM.get(p, 0)):
            pk *= p
            r_axis.append(pk)
            c_axis.append(pD * pk * pk)
        r_axes.append(r_axis)
        c_axes.append(c_axis)
    powers = list(product(*c_axes))
    return primes, list(map(prod, product(*r_axes))), list(map(prod, powers)), powers


def _divisor_sums(counts: list[int], fM: Factorization) -> list[int]:
    """At each row of the table of M, the sum of counts over the rows of the divisors of its r.

    Along the axis of a prime p^e with stride s, the table falls into runs of
    (e + 1) s rows, and each row past the first s of its run adds the row s
    before it.  The last prime has stride 1.
    """
    out = list(counts)
    stride = 1
    for _, e in reversed(fM.factors):
        span = stride * (e + 1)
        for start in range(0, len(out), span):
            for i in range(start + stride, start + span):
                out[i] += out[i - stride]
        stride = span
    return out


def _r_table(r: int, D: int) -> tuple[Factorization, Table]:
    if r < 1 or D < 1:
        raise ValueError("r and D must be positive")
    fr, fD = factorize(r), factorize(D)
    # the window count and the unitary splits both need D squarefree
    if any(e > 1 for _, e in fD.factors):
        raise ValueError(f"D must be squarefree >= 1, got {D}")
    _budgeted_bound(fr, fD)
    return fr, _divisor_table(fr, fD)


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


# The split table of the latest determinant: ((M, D), 2 * bound, table, splits),
# replaced whole by one assignment, so a thread reads an old or a new entry,
# never half of one.
_last_split_table = None


def _split_table(fM: Factorization, fD: Factorization) -> tuple[int, Table, list[tuple[int, list[int]]]]:
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
    table = primes, _, cs, powers = _divisor_table(fM, fD)
    splits = list(map(_splits, cs, repeat(primes), powers))
    _last_split_table = (key, twice_bound, table, splits)
    return twice_bound, table, splits


def _window_divisors(c: int, primes: tuple[int, ...], powers: tuple[int, ...]) -> list[int]:
    """The divisors of n = c (c odd) or c/4 (4 | c) up to isqrt(3n), ascending; none when c = 2 mod 4.

    powers is the row's power of each prime in c.
    """
    if c % 4 == 2:
        return []
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
    ds.sort()
    return ds


def _window_count(c: int, divisors: list[int]) -> int:
    """Divisors b of c with c < b^2 <= 3c and c/b of b's parity: the window pairs, no gcd filter.

    b and c/b share their parity only when c is odd, or when 4 | c and
    b = 2b' with b' | c/4, and then c/4 < b'^2 <= 3c/4.  So the count is
    that of every divisor of n = c or c/4 in n's window, and 0 when
    c = 2 mod 4.  divisors is ascending and holds every divisor of n up to
    isqrt(3n): each one in the window is tested against n.
    """
    if c % 4 == 2:
        return 0
    n = c // 4 if c % 2 == 0 else c
    window = divisors[bisect_right(divisors, isqrt(n)) : bisect_right(divisors, isqrt(3 * n))]
    return len([b for b in window if n % b == 0])


def mobius_identity_check(r: int, D: int) -> bool:
    """Both inversion identities tying the class counts to the direct window scan.

    The windowed count of r is the sum over g | r of the class count of
    r/g, and back via Moebius.  The class counts come from the coprime
    splits, the windowed counts from the scan over every divisor, so the
    identities tie the two routes together.  The first identity scans only the row of r; the
    second scans only the rows r/g with mu(g) != 0, since the others add 0.
    """
    fr, (primes, _, cs, powers) = _r_table(r, D)
    classes = [len(us) for _, us in map(_splits, cs, repeat(primes), powers)]
    c_top = cs[-1]
    divisors = _window_divisors(c_top, primes, powers[-1])
    n_top = _window_count(c_top, divisors)
    if sum(classes) != n_top:
        return False
    # mu(g) and g^2 for each squarefree g | r: the row of r/g has c = c_top / g^2
    weighed = [(1, 1)]
    for p, _ in fr.factors:
        weighed += [(-m, g2 * p * p) for m, g2 in weighed]
    # the top row, g = 1, is n_top
    inverted = n_top + sum(m * _window_count(c_top // g2, divisors) for m, g2 in weighed[1:])
    return inverted == classes[-1]


def enumerate_iwr(spec: DeterminantSpec, include_square_class: bool = True) -> list[IwrLattice]:
    """All integral well-rounded lattices with determinant M*sqrt(D).

    One lattice per class with r | M, scaled by k = M/r; sorted by
    (minimum, q, p).  The square lattice sqrt(M)*Z^2 appears only for D = 1
    and only when include_square_class is set.
    """
    M, D = spec.M, spec.D
    _, (_, rs, cs, _), splits = _split_table(factorize(M), factorize(D))
    # (minimum, q, p, r, k) of each class: the sort key first, and unique
    found = []
    for r, c, (n, us) in zip(rs, cs, splits):
        if us:
            k = M // r
            # u splits q^2 - p^2 = c as (q + p)(q - p) = u * (n/u) for c odd, 4u * (n/u) for 8 | c
            for u in us:
                v = n // u
                p, q = ((u - v) // 2, (u + v) // 2) if n == c else (u - v, u + v)
                found.append((k * q, q, p, r, k))
    if D == 1 and include_square_class:
        found.append((M, 1, 0, 1, M))  # the square class, at r = 1
    found.sort()
    # spec's D is squarefree; the rows go in as (p, r, q, k)
    return _lattices_of_squarefree_D(D, map(itemgetter(2, 3, 1, 4), found))


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
        setattr_ = object.__setattr__
        setattr_(self, "spec", spec)
        setattr_(self, "rows", rows)
        setattr_(self, "total", total)
        setattr_(self, "square_classes", square_classes)
        setattr_(self, "bound", bound)
        setattr_(self, "diagnostic", diagnostic)


def count_report(spec: DeterminantSpec) -> CountReport:
    from fractions import Fraction

    fM, fD = factorize(spec.M), factorize(spec.D)
    twice_bound, (primes, rs, cs, powers), splits = _split_table(fM, fD)
    classes = [len(us) for _, us in splits]
    total = sum(classes)
    # primitive p > 0 solutions of q^2 - p^2 = c, no angle window: one per
    # unordered coprime split {a, b} of c or c/4 with a < b, so 2^(omega(c) - 1)
    # for c odd above 1 or 8 | c, and none else (c = 2^j: 1 from j = 3 on)
    primitive = [
        1 << (len(w) - w.count(1) - 1) if c % 8 == 0 or c % 2 and c > 1 else 0 for c, w in zip(cs, powers)
    ]
    # the divisor sums of counts that are all 0 are the counts themselves
    windowed = _divisor_sums(classes, fM) if total else classes
    rows = tuple(sorted(zip(rs, classes, primitive, windowed)))
    # twice the class bound is tau(M^2 D): a prime p^e of M adds 2e + 1 exponents, or 2e + 2 with p | D
    return CountReport(
        spec,
        rows,
        total,
        1 if spec.D == 1 else 0,
        Fraction(twice_bound, 2),
        twice_bound / sqrt(len(primes)) if primes else 0.0,
    )
