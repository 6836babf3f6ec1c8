"""Release gate: every shipped guarantee checked at its stated tolerance.

Each check prints exactly one PASS/FAIL line (visible with -s, or on failure).
Every reference-table row is checked against an exact scan of integral Gram
matrices that shares no code with the optimizer.  The 24*sqrt(17) row keeps
the circulated minimum 104 on record, checks that it belongs to a genuine but
non-optimal lattice, and asserts the proven optimum 106 with the Gram witness
[[106, 38], [38, 106]].
"""

import functools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from oracles import divisors, enumerate_by_gram_scan, mobius, optimize_by_enumeration

from iwrlat import (
    DeterminantSpec,
    InadmissibleDeterminantError,
    SimilarityClass,
    classify_gram,
    compose,
    count_classes,
    count_primitive,
    count_report,
    count_windowed,
    enumerate_iwr,
    enumerate_iwr_via_mn,
    epstein_bounds,
    epstein_zeta,
    is_squarefree,
    monotonicity_check,
    optimize,
)


def _check(label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _squarefree_upto(limit: int) -> list[int]:
    return [D for D in range(1, limit + 1) if is_squarefree(D)]


@functools.cache
def _grid_enumerations() -> dict:
    # shared by the optimizer, dual-enumeration, and round-trip gates
    grid = {}
    for D in _squarefree_upto(30):
        for M in range(1, 41):
            spec = DeterminantSpec(M, D)
            grid[spec] = tuple(enumerate_iwr(spec))
    return grid


@functools.cache
def _class_count(r: int, D: int) -> int:
    return count_classes(r, D)


@functools.cache
def _windowed_count(r: int, D: int) -> int:
    return count_windowed(r, D)


# ---------------------------------------------------------------- reference table

_PUBLISHED_ROWS = [
    (24, 5, 61, (29, 61), Fraction(1, 61)),
    (24, 7, 69, (9, 23), Fraction(3, 23)),
    (20, 11, 75, (7, 15), Fraction(1, 3)),
    (24, 17, 104, (4, 13), Fraction(8, 13)),
    (105, 19, 510, (15, 34), Fraction(15, 34)),
    (96, 23, 522, (41, 87), Fraction(6, 87)),
]


# circulated rows that an exact Gram scan disproves, with the proven optimum
_VERIFIED_CORRECTIONS = {
    (24, 17): (106, (19, 53), Fraction(2, 53)),
}


def _gram_scan_optimum(M: int, D: int) -> tuple[int, int] | None:
    """Largest minimum, with its witness (n, b), over integral Grams of det M*sqrt(D).

    Every IWR Gram reduces to [[n, b], [b, n]] with 0 <= 2b <= n, so
    n^2 - b^2 = M^2 D confines n to [sqrt(M^2 D), sqrt(4 M^2 D / 3)].
    """
    lattices = enumerate_by_gram_scan(M, D)
    if not lattices:
        return None
    p, _, q, k = lattices[-1]
    return k * q, k * p


@pytest.mark.parametrize(
    "M,D,ref_min,ref_pq,ref_scale",
    _PUBLISHED_ROWS,
    ids=[f"{M}sqrt{D}" for M, D, *_ in _PUBLISHED_ROWS],
)
def test_reference_table_row(M, D, ref_min, ref_pq, ref_scale):
    expected = _VERIFIED_CORRECTIONS.get((M, D), (ref_min, ref_pq, ref_scale))
    lat = optimize(DeterminantSpec(M, D)).lattice
    got = (lat.minimum, (lat.cls.p, lat.cls.q), Fraction(lat.k, lat.cls.q))
    witness = _gram_scan_optimum(M, D)
    # the circulated row must still describe a real IWR lattice of this
    # determinant, whether or not it is the densest one
    p, q = ref_pq
    k = ref_scale * q
    r = M / k
    genuine = (
        k.denominator == 1
        and r.denominator == 1
        and p * p + D * r * r == q * q
        and 0 <= 2 * p <= q
        and k * q == ref_min
    )
    _check(
        f"reference optimum for {M}*sqrt({D})",
        got == expected
        and witness == (lat.minimum, lat.k * lat.cls.p)
        and genuine
        and ref_min <= witness[0],
        f"reference min={ref_min} (p,q)={ref_pq} scale={ref_scale} "
        f"({'genuine' if genuine else 'not a lattice of this determinant'}), "
        f"computed min={got[0]} (p,q)={got[1]} scale={got[2]}, "
        f"Gram scan optimum (n, b)={witness}",
    )


def test_reference_table_corrected_class_row(capsys):
    # min 98 and scale sqrt(2/49) as printed, but the printed class (7, 15)
    # fails p^2 + 13 r^2 = q^2; the witness class is (23, 12, 49)
    lat = optimize(DeterminantSpec(24, 13)).lattice
    witness = _gram_scan_optimum(24, 13)
    ok = (
        lat.minimum == 98
        and witness == (98, 46)
        and Fraction(lat.k, lat.cls.q) == Fraction(2, 49)
        and lat.cls.triple() == (23, 12, 49)
    )
    import json

    from iwrlat.cli import run

    assert run(["table1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    flag = next(r["discrepancy"] for r in rows if (r["M"], r["D"]) == (24, 13))
    with capsys.disabled():
        _check(
            "reference optimum for 24*sqrt(13) with corrected class",
            ok and flag == "class corrected",
            f"computed min={lat.minimum} class={lat.cls.triple()} k={lat.k}, flag={flag!r}, "
            f"Gram scan optimum (n, b)={witness}",
        )


def test_reference_table_runtime():
    t0 = time.perf_counter()
    for M, D in [(24, 5), (24, 7), (20, 11), (24, 13), (24, 17), (105, 19), (96, 23)]:
        optimize(DeterminantSpec(M, D))
    elapsed = time.perf_counter() - t0
    _check(
        "reference table computed within budget",
        elapsed < 10.0,
        f"{elapsed:.3f}s for 7 determinants, budget 10s",
    )


# ------------------------------------------------------------- optimizer vs oracle


def test_optimizer_equals_bruteforce_on_grid():
    t0 = time.perf_counter()
    failures = []
    compared = 0
    for spec in _grid_enumerations():
        try:
            fast = optimize(spec)
        except InadmissibleDeterminantError:
            try:
                optimize_by_enumeration(spec)
            except InadmissibleDeterminantError:
                continue
            failures.append((spec, "only the (m, n) scan thinks this is empty"))
            continue
        brute = optimize_by_enumeration(spec)
        if fast.lattice != brute.lattice or fast.maximizers != brute.maximizers:
            failures.append((spec, fast.lattice, brute.lattice))
        compared += 1
    elapsed = time.perf_counter() - t0
    _check(
        "optimizer equals exhaustive argmax, M <= 40, squarefree D <= 30",
        not failures and elapsed < 120.0,
        f"{compared} admissible determinants in {elapsed:.2f}s, budget 120s"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


# --------------------------------------------------------------- dual enumeration


def test_dual_enumeration_agrees_on_grid():
    failures = []
    total = 0
    for spec, lats in _grid_enumerations().items():
        key = lambda lat: (lat.cls.p, lat.cls.r, lat.cls.q, lat.cls.D, lat.k)
        a, b = {key(l) for l in lats}, {key(l) for l in enumerate_iwr_via_mn(spec)}
        if a != b or len(a) != len(lats):
            failures.append((spec, a ^ b))
        total += len(lats)
    _check(
        "divisor-window and (m,n) enumerations agree as sets on the grid",
        not failures,
        f"{total} lattices across {len(_grid_enumerations())} determinants"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


# -------------------------------------------------------------- counting identities


def _primitive_count_brute(c: int) -> int:
    # primitive (p, q), p > 0, with q^2 - p^2 = c; no angle window
    n = 0
    for a in divisors(c):
        b = c // a
        if a < b and (a + b) % 2 == 0 and math.gcd((b - a) // 2, (a + b) // 2) == 1:
            n += 1
    return n


def test_counting_identities_on_grid():
    failures = []
    checked = 0
    for D in _squarefree_upto(50):
        for r in range(1, 201):
            f = _class_count(r, D)
            f1 = count_primitive(r, D)
            f2 = _windowed_count(r, D)
            if f > min(f1, f2):
                failures.append(("f <= min(f1, f2)", r, D))
            elif f2 != sum(_class_count(r // g, D) for g in divisors(r)):
                failures.append(("divisor sum", r, D))
            elif f != sum(mobius(r // g) * _windowed_count(g, D) for g in divisors(r)):
                failures.append(("mobius inversion", r, D))
            else:
                checked += 1
    _check(
        "counting identities for r <= 200, squarefree D <= 50",
        not failures,
        f"{checked} (r, D) pairs" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_primitive_count_closed_form_matches_bruteforce():
    failures = []
    checked = 0
    for D in _squarefree_upto(50):
        r_max = max(200, math.isqrt(10**6 // D))
        for r in range(1, r_max + 1):
            if count_primitive(r, D) != _primitive_count_brute(r * r * D):
                failures.append((r, D))
            checked += 1
    _check(
        "closed-form primitive count equals brute force",
        not failures,
        f"{checked} (r, D) pairs, r^2 D up to {max(200 * 200 * 47, 10**6)}"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_count_bound_dominates_on_grid():
    failures = []
    checked = 0
    for D in _squarefree_upto(50):
        if D == 1:
            continue
        for M in range(1, 201):
            spec = DeterminantSpec(M, D)
            total = sum(_class_count(r, D) for r in divisors(M))
            if total > count_report(spec).bound:
                failures.append((M, D, total))
            checked += 1
    _check(
        "class count never exceeds the divisor bound for D > 1, M <= 200",
        not failures,
        f"{checked} determinants" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_counting_anchor_24_sqrt_5():
    spec = DeterminantSpec(24, 5)
    rep = count_report(spec)
    minima = sorted(lat.minimum for lat in enumerate_iwr(spec))
    _check(
        "anchor |IWR(24*sqrt(5))| = 4 with minima {54,56,58,61} and bound 21",
        rep.total == 4 and minima == [54, 56, 58, 61] and rep.bound == 21,
        f"total={rep.total}, minima={minima}, bound={rep.bound}",
    )


# ------------------------------------------------------------------- closed forms


def _dirichlet_oracle(shape: str) -> float:
    # independent oracles: 6 zeta(2) L_{-3}(2) and 4 zeta(2) beta(2),
    # the odd-character L-values via Hurwitz zeta
    mpmath.mp.dps = 30
    if shape == "hexagonal":
        L = 3 ** mpmath.mpf(-2) * (mpmath.zeta(2, mpmath.mpf(1) / 3) - mpmath.zeta(2, mpmath.mpf(2) / 3))
        return float(6 * mpmath.zeta(2) * L)
    beta = 4 ** mpmath.mpf(-2) * (mpmath.zeta(2, mpmath.mpf(1) / 4) - mpmath.zeta(2, mpmath.mpf(3) / 4))
    return float(4 * mpmath.zeta(2) * beta)


@pytest.mark.parametrize(
    "shape,delta", [("hexagonal", math.sqrt(3) / 2), ("square", 1.0)]
)
def test_zeta_closed_form(shape, delta):
    t0 = time.perf_counter()
    z = epstein_zeta(1.0, delta, 2.0, 5e-7)
    elapsed = time.perf_counter() - t0
    oracle = _dirichlet_oracle(shape)
    err = abs(z.value - oracle)
    _check(
        f"zeta at s=2 matches the {shape} Dirichlet series oracle",
        err < 1e-6 and elapsed < 5.0,
        f"|{z.value:.9f} - {oracle:.9f}| = {err:.1e}, {elapsed:.2f}s, budget 5s",
    )


# ------------------------------------------------------- bracket and monotonicity


def test_bounds_sandwich_random_shapes():
    rng = random.Random(20260815)
    failures = []
    for _ in range(50):
        T = rng.uniform(0.5, 8.0)
        delta = T * rng.uniform(math.sqrt(3) / 2, 1.0)
        for s in (1.5, 2.0, 3.0):
            eps = 0.02 * (2.0 / T) ** s
            z = epstein_zeta(T, delta, s, eps)
            lo, hi = epstein_bounds(T, s)
            inside = lo <= z.value + z.abs_error_bound and z.value - z.abs_error_bound <= hi
            if not inside or z.abs_error_bound > eps:
                failures.append((T, delta, s, lo, z.value, hi))
    _check(
        "angle-free bracket contains the certified value, 50 shapes x s in {1.5, 2, 3}",
        not failures,
        "150 evaluations" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_interference_ordering_certified_at_s3():
    rep = monotonicity_check(DeterminantSpec(24, 5), 3.0, eps=1e-9)
    ok = (
        rep.mode == "asserted"
        and rep.certified
        and rep.decreasing_observed
        and rep.minima == (54, 56, 58, 61)
        and not rep.inconclusive
    )
    _check(
        "E(3) strictly decreasing in the minimum across IWR(24*sqrt(5)), certified",
        ok,
        f"values {tuple(round(v, 12) for v in rep.values)}, max error {max(rep.errors):.1e}",
    )


def test_interference_ordering_s2_reported_not_asserted():
    rep = monotonicity_check(DeterminantSpec(24, 5), 2.0, eps=1e-9)
    pairs = ", ".join(f"min {m}: E={v:.9f}" for m, v in zip(rep.minima, rep.values))
    print(
        f"[acceptance] REPORT s=2 ordering across IWR(24*sqrt(5)) is observational "
        f"(decreasing observed: {rep.decreasing_observed}, never asserted): {pairs}"
    )
    _check(
        "s=2 ordering emitted as a report, not an assertion",
        rep.mode == "observational",
        "see REPORT line above",
    )


# ------------------------------------------------------------ composition semigroup


def test_composition_semigroup_random_triples():
    pools = {}
    for spec, lats in _grid_enumerations().items():
        pools.setdefault(spec.D, set()).update(lat.cls for lat in lats if lat.cls.p > 0)
    pools = {
        D: sorted(classes, key=lambda c: (c.q, c.p))
        for D, classes in pools.items()
        if len(classes) >= 3
    }
    rng = random.Random(7)
    types = sorted(pools)
    failures = []
    checked = 0
    for _ in range(1000):
        D = rng.choice(types)
        a, b, c = (rng.choice(pools[D]) for _ in range(3))
        ab = compose(a, b)  # constructor re-validates every class invariant
        if 4 * ab.p > ab.q:
            failures.append(("window 4p <= q", a, b))
        elif ab != compose(b, a):
            failures.append(("commutativity", a, b))
        elif compose(ab, c) != compose(a, compose(b, c)):
            failures.append(("associativity", a, b, c))
        else:
            checked += 1
    _check(
        "composition closure, commutativity, associativity on 1000 random triples",
        not failures,
        f"{checked} triples over types {types}"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_composition_anchor_hexagonal():
    got = compose(SimilarityClass(1, 1, 2, 3), SimilarityClass(1, 1, 2, 3))
    _check(
        "hexagonal composed with itself is (1, 4, 7) of type 3",
        got == SimilarityClass(1, 4, 7, 3),
        f"got {got.triple()} of type {got.D}",
    )


# ----------------------------------------------------------------- gram round trip


def test_gram_round_trip_on_grid():
    failures = []
    count = 0
    for spec, lats in _grid_enumerations().items():
        for lat in lats:
            cls, k = classify_gram(lat.gram())
            if (cls, k) != (lat.cls, lat.k):
                failures.append((spec, lat, cls, k))
            count += 1
    _check(
        "classify_gram inverts IwrLattice.gram for every grid lattice",
        not failures,
        f"{count} lattices" + (f"; first failure {failures[0]}" if failures else ""),
    )
