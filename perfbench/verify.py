"""Output checks, each against a route independent of the production path
where one exists.  They run on every answer outside its timed interval.

Every check function takes (question, answer) and returns a list of problem
strings; an empty list means the answer is correct.  Run as a script, this
module is run.py's checker process:

    python3 perfbench/verify.py <workload>

reads pickled (question, answer) pairs on stdin and writes each one's
pickled problem list to stdout.
"""

from __future__ import annotations

import json
import math
import pickle
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath

import ask
from ask import classes, conic, enumeration, optimize, zeta

# The shell sums are float64 over up to ~1.6e7 terms; against the mpmath
# closed forms the observed rounding is ~2e-14 of the value (s = 3,
# rel 1e-12).  The allowance is five times that and sits on top of the
# certified abs_error_bound, which by the library's own docstring does not
# cover rounding.
ROUNDING_REL = 1e-13
# the (m, n) oracle costs as much as optimize; run it where M*sqrt(D) is small
VIA_MN_LIMIT = 3e4


@lru_cache(maxsize=None)
def _closed_form_constants(s: float):
    """(hexagonal, square) constants C with E(s) = C * T**-s, via mpmath."""
    with mpmath.workdps(30):
        z = mpmath.zeta(s)
        hexagonal = 6 * z * mpmath.dirichlet(s, [0, 1, -1])
        square = 4 * z * mpmath.dirichlet(s, [0, 1, 0, -1])
        return hexagonal, square


def closed_forms(T: float, s: float):
    """Exact E(s) at minimum T for the hexagonal and square shapes.

    At fixed T every well-rounded form lies between them: the term pair
    (x, y), (x, -y) is an even convex function of cos(theta).
    """
    hexagonal, square = _closed_form_constants(s)
    with mpmath.workdps(30):
        scale = mpmath.mpf(T) ** (-s)
        return hexagonal * scale, square * scale


def _zeta_range(lat, T, s, slack):
    """Interval that E(s) of `lat` must lie in, widened by slack + rounding."""
    hexagonal, square = closed_forms(T, s)
    c = lat.cls
    if (c.p, c.r, c.q, c.D) == ask.HEXAGONAL:
        lo = hi = hexagonal
    elif (c.p, c.r, c.q, c.D) == ask.SQUARE:
        lo = hi = square
    else:
        lo, hi = square, hexagonal
    return lo - slack - ROUNDING_REL * lo, hi + slack + ROUNDING_REL * hi


def check_zeta_value(lat, T, s, eps, result) -> list[str]:
    out = []
    if not result.abs_error_bound <= eps:
        out.append(f"abs_error_bound {result.abs_error_bound!r} > eps {eps!r}")
    lo, hi = _zeta_range(lat, T, s, result.abs_error_bound)
    if not lo <= result.value <= hi:
        out.append(f"E({s}) = {result.value!r} outside [{float(lo)!r}, {float(hi)!r}] at T={T}")
    return out


def check_snr(lat, eps, snr_db) -> list[str]:
    T, _ = ask.minimum_and_delta(lat)
    lo, hi = _zeta_range(lat, T, 2.0, eps)
    # a large T makes E(2) smaller than eps, and the certified interval reaches 0
    db_lo, db_hi = (10.0 * float(mpmath.log10(1 / (9 * v))) if v > 0 else math.inf for v in (hi, lo))
    slack = 1e-12 * abs(db_lo)
    if not db_lo - slack <= snr_db <= db_hi + slack:
        return [f"snr {snr_db!r} dB outside [{db_lo!r}, {db_hi!r}] at T={T}"]
    return []


def _lattice_key(lat):
    return (lat.cls.p, lat.cls.r, lat.cls.q, lat.cls.D, lat.k)


def _check_lattices(spec, lattices) -> list[str]:
    out = []
    for lat in lattices:
        c = lat.cls
        if lat.k * c.r != spec.M or c.D != spec.D:
            out.append(f"lattice {_lattice_key(lat)} has the wrong determinant")
    return out


def _conic_product(c1, c2):
    """Class of the product of (q1 + r1 sqrt D)/p1 and (q2 + r2 sqrt D)/p2."""
    x = Fraction(c1.q * c2.q + c1.D * c1.r * c2.r, c1.p * c2.p)
    y = Fraction(c1.q * c2.r + c2.q * c1.r, c1.p * c2.p)
    return x, y


def check_compose(c1, c2, result) -> list[str]:
    if result.D != c1.D or result.p == 0:
        return [f"compose({c1.triple()}, {c2.triple()}) = {result} has the wrong type"]
    if (Fraction(result.q, result.p), Fraction(result.r, result.p)) != _conic_product(c1, c2):
        return [f"compose({c1.triple()}, {c2.triple()}) = {result.triple()} is not the conic product"]
    return []


def _check_optimum(spec, lattices, best) -> list[str]:
    if not lattices:
        return [] if best is None else [f"optimize returned {best} on an empty determinant"]
    if best is None:
        return ["optimize raised on a non-empty determinant"]
    top = max(lat.minimum for lat in lattices)
    if best.lattice.minimum != top or _lattice_key(best.lattice) not in {_lattice_key(x) for x in lattices}:
        return [f"optimum minimum {best.lattice.minimum} != enumeration maximum {top}"]
    return []


def check_query(q, a) -> list[str]:
    spec = classes.DeterminantSpec(q["M"], q["D"])
    lattices, report = a["lattices"], a["report"]
    out = _check_lattices(spec, lattices)
    if q["M"] * math.sqrt(q["D"]) <= VIA_MN_LIMIT:
        via = [_lattice_key(x) for x in enumeration.enumerate_iwr_via_mn(spec)]
        if via != [_lattice_key(x) for x in lattices]:
            out.append("enumeration differs from the (m, n) oracle")
    if report.total + report.square_classes != len(lattices):
        out.append(f"count_report total {report.total}+{report.square_classes} != {len(lattices)} lattices")
    out += _check_optimum(spec, lattices, a["best"])
    for lat, (cls, k) in zip(lattices, a["classified"]):
        if (cls, k) != (lat.cls, lat.k):
            out.append(f"classify_gram gave ({cls.triple()}, k={k}) for {_lattice_key(lat)}")
    if len(a["classified"]) != len(lattices):
        out.append("classify_gram answers missing")
    for c2, result in a["composed"]:
        out += check_compose(a["best"].lattice.cls, c2, result)
    if a["snr_db"] is not None:
        out += check_snr(a["best"].lattice, 1e-6, a["snr_db"])
    return out


def check_census(q, a) -> list[str]:
    out = []
    for D, (lattices, report) in zip(q["Ds"], a):
        spec = classes.DeterminantSpec(q["M"], D)
        out += _check_lattices(spec, lattices)
        if report.total + report.square_classes != len(lattices):
            out.append(f"D={D}: count_report total {report.total}+{report.square_classes} != {len(lattices)} lattices")
        if not enumeration.mobius_identity_check(q["M"], D):
            out.append(f"D={D}: mobius_identity_check failed")
        if q.get("oracle"):
            via = [_lattice_key(x) for x in enumeration.enumerate_iwr_via_mn(spec)]
            if via != [_lattice_key(x) for x in lattices]:
                out.append(f"D={D}: enumeration differs from the (m, n) oracle")
    if len(a) != len(q["Ds"]):
        out.append("answers missing from the row")
    return out


def check_interference(q, a) -> list[str]:
    lat = a["lattice"]
    T, _ = ask.minimum_and_delta(lat)
    if q["kind"] == "zeta":
        return check_zeta_value(lat, T, q["s"], a["eps"], a["result"])
    if q["kind"] == "snr":
        return check_snr(lat, q["eps"], a["snr_db"])
    lower, upper = a["bracket"]
    hexagonal, square = closed_forms(T, q["s"])
    if not (lower <= square * (1 + ROUNDING_REL) and hexagonal * (1 - ROUNDING_REL) <= upper):
        return [f"bracket [{lower!r}, {upper!r}] misses [{float(square)!r}, {float(hexagonal)!r}] at s={q['s']}"]
    return []


# ----------------------------------------------------------------- cli


def _record_key(rec):
    return (rec["p"], rec["r"], rec["q"], rec["D"], rec["k"])


def _class_key(d):
    return (d["p"], d["r"], d["q"], d["D"])


def _cli_expected_code(q) -> int:
    if q["kind"] in ("enumerate", "optimize"):
        spec = classes.DeterminantSpec(q["M"], q["D"])
        square = q["kind"] == "optimize" or "--include-square-class" in q["argv"]
        return 0 if enumeration.enumerate_iwr(spec, include_square_class=square) else 3
    return 0


def _check_cli_output(q, out) -> list[str]:
    kind = q["kind"]
    if kind == "classify":
        p, r, qq, D = q["class"]
        if (_class_key(out["class"]), out["k"]) != ((p, r, qq, D), q["k"]):
            return [f"classify gave {out} for class {q['class']} k={q['k']}"]
        return []
    if kind == "enumerate":
        spec = classes.DeterminantSpec(q["M"], q["D"])
        want = enumeration.enumerate_iwr(spec, include_square_class="--include-square-class" in q["argv"])
        if [_record_key(r) for r in out] != [_lattice_key(x) for x in want]:
            return ["enumerate output differs from the library"]
        return _check_lattices(spec, want)
    if kind == "count":
        rep = enumeration.count_report(classes.DeterminantSpec(q["M"], q["D"]))
        rows = [(x["r"], x["n_classes"], x["n_primitive"], x["n_windowed"]) for x in out["rows"]]
        if (rows, out["total"], out["square_classes"], out["bound"]) != (
            list(rep.rows), rep.total, rep.square_classes, str(rep.bound)
        ):
            return ["count output differs from the library"]
        return []
    if kind == "optimize":
        spec = classes.DeterminantSpec(q["M"], q["D"])
        lattices = enumeration.enumerate_iwr(spec)
        if out["min_norm"] != max(lat.minimum for lat in lattices):
            return [f"optimize min_norm {out['min_norm']} is not the enumeration maximum"]
        best = optimize.optimize(spec).lattice
        return [] if _record_key(out) == _lattice_key(best) else ["optimize output differs from the library"]
    if kind in ("zeta", "snr"):
        p, r, qq, D = q["class"]
        lat = classes.IwrLattice(classes.SimilarityClass(p, r, qq, D), q["k"])
        T, _ = ask.minimum_and_delta(lat)
        if kind == "snr":
            density = math.pi * qq / (4.0 * r * math.sqrt(D))
            problems = check_snr(lat, 1e-6, out["snr_db"])
            if abs(out["packing_density"] - density) > 1e-12 * density:
                problems.append(f"packing_density {out['packing_density']!r} != {density!r}")
            return problems
        result = zeta.ZetaResult(out["value"], out["abs_error_bound"], out["truncation_radius"],
                                 out["s"], out["T"], out["Delta"])
        return check_zeta_value(lat, T, q["s"], 1e-6, result)
    if kind == "compose":
        c1, c2 = (classes.SimilarityClass(*c) for c in (q["c1"], q["c2"]))
        got = classes.SimilarityClass(*_class_key(out["class"]))
        problems = check_compose(c1, c2, got)
        return problems + ([] if got == conic.compose(c1, c2) else ["compose output differs from the library"])
    if kind == "table1":
        problems = []
        for row in out:
            spec = classes.DeterminantSpec(row["M"], row["D"])
            top = max(lat.minimum for lat in enumeration.enumerate_iwr(spec))
            if row["min_norm"] != top:
                problems.append(f"table1 row {row['M']}sqrt{row['D']}: min_norm {row['min_norm']} != {top}")
        return problems if out else ["table1 printed no rows"]
    return [f"unknown cli question {kind}"]


def check_cli(q, a) -> list[str]:
    want = _cli_expected_code(q)
    if a["returncode"] != want:
        return [f"exit code {a['returncode']} != {want}: {a['stderr'].strip()[-200:]}"]
    if want != 0:
        return []
    try:
        out = json.loads(a["stdout"])
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    try:
        return _check_cli_output(q, out)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"stdout has the wrong shape: {exc!r}"]


CHECK = {"query": check_query, "census": check_census, "interference": check_interference, "cli": check_cli}


def serve(workload: str) -> None:
    check = CHECK[workload]
    while True:
        try:
            q, answer = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        try:
            problems = check(q, answer)
        except Exception as exc:  # an answer of the wrong shape fails its check
            problems = [f"check raised {exc!r}"]
        pickle.dump(problems, sys.stdout.buffer)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
