"""How each generated question is put to iwrlat, through its public API only.

Every function here takes one question from inputs.py and returns the raw
answer objects, which verify.py checks outside the timed interval.  Library names
are looked up on the modules at call time, so the traced run sees the wrapped
functions.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from importlib import import_module

from inputs import change_basis

# by module name: the package attribute `iwrlat.optimize` is the re-exported function
classes, conic, enumeration, optimize, zeta = (
    import_module(f"iwrlat.{name}") for name in ("classes", "conic", "enumeration", "optimize", "zeta")
)

HEXAGONAL = (1, 1, 2, 3)
SQUARE = (0, 1, 1, 1)
# a question still running after this long counts as failed
CEILING_S = 30.0


class Refused(Exception):
    """The library declined the question with the documented seed-commit error."""


def ask_query(q):
    spec = classes.DeterminantSpec(q["M"], q["D"])
    lattices = enumeration.enumerate_iwr(spec)
    report = enumeration.count_report(spec)
    try:
        best = optimize.optimize(spec)
    except optimize.InadmissibleDeterminantError:
        best = None
    classified = [
        classes.classify_gram(classes.GramMatrix(*change_basis((g.a, g.b, g.c), q["basis"])))
        for g in (lat.gram() for lat in lattices)
    ]
    composed, snr_db = [], None
    if best is not None and best.lattice.cls.p > 0:
        top = best.lattice.cls
        composed = [(lat.cls, conic.compose(top, lat.cls)) for lat in lattices if lat.cls.p > 0]
        snr_db = zeta.snr(best.lattice, 1e-6)
    return {"lattices": lattices, "report": report, "best": best, "classified": classified,
            "composed": composed, "snr_db": snr_db}


def ask_census(q):
    """One row of the table: every D for one M."""
    row = []
    for D in q["Ds"]:
        spec = classes.DeterminantSpec(q["M"], D)
        row.append((enumeration.enumerate_iwr(spec, include_square_class=True), enumeration.count_report(spec)))
    return row


def shape_lattice(q):
    """The lattice a shape names: hexagonal/square at scale k, or one of a determinant's."""
    if q["shape"] == "det":
        lattices = enumeration.enumerate_iwr(classes.DeterminantSpec(q["M"], q["D"]))
        return lattices[q["index"] % len(lattices)]
    p, r, qq, D = HEXAGONAL if q["shape"] == "hexagonal" else SQUARE
    return classes.IwrLattice(classes.SimilarityClass(p, r, qq, D), q["k"])


def minimum_and_delta(lat):
    return float(lat.minimum), lat.k * lat.cls.r * math.sqrt(lat.cls.D)


def ask_interference(q):
    lat = shape_lattice(q)
    T, delta = minimum_and_delta(lat)
    if q["kind"] == "zeta":
        eps = q["rel"] * T ** -q["s"]
        return {"lattice": lat, "eps": eps, "result": zeta.epstein_zeta(T, delta, q["s"], eps)}
    if q["kind"] == "snr":
        return {"lattice": lat, "snr_db": zeta.snr(lat, q["eps"])}
    try:
        return {"lattice": lat, "bracket": zeta.epstein_bounds(T, q["s"], q["eps"])}
    except ValueError as exc:
        # seed-commit defect: the constant's radius search gives up for s near 1
        if "tolerance unreachable" in str(exc) and q["s"] < 1.5:
            raise Refused(str(exc)) from exc
        raise


def ask_cli(q, env, cwd, argv=None):
    """One `python -m iwrlat` invocation (or `argv`), waited for.

    `launched` and `exited` bracket it on the monotonic clock, which child
    processes share, so a child's own readings can be placed inside it.
    """
    argv = argv or [sys.executable, "-m", "iwrlat", *q["argv"]]
    launched = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=CEILING_S)
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "launched": launched, "exited": time.perf_counter()}


ASK = {"query": ask_query, "census": ask_census, "interference": ask_interference}
