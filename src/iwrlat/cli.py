"""Command line front end.

Exit codes: 0 success, 2 invalid input (bad flags, non-squarefree D,
non-positive-definite Gram, off-conic operands), 3 empty result set
(no integral well-rounded lattice has the requested determinant).

Beyond `classes` and `optimize`, each handler imports the layers it calls
where it calls them, so an invocation loads only those: interpreter start
and imports are most of a small invocation's time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from math import isqrt

from .classes import (
    DeterminantSpec,
    GramMatrix,
    IwrLattice,
    SimilarityClass,
    classify_gram,
)
from .optimize import InadmissibleDeterminantError, optimize

__all__ = ["run", "main"]

# published reference rows the table1 subcommand cross-checks:
# (M, D, min_norm, scale numerator/denominator, class p, class q)
_REFERENCE_ROWS = (
    (24, 5, 61, 1, 61, 29, 61),
    (24, 7, 69, 3, 23, 9, 23),
    (20, 11, 75, 1, 3, 7, 15),
    (24, 13, 98, 2, 49, 7, 15),
    (24, 17, 104, 8, 13, 4, 13),
    (105, 19, 510, 15, 34, 15, 34),
    (96, 23, 522, 6, 87, 41, 87),
)


def _class_dict(cls: SimilarityClass) -> dict:
    return {"p": cls.p, "r": cls.r, "q": cls.q, "D": cls.D}


def _lattice_record(lat: IwrLattice, density: bool = False, snr_eps: float | None = None) -> dict:
    c = lat.cls
    rec = {
        "p": c.p,
        "r": c.r,
        "q": c.q,
        "D": c.D,
        "k": lat.k,
        "min_norm": lat.minimum,
        "det": {"M": lat.k * c.r, "D": c.D},  # lat.determinant, without re-validating D
        "cos_theta": f"{c.p}/{c.q}",
        "gram": lat.gram().rows(),
    }
    if density:
        from .zeta import packing_density

        rec["packing_density"] = packing_density(lat)
    if snr_eps is not None:
        from .zeta import snr

        rec["snr_db"] = snr(lat, snr_eps)
    return rec


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _flatten_record(rec: dict) -> dict:
    flat = dict(rec)
    det = flat.pop("det")
    flat["det_M"], flat["det_D"] = det["M"], det["D"]
    flat["gram"] = json.dumps(flat["gram"], separators=(",", ":"))
    return flat


def _emit_records_csv(records: list[dict]) -> None:
    import csv

    flats = [_flatten_record(r) for r in records]
    base = ["p", "r", "q", "D", "k", "min_norm", "det_M", "det_D", "cos_theta", "gram"]
    extra = [k for k in ("packing_density", "snr_db") if flats and k in flats[0]]
    writer = csv.DictWriter(sys.stdout, fieldnames=base + extra)
    writer.writeheader()
    writer.writerows(flats)


def _parse_gram(text: str) -> GramMatrix:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--gram expects a,b,c, got {text!r}")
    a, b, c = (int(v) for v in parts)
    return GramMatrix(a, b, c)


def _parse_class(text: str, D: int) -> SimilarityClass:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected p,q, got {text!r}")
    p, q = (int(v) for v in parts)
    return _class_from_pq(p, q, D)


def _class_from_pq(p: int, q: int, D: int) -> SimilarityClass:
    if D < 1:
        raise ValueError(f"D must be squarefree >= 1, got {D}")
    rem = q * q - p * p
    if rem <= 0 or rem % D:
        raise ValueError(f"q^2 - p^2 = {rem} is not a positive multiple of D = {D}")
    r = isqrt(rem // D)
    if r * r * D != rem:
        raise ValueError(f"(q^2 - p^2)/D = {rem // D} is not a perfect square")
    return SimilarityClass(p, r, q, D)


def _cmd_classify(args) -> int:
    cls, k = classify_gram(_parse_gram(args.gram))
    _emit_json({"class": _class_dict(cls), "k": k, "min_norm": k * cls.q})
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import enumerate_iwr

    spec = DeterminantSpec(args.M, args.D)
    lattices = enumerate_iwr(spec, include_square_class=args.include_square_class)
    records = [_lattice_record(lat, args.density, args.snr_eps) for lat in lattices]
    if args.format == "csv":
        _emit_records_csv(records)
    else:
        _emit_json(records)
    return 0 if lattices else 3


def _cmd_count(args) -> int:
    from .enumeration import count_report

    rep = count_report(DeterminantSpec(args.M, args.D))
    _emit_json(
        {
            "M": rep.spec.M,
            "D": rep.spec.D,
            "rows": [
                {"r": r, "n_classes": f, "n_primitive": f1, "n_windowed": f2}
                for (r, f, f1, f2) in rep.rows
            ],
            "total": rep.total,
            "square_classes": rep.square_classes,
            "bound": str(rep.bound),
            "diagnostic": rep.diagnostic,
        }
    )
    return 0


def _cmd_optimize(args) -> int:
    result = optimize(DeterminantSpec(args.M, args.D))
    rec = _lattice_record(result.lattice, args.density, args.snr_eps)
    if args.format == "csv":
        _emit_records_csv([rec])
    else:
        rec["maximizers"] = [_class_dict(c) for c in result.maximizers]
        _emit_json(rec)
    return 0


def _cmd_zeta(args) -> int:
    from .zeta import epstein_zeta

    cls = _class_from_pq(args.p, args.q, args.D)
    lat = IwrLattice(cls, args.k)
    delta = lat.k * cls.r * math.sqrt(cls.D)
    z = epstein_zeta(float(lat.minimum), delta, args.s, args.eps)
    _emit_json(
        {
            "class": _class_dict(cls),
            "k": lat.k,
            "s": z.s,
            "T": z.T,
            "Delta": z.Delta,
            "value": z.value,
            "abs_error_bound": z.abs_error_bound,
            "truncation_radius": z.truncation_radius,
        }
    )
    return 0


def _cmd_snr(args) -> int:
    cls = _class_from_pq(args.p, args.q, args.D)
    lat = IwrLattice(cls, args.k)
    rec = _lattice_record(lat, density=True, snr_eps=args.eps)
    _emit_json(rec)
    return 0


def _cmd_compose(args) -> int:
    from .conic import compose

    c1 = _parse_class(args.c1, args.D)
    c2 = _parse_class(args.c2, args.D)
    _emit_json({"class": _class_dict(compose(c1, c2))})
    return 0


def _table1_rows() -> list[dict]:
    rows = []
    for M, D, ref_min, ref_num, ref_den, ref_p, ref_q in _REFERENCE_ROWS:
        lat = optimize(DeterminantSpec(M, D)).lattice
        c = lat.cls
        if lat.minimum != ref_min:
            discrepancy = "min_norm corrected"
        elif (c.p, c.q) != (ref_p, ref_q):
            discrepancy = "class corrected"
        elif lat.k * ref_den != ref_num * c.q:
            discrepancy = "scale corrected"
        else:
            discrepancy = None
        rows.append(
            {
                "M": M,
                "D": D,
                "min_norm": lat.minimum,
                "class": _class_dict(c),
                "k": lat.k,
                "scale_num": lat.k,
                "scale_den": c.q,
                "discrepancy": discrepancy,
            }
        )
    return rows


def _cmd_table1(args) -> int:
    rows = _table1_rows()
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["M", "D", "min_norm", "p", "r", "q", "k", "scale_num", "scale_den", "discrepancy"])
        for row in rows:
            c = row["class"]
            writer.writerow(
                [row["M"], row["D"], row["min_norm"], c["p"], c["r"], c["q"], row["k"],
                 row["scale_num"], row["scale_den"], row["discrepancy"] or ""]
            )
    else:
        _emit_json(rows)
    return 0


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_extras(sub) -> None:
    sub.add_argument("--density", action="store_true", help="include packing_density")
    sub.add_argument("--snr-eps", type=float, default=None, metavar="EPS",
                     help="include snr_db computed to this zeta tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwr",
        description="Integral well-rounded planar lattices: classify, enumerate, optimize, compose, zeta/SNR.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="recover (class, k) from a Gram matrix")
    p.add_argument("--gram", required=True, metavar="a,b,c")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("enumerate", help="list all lattices with determinant M*sqrt(D)")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--include-square-class", action="store_true")
    _add_extras(p)
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("count", help="per-divisor counting report for M*sqrt(D)")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser("optimize", help="lattice of maximal minimum norm for M*sqrt(D)")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    _add_extras(p)
    _add_format(p)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("zeta", help="Epstein zeta with a certified error bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(func=_cmd_zeta)

    p = subs.add_parser("snr", help="interference SNR in dB at s = 2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(func=_cmd_snr)

    p = subs.add_parser("compose", help="compose two classes of the same type D")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--c1", required=True, metavar="p,q")
    p.add_argument("--c2", required=True, metavar="p,q")
    p.set_defaults(func=_cmd_compose)

    p = subs.add_parser("table1", help="optimizers for the built-in reference determinants")
    _add_format(p)
    p.set_defaults(func=_cmd_table1)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InadmissibleDeterminantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
