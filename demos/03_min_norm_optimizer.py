"""Maximizing the minimum norm at a fixed determinant.

Among all integral well-rounded lattices with determinant M * sqrt(D), the
densest one is the one with the largest minimum norm k * q.  The search
space is the finite set of generator pairs, so the optimizer is exact; an
argmax over the full enumeration double-checks it here.
"""

from fractions import Fraction
from math import sqrt

from iwrlat import DeterminantSpec, InadmissibleDeterminantError, enumerate_iwr, optimize


def bound(spec):
    """2 M sqrt(D) / sqrt(3), above every minimum; attained only by hexagonal classes."""
    return 2.0 * spec.M * sqrt(spec.D) / sqrt(3.0)


REFERENCE = [(24, 5), (24, 7), (20, 11), (24, 13), (24, 17), (105, 19), (96, 23)]

print("Reference determinants and their optima:")
print(f"  {'det':>12s} {'minimum':>8s} {'class':>15s} {'scale k/q':>10s} {'< bound':>9s}")
for M, D in REFERENCE:
    spec = DeterminantSpec(M, D)
    lat = optimize(spec).lattice
    assert lat == max(enumerate_iwr(spec), key=lambda cand: cand.minimum), (M, D)
    print(
        f"  {f'{M}*sqrt({D})':>12s} {lat.minimum:8d} {str(lat.cls.triple()):>15s}"
        f" {str(Fraction(lat.k, lat.cls.q)):>10s} {bound(spec):9.2f}"
    )

print()
print("Two of those rows differ from the values in circulation:")
print("  24*sqrt(13): minimum 98 is right, but the class behind it is")
print("               (23, 12, 49) at k = 2; no integer r makes (7, r, 15)")
print("               solve p^2 + 13 r^2 = q^2.")
lat = optimize(DeterminantSpec(24, 17)).lattice
print(f"  24*sqrt(17): the quoted minimum 104 is beaten by {lat.minimum},")
print(f"               witness class {lat.cls.triple()} at k = {lat.k}:")
print(f"               gram {lat.gram().rows()}, det^2 = {lat.gram().det()} = 24^2 * 17.")

print()
print("The candidates it beat, in full:")
for cand in enumerate_iwr(DeterminantSpec(24, 17)):
    marker = "  <- optimum" if cand == lat else ""
    print(f"  k = {cand.k:2d}  class {str(cand.cls.triple()):>15s}  minimum {cand.minimum}{marker}")

print()
print("Hexagonal-achieving determinants meet the unconditional bound exactly:")
spec = DeterminantSpec(1, 3)
lat = optimize(spec).lattice
print(f"  1*sqrt(3): minimum {lat.minimum}, bound {bound(spec):.6f}, class {lat.cls.triple()}")

print()
print("Empty determinants raise instead of guessing:")
try:
    optimize(DeterminantSpec(1, 2))
except InadmissibleDeterminantError as exc:
    print(f"  optimize(1, 2) -> {exc}")
