"""Epstein zeta, certified brackets, and transmitter-grid SNR.

Placing transmitters on a lattice, the total interference power at a node is
the Epstein zeta value E(s) = sum over nonzero lattice vectors of |v|^(-2s),
and the signal-to-noise figure is 10 log10(1 / (9 E(2))) dB.  Every zeta
evaluation below comes from the Chowla-Selberg expansion and carries a
certified error bound (truncation and rounding), so comparisons between
lattices can be made rigorous rather than eyeballed.
"""

import math

from iwrlat import (
    DeterminantSpec,
    IwrLattice,
    SimilarityClass,
    enumerate_iwr,
    epstein_bounds,
    epstein_zeta,
    monotonicity_check,
    packing_density,
    snr,
)

hexagonal = SimilarityClass(1, 1, 2, 3)
square = SimilarityClass(0, 1, 1, 1)

print("E(2) for the two named shapes at minimum 1 (closed forms are")
print("6 zeta(2) L_{-3}(2) = 7.7111457... and 4 zeta(2) beta(2) = 6.0268120...):")
for name, delta in [("hexagonal", math.sqrt(3) / 2), ("square", 1.0)]:
    z = epstein_zeta(1.0, delta, 2.0, 1e-8)
    print(f"  {name:10s} E(2) = {z.value:.9f} +- {z.abs_error_bound:.1e} ({z.truncation_radius} K-terms)")

print()
print("An angle-free bracket pins E(s) for every well-rounded shape of a given")
print("minimum, without knowing the angle.  Its ends are the square and the")
print("hexagonal values, rounded outward:")
for s in (1.5, 2.0, 3.0):
    lo, hi = epstein_bounds(1.0, s)
    print(f"  s = {s}: {lo:.4f} <= E(s) <= {hi:.4f}")

print()
spec = DeterminantSpec(24, 5)
print(f"SNR ranking of the four lattices with determinant {spec.M}*sqrt({spec.D}):")
print("(equal determinant means equal transmitter density, so this is a fair fight)")
rows = []
for lat in enumerate_iwr(spec):
    rows.append((snr(lat, 1e-9), lat))
for value, lat in sorted(rows, reverse=True):
    print(
        f"  minimum {lat.minimum}: SNR {value:8.4f} dB  class {str(lat.cls.triple()):>15s}"
        f"  packing density {packing_density(lat):.4f}"
    )

print()
print("The ranking above follows the minimum norm.  At s = 3 that ordering is")
print("certified (gaps exceed the summed error bounds); at s = 2 it is reported")
print("as an observation only:")
for s in (3.0, 2.0):
    rep = monotonicity_check(spec, s)
    print(
        f"  s = {s}: mode {rep.mode}, decreasing {rep.decreasing_observed},"
        f" certified {rep.certified}"
    )

print()
print("Scaling the lattice by c multiplies SNR by 40 log10(c) dB; the shape away")
print("from the optimum costs real decibels at fixed density:")
best = IwrLattice(SimilarityClass(29, 24, 61, 5), 1)
worst = IwrLattice(SimilarityClass(1, 4, 9, 5), 6)
print(f"  best vs worst at det 24*sqrt(5): {snr(best, 1e-9) - snr(worst, 1e-9):.4f} dB")
print(f"  doubling the best lattice: {snr(IwrLattice(best.cls, 4), 1e-9) - snr(best, 1e-9):.4f} dB"
      f" (exactly 40 log10 2 = {40 * math.log10(2):.4f})")
