"""Enumerating all integral well-rounded lattices of a fixed determinant.

The determinant of an integral well-rounded plane lattice is M * sqrt(D)
with integers M >= 1 and squarefree D >= 1, and for each divisor r of M the
classes that can appear are exactly the primitive solutions of
q^2 - p^2 = r^2 D in the angle window.  Each is a coprime splitting: q + p
and q - p split r^2 D into coprime factors (or, halved, r^2 D / 4 when
8 | r^2 D).  So enumeration builds the classes from the prime powers of
r^2 D, and counting becomes multiplicative number theory: dropping the gcd
condition gives the windowed count, the divisor sum of the class counts.
"""

from iwrlat import DeterminantSpec, count_report, enumerate_iwr, enumerate_iwr_via_mn

spec = DeterminantSpec(24, 5)
lattices = enumerate_iwr(spec)
print(f"All lattices with determinant {spec.M}*sqrt({spec.D}):")
for lat in lattices:
    c = lat.cls
    print(
        f"  k = {lat.k:2d}  class {str(c.triple()):>14s}  minimum {lat.minimum}"
        f"  gram {lat.gram().rows()}"
    )

print()
print("An independent generator-pair sweep lands on the same set:")
same = enumerate_iwr_via_mn(spec) == lattices
print(f"  enumerate_iwr_via_mn(24, 5) == enumerate_iwr(24, 5): {same}")

print()
print("Per-divisor counts for M = 24, D = 5.  f counts classes, f1 drops the")
print("angle window, f2 drops the gcd condition; f <= min(f1, f2) always:")
rep = count_report(spec)
for r, f, f1, f2 in rep.rows:
    witnesses = [(lat.cls.p, lat.cls.q) for lat in lattices if lat.cls.r == r]
    print(f"  r = {r:2d}: f = {f}  f1 = {f1}  f2 = {f2}  witnesses {witnesses}")

print()
print(f"Report for {spec.M}*sqrt({spec.D}): total {rep.total} classes,")
print(f"  divisor bound {rep.bound} (never exceeded for D > 1),")
print(f"  size diagnostic {rep.diagnostic:.3f} (reported, not asserted).")

print()
print("Some determinants are empty; q^2 - p^2 = 2 has no integer solutions:")
print(f"  enumerate_iwr(1, 2) = {enumerate_iwr(DeterminantSpec(1, 2))}")
print(f"  count_report(1, 2).bound = {count_report(DeterminantSpec(1, 2)).bound} (a bound, not a count)")

print()
print("The counts interlock through divisor sums (Mobius-invertible):")
r = spec.M
lhs = rep.rows[-1][3]  # the rows ascend in r, so r = M is the last
rhs = sum(f for _, f, _, _ in rep.rows)  # r/g runs over the divisors of r as g does
print(f"  f2({r}) = {lhs} = sum of f({r}/g) over g | {r} = {rhs}")
