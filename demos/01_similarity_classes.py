"""Similarity-class coordinates for planar integral well-rounded lattices.

A well-rounded plane lattice has two independent shortest vectors; after
rotation, reflection, and scaling, its shape is pinned down by the cosine of
the angle between them.  For integral lattices that cosine is a rational p/q
in [0, 1/2] and the companion identity p^2 + D r^2 = q^2 (D squarefree)
packs the whole similarity class into four integers (p, r, q, D).
"""

from fractions import Fraction
from math import gcd

from iwrlat import GramMatrix, IwrLattice, SimilarityClass, classify_gram

hexagonal = SimilarityClass(1, 1, 2, 3)
square = SimilarityClass(0, 1, 1, 1)

print("The two extreme shapes:")
for name, cls in [("hexagonal", hexagonal), ("square", square)]:
    print(
        f"  {name:10s} (p,r,q,D) = {(cls.p, cls.r, cls.q, cls.D)}"
        f"  cos = {Fraction(cls.p, cls.q)}  sin^2 = {Fraction(cls.r * cls.r * cls.D, cls.q * cls.q)}"
    )

print()
print("Every class has a minimal integral representative with Gram [[q,p],[p,q]],")
print("and scaling by sqrt(k) multiplies the Gram by k:")
lat = IwrLattice(hexagonal, 1)
print(f"  minimal hexagonal: gram = {lat.gram().rows()}, minimum = {lat.minimum}")
lat3 = IwrLattice(hexagonal, 3)
print(
    f"  scaled by sqrt(3): gram = {lat3.gram().rows()}, minimum = {lat3.minimum},"
    f" determinant = {lat3.determinant.M}*sqrt({lat3.determinant.D})"
)

print()
print("Generator pairs: coprime (m, n) in the band D n^2 <= 3 m^2 <= 9 D n^2")
print("produce every class of type D.  A few of type 5:")
D = 5
for m, n in [(2, 1), (3, 1), (5, 2), (5, 3)]:
    # (|m^2 - D n^2|, 2mn, m^2 + D n^2) divided by gcd(m, D), and by 2 when D, m and n are all odd
    g = gcd(m, D) * (2 if D * m * n % 2 else 1)
    cls = SimilarityClass(abs(m * m - D * n * n) // g, 2 * m * n // g, (m * m + D * n * n) // g, D)
    print(f"  (m,n) = ({m},{n})  ->  {cls.triple()}  cos = {Fraction(cls.p, cls.q)}")

print()
print("Classification works backwards from any integral Gram matrix, reducing")
print("it first so the shortest vectors are the basis:")
messy = GramMatrix(61, 90, 180)
cls, k = classify_gram(messy)
reduced = IwrLattice(cls, k).gram()  # a reduced well-rounded form is k [[q, p], [p, q]]
print(f"  {messy.rows()}  reduces to  {reduced.rows()}")
print(f"  class {cls.triple()} of type {cls.D}, scale k = {k}")
print(f"  round trip: IwrLattice(cls, k).gram() -> {reduced.rows()}")

print()
print("Non-well-rounded input is rejected rather than coerced:")
try:
    classify_gram(GramMatrix(2, 1, 3))
except ValueError as exc:
    print(f"  classify_gram([[2,1],[1,3]]) -> {exc}")
