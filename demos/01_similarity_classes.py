"""Similarity-class coordinates for planar integral well-rounded lattices.

A well-rounded plane lattice has two independent shortest vectors; after
rotation, reflection, and scaling, its shape is pinned down by the cosine of
the angle between them.  For integral lattices that cosine is a rational p/q
in [0, 1/2] and the companion identity p^2 + D r^2 = q^2 (D squarefree)
packs the whole similarity class into four integers (p, r, q, D).
"""

from fractions import Fraction

from iwrlat import (
    GramMatrix,
    IwrLattice,
    MnPair,
    SimilarityClass,
    angle_cos,
    angle_sin_sq,
    class_from_mn,
    classify_gram,
    gauss_reduce,
)

hexagonal = SimilarityClass(1, 1, 2, 3)
square = SimilarityClass(0, 1, 1, 1)

print("The two extreme shapes:")
for name, cls in [("hexagonal", hexagonal), ("square", square)]:
    print(
        f"  {name:10s} (p,r,q,D) = {(cls.p, cls.r, cls.q, cls.D)}"
        f"  cos = {angle_cos(cls)}  sin^2 = {angle_sin_sq(cls)}"
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
for m, n in [(2, 1), (3, 1), (5, 2), (5, 3)]:
    cls = class_from_mn(MnPair(m, n, 5))
    print(f"  (m,n) = ({m},{n})  ->  {cls.triple()}  cos = {Fraction(cls.p, cls.q)}")

print()
print("Classification works backwards from any integral Gram matrix, reducing")
print("it first so the shortest vectors are the basis:")
messy = GramMatrix(61, 90, 180)
reduced, transform = gauss_reduce(messy)
print(f"  {messy.rows()}  reduces to  {reduced.rows()}  via  {transform}")
cls, k = classify_gram(messy)
print(f"  class {cls.triple()} of type {cls.D}, scale k = {k}")
print(f"  round trip: IwrLattice(cls, k).gram() -> {IwrLattice(cls, k).gram().rows()}")

print()
print("Non-well-rounded input is rejected rather than coerced:")
try:
    classify_gram(GramMatrix(2, 1, 3))
except ValueError as exc:
    print(f"  classify_gram([[2,1],[1,3]]) -> {exc}")
