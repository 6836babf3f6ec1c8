"""Composing similarity classes through the Pell conic.

Points on x^2 - D y^2 = 1 form an abelian group under
(x1, y1) + (x2, y2) = (x1 x2 + D y1 y2, x1 y2 + x2 y1).  Scaling a class
(p, r, q) to the rational point (q/p, r/p) pulls that law back to a
composition on classes of the same type D, written here as compose().
"""

from fractions import Fraction

from iwrlat import SimilarityClass, compose


def pell_add(pt1, pt2, D):
    (x1, y1), (x2, y2) = pt1, pt2
    return (x1 * x2 + D * y1 * y2, x1 * y2 + x2 * y1)


print("The conic group law for D = 3, starting from the fundamental point:")
pt = (Fraction(2), Fraction(1))
acc = pt
for i in range(1, 4):
    print(f"  {i} * (2, 1) = ({acc[0]}, {acc[1]})")
    acc = pell_add(acc, pt, 3)

print()
hexagonal = SimilarityClass(1, 1, 2, 3)
x, y = Fraction(hexagonal.q, hexagonal.p), Fraction(hexagonal.r, hexagonal.p)
print(f"A class maps to the point (q/p, r/p): {hexagonal.triple()} -> ({x}, {y})")

print()
print("Composition of classes (same D, componentwise then divided by the gcd):")
sq = compose(hexagonal, hexagonal)
print(f"  {hexagonal.triple()} o {hexagonal.triple()} = {sq.triple()}")
cube = compose(sq, hexagonal)
print(f"  {sq.triple()} o {hexagonal.triple()} = {cube.triple()}")

a = SimilarityClass(2, 3, 7, 5)
b = SimilarityClass(1, 4, 9, 5)
print(f"  type 5: {a.triple()} o {a.triple()} = {compose(a, a).triple()}")
print(f"  type 5: {a.triple()} o {b.triple()} = {compose(a, b).triple()}")

print()
print("The output angle always lands in the interior band 4p <= q, so composing")
print("never returns a hexagonal class; the semigroup has no identity element:")
for x, y in [(hexagonal, hexagonal), (a, a), (a, b)]:
    z = compose(x, y)
    print(f"  {z.triple()}: 4p = {4 * z.p} <= q = {z.q}")

print()
print("Commutativity and associativity, spot-checked exactly:")
c = compose(a, b)
print(f"  a o b == b o a: {compose(a, b) == compose(b, a)}")
print(f"  (a o b) o c == a o (b o c): {compose(compose(a, b), c) == compose(a, compose(b, c))}")

print()
print("Mixing types or using the square class is refused:")
for bad in [lambda: compose(hexagonal, a), lambda: compose(SimilarityClass(0, 1, 1, 1), SimilarityClass(0, 1, 1, 1))]:
    try:
        bad()
    except ValueError as exc:
        print(f"  {exc}")
