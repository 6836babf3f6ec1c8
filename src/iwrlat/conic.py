"""Composition of well-rounded similarity classes via the Pell conic x^2 - D y^2 = 1.

A class (p, r, q, D) with p > 0 maps to the rational conic point (q/p, r/p).
The group law (x1, y1) + (x2, y2) = (x1 x2 + D y1 y2, x1 y2 + x2 y1), with
denominators cleared, induces a commutative, associative law on classes of
the same type D; compose computes it on the integers (p, r, q) alone, with
no rational arithmetic.  The square class (p = 0) has no conic
representative and is rejected.  The point addition itself is the
independent check of compose in the test oracles.
"""

from __future__ import annotations

from math import gcd

from .classes import SimilarityClass

__all__ = ["MismatchedTypeError", "compose"]


class MismatchedTypeError(ValueError):
    """Operands live on conics of different type D."""


def compose(c1: SimilarityClass, c2: SimilarityClass) -> SimilarityClass:
    """Induced composition: (p1 p2, r1 q2 + r2 q1, q1 q2 + D r1 r2) / gcd.

    Closed on classes with p > 0 of equal type D; the result always satisfies
    the sharper bound 4p <= q, so iterated compositions drift toward pi/2.
    """
    if c1.D != c2.D:
        raise MismatchedTypeError(f"cannot compose type {c1.D} with type {c2.D}")
    if c1.p == 0 or c2.p == 0:
        raise ValueError("square class (p = 0) cannot be composed")
    D = c1.D
    p = c1.p * c2.p
    r = c1.r * c2.q + c2.r * c1.q
    q = c1.q * c2.q + D * c1.r * c2.r
    g = gcd(gcd(p, r), q)
    return SimilarityClass(p // g, r // g, q // g, D)
