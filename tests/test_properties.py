"""Hypothesis properties across the layers, derandomized and bounded so Tier-1 stays fast.

- classify_gram of a lattice's Gram matrix, after a random unimodular change
  of basis, gives back the lattice's (class, k);
- compose is closed on the conic of one D, agrees with point addition there,
  and is associative;
- epstein_zeta agrees with the direct shell sum within the sum of the two
  certified bounds.
"""

import math
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import class_to_point, pell_add, shell_sum

from iwrlat.arith import is_squarefree
from iwrlat.classes import DeterminantSpec, GramMatrix, SimilarityClass, classify_gram
from iwrlat.conic import compose
from iwrlat.enumeration import enumerate_iwr
from iwrlat.zeta import epstein_zeta

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
SQUAREFREE_D = [d for d in range(1, 31) if is_squarefree(d)]

# elementary unimodular steps: add t times one basis vector to the other, turn the basis, or flip one vector
STEP = {"shear12": lambda t: (1, t, 0, 1), "shear21": lambda t: (1, 0, t, 1), "turn": lambda t: (0, 1, -1, 0),
        "flip": lambda t: (1, 0, 0, -1)}
steps = st.lists(st.tuples(st.sampled_from(sorted(STEP)), st.integers(-4, 4)), max_size=6)


def _change_basis(a: int, b: int, c: int, ops) -> GramMatrix:
    """U^T [[a, b], [b, c]] U for U the product of ops, det U = +-1."""
    u = (1, 0, 0, 1)
    for kind, t in ops:
        e = STEP[kind](t)
        u = (u[0] * e[0] + u[1] * e[2], u[0] * e[1] + u[1] * e[3], u[2] * e[0] + u[3] * e[2], u[2] * e[1] + u[3] * e[3])
    u11, u12, u21, u22 = u
    # columns x = (u11, u21) and y = (u12, u22) of U: the new form is [[Q(x), B(x, y)], [B(x, y), Q(y)]]
    return GramMatrix(
        a * u11 * u11 + 2 * b * u11 * u21 + c * u21 * u21,
        a * u11 * u12 + b * (u11 * u22 + u21 * u12) + c * u21 * u22,
        a * u12 * u12 + 2 * b * u12 * u22 + c * u22 * u22,
    )


@PROPERTY
@given(M=st.integers(1, 400), D=st.sampled_from(SQUAREFREE_D), pick=st.integers(0, 10**6), ops=steps)
def test_classify_gram_undoes_a_unimodular_change_of_basis(M, D, pick, ops):
    lattices = enumerate_iwr(DeterminantSpec(M, D))
    if not lattices:
        return
    lat = lattices[pick % len(lattices)]
    g = lat.gram()
    assert classify_gram(_change_basis(g.a, g.b, g.c, ops)) == (lat.cls, lat.k)


@cache
def _classes_of(D: int) -> list[SimilarityClass]:
    """The classes with p > 0 of the determinants M sqrt(D), M < 60, each once, by (q, p)."""
    found = {lat.cls for M in range(1, 60) for lat in enumerate_iwr(DeterminantSpec(M, D), include_square_class=False)}
    return sorted(found, key=lambda c: (c.q, c.p))


@PROPERTY
@given(D=st.sampled_from([2, 3, 5, 7, 13, 29]), picks=st.tuples(*[st.integers(0, 10**6)] * 3))
def test_compose_is_closed_on_the_conic_and_associative(D, picks):
    pool = _classes_of(D)
    a, b, c = (pool[i % len(pool)] for i in picks)
    ab = compose(a, b)
    assert type(ab) is SimilarityClass and ab.D == D and ab.p > 0
    assert ab.p * ab.p + D * ab.r * ab.r == ab.q * ab.q and math.gcd(ab.p, ab.q) == 1
    assert class_to_point(ab) == pell_add(class_to_point(a), class_to_point(b), D)
    assert compose(ab, c) == compose(a, compose(b, c))


@PROPERTY
@given(
    T=st.floats(1.0, 50.0),
    shape=st.floats(math.sqrt(3) / 2, 1.0),
    s=st.floats(1.5, 8.0),
)
def test_epstein_zeta_agrees_with_the_shell_sum(T, shape, s):
    delta = T * shape
    z = epstein_zeta(T, delta, s, 1e-10 * T**-s)
    o = shell_sum(T, delta, s, 16)
    assert abs(z.value - o.value) <= z.abs_error_bound + o.error_bound
