"""Exact arithmetic for planar integral well-rounded lattices.

A planar lattice is well rounded when its two successive minima agree.
Scaling any such lattice so the Gram matrix becomes integral leads to a
two-parameter family indexed by an exact similarity invariant; this
package enumerates, counts, optimizes, and composes those invariants and
evaluates the associated Epstein zeta function with certified error.
"""

from .arith import (
    Factorization,
    divisors,
    factorize,
    is_prime,
    is_squarefree,
    mobius,
    omega,
    squarefree_part,
    tau,
)
from .classes import (
    DeterminantSpec,
    GramMatrix,
    IwrLattice,
    MnPair,
    NotIntegralError,
    NotPositiveDefiniteError,
    NotWellRoundedError,
    SimilarityClass,
    angle_cos,
    angle_sin_sq,
    class_from_mn,
    classify_gram,
    e_exponent,
    gauss_reduce,
)
from .conic import MismatchedTypeError, class_to_point, compose, pell_add
from .enumeration import (
    CountReport,
    count_classes,
    count_primitive,
    count_report,
    count_windowed,
    enumerate_iwr,
    enumerate_iwr_via_mn,
    mobius_identity_check,
    solutions_for_r,
)
from .optimize import (
    InadmissibleDeterminantError,
    OptimizeResult,
    admissible_pairs,
    optimize,
    trivial_bound,
)
from .zeta import (
    MonotonicityReport,
    ZetaResult,
    epstein_bounds,
    epstein_zeta,
    monotonicity_check,
    packing_density,
    snr,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "divisors",
    "factorize",
    "is_prime",
    "is_squarefree",
    "mobius",
    "omega",
    "squarefree_part",
    "tau",
    "DeterminantSpec",
    "GramMatrix",
    "IwrLattice",
    "MnPair",
    "NotIntegralError",
    "NotPositiveDefiniteError",
    "NotWellRoundedError",
    "SimilarityClass",
    "angle_cos",
    "angle_sin_sq",
    "class_from_mn",
    "classify_gram",
    "e_exponent",
    "gauss_reduce",
    "MismatchedTypeError",
    "class_to_point",
    "compose",
    "pell_add",
    "CountReport",
    "count_classes",
    "count_primitive",
    "count_report",
    "count_windowed",
    "enumerate_iwr",
    "enumerate_iwr_via_mn",
    "mobius_identity_check",
    "solutions_for_r",
    "InadmissibleDeterminantError",
    "OptimizeResult",
    "admissible_pairs",
    "optimize",
    "trivial_bound",
    "MonotonicityReport",
    "ZetaResult",
    "epstein_bounds",
    "epstein_zeta",
    "monotonicity_check",
    "packing_density",
    "snr",
    "__version__",
]
