"""Exact arithmetic for planar integral well-rounded lattices.

A planar lattice is well rounded when its two successive minima agree.
Scaling any such lattice so the Gram matrix becomes integral leads to a
two-parameter family indexed by an exact similarity invariant; this
package enumerates, counts, optimizes, and composes those invariants and
evaluates the associated Epstein zeta function with certified error.

All names are re-exported from here.  `import iwrlat` loads `arith`,
`classes` and `optimize`, which every `iwr` subcommand needs; `conic`,
`enumeration` and `zeta` load on first use of one of their names or of the
submodule itself (PEP 562 `__getattr__`), so `iwr classify` never loads the
zeta layer.  `iwrlat.optimize` is the function; its module is
`sys.modules["iwrlat.optimize"]`.

The value classes (`Factorization`, `SimilarityClass`, ..., `CountReport`)
are immutable, slotted and compared by field, like the frozen dataclasses
they replaced, but assigning a field raises a plain AttributeError, not
dataclasses.FrozenInstanceError (see `arith`).  Only the zeta layer, whose
results callers pass to `dataclasses.replace`, loads `dataclasses`.  Medians
of 21 alternating runs without a bytecode cache (2 cores, Python 3.11.7),
frozen dataclasses -> slotted classes: `-X importtime` of `import iwrlat`
26.0 -> 10.8 ms; `python -m iwrlat <subcommand>` wall time, mean over the 8
subcommands, 112.9 -> 95.4 ms.  Enumeration refuses a determinant whose class
bound exceeds 2^20, and the (m, n) route of `optimize` and
`enumerate_iwr_via_mn` one whose scan may exceed 2^30 steps, with
ValueError, before doing the work.
"""

from importlib import import_module

from . import arith, classes, optimize

__version__ = "0.1.0"

# public names by layer, in the order of __all__
_LAYERS = {
    "arith": ("Factorization", "factorize", "is_prime", "is_squarefree", "squarefree_part"),
    "classes": (
        "DeterminantSpec", "GramMatrix", "IwrLattice", "MnPair", "NotIntegralError",
        "NotPositiveDefiniteError", "NotWellRoundedError", "SimilarityClass", "class_from_mn",
        "classify_gram", "e_exponent",
    ),
    "conic": ("MismatchedTypeError", "compose"),
    "enumeration": ("CountReport", "count_report", "enumerate_iwr", "mobius_identity_check"),
    "optimize": (
        "InadmissibleDeterminantError", "OptimizeResult", "admissible_pairs", "enumerate_iwr_via_mn", "optimize",
    ),
    "zeta": (
        "MonotonicityReport", "ZetaResult", "epstein_bounds", "epstein_zeta", "monotonicity_check",
        "packing_density", "snr",
    ),
}
_OWNER = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = [*_OWNER, "__version__"]

# the names of the layers loaded above; the function `optimize` replaces the submodule
for _module in (arith, classes, optimize):
    _names = _LAYERS[_module.__name__.rpartition(".")[2]]
    globals().update((name, getattr(_module, name)) for name in _names)
del _module, _names


def __getattr__(name):
    # looked up on every access and never stored here, so a name rebound in
    # its layer's module (a tracing wrapper, say) is seen, and undone, there alone
    layer = name if name in _LAYERS else _OWNER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{layer}", __name__)
    return module if layer == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAYERS, *_OWNER})
