"""iwrlat runs on the standard library alone, and loads each layer on first use.

Each probe runs in a fresh interpreter, so modules loaded by other tests in
this process cannot hide or fake an import.  The value classes and the zeta
layer's results are slotted records, not dataclasses, so neither
`dataclasses` nor the `inspect` it imports is loaded.  The dependency guard
also reads pyproject.toml and every import statement under src/iwrlat.  The
surface guard keeps the package's __all__ equal to the union of its modules'
lists, and pins it to an explicit list, so a name cannot join or leave
unnoticed.  Nor does `import iwrlat` load `typing`: `OptimizeResult` is a
plain namedtuple.
"""

import ast
import functools
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_PROBE = """
import contextlib, io, json, sys
arg = json.loads(sys.argv[1])
code = None
if isinstance(arg, list):
    import iwrlat.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = iwrlat.cli.run(arg)
else:
    import iwrlat
    exec(arg or "")
modules = sorted(m for m in sys.modules if m == "iwrlat" or m.startswith("iwrlat."))
stdlib = [m for m in ("dataclasses", "inspect") if m in sys.modules]
exact = [m for m in ("fractions", "decimal") if m in sys.modules]
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "modules": modules, "stdlib": stdlib, "exact": exact}))
"""


def _probe(arg):
    """Run the CLI on an argv list, or a statement after `import iwrlat`, in a fresh interpreter."""
    return _run_probe(json.dumps(arg))


@functools.lru_cache(maxsize=None)
def _run_probe(arg_json):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, arg_json],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded(*layers):
    """What `import iwrlat` loads, plus `layers`."""
    return sorted(["iwrlat", "iwrlat.arith", "iwrlat.classes", "iwrlat.optimize", *(f"iwrlat.{m}" for m in layers)])


HEX_ARGS = ["--p", "1", "--q", "2", "--D", "3", "--k", "1"]

# argv, exit code, the layers it loads beyond `import iwrlat.cli`
SUBCOMMANDS = [
    (["classify", "--gram", "2,1,2"], 0, ()),
    (["enumerate", "--M", "24", "--D", "5"], 0, ("enumeration",)),
    (["enumerate", "--M", "1", "--D", "2"], 3, ("enumeration",)),
    (["count", "--M", "24", "--D", "5"], 0, ("enumeration",)),
    (["optimize", "--M", "24", "--D", "5"], 0, ()),
    (["optimize", "--M", "24", "--D", "5", "--density"], 0, ("zeta",)),
    (["compose", "--D", "3", "--c1", "1,2", "--c2", "1,2"], 0, ("conic",)),
    (["table1"], 0, ()),
    # the shell sum exited 2 here; the Chowla-Selberg sum answers
    (["zeta", *HEX_ARGS, "--s", "1.5", "--eps", "1e-9"], 0, ("zeta",)),
    (["zeta", *HEX_ARGS, "--s", "2"], 0, ("zeta",)),
    (["snr", *HEX_ARGS], 0, ("zeta",)),
    (["enumerate", "--M", "24", "--D", "5", "--snr-eps", "1e-6"], 0, ("enumeration", "zeta")),
]


def _ids(cases):
    return ["_".join(case[0]).replace("--", "") for case in cases]


def test_import_iwrlat_does_not_load_numpy():
    assert _probe(None)["numpy"] is False


def test_epstein_bounds_does_not_load_numpy():
    assert _probe("iwrlat.epstein_bounds(2.0, 1.5, 1e-6)")["numpy"] is False


@pytest.mark.parametrize("argv, code, layers", SUBCOMMANDS, ids=_ids(SUBCOMMANDS))
def test_numpy_not_loaded_without_a_shell_sum(argv, code, layers):
    out = _probe(argv)
    assert (out["code"], out["numpy"]) == (code, False)


def test_import_iwrlat_loads_only_the_layers_every_subcommand_needs():
    assert _probe(None)["modules"] == _loaded()


@pytest.mark.parametrize("argv, code, layers", SUBCOMMANDS, ids=_ids(SUBCOMMANDS))
def test_subcommand_loads_only_the_layers_it_calls(argv, code, layers):
    assert _probe(argv)["modules"] == _loaded("cli", *layers)


def test_the_mn_route_loads_no_further_layer():
    # enumerate_iwr_via_mn lives in optimize, next to its private (m, n) scan
    stmt = "iwrlat.enumerate_iwr_via_mn(iwrlat.DeterminantSpec(24, 5))"
    assert _probe(stmt)["modules"] == _loaded()


def test_compose_loads_neither_fractions_nor_decimal():
    # compose clears the conic's denominators on integers; the point addition is a test oracle
    out = _probe(["compose", "--D", "3", "--c1", "1,2", "--c2", "1,2"])
    assert (out["code"], out["exact"]) == (0, [])


def test_enumerate_loads_neither_fractions_nor_decimal():
    # the class budget is compared on integers; only count_report's bound and the refusal build a Fraction
    out = _probe(["enumerate", "--M", "360", "--D", "5"])
    assert (out["code"], out["exact"]) == (0, [])


def test_import_iwrlat_loads_neither_dataclasses_nor_inspect():
    assert _probe(None)["stdlib"] == []


def test_import_iwrlat_without_site_does_not_load_typing():
    # without -S, site's .pth files may load typing before iwrlat does
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import iwrlat, sys; print('typing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_optimize_result_keeps_its_fields_replace_repr_and_pickling():
    import iwrlat

    result = iwrlat.optimize(iwrlat.DeterminantSpec(24, 5))
    lattice, maximizers = result
    assert result._fields == ("lattice", "maximizers")
    assert (result.lattice, result.maximizers) == (lattice, maximizers)
    assert repr(result) == f"OptimizeResult(lattice={lattice!r}, maximizers={maximizers!r})"
    assert result._replace(maximizers=[]) == (lattice, [])
    assert pickle.loads(pickle.dumps(result)) == result


# ZetaResult and MonotonicityReport are _Value records too, so the zeta layer loads neither
WITHOUT_ZETA = [case for case in SUBCOMMANDS if "zeta" not in case[2]]
WITH_ZETA = [case for case in SUBCOMMANDS if "zeta" in case[2]]


@pytest.mark.parametrize("argv, code, layers", WITHOUT_ZETA, ids=_ids(WITHOUT_ZETA))
def test_subcommand_without_zeta_loads_neither_dataclasses_nor_inspect(argv, code, layers):
    assert _probe(argv)["stdlib"] == []


@pytest.mark.parametrize("argv, code, layers", WITH_ZETA, ids=_ids(WITH_ZETA))
def test_subcommand_on_the_zeta_layer_loads_neither_dataclasses_nor_inspect(argv, code, layers):
    assert _probe(argv)["stdlib"] == []


def test_import_iwrlat_zeta_loads_neither_dataclasses_nor_inspect():
    assert _probe("import iwrlat.zeta")["stdlib"] == []


# each message embeds the repr of a value class, which is the dataclass repr
REPR_ERRORS = [
    (["classify", "--gram", "1,2,1"], b"error: not positive definite: GramMatrix(a=1, b=2, c=1)\n"),
    (
        ["snr", "--p", "3", "--q", "5", "--D", "1", "--k", "1"],
        b"error: 2p > q for SimilarityClass(p=3, r=4, q=5, D=1) (angle outside [pi/3, pi/2])\n",
    ),
    (
        ["compose", "--D", "3", "--c1", "2,4", "--c2", "1,2"],
        b"error: gcd(p, q) != 1 for SimilarityClass(p=2, r=2, q=4, D=3)\n",
    ),
]


@pytest.mark.parametrize("argv, stderr", REPR_ERRORS, ids=_ids(REPR_ERRORS))
def test_error_message_embeds_the_value_repr(argv, stderr):
    proc = subprocess.run(
        [sys.executable, "-m", "iwrlat", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", stderr)


def test_lazy_layers_are_the_package_submodules():
    stmt = "for name in ('conic', 'enumeration', 'zeta'): assert getattr(iwrlat, name) is sys.modules['iwrlat.' + name]"
    assert _probe(stmt)["modules"] == _loaded("conic", "enumeration", "zeta")


def test_lazy_names_follow_a_rebinding_in_their_module():
    stmt = """
import iwrlat.zeta as layer
original = layer.snr
layer.snr = wrapped = lambda *args: original(*args)
assert iwrlat.snr is wrapped
layer.snr = original
assert iwrlat.snr is original and "snr" not in vars(iwrlat)
"""
    _probe(stmt)


def test_package_attribute_optimize_stays_the_function():
    stmt = """
import inspect
import iwrlat.optimize
assert inspect.isfunction(iwrlat.optimize), iwrlat.optimize
import iwrlat.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert iwrlat.cli.run(["optimize", "--M", "24", "--D", "5"]) == 0
assert inspect.isfunction(iwrlat.optimize), iwrlat.optimize
assert iwrlat.optimize is sys.modules["iwrlat.optimize"].optimize
"""
    _probe(stmt)


def test_star_import_and_dir_cover_all_public_names():
    stmt = """
listed = set(dir(iwrlat))
from iwrlat import *
missing = [name for name in iwrlat.__all__ if name not in globals() or name not in listed]
assert not missing, missing
assert {"conic", "enumeration", "zeta"} <= listed
"""
    assert _probe(stmt)["modules"] == _loaded("conic", "enumeration", "zeta")


def test_unknown_attribute_raises_attribute_error():
    stmt = """
try:
    iwrlat.nope
except AttributeError as exc:
    assert "nope" in str(exc)
else:
    raise AssertionError("iwrlat.nope resolved")
assert not hasattr(iwrlat, "nope")
"""
    assert _probe(stmt)["modules"] == _loaded()


def test_results_of_lazy_layers_unpickle_in_a_fresh_interpreter():
    import iwrlat

    report = iwrlat.count_report(iwrlat.DeterminantSpec(24, 5))
    zeta = iwrlat.epstein_zeta(2.0, 3**0.5, 2.0, 1e-8)
    for obj in (report, zeta):
        assert pickle.loads(pickle.dumps(obj)) == obj
    blob = pickle.dumps((report, zeta)).hex()
    stmt = f"""
import pickle
report, zeta = pickle.loads(bytes.fromhex({blob!r}))
assert report == iwrlat.count_report(iwrlat.DeterminantSpec(24, 5)), report
assert zeta == iwrlat.epstein_zeta(2.0, 3**0.5, 2.0, 1e-8), zeta
"""
    assert _probe(stmt)["modules"] == _loaded("enumeration", "zeta")


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert "mpmath" in " ".join(project["optional-dependencies"]["test"])


def test_library_imports_only_the_standard_library():
    modules = sorted((SRC / "iwrlat").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["iwrlat"]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "iwrlat", (path.name, name)


LIBRARY_MODULES = ("arith", "classes", "conic", "enumeration", "optimize", "zeta")

PUBLIC_NAMES = [
    "CountReport", "DeterminantSpec", "Factorization", "GramMatrix", "InadmissibleDeterminantError",
    "IwrLattice", "MismatchedTypeError", "MonotonicityReport", "NotIntegralError",
    "NotPositiveDefiniteError", "NotWellRoundedError", "OptimizeResult", "SimilarityClass", "ZetaResult",
    "__version__", "classify_gram", "compose", "count_report", "enumerate_iwr", "enumerate_iwr_via_mn",
    "epstein_bounds", "epstein_zeta", "factorize", "is_prime", "is_squarefree", "mobius_identity_check",
    "monotonicity_check", "optimize", "packing_density", "snr", "squarefree_part",
]

# second routes kept only as test oracles, and helpers inlined where used or made private
REMOVED_NAMES = [
    "MnPair", "admissible_pairs", "angle_cos", "angle_sin_sq", "class_from_mn", "class_to_point", "count_classes",
    "count_primitive", "count_windowed", "e_exponent", "gauss_reduce", "pell_add", "solutions_for_r", "trivial_bound",
]


def test_public_surface_is_pinned():
    import iwrlat

    assert sorted(iwrlat.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 31


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    import iwrlat

    with pytest.raises(AttributeError):
        getattr(iwrlat, name)


def test_package_exports_exactly_the_modules_public_names():
    import iwrlat

    assert sorted(p.stem for p in (SRC / "iwrlat").glob("*.py")) == sorted(
        ["__init__", "__main__", "cli", *LIBRARY_MODULES]
    )
    lists = {name: importlib.import_module(f"iwrlat.{name}").__all__ for name in LIBRARY_MODULES}
    owners = {}
    for module, names in lists.items():
        for name in names:
            assert name not in owners, f"{name} exported by both {owners[name]} and {module}"
            owners[name] = module
            assert getattr(importlib.import_module(f"iwrlat.{module}"), name) is getattr(iwrlat, name)
    public = [name for name in iwrlat.__all__ if name != "__version__"]
    assert len(public) == len(set(public))
    assert set(public) == set(owners)
