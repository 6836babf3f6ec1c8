"""iwrlat runs on the standard library alone: no subcommand loads numpy.

Each probe runs in a fresh interpreter, so modules loaded by other tests in
this process cannot hide or fake an import.  The dependency guard also reads
pyproject.toml and every import statement under src/iwrlat.  The surface
guard keeps the package's __all__ equal to the union of its modules' lists.
"""

import ast
import importlib
import json
import os
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
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def _probe(arg):
    """Run the CLI on an argv list, or a statement after `import iwrlat`, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(arg)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


HEX_ARGS = ["--p", "1", "--q", "2", "--D", "3", "--k", "1"]

SUBCOMMANDS = [
    (["classify", "--gram", "2,1,2"], 0),
    (["enumerate", "--M", "24", "--D", "5"], 0),
    (["enumerate", "--M", "1", "--D", "2"], 3),
    (["count", "--M", "24", "--D", "5"], 0),
    (["optimize", "--M", "24", "--D", "5", "--density"], 0),
    (["compose", "--D", "3", "--c1", "1,2", "--c2", "1,2"], 0),
    (["table1"], 0),
    # the shell sum exited 2 here; the Chowla-Selberg sum answers
    (["zeta", *HEX_ARGS, "--s", "1.5", "--eps", "1e-9"], 0),
    (["zeta", *HEX_ARGS, "--s", "2"], 0),
    (["snr", *HEX_ARGS], 0),
    (["enumerate", "--M", "24", "--D", "5", "--snr-eps", "1e-6"], 0),
]


def _ids(cases):
    return ["_".join(argv).replace("--", "") for argv, _ in cases]


def test_import_iwrlat_does_not_load_numpy():
    assert _probe(None) == {"code": None, "numpy": False}


def test_epstein_bounds_does_not_load_numpy():
    assert _probe("iwrlat.epstein_bounds(2.0, 1.5, 1e-6)") == {"code": None, "numpy": False}


@pytest.mark.parametrize("argv, code", SUBCOMMANDS, ids=_ids(SUBCOMMANDS))
def test_numpy_not_loaded_without_a_shell_sum(argv, code):
    assert _probe(argv) == {"code": code, "numpy": False}


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
