"""Write the golden files that tests/test_cli.py and tests/test_demos.py compare against.

Run from the repository root:

    python3 tests/make_goldens.py

It writes tests/data/cli_golden.json (stdout, stderr and exit code of each
invocation in CLI_GOLDEN_ARGV, run in-process through iwrlat.cli.run),
tests/data/enumeration_digest.json (sha256 of the reprs of the enumeration
layer's answers over DIGEST_M x DIGEST_D, see enumeration_digests) and
tests/data/demos/<demo>.txt (the stdout of each demo, with demo 05's floats
rounded by round_floats).  Regenerate only on purpose, when an output is meant
to change, and say which outputs changed and why.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
CLI_GOLDEN = DATA / "cli_golden.json"
DEMO_GOLDEN = DATA / "demos"
DIGEST_GOLDEN = DATA / "enumeration_digest.json"

# 3 * (3 * 5 * ... * 43): class bound 5 * 3^13 / 2, over the budget of 2^20;
# 2^89 - 1 is prime, but above the bound below which primality is certified
OVER_BUDGET = str(3 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43)

CLI_GOLDEN_ARGV = [
    ["enumerate", "--M", "24", "--D", "5"],
    ["enumerate", "--M", "24", "--D", "5", "--format", "csv"],
    ["enumerate", "--M", "24", "--D", "5", "--density"],
    ["enumerate", "--M", "24", "--D", "5", "--format", "csv", "--density"],
    ["enumerate", "--M", "12", "--D", "1"],
    ["enumerate", "--M", "12", "--D", "1", "--include-square-class"],
    ["enumerate", "--M", "1", "--D", "1", "--include-square-class", "--format", "csv"],
    ["enumerate", "--M", "720720", "--D", "29", "--format", "csv"],
    ["enumerate", "--M", "126360", "--D", "1", "--include-square-class", "--format", "csv"],
    ["enumerate", "--M", "185089", "--D", "2"],
    ["enumerate", "--M", "185089", "--D", "3"],
    ["enumerate", "--M", "6078", "--D", "3", "--density"],
    ["enumerate", "--M", "1", "--D", "2"],
    ["enumerate", "--M", "1", "--D", "2", "--format", "csv"],
    ["enumerate", "--M", "24", "--D", "4"],
    ["enumerate", "--M", OVER_BUDGET, "--D", "1"],
    ["enumerate", "--M", str(2**89 - 1), "--D", "1"],
    ["count", "--M", "24", "--D", "5"],
    ["count", "--M", "1", "--D", "1"],
    ["count", "--M", "1", "--D", "2"],
    ["count", "--M", "720720", "--D", "1"],
    ["count", "--M", "126360", "--D", "3"],
    ["count", "--M", "6078", "--D", "29"],
    ["count", "--M", "24", "--D", "12"],
    ["count", "--M", OVER_BUDGET, "--D", "1"],
    ["count", "--M", str(2**89 - 1), "--D", "5"],
    ["classify", "--gram", "2,1,2"],
    ["classify", "--gram", "61,90,180"],
    ["classify", "--gram", "10,3,10"],
    ["classify", "--gram", "1,0,2"],
    ["classify", "--gram", "1,2,1"],
    ["classify", "--gram", "2,x,2"],
    ["optimize", "--M", "24", "--D", "5"],
    ["optimize", "--M", "24", "--D", "5", "--format", "csv"],
    ["optimize", "--M", "24", "--D", "17", "--density", "--snr-eps", "1e-6"],
    ["optimize", "--M", "24", "--D", "17", "--format", "csv", "--density", "--snr-eps", "1e-6"],
    ["optimize", "--M", "12", "--D", "1"],
    ["optimize", "--M", "1", "--D", "2"],
    ["optimize", "--M", "100000000", "--D", "29"],
    ["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "2", "--eps", "1e-8"],
    ["zeta", "--p", "29", "--q", "61", "--D", "5", "--k", "2", "--s", "3.5", "--eps", "1e-10"],
    ["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "1.0"],
    ["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "2", "--eps", "1e-20"],
    ["zeta", "--p", "1", "--q", "3", "--D", "5", "--k", "1", "--s", "2"],
    ["snr", "--p", "1", "--q", "2", "--D", "3", "--k", "1"],
    ["snr", "--p", "29", "--q", "61", "--D", "5", "--k", "1", "--eps", "1e-8"],
    ["snr", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--eps", "inf"],
    ["compose", "--D", "3", "--c1", "1,2", "--c2", "1,2"],
    ["compose", "--D", "5", "--c1", "1,9", "--c2", "2,7"],
    ["compose", "--D", "5", "--c1", "2,3", "--c2", "1,3"],
    ["compose", "--D", "1", "--c1", "0,1", "--c2", "8,17"],
    ["table1"],
    ["table1", "--format", "csv"],
]

# the grid of enumeration_digests: every M up to 1000, and rows with many divisors or large primes
DIGEST_M = list(range(1, 1001)) + [720720, 188760, 154560, 126360, 185089, 6078]
DIGEST_D = (1, 2, 3, 5, 6, 7, 17, 29)


@functools.cache
def digest_grid_lattices() -> dict:
    """enumerate_iwr of each M*sqrt(D) of DIGEST_M x DIGEST_D, keyed by (M, D): listed once per process."""
    from iwrlat import DeterminantSpec, enumerate_iwr

    return {(M, D): enumerate_iwr(DeterminantSpec(M, D)) for D in DIGEST_D for M in DIGEST_M}


_FLOAT = re.compile(r"-?\d+\.\d+(?:e[+-]?\d+)?")


def round_floats(text: str) -> str:
    """Every decimal float in text printed to 6 significant digits."""
    return _FLOAT.sub(lambda m: f"{float(m.group()):.6g}", text)


# demos whose stdout is compared after round_floats: their floats come from libm
ROUNDED_DEMOS = ("05_interference_and_snr",)


def run_cli(argv: list[str]) -> dict:
    """One in-process invocation: argv, exit code, stdout and stderr."""
    from iwrlat.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def enumeration_digests() -> dict:
    """sha256, per D and per answer, of the reprs of the enumeration layer's answers for every M of DIGEST_M.

    The answers are enumerate_iwr with and without the square class,
    count_report with its diagnostic also in hex (repr rounds nothing, but
    hex shows the bits), and mobius_identity_check of (M, D).
    """
    from iwrlat import DeterminantSpec, count_report, enumerate_iwr, mobius_identity_check

    out = {}
    for D in DIGEST_D:
        parts = {name: hashlib.sha256() for name in ("enumerate", "enumerate_bare", "count_report", "mobius")}
        for M in DIGEST_M:
            spec = DeterminantSpec(M, D)
            report = count_report(spec)
            texts = {
                "enumerate": repr(enumerate_iwr(spec)),
                "enumerate_bare": repr(enumerate_iwr(spec, include_square_class=False)),
                "count_report": f"{report!r} {report.bound!r} {report.diagnostic.hex()}",
                "mobius": repr(mobius_identity_check(M, D)),
            }
            for name, text in texts.items():
                parts[name].update(f"{M}:{text}\n".encode())
        out[str(D)] = {name: h.hexdigest() for name, h in parts.items()}
    return out


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """One demo run against src/, its output captured as text."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def comparable_stdout(demo: Path, stdout: str) -> str:
    """A demo's stdout as its golden file holds it: rounded if the demo is in ROUNDED_DEMOS."""
    return round_floats(stdout) if demo.stem in ROUNDED_DEMOS else stdout


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    records = [run_cli(argv) for argv in CLI_GOLDEN_ARGV]
    CLI_GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    DIGEST_GOLDEN.write_text(json.dumps(enumeration_digests(), indent=1) + "\n")
    DEMO_GOLDEN.mkdir(exist_ok=True)
    for demo in sorted((ROOT / "demos").glob("0[1-5]_*.py")):
        proc = run_demo(demo)
        if proc.returncode:
            sys.exit(f"{demo.name} exited {proc.returncode}:\n{proc.stderr}")
        (DEMO_GOLDEN / f"{demo.stem}.txt").write_text(comparable_stdout(demo, proc.stdout))


if __name__ == "__main__":
    main()
