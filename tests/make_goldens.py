"""Write the golden files that tests/test_cli.py and tests/test_demos.py compare against.

Run from the repository root:

    python3 tests/make_goldens.py

It writes tests/data/cli_golden.json (stdout, stderr and exit code of each
invocation in CLI_GOLDEN_ARGV, run in-process through iwrlat.cli.run) and
tests/data/demos/<demo>.txt (the stdout of each demo, with demo 05's floats
rounded by round_floats).  Regenerate only on purpose, when an output is meant
to change, and say which outputs changed and why.
"""

import contextlib
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
]

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
    DEMO_GOLDEN.mkdir(exist_ok=True)
    for demo in sorted((ROOT / "demos").glob("0[1-5]_*.py")):
        proc = run_demo(demo)
        if proc.returncode:
            sys.exit(f"{demo.name} exited {proc.returncode}:\n{proc.stderr}")
        (DEMO_GOLDEN / f"{demo.stem}.txt").write_text(comparable_stdout(demo, proc.stdout))


if __name__ == "__main__":
    main()
