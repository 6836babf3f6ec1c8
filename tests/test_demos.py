"""Every demo runs to completion against the library in src/ and prints its golden stdout.

Demo 02 reads its per-divisor counts off count_report's rows and its
witnesses off enumerate_iwr; demo 05 drives the certified zeta, bracket, SNR
and monotonicity calls.  The golden files in tests/data/demos are written by
tests/make_goldens.py; demo 05's floats are compared to 6 significant digits.
"""

import functools

import pytest
from make_goldens import DEMO_GOLDEN, ROOT, comparable_stdout, run_demo

DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))

# each demo runs once for both tests
_run = functools.lru_cache(maxsize=None)(run_demo)


def test_demo_set_is_complete():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]
    assert sorted(p.stem for p in DEMO_GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_0(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_golden_stdout(demo):
    golden = (DEMO_GOLDEN / f"{demo.stem}.txt").read_text()
    assert comparable_stdout(demo, _run(demo).stdout) == golden
