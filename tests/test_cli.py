"""Command line surface: exit codes, output schemas, golden table."""

import csv
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from make_goldens import CLI_GOLDEN, CLI_GOLDEN_ARGV, run_cli

from iwrlat import DeterminantSpec, IwrLattice, SimilarityClass, classes, enumerate_iwr, factorize, snr
from iwrlat.cli import _lattice_record, run

GOLDEN = Path(__file__).parent / "data" / "table1_golden.json"
CLI_GOLDEN_RECORDS = json.loads(CLI_GOLDEN.read_text())


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestOptimizeCommand:
    def test_reference_determinant(self, capsys):
        code, rec = run_json(capsys, ["optimize", "--M", "24", "--D", "5"])
        assert code == 0
        assert rec["min_norm"] == 61
        assert (rec["p"], rec["r"], rec["q"], rec["D"], rec["k"]) == (29, 24, 61, 5, 1)
        assert rec["det"] == {"M": 24, "D": 5}
        assert rec["cos_theta"] == "29/61"
        assert rec["gram"] == [[61, 29], [29, 61]]
        assert rec["maximizers"] == [{"p": 29, "r": 24, "q": 61, "D": 5}]

    def test_corrected_class_row(self, capsys):
        # the published class (7, 15) fails p^2 + 13 r^2 = q^2; the true one:
        code, rec = run_json(capsys, ["optimize", "--M", "24", "--D", "13"])
        assert code == 0
        assert rec["min_norm"] == 98
        assert (rec["p"], rec["r"], rec["q"], rec["k"]) == (23, 12, 49, 2)

    def test_inadmissible_exits_3(self, capsys):
        assert run(["optimize", "--M", "1", "--D", "2"]) == 3
        assert "error" in capsys.readouterr().err

    def test_over_the_step_budget_exits_2_at_once(self, capsys):
        # the (m, n) scan of 2^89 - 1 would take about 10^27 steps
        start = time.perf_counter()
        assert run(["optimize", "--M", str(2**89 - 1), "--D", "1"]) == 2
        assert time.perf_counter() - start < 1
        assert "over the budget" in capsys.readouterr().err

    def test_csv_single_row(self, capsys):
        code = run(["optimize", "--M", "24", "--D", "5", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["min_norm"] == "61"
        assert json.loads(rows[0]["gram"]) == [[61, 29], [29, 61]]

    def test_extras(self, capsys):
        code, rec = run_json(
            capsys,
            ["optimize", "--M", "24", "--D", "5", "--density", "--snr-eps", "1e-6"],
        )
        assert code == 0
        assert rec["packing_density"] == pytest.approx(math.pi * 61 / (4 * 24 * math.sqrt(5)))
        lat = IwrLattice(SimilarityClass(29, 24, 61, 5), 1)
        assert rec["snr_db"] == pytest.approx(snr(lat, 1e-6), abs=1e-9)


class TestClassifyCommand:
    def test_hexagonal_double(self, capsys):
        code, out = run_json(capsys, ["classify", "--gram", "2,1,2"])
        assert code == 0
        assert out == {"class": {"p": 1, "r": 1, "q": 2, "D": 3}, "k": 1, "min_norm": 2}

    def test_unreduced_input(self, capsys):
        code, out = run_json(capsys, ["classify", "--gram", "61,90,180"])
        assert code == 0
        assert out["class"] == {"p": 29, "r": 24, "q": 61, "D": 5}

    def test_not_positive_definite_exits_2(self, capsys):
        assert run(["classify", "--gram", "1,5,1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_not_well_rounded_exits_2(self, capsys):
        assert run(["classify", "--gram", "2,1,3"]) == 2
        capsys.readouterr()

    def test_malformed_gram_exits_2(self, capsys):
        assert run(["classify", "--gram", "2,1"]) == 2
        capsys.readouterr()


class TestEnumerateCommand:
    def test_small_determinant(self, capsys):
        code, recs = run_json(capsys, ["enumerate", "--M", "1", "--D", "3"])
        assert code == 0
        assert len(recs) == 1
        assert (recs[0]["p"], recs[0]["r"], recs[0]["q"], recs[0]["k"]) == (1, 1, 2, 1)

    def test_empty_result_exits_3(self, capsys):
        code = run(["enumerate", "--M", "1", "--D", "2"])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == []

    def test_non_squarefree_exits_2(self, capsys):
        assert run(["enumerate", "--M", "24", "--D", "4"]) == 2
        capsys.readouterr()

    def test_uncertified_prime_factor_exits_2(self, capsys):
        # 2^89 - 1 is prime, but beyond the bound below which primality is certified
        for sub in ("enumerate", "count"):
            assert run([sub, "--M", str(2**89 - 1), "--D", "1"]) == 2
        assert "cannot certify" in capsys.readouterr().err

    def test_unsplittable_composite_exits_2_within_the_rho_budget(self, capsys):
        # two 52-bit primes: rho would need about 10^8 steps, and both subcommands ran past 30 s.
        # The budget, 2^22 steps, is 2.3 times the 1.83 * 10^6 steps that split psi_13, and a
        # refusal took 2.8 to 3.2 times as long as that split timed alongside it: a bound of 8
        # times leaves 2.5 times headroom on a host of any speed, and a rho with no budget fails.
        psi_13 = 1287836182261 * 2575672364521
        start = time.perf_counter()
        assert factorize(psi_13).factors == ((1287836182261, 1), (2575672364521, 1))
        psi_13_s = time.perf_counter() - start
        for sub in ("enumerate", "count"):
            start = time.perf_counter()
            assert run([sub, "--M", "20282414051707133587220104552349", "--D", "1"]) == 2
            assert time.perf_counter() - start < 8 * psi_13_s
            assert "Pollard rho found no factor in 4194304 steps" in capsys.readouterr().err

    def test_over_the_class_budget_exits_2_at_once(self, capsys):
        # the product of the first 18 odd primes: class bound 3^18 / 2, where
        # building the classes ran out of memory
        for sub in ("enumerate", "count"):
            start = time.perf_counter()
            assert run([sub, "--M", "3929160775540133527939545", "--D", "1"]) == 2
            assert time.perf_counter() - start < 1
            assert "the class bound of IWR(3929160775540133527939545*sqrt(1)) is 387420489/2" in (
                capsys.readouterr().err
            )

    def test_square_class_flag(self, capsys):
        code, default = run_json(capsys, ["enumerate", "--M", "12", "--D", "1"])
        assert code == 0
        code, with_sq = run_json(
            capsys, ["enumerate", "--M", "12", "--D", "1", "--include-square-class"]
        )
        assert code == 0
        assert len(with_sq) == len(default) + 1
        assert any(r["p"] == 0 and r["k"] == 12 for r in with_sq)
        assert not any(r["p"] == 0 for r in default)

    def test_round_trip_records(self, capsys):
        # every emitted record rebuilds into a lattice with the same data
        code, recs = run_json(capsys, ["enumerate", "--M", "24", "--D", "5"])
        assert code == 0
        assert len(recs) == 4
        rebuilt = []
        for rec in recs:
            lat = IwrLattice(SimilarityClass(rec["p"], rec["r"], rec["q"], rec["D"]), rec["k"])
            assert lat.minimum == rec["min_norm"]
            assert lat.determinant == DeterminantSpec(rec["det"]["M"], rec["det"]["D"])
            assert lat.gram().rows() == rec["gram"]
            rebuilt.append(lat)
        assert rebuilt == enumerate_iwr(DeterminantSpec(24, 5))

    def test_records_do_not_check_D_again(self, monkeypatch):
        # lat.determinant builds a DeterminantSpec, which factors D again to test it squarefree
        lattices = enumerate_iwr(DeterminantSpec(720720, 29))
        calls = []
        real = classes.is_squarefree
        monkeypatch.setattr(classes, "is_squarefree", lambda n: calls.append(n) or real(n))
        records = [_lattice_record(lat) for lat in lattices]
        assert (len(records), len(calls)) == (271, 0)
        assert [rec["det"] for rec in records] == [{"M": 720720, "D": 29}] * 271

    def test_csv_output(self, capsys):
        code = run(["enumerate", "--M", "24", "--D", "5", "--format", "csv", "--density"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        assert sorted(int(r["min_norm"]) for r in rows) == [54, 56, 58, 61]
        assert all(float(r["packing_density"]) < 0.9069 for r in rows)


class TestCountCommand:
    def test_report_shape(self, capsys):
        code, rep = run_json(capsys, ["count", "--M", "24", "--D", "5"])
        assert code == 0
        assert rep["total"] == 4
        assert rep["bound"] == "21"
        assert {row["r"] for row in rep["rows"]} <= {1, 2, 3, 4, 6, 8, 12, 24}
        found = {row["r"]: row["n_classes"] for row in rep["rows"]}
        assert sum(found.values()) == 4


class TestZetaAndSnrCommands:
    def test_zeta_scaled_hexagonal(self, capsys):
        code, out = run_json(
            capsys,
            ["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "2", "--eps", "1e-8"],
        )
        assert code == 0
        assert out["T"] == 2.0
        assert out["Delta"] == pytest.approx(math.sqrt(3))
        assert out["abs_error_bound"] <= 1e-8
        # 6 zeta(2) L_{-3}(2) / 4, the closed form for this shape at T = 2
        assert out["value"] == pytest.approx(1.92778643322622, abs=1e-7)

    def test_zeta_bad_s_exits_2(self, capsys):
        assert run(["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "1.0"]) == 2
        capsys.readouterr()

    def test_zeta_nan_eps_exits_2(self, capsys):
        assert run(["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "2", "--eps", "nan"]) == 2
        assert "finite and positive" in capsys.readouterr().err

    def test_snr_inf_eps_exits_2(self, capsys):
        assert run(["snr", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--eps", "inf"]) == 2
        assert "finite and positive" in capsys.readouterr().err

    def test_zeta_former_budget_input_exits_0(self, capsys):
        # the shell sum needed ~8e9 shells here and exited 2
        code, out = run_json(
            capsys, ["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "1.5", "--eps", "1e-9"]
        )
        assert code == 0
        assert out["abs_error_bound"] <= 1e-9
        assert 1 <= out["truncation_radius"] <= 10

    def test_zeta_out_of_float_range_exits_2(self, capsys):
        # no lattice reaches T^-s overflow, but s = 1e6 leaves the float range
        argv = ["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "1e6", "--eps", "1"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "exceeds the float range" in captured.err
        assert captured.out == ""

    def test_zeta_unreachable_eps_exits_2(self, capsys):
        argv = ["zeta", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--s", "2", "--eps", "1e-20"]
        assert run(argv) == 2
        assert "below the certified accuracy" in capsys.readouterr().err

    def test_zeta_bad_class_exits_2(self, capsys):
        # q^2 - p^2 not a multiple of D
        assert run(["zeta", "--p", "1", "--q", "3", "--D", "5", "--k", "1", "--s", "2"]) == 2
        capsys.readouterr()

    def test_snr_record(self, capsys):
        code, rec = run_json(
            capsys, ["snr", "--p", "1", "--q", "2", "--D", "3", "--k", "1", "--eps", "1e-6"]
        )
        assert code == 0
        lat = IwrLattice(SimilarityClass(1, 1, 2, 3), 1)
        assert rec["snr_db"] == pytest.approx(snr(lat, 1e-6), abs=1e-9)
        assert rec["packing_density"] == pytest.approx(math.pi / (2 * math.sqrt(3)))


class TestComposeCommand:
    def test_hexagonal_square_gives_composite(self, capsys):
        code, out = run_json(capsys, ["compose", "--D", "3", "--c1", "1,2", "--c2", "1,2"])
        assert code == 0
        assert out == {"class": {"p": 1, "r": 4, "q": 7, "D": 3}}

    def test_off_window_operand_exits_2(self, capsys):
        assert run(["compose", "--D", "5", "--c1", "2,3", "--c2", "1,3"]) == 2
        capsys.readouterr()

    def test_square_class_operand_exits_2(self, capsys):
        assert run(["compose", "--D", "1", "--c1", "0,1", "--c2", "0,1"]) == 2
        capsys.readouterr()


# the subcommands that build a class from --p, --q (or --c1, --c2) and --D
CLASS_OPERANDS = {
    "zeta": ["zeta", "--p", "1", "--q", "2", "--k", "1", "--s", "3"],
    "snr": ["snr", "--p", "1", "--q", "2", "--k", "1"],
    "compose": ["compose", "--c1", "1,2", "--c2", "1,2"],
}


class TestClassOperands:
    @pytest.mark.parametrize("D", ["0", "-3"])
    @pytest.mark.parametrize("command", list(CLASS_OPERANDS))
    def test_D_below_1_exits_2_with_the_spec_message(self, capsys, command, D):
        # D divides q^2 - p^2 and r comes from isqrt of the quotient, so D is checked first
        assert run([*CLASS_OPERANDS[command], "--D", D]) == 2
        assert capsys.readouterr().err.startswith("error: D must be")

    @pytest.mark.parametrize("D", ["4", "12"])
    @pytest.mark.parametrize("command", list(CLASS_OPERANDS))
    def test_non_squarefree_D_gets_the_spec_message(self, capsys, command, D):
        # (1, 2) used to fail the q^2 - p^2 test here, with a message of its own
        assert run([*CLASS_OPERANDS[command], "--D", D]) == 2
        assert capsys.readouterr() == ("", f"error: D must be squarefree >= 1, got {D}\n")

    def test_non_squarefree_D_message_does_not_depend_on_the_operands(self, capsys):
        # (3, 5) passes the q^2 - p^2 tests at D = 4, and used to fail in SimilarityClass instead
        assert run(["compose", "--D", "4", "--c1", "3,5", "--c2", "3,5"]) == 2
        assert capsys.readouterr() == ("", "error: D must be squarefree >= 1, got 4\n")


class TestTable1Command:
    def test_matches_golden_file(self, capsys):
        code, rows = run_json(capsys, ["table1"])
        assert code == 0
        assert rows == json.loads(GOLDEN.read_text())

    def test_flags_match_published_data(self, capsys):
        code, rows = run_json(capsys, ["table1"])
        assert code == 0
        by_det = {(row["M"], row["D"]): row for row in rows}
        assert by_det[(24, 13)]["discrepancy"] == "class corrected"
        assert by_det[(24, 17)]["discrepancy"] == "min_norm corrected"
        clean = [key for key, row in by_det.items() if row["discrepancy"] is None]
        assert sorted(clean) == [(20, 11), (24, 5), (24, 7), (96, 23), (105, 19)]

    def test_csv_format(self, capsys):
        code = run(["table1", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [int(r["min_norm"]) for r in rows] == [61, 69, 75, 98, 106, 510, 522]


class TestGoldenOutput:
    """Every subcommand, byte for byte against tests/data/cli_golden.json (tests/make_goldens.py).

    The zeta and snr floats are compared byte for byte too, not by their certified
    bound: the in-process runs use the same libm as the run that wrote the file.
    """

    def test_golden_file_covers_the_listed_invocations(self):
        assert [rec["argv"] for rec in CLI_GOLDEN_RECORDS] == CLI_GOLDEN_ARGV
        assert {rec["code"] for rec in CLI_GOLDEN_RECORDS} == {0, 2, 3}

    @pytest.mark.parametrize("golden", CLI_GOLDEN_RECORDS, ids=lambda rec: "_".join(rec["argv"]).replace("--", ""))
    def test_invocation_matches_golden(self, golden):
        assert run_cli(golden["argv"]) == golden


class TestParserPlumbing:
    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert run(["enumerate", "--M", "24"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "classify" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iwrlat", "classify", "--gram", "2,1,2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 1

    def test_console_script(self):
        proc = subprocess.run(
            ["iwr", "enumerate", "--M", "1", "--D", "2"], capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout) == []
