import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gausscalc.cli import main
from gausscalc.poly import serialize
from gausscalc.semigroups import hermite

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    """Run main() in process; returns (exit_code, parsed_report_or_None, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip().startswith("{") else None
    return code, report, captured.err


class TestCheckIdentity:
    def test_exact_pass(self, capsys):
        code, report, err = run_cli(
            capsys, "check-identity", "--f", "x1^2", "--s", "4", "--lambda", "1/2"
        )
        assert code == 0
        assert report["command"] == "check-identity"
        assert report["verdict"] == "pass"
        assert report["params"]["t"] == "3"
        assert report["params"]["lambda"] == "1/2"
        record = report["results"][0]
        assert record["mode"] == "exact"
        assert record["lhs"] == record["rhs"] == "1/4 x1^2 + 3"
        assert record["witness"] == "0"
        assert "pass" in err

    def test_float_mode_via_time(self, capsys):
        code, report, _ = run_cli(
            capsys, "check-identity", "--f", "x1^3 - x2", "--s", "1", "--t", "1/3"
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["lambda"] is None
        assert report["params"]["lambda_squared"] == "2/3"
        assert report["results"][0]["mode"] == "float"
        assert report["results"][0]["max_rel_error"] <= 1e-12

    def test_scale_and_time_are_exclusive(self, capsys):
        code, report, err = run_cli(
            capsys, "check-identity", "--f", "x1", "--s", "1",
            "--lambda", "1/2", "--t", "1/2",
        )
        assert code == 2
        assert report is None
        assert "not both" in err

    def test_one_of_scale_or_time_is_required(self, capsys):
        code, _, err = run_cli(capsys, "check-identity", "--f", "x1", "--s", "1")
        assert code == 2
        assert "required" in err


class TestCheckCommutator:
    def test_both_brackets_pass(self, capsys):
        code, report, _ = run_cli(capsys, "check-commutator", "--f", "x1^4")
        assert code == 0
        assert report["verdict"] == "pass"
        assert len(report["results"]) == 2
        first, nested = report["results"]
        assert first["lhs"] == "24 x1^2"
        assert first["ok"] and nested["ok"]
        assert nested["lhs"] == "0"


class TestBchCheck:
    def test_small_exact_grid_point(self, capsys):
        code, report, _ = run_cli(
            capsys, "bch-check", "--m", "1", "--n", "2", "--s", "4", "--lambda", "1/2"
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["t"] == "3"
        record = report["results"][0]
        assert record["dim"] == 3
        assert record["scalar_rhs"] == "3/8"
        assert record["exact_route_ok"] is True
        assert record["bch_rel_err"] <= 1e-10

    def test_rejects_out_of_range_scale(self, capsys):
        code, _, err = run_cli(
            capsys, "bch-check", "--m", "1", "--n", "2", "--s", "1", "--lambda", "2"
        )
        assert code == 2
        assert "scale" in err


class TestHermiteCommand:
    def test_multivariate_index(self, capsys):
        code, report, _ = run_cli(capsys, "hermite", "--alpha", "2,0,3", "--s", "1")
        assert code == 0
        record = report["results"][0]
        assert record["polynomial"] == serialize(hermite({1: 2, 3: 3}, 1))
        assert record["degree"] == 5
        assert record["norm_squared"] == "12"

    def test_cubic(self, capsys):
        code, report, _ = run_cli(capsys, "hermite", "--alpha", "3", "--s", "1")
        assert code == 0
        assert report["results"][0]["polynomial"] == "x1^3 - 3 x1"

    def test_empty_index(self, capsys):
        code, report, _ = run_cli(capsys, "hermite", "--alpha", "0", "--s", "5")
        assert code == 0
        assert report["results"][0]["polynomial"] == "1"
        assert report["results"][0]["norm_squared"] == "1"

    def test_negative_exponent_rejected(self, capsys):
        code, _, err = run_cli(capsys, "hermite", "--alpha", "2,-1", "--s", "1")
        assert code == 2

    def test_high_degree_norm(self, capsys):
        code, report, _ = run_cli(capsys, "hermite", "--alpha", "600", "--s", "1")
        assert code == 0
        record = report["results"][0]
        assert record["degree"] == 600
        assert record["norm_squared"] == str(math.factorial(600))


class TestApplyHeat:
    def test_forward(self, capsys):
        code, report, _ = run_cli(capsys, "apply-heat", "--f", "x1^4", "--t", "2")
        assert code == 0
        assert report["results"][0]["output"] == "x1^4 + 12 x1^2 + 12"

    def test_backward_time_is_allowed(self, capsys):
        code, report, _ = run_cli(capsys, "apply-heat", "--f", "x1^2", "--t", "-1")
        assert code == 0
        assert report["results"][0]["output"] == "x1^2 - 1"


class TestNonclosabilityDemo:
    def test_values(self, capsys):
        code, report, _ = run_cli(capsys, "nonclosability-demo", "--s", "1", "--n", "4")
        assert code == 0
        record = report["results"][0]
        assert record["norm_squared"] == "1/2"
        assert record["laplacian"] == "2"
        assert record["heat_minus_identity"] == "1/2"
        assert report["verdict"] == "pass"


class TestHypercontractivityScan:
    def test_exact_l2_route(self, capsys):
        code, report, _ = run_cli(
            capsys, "hypercontractivity-scan",
            "--p", "2", "--q", "2", "--s", "1", "--lambda", "1/2",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["condition_holds"] is True
        assert all(r["method"] == "exact" for r in report["results"])
        assert all(r["contractive"] for r in report["results"])

    def test_quadrature_route_passes_when_condition_holds(self, capsys):
        code, report, _ = run_cli(
            capsys, "hypercontractivity-scan",
            "--p", "2", "--q", "4", "--s", "1", "--lambda", "1/2",
            "--degree-cap", "4",
        )
        assert code == 0
        assert report["params"]["condition_holds"] is True
        assert all(r["method"] == "quadrature" for r in report["results"])

    def test_violation_exits_one(self, capsys):
        code, report, _ = run_cli(
            capsys, "hypercontractivity-scan",
            "--p", "2", "--q", "4", "--s", "1", "--lambda", "7/10",
            "--degree-cap", "4",
        )
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["params"]["condition_holds"] is False
        assert any(not r["contractive"] for r in report["results"])


@pytest.mark.parametrize("command", ["hypercontractivity-scan", "sharpness-probe"])
class TestBatteryArguments:
    BASE = ("--p", "2", "--q", "4", "--s", "1", "--lambda", "1/2")

    def test_negative_degree_cap_rejected(self, capsys, command):
        code, report, err = run_cli(capsys, command, *self.BASE, "--degree-cap", "-1")
        assert code == 2
        assert report is None
        assert "at least 0" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_rejected(self, capsys, command, budget):
        code, report, err = run_cli(capsys, command, *self.BASE, f"--budget={budget}")
        assert code == 2
        assert report is None
        assert "at least 1" in err


class TestSharpnessProbe:
    def test_witness_found_when_condition_fails(self, capsys):
        code, report, _ = run_cli(
            capsys, "sharpness-probe",
            "--p", "2", "--q", "4", "--s", "1", "--lambda", "7/10",
            "--degree-cap", "6",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["condition_holds"] is False
        witness = report["params"]["witness"]
        assert witness is not None
        # the witness is a genuine battery member that expands
        violating = [r["f"] for r in report["results"] if not r["contractive"]]
        assert witness in violating

    def test_contractive_regime_verifies(self, capsys):
        code, report, _ = run_cli(
            capsys, "sharpness-probe",
            "--p", "3", "--q", "2", "--s", "1", "--lambda", "2/3",
            "--degree-cap", "3", "--budget", "101",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["condition_holds"] is True
        assert report["params"]["witness"] is None

    def test_small_battery_detects_a_real_expansion(self, capsys):
        # even the near-constant probes genuinely expand at these parameters
        code, report, _ = run_cli(
            capsys, "sharpness-probe",
            "--p", "2", "--q", "5/2", "--s", "1", "--lambda", "9/10",
            "--degree-cap", "0", "--budget", "51",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["condition_holds"] is False
        assert report["params"]["witness"] == "1/2 x1 + 1"

    def test_inconclusive_when_the_battery_is_too_weak(self, capsys):
        # condition barely fails; a degree-0 battery with a tiny epsilon
        # cannot resolve the expansion against the norm tolerance
        code, report, _ = run_cli(
            capsys, "sharpness-probe",
            "--p", "2", "--q", "4", "--s", "1", "--lambda", "3/5",
            "--degree-cap", "0", "--epsilon-grid", "1/1000",
        )
        assert code == 0
        assert report["verdict"] == "inconclusive"
        assert report["params"]["condition_holds"] is False
        assert report["params"]["witness"] is None


class TestConvolutionCheck:
    def test_shifted_quartic(self, capsys):
        code, report, _ = run_cli(
            capsys, "convolution-check", "--f", "x1^4", "--t", "2", "--x", "x1=1"
        )
        assert code == 0
        record = report["results"][0]
        assert record["algebraic"] == 25.0
        assert record["rel_discrepancy"] <= 1e-10

    def test_bad_point_syntax(self, capsys):
        code, _, _ = run_cli(
            capsys, "convolution-check", "--f", "x1", "--t", "1", "--x", "y1=2"
        )
        assert code == 2

    def test_nonpositive_time_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "convolution-check", "--f", "x1", "--t", "0")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_point_rejected(self, capsys, value):
        code = main(["convolution-check", "--f", "x1^2", "--t", "1", "--x", f"x1={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "finite" in captured.err
        assert "NaN" not in captured.out and "Infinity" not in captured.out


class TestPlumbing:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_bad_polynomial_reports_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "apply-heat", "--f", "x0 + 1", "--t", "1")
        assert code == 2

    def test_bad_rational(self, capsys):
        assert main(["check-identity", "--f", "x1", "--s", "zero", "--lambda", "1/2"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_json_out_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "hermite", "--alpha", "2", "--s", "1", "--json-out", str(target)
        )
        # rerun to recapture stdout cleanly
        code, report, _ = run_cli(capsys, "hermite", "--alpha", "2", "--s", "1")
        assert code == 0
        assert json.loads(target.read_text()) == report

    def test_unwritable_json_out_is_a_bad_invocation(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, report, err = run_cli(
            capsys, "hermite", "--alpha", "2", "--s", "1", "--json-out", str(target)
        )
        assert code == 2
        assert report is None
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not target.exists()

    def test_reports_are_sorted_and_newline_terminated(self, capsys):
        main(["apply-heat", "--f", "x1", "--t", "1"])
        out = capsys.readouterr().out
        assert out.endswith("\n")
        report = json.loads(out)
        assert list(report) == sorted(report)


CANONICAL_RUNS = [
    ("check-identity", "--f", "x1^3 - x2", "--s", "4", "--lambda", "1/2"),
    ("check-commutator", "--f", "x1^4 x2"),
    ("bch-check", "--m", "2", "--n", "4", "--s", "1", "--lambda", "2/3"),
    ("hermite", "--alpha", "0,2", "--s", "3"),
    ("apply-heat", "--f", "x1^6", "--t=-1/2"),
    ("nonclosability-demo", "--s", "2", "--n", "5"),
    ("hypercontractivity-scan", "--p", "2", "--q", "2", "--s", "1", "--lambda", "1/2"),
    ("sharpness-probe", "--p", "2", "--q", "4", "--s", "1", "--lambda", "7/10",
     "--degree-cap", "4"),
    ("convolution-check", "--f", "x1^2 + x2", "--t", "1", "--x", "x1=1/2"),
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", CANONICAL_RUNS, ids=lambda a: a[0])
    def test_reruns_are_byte_identical(self, capsys, argv):
        first_code = main(list(argv))
        first = capsys.readouterr()
        second_code = main(list(argv))
        second = capsys.readouterr()
        assert first_code == 0  # a usage error would compare two empty outputs
        assert json.loads(first.out)
        assert first_code == second_code
        assert first.out == second.out
        assert first.err == second.err


class TestSubprocessEntry:
    def test_module_invocation(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "gausscalc", "check-identity",
             "--f", "x1^2", "--s", "4", "--lambda", "1/2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "pass"
        assert "pass" in proc.stderr
