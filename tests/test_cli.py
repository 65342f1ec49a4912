import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gausscalc.gaussian
import gausscalc.matrixrep
import gausscalc.semigroups
from gausscalc.cli import _DEMO_T, main
from gausscalc.gaussian import LP_QUADRATURE_NODES, MC_KEY
from gausscalc.poly import MultiIndex, Polynomial, parse, serialize
from gausscalc.semigroups import dilate, heat, hermite

SRC = Path(__file__).resolve().parent.parent / "src"


def _refuse_constant(constant):
    raise ValueError(f"non-finite {constant} in the report")


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
        assert "argument --t: not allowed with argument --lambda" in err

    def test_a_perturbed_float_side_exits_one(self, capsys, monkeypatch):
        # A gap of 1e-11 relative fails IDENT_FLOAT_TOL = 1e-12 and would
        # pass the looser BCH_TOL or CONVOLUTION_TOL.
        real = gausscalc.semigroups.hermite_semigroup
        monkeypatch.setattr(gausscalc.semigroups, "hermite_semigroup",
                            lambda f, s, lam: real(f, s, lam) + Fraction(1, 10**11))
        code, report, err = run_cli(
            capsys, "check-identity", "--f", "x1^3", "--s", "1", "--t", "1/3"
        )
        assert code == 1
        assert report["verdict"] == "fail"
        record = report["results"][0]
        assert record["mode"] == "float" and record["ok"] is False
        assert report["params"]["tol"] < record["max_rel_error"] < 1e-10
        assert err.startswith("fail: witness")

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

    def test_failing_exact_route_exits_one_with_the_witness(self, capsys, monkeypatch):
        real = gausscalc.matrixrep.hermite_semigroup
        target = MultiIndex({1: 1, 2: 2})

        def perturbed(f, s, lam):
            image = real(f, s, lam)
            if f == Polynomial.monomial(target):
                image = image + Polynomial.constant(Fraction(1, 7))
            return image

        monkeypatch.setattr(gausscalc.matrixrep, "hermite_semigroup", perturbed)
        code, report, err = run_cli(
            capsys, "bch-check", "--m", "2", "--n", "4", "--s", "3/2", "--lambda", "2/3"
        )
        assert code == 1
        assert report["verdict"] == "fail"
        record = report["results"][0]
        assert record["exact_route_ok"] is False
        assert record["exact_witness"] == str(target)
        assert "exact route FAILED" in err


@pytest.mark.parametrize("argv, module, constant", [
    (("check-identity", "--f", "x1^3", "--s", "1", "--t", "1/3"),
     gausscalc.semigroups, "IDENT_FLOAT_TOL"),
    (("bch-check", "--m", "1", "--n", "2", "--s", "4", "--lambda", "1/2"),
     gausscalc.matrixrep, "BCH_TOL"),
    (("convolution-check", "--f", "x1^2", "--t", "1"), gausscalc.gaussian, "CONVOLUTION_TOL"),
])
def test_reported_tol_is_the_constant_the_verdict_used(capsys, argv, module, constant):
    # The benchmark masks floats, so only a test sees the printed tol drift.
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    tol = report["params"]["tol"]
    assert tol == getattr(module, constant)
    record = report["results"][0]
    gaps = {
        "check-identity": ("max_rel_error",),
        "bch-check": ("bch_rel_err", "bch2_rel_err", "scalar_abs_err"),
        "convolution-check": ("rel_discrepancy",),
    }[argv[0]]
    assert all(record[gap] <= tol for gap in gaps)


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
        assert report["params"]["t"] == str(_DEMO_T) == "1/2"


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
        # q = 3 is not even, so the left-hand norms need quadrature
        code, report, _ = run_cli(
            capsys, "hypercontractivity-scan",
            "--p", "2", "--q", "3", "--s", "1", "--lambda", "1/2",
            "--degree-cap", "4",
        )
        assert code == 0
        assert report["params"]["condition_holds"] is True
        assert all(r["method"] == "quadrature" for r in report["results"])

    def test_high_degree_even_exponents_give_valid_json(self, capsys):
        # Float quadrature of f^4 overflowed here and printed NaN, which is
        # not JSON and compared as contractive.
        code = main(["hypercontractivity-scan", "--p", "4", "--q", "4", "--s", "1",
                     "--lambda", "1/2", "--degree-cap", "52"])
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=_refuse_constant)
        assert code == 0
        assert report["verdict"] == "pass"
        assert len(report["results"]) == 55

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

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_report_names_the_oracle_constants(self, capsys, command, q):
        # Neither the node count nor the Monte Carlo key is an option, on
        # the exact L^2 route (q = 2) or the quadrature one (q = 3).
        code, report, _ = run_cli(capsys, command, "--p", "2", "--q", q, "--s", "1",
                                  "--lambda", "1/2", "--degree-cap", "1")
        assert code == 0
        assert report["seed"] == MC_KEY == 0
        assert report["params"]["budget"] == LP_QUADRATURE_NODES == 401
        methods = {r["method"] for r in report["results"]}
        assert methods == ({"exact"} if q == "2" else {"quadrature"})


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
            "--degree-cap", "3",
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
            "--degree-cap", "0",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["condition_holds"] is False
        assert report["params"]["witness"] == "1/2 x1 + 1"

    def test_transcribed_condition_is_not_the_checked_one(self, capsys):
        # (p-1)/(q-1) <= s/(s-t) holds here, but the checked condition
        # (q-1)/(p-1) <= s/(s-t) fails, and x1 expands: ratio 0.9 * 945^(1/10)
        code, report, _ = run_cli(
            capsys, "sharpness-probe", "--p", "2", "--q", "10", "--s", "1", "--lambda", "9/10",
        )
        assert code == 0
        assert report["params"]["condition_holds"] is False
        assert report["params"]["witness"] == "x1"
        ratio = next(r["ratio"] for r in report["results"] if r["f"] == "x1")
        assert abs(ratio - 0.9 * 945 ** 0.1) < 1e-12

    def test_inconclusive_when_the_battery_is_too_weak(self, capsys):
        # condition barely fails; at q = 5/2 the expansion of 1 + x1/1000
        # (~1.7e-8) is far below the Monte Carlo bound of the left-hand norm
        code, report, _ = run_cli(
            capsys, "sharpness-probe",
            "--p", "2", "--q", "5/2", "--s", "1", "--lambda", "83/100",
            "--degree-cap", "0", "--epsilon-grid", "1/1000",
        )
        assert code == 0
        assert report["verdict"] == "inconclusive"
        assert report["params"]["condition_holds"] is False
        assert report["params"]["witness"] is None

    def test_exact_norms_resolve_a_tiny_expansion(self, capsys):
        # p and q even: both norms come from exact moments, so an expansion
        # of ~4e-8 relative is resolved against bounds of a few ulps
        code, report, _ = run_cli(
            capsys, "sharpness-probe",
            "--p", "2", "--q", "4", "--s", "1", "--lambda", "3/5",
            "--degree-cap", "0", "--epsilon-grid", "1/1000",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["params"]["condition_holds"] is False
        assert report["params"]["witness"] == "1/1000 x1 + 1"
        assert all(r["method"] == "exact" for r in report["results"])


class TestConvolutionCheck:
    def test_shifted_quartic(self, capsys):
        code, report, _ = run_cli(
            capsys, "convolution-check", "--f", "x1^4", "--t", "2", "--x", "x1=1"
        )
        assert code == 0
        record = report["results"][0]
        assert record["algebraic"] == 25.0
        assert record["rel_discrepancy"] <= 1e-10

    def test_a_perturbed_series_exits_one(self, capsys, monkeypatch):
        real = gausscalc.gaussian.heat
        monkeypatch.setattr(gausscalc.gaussian, "heat",
                            lambda f, t: real(f, t) + Fraction(1, 10**9))
        code, report, err = run_cli(capsys, "convolution-check", "--f", "x1^2", "--t", "1")
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["params"]["nodes"] == 2 // 2 + 5
        assert report["params"]["tol"] < report["results"][0]["rel_discrepancy"]
        assert err.startswith("fail: relative discrepancy")

    def test_node_cap_names_the_count_and_the_cap(self, capsys):
        # No option sets the node count, so the refusal gives no advice about one.
        code = main(["convolution-check", "--f", "x1 x2 x3 x4 x5 x6 x7 x8 x9", "--t", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "9^9 = 387420489 tensor nodes exceeds the cap of 100000000" in captured.err
        assert "budget" not in captured.err

    def test_bad_point_syntax(self, capsys):
        code, _, _ = run_cli(
            capsys, "convolution-check", "--f", "x1", "--t", "1", "--x", "y1=2"
        )
        assert code == 2

    def test_nonpositive_time_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "convolution-check", "--f", "x1", "--t", "0")
        assert code == 2

    @pytest.mark.parametrize("point", ["x1=1,x1=2", "x1=1, x01=2"])
    def test_repeated_variable_rejected(self, capsys, point):
        # The last assignment used to win silently.
        code = main(["convolution-check", "--f", "x1^2", "--t", "1", "--x", point])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "x1 is assigned more than once" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_point_rejected(self, capsys, value):
        code = main(["convolution-check", "--f", "x1^2", "--t", "1", "--x", f"x1={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "finite" in captured.err
        assert "NaN" not in captured.out and "Infinity" not in captured.out


class TestStrictIntegers:
    """Every CLI integer is an optional '-' then ASCII digits, nothing else."""

    SCAN = ("hypercontractivity-scan", "--p", "2", "--q", "3", "--s", "1", "--lambda", "1/2")
    CONVOLVE = ("convolution-check", "--f", "x1^2", "--t", "1")

    # Each argv, with the option argparse must name in its refusal.
    MALFORMED = {
        ("hermite", "--alpha", "+2,1_0", "--s", "1"): "--alpha",
        CONVOLVE + ("--x", "x+1=2"): "--x",
        CONVOLVE + ("--x", "x 1=2"): "--x",
        CONVOLVE + ("--x", "x\u0663=2"): "--x",
        ("bch-check", "--m", "+2", "--n", "1_0", "--s", "1", "--lambda", "1/2"): "--m",
        ("bch-check", "--m", "2", "--n", "1_0", "--s", "1", "--lambda", "1/2"): "--n",
        ("nonclosability-demo", "--s", "1", "--n", "\u0663"): "--n",
        SCAN + ("--degree-cap", "1_0"): "--degree-cap",
        SCAN + ("--degree-cap", "+4"): "--degree-cap",
        ("nonclosability-demo", "--s", "1", "--n", "+4"): "--n",
        ("apply-heat", "--f", "\u0663x1", "--t", "1"): "--f",
    }

    @pytest.mark.parametrize("argv", list(MALFORMED))
    def test_malformed_integers_rejected(self, capsys, argv):
        # int() alone would read '+2', '1_0' and non-ASCII digits.
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {self.MALFORMED[argv]}: " in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("bch-check", "--m", "0", "--n", "2", "--s", "1", "--lambda", "1/2"), "at least 1, got 0"),
        (("bch-check", "--m", "1", "--n=-1", "--s", "1", "--lambda", "1/2"), "at least 0, got -1"),
        (("nonclosability-demo", "--s", "1", "--n", "0"), "at least 1, got 0"),
        (SCAN + ("--degree-cap=-2",), "at least 0, got -2"),
        (("nonclosability-demo", "--s", "1", "--n", "1001"), "at most 1000, got 1001"),
        (SCAN + ("--degree-cap", "65"), "at most 64, got 65"),
    ])
    def test_out_of_range_integers_name_the_bound(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_spaces_around_alpha_parts_allowed(self, capsys):
        code, report, _ = run_cli(capsys, "hermite", "--alpha", "2, 0, 3", "--s", "1")
        assert code == 0
        assert report["params"]["alpha"] == "x1^2 x3^3"


class TestStrictRationals:
    """Every CLI rational is an optional '-', ASCII digits, then optionally '/' and digits."""

    SCAN = ("hypercontractivity-scan", "--p", "2", "--q", "4", "--s", "1", "--lambda", "1/2")
    ARGV = {
        "--s": ("hermite", "--alpha", "1", "--s", "{}"),
        "--t": ("apply-heat", "--f", "x1^2", "--t={}"),
        "--lambda": ("check-identity", "--f", "x1", "--s", "4", "--lambda", "{}"),
        "--p": SCAN[:2] + ("{}",) + SCAN[3:],
        "--q": SCAN[:4] + ("{}",) + SCAN[5:],
        "--epsilon-grid": SCAN + ("--epsilon-grid", "1/2,{}"),
        "--x": ("convolution-check", "--f", "x1^2", "--t", "1", "--x", "x1={}"),
    }

    @pytest.mark.parametrize("bad", ["1_0", "1e3", "1.5", "+2", "\u0663", "2 /3"])
    @pytest.mark.parametrize("option", list(ARGV))
    def test_loose_rationals_rejected(self, capsys, option, bad):
        # Fraction() alone reads '1_0', '1e3' and '1.5' as 10, 1000 and 3/2.
        code = main([part.format(bad) for part in self.ARGV[option]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {option}: " in captured.err

    @pytest.mark.parametrize("option, text, key, value", [
        ("--s", " 3/5 ", "s", "3/5"),
        ("--t", "-1/2", "t", "-1/2"),
        ("--lambda", "1/2 ", "lambda", "1/2"),
        ("--p", "4", "p", "4"),
        ("--q", " 4", "q", "4"),
        ("--epsilon-grid", " 3/5 ", "epsilon_grid", ["1/2", "3/5"]),
        ("--x", "-1/2", "x", "x1=-1/2"),
    ])
    def test_strict_rationals_still_parse(self, capsys, option, text, key, value):
        code, report, _ = run_cli(capsys, *(part.format(text) for part in self.ARGV[option]))
        assert code == 0
        assert report["params"][key] == value


class TestFloatOverflow:
    """A float route that overflows is a bad invocation, not a failure or a traceback."""

    ZEROS = "1" + "0" * 400

    @pytest.mark.parametrize("argv, message", [
        (("bch-check", "--m", "1", "--n", "80", "--s", "1000000000",
          "--lambda", "1/1000000000"), "dimension 81"),
        (("convolution-check", "--f", "x1^160", "--t", "10000", "--x", "x1=1"),
         "t = 10000, deg f = 160"),
        (("check-identity", "--f", f"{ZEROS} x1", "--s", "1", "--t", "1/2"), ""),
        (("hypercontractivity-scan", "--p", "2", "--q", "3", "--s", "1", "--lambda", "1/2",
          "--epsilon-grid", ZEROS), ""),
    ])
    def test_exits_two_with_an_error(self, capsys, argv, message):
        # NaN is not JSON and an OverflowError traceback is not a verdict.
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err


    @pytest.mark.parametrize("argv, message", [
        (("check-identity", "--f", f"{ZEROS} x1", "--s", "1", "--t", "1/2"),
         "at s = 1, t = 1/2, deg f = 1 (largest coefficient 401 digits)"),
        (("hypercontractivity-scan", "--p", "2", "--q", "3", "--s", "1", "--lambda", "1/2",
          "--epsilon-grid", ZEROS), "at p = 3, deg f = 1 (largest coefficient 401 digits), s = 1/4"),
    ])
    def test_message_names_the_polynomial_and_the_scale(self, capsys, argv, message):
        # float(Fraction) alone says "integer division result too large for a float".
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


class TestExtremeScales:
    """Valid scales far outside the float range run exactly or exit 2 naming the value."""

    ZEROS = "0" * 400

    @pytest.mark.parametrize("argv, tau", [
        (("check-identity", "--f", "x1", "--s", "1", "--lambda", f"1/1{ZEROS}"), 400),
        (("check-identity", "--f", "x1", "--s", "1", "--lambda", f"1{ZEROS}"), -400),
        (("bch-check", "--m", "1", "--n", "2", "--s", "1", "--lambda", f"1/1{ZEROS}"), 400),
        (("hypercontractivity-scan", "--p", "2", "--q", "2", "--s", "1",
          "--lambda", f"1/1{ZEROS}"), None),
    ], ids=["identity-tiny-lambda", "identity-huge-lambda", "bch-tiny-lambda", "l2-tiny-lambda"])
    def test_exact_routes_run(self, capsys, argv, tau):
        # tau = -log(lambda) used to be taken of float(lambda): 0.0 or an overflow.
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0
        assert report["verdict"] == "pass"
        if tau is not None:
            assert report["params"]["tau"] == pytest.approx(tau * math.log(10), rel=1e-15)

    @pytest.mark.parametrize("argv, message", [
        (("check-identity", "--f", "x1", "--s", f"1/1{ZEROS}", "--t=-1"),
         "the scale lambda^2 = 1000000000000000000000000000000000000000... (401 characters)"),
        (("check-identity", "--f", "x1", "--s", "1", f"--t=-1{ZEROS}"),
         "(s = 1, t = -100000000000000000000000000000000000000... (402 characters)) "
         "is beyond the float range"),
        (("bch-check", "--m", "1", "--n", "2", "--s", f"1{ZEROS}", "--lambda", "1/2"),
         "cannot represent s = 1000000000000000000000000000000000000000... (401 characters)"),
        (("hypercontractivity-scan", "--p", f"1{ZEROS}", "--q", "3", "--s", "1",
          "--lambda", "1/2"),
         "not finite in floating point at p = 1000000000000000000000000000000000000000... "
         "(401 characters)"),
        (("sharpness-probe", "--p", "3/2", "--q", "3", "--s", f"1/1{ZEROS}", "--lambda", "1/2",
          "--degree-cap", "2"),
         "underflows to 0 in floating point at p = 3, deg f = 1"),
        # Even p and q: the exact moment is positive but its float root is
        # 0.0, and the search for a bound bracketing it ran to inf.
        (("hypercontractivity-scan", "--p", "2", "--q", "4", "--s", f"1/1{ZEROS}{ZEROS}",
          "--lambda", "1/2", "--degree-cap", "2"),
         "underflows to 0 in floating point at p = 4, deg f = 1 (largest coefficient 1 "
         f"digits), s = 1/4{'0' * 37}... (803 characters)"),
        (("hypercontractivity-scan", "--p", "4", "--q", "4", "--s", f"1/1{ZEROS}",
          "--lambda", "1/2"),
         "underflows to 0 in floating point at p = 4, deg f = 2 (largest coefficient 1 "
         f"digits), s = 1/4{'0' * 37}... (403 characters)"),
    ], ids=["identity-tiny-s", "identity-huge-t", "bch-huge-s", "scan-huge-p",
            "probe-underflow", "even-scan-underflow", "quartic-scan-underflow"])
    def test_float_routes_name_the_value(self, capsys, argv, message):
        # These printed "math domain error", "integer division result too
        # large for a float" or "Out of range float values are not JSON compliant".
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err


class TestLongValues:
    @pytest.mark.parametrize("argv", [
        ("hermite", "--alpha", "1", "--s", "1" * 5000),
        ("hypercontractivity-scan", "--p", "2", "--q", "3", "--s", "1" + "0" * 400,
         "--lambda", "1/2"),
        ("convolution-check", "--f", "x1", "--t", "1" + "0" * 400, "--x", "x1=1"),
        ("convolution-check", "--f", "x1", "--t", "1", "--x", "x1=1/" + "0" * 4000),
    ], ids=["refused-rational", "huge-s", "huge-t", "refused-point"])
    def test_errors_quote_a_long_value_briefly(self, capsys, argv):
        # The messages used to echo every digit.  argparse's usage line comes
        # before a usage error's message.
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = captured.err.splitlines()[-1]
        assert "error: " in error and "characters)" in error
        assert len(error) < 200


class TestBoundedSummaries:
    """The stderr summary quotes a polynomial briefly; the report keeps all of it."""

    @pytest.mark.parametrize("argv, key, expected", [
        (("check-identity", "--f", "x1^12", "--s", "1", "--lambda", "1/1" + "0" * 400),
         "lhs", lambda: dilate(heat(parse("x1^12"), 1 - Fraction(1, 10**400) ** 2),
                               Fraction(1, 10**400))),
        (("hermite", "--alpha", "60,60", "--s", "7/3"),
         "polynomial", lambda: hermite({1: 60, 2: 60}, Fraction(7, 3))),
        (("apply-heat", "--f", "x1^40 x2^40", "--t", "5/7"),
         "output", lambda: heat(parse("x1^40 x2^40"), Fraction(5, 7))),
        (("check-commutator", "--f", " + ".join(f"{k} x1^{k} x2" for k in range(1, 80))),
         None, lambda: parse(" + ".join(f"{k} x1^{k} x2" for k in range(1, 80)))),
    ], ids=["check-identity", "hermite", "apply-heat", "check-commutator"])
    def test_summary_is_short_and_the_report_whole(self, capsys, argv, key, expected):
        code, report, err = run_cli(capsys, *argv)
        assert code == 0
        assert len(err) < 300 and err.count("\n") == 1
        poly = expected()
        text = report["results"][0][key] if key else report["params"]["f"]
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the sides have coefficients of over 4300 digits
        try:
            assert text == serialize(poly) and len(text) > 1000
        finally:
            sys.set_int_max_str_digits(digit_limit)
        assert err.startswith("pass: ")
        assert err.endswith(f"... ({len(text)} characters) ({len(poly)} terms)\n")
        assert text[:40] in err

    def test_a_short_polynomial_is_quoted_whole(self, capsys):
        _, _, err = run_cli(capsys, "apply-heat", "--f", "x1^2", "--t", "1")
        assert err == "pass: x1^2 + 1 (2 terms)\n"
        _, _, err = run_cli(capsys, "apply-heat", "--f", "x1", "--t", "1")
        assert err == "pass: x1 (1 term)\n"

    def test_a_failing_identity_quotes_its_witness(self, capsys, monkeypatch):
        original = gausscalc.semigroups.hermite_semigroup
        monkeypatch.setattr(gausscalc.semigroups, "hermite_semigroup",
                            lambda f, s, lam: original(f, s, lam) + Polynomial.variable(9))
        code, report, err = run_cli(
            capsys, "check-identity", "--f", "x1^2", "--s", "4", "--lambda", "1/2"
        )
        assert code == 1
        assert report["results"][0]["witness"] == "-x9"
        assert err == "fail: witness -x9 (1 term)\n"


class TestReadmeExamples:
    """A tooling guard: the README's CLI examples must keep running."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    @staticmethod
    def examples():
        # The sh block that runs the CLI, not the installation block before it.
        text = TestReadmeExamples.README.read_text(encoding="utf-8")
        block = next(b for b in text.split("```sh\n")[1:] if b.startswith("gausscalc "))
        return [line.split("  #", 1)[0].strip() for line in block.split("```", 1)[0].splitlines()
                if line.startswith("gausscalc ")]

    def test_the_block_is_found(self):
        assert len(self.examples()) == 10

    @pytest.mark.parametrize("index", range(10))
    def test_example_runs(self, capsys, index):
        argv = shlex.split(self.examples()[index])[1:]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert json.loads(out, parse_constant=_refuse_constant)["command"] == argv[0]


class TestPlumbing:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_bad_polynomial_reports_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "apply-heat", "--f", "x0 + 1", "--t", "1")
        assert code == 2

    def test_bad_rational(self, capsys):
        assert main(["check-identity", "--f", "x1", "--s", "zero", "--lambda", "1/2"]) == 2

    @pytest.mark.parametrize("argv", [
        ("hypercontractivity-scan", "--p", "2", "--q", "3", "--s", "1", "--lambda", "1/2",
         "--seed", "1"),
        ("sharpness-probe", "--p", "2", "--q", "3", "--s", "1", "--lambda", "1/2",
         "--budget", "101"),
        ("nonclosability-demo", "--s", "1", "--n", "4", "--t", "1"),
    ], ids=["seed", "budget", "demo-t"])
    def test_oracle_settings_are_not_options(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err

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
        assert json.loads(first.out, parse_constant=_refuse_constant)
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


class TestImportFloor:
    """scipy is not a dependency: no command may pull it in.  numpy.random is
    for the Monte Carlo cross-check: no exact-only command may pull it in."""

    LEAKED = "sorted(k for k in sys.modules if k.startswith('scipy'))"

    def _leaked(self, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_cli(self):
        assert self._leaked(f"import json, sys, gausscalc.cli; print(json.dumps({self.LEAKED}))") == []

    def test_module_run_of_hermite(self):
        code = (
            "import json, runpy, sys\n"
            "sys.argv = ['gausscalc', 'hermite', '--alpha', '2', '--s', '1']\n"
            "try:\n"
            "    runpy.run_module('gausscalc', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            f"print(json.dumps({self.LEAKED}))\n"
        )
        assert self._leaked(code) == []

    @pytest.mark.parametrize("argv", [
        ["check-identity", "--f", "x1^2 x2", "--s", "4", "--lambda", "1/2"],
        ["hermite", "--alpha", "2,1", "--s", "1"],
        ["apply-heat", "--f", "x1^4", "--t", "1/2"],
        ["nonclosability-demo", "--s", "1", "--n", "5"],
    ], ids=lambda argv: argv[0])
    def test_exact_commands_leave_out_numpy_random(self, argv):
        code = (
            "import contextlib, io, json, sys\n"
            "from gausscalc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(json.dumps(sorted(k for k in sys.modules if k.startswith('numpy.random'))))\n"
        )
        assert self._leaked(code) == []
