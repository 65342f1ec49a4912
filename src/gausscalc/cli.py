"""Command-line entry points: reproducible experiments, JSON reports.

Every subcommand prints a single JSON report to stdout and a one-line
human summary to stderr.  Exit code 0 means the checked property held
(or the run was informational), 1 means a checked identity or
inequality verifiably failed, 2 means the invocation itself was bad.
Rationals cross this boundary as "p/q" strings, never as floats.  No
numeric oracle takes a setting, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .gaussian import (CONVOLUTION_TOL, LP_QUADRATURE_NODES, MC_KEY, heat_convolution_oracle,
                       inner_product, lp_norm)
from .matrixrep import BCH_TOL, bch_check, graded_basis
from .poly import MultiIndex, Polynomial, abbreviate, as_fraction, parse, serialize
from .semigroups import (
    IDENT_FLOAT_TOL,
    VarianceParams,
    heat,
    hermite,
    l2_contraction_ratio,
    laplacian,
    nonclosability_example,
    variance_of,
    verify_commutator,
    verify_ident2,
    verify_nested_commutator,
)

_EXIT_BY_VERDICT = {"pass": 0, "inconclusive": 0, "fail": 1}

#: The heat time at which nonclosability-demo checks P_t f_n - f_n = t.
_DEMO_T = Fraction(1, 2)
#: Largest nonclosability-demo --n: the self inner product of f_n costs n^2 term pairs.
_DEMO_N_CAP = 1000
#: Largest --degree-cap: an even-exponent scan's time grows about as its cube.
_DEGREE_CAP_MAX = 64


def _rat(x) -> str:
    return str(Fraction(x))


def _arg(convert, accept=None, requirement=""):
    """argparse type: convert(text), refused with `requirement` unless accept(value).

    A ValueError or TypeError from convert becomes the usage error verbatim.
    """

    def parse_arg(text: str):
        try:
            value = convert(text)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if accept is not None and not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {abbreviate(value)}")
        return value

    return parse_arg


def _integer(text: str) -> int:
    """An optional '-' then ASCII digits; no '+', '_', spaces or other digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an integer: {abbreviate(repr(text))}")
    return int(text)


def _multi_index(text: str) -> MultiIndex:
    """'2,0,3' as the multi-index of x1^2 x3^3."""
    try:
        exponents = [_integer(part.strip()) for part in text.split(",")]
        if any(e < 0 for e in exponents):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"expected comma-separated nonnegative exponents like '2,0,3', "
            f"got {abbreviate(repr(text))}"
        ) from None
    return MultiIndex({i + 1: e for i, e in enumerate(exponents) if e})


def _point(text: str) -> dict:
    """Parse 'x1=1/2,x2=-3' into {1: Fraction(1,2), 2: Fraction(-3)}."""
    point = {}
    for chunk in text.split(",") if text.strip() else ():
        try:
            name, raw = chunk.split("=", 1)
            name = name.strip()
            if not name.startswith("x"):
                raise ValueError
            var = _integer(name[1:])
            if var < 1:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"expected assignments like 'x1=1/2,x2=-3', got {abbreviate(repr(chunk))}"
            ) from None
        if var in point:
            raise ValueError(f"x{var} is assigned more than once in {abbreviate(repr(text))}")
        try:
            point[var] = as_fraction(raw)
        except ValueError:
            raise ValueError(
                f"{abbreviate(name)} must be a finite rational, got {abbreviate(repr(raw))}"
            ) from None
    return point


def _int_at_least(lowest: int):
    """argparse type for an integer >= lowest."""
    return _arg(_integer, lambda v: v >= lowest, f"must be at least {lowest}")


_rational_arg = _arg(as_fraction)
_positive_rational_arg = _arg(as_fraction, lambda v: v > 0, "must be positive")
_gt1_rational_arg = _arg(as_fraction, lambda v: v > 1, "must be greater than 1")
# parse is looked up per call, so a rebinding of this module's name (as
# bench/tracer.py does to count calls) is seen.
_poly_arg = _arg(lambda text: parse(text))
_grid_arg = _arg(lambda text: tuple(as_fraction(part) for part in text.split(",")))
_alpha_arg = _arg(_multi_index)
_point_arg = _arg(_point)


# -- subcommand handlers -----------------------------------------------------


def _quote(text: str, poly: Polynomial) -> str:
    """A polynomial's serialized text for a summary line: abbreviated, with its term count."""
    return f"{abbreviate(text)} ({len(poly)} term{'' if len(poly) == 1 else 's'})"


def _check_record(name, result) -> dict:
    """The report record of one CheckResult: both sides, witness, verdict."""
    return {
        "name": name,
        "lhs": serialize(result.lhs),
        "rhs": serialize(result.rhs),
        "witness": serialize(result.witness),
        "ok": result.ok,
    }


def _cmd_check_identity(args):
    if args.lam is not None:
        params = VarianceParams.from_scale(args.s, args.lam)
    else:
        params = VarianceParams.from_times(args.s, args.t)
    result = verify_ident2(args.f, params)
    report_params = {
        "f": serialize(args.f),
        "s": _rat(params.s),
        "t": _rat(params.t),
        "lambda": _rat(params.lam) if params.lam is not None else None,
        "lambda_squared": _rat(params.lam_sq),
        "tau": params.tau,
        "tol": IDENT_FLOAT_TOL,
    }
    record = _check_record("dilated heat flow vs Hermite coefficient decay", result)
    record.update(mode=result.mode, max_rel_error=result.max_rel_error)
    verdict = "pass" if result.ok else "fail"
    summary = f"pass: both sides {_quote(record['lhs'], result.lhs)}"
    if not result.ok:
        summary = f"fail: witness {_quote(record['witness'], result.witness)}"
    return _report("check-identity", report_params, [record], verdict), summary


def _cmd_check_commutator(args):
    first = verify_commutator(args.f)
    nested = verify_nested_commutator(args.f)
    records = [
        _check_record("bracket of Laplacian with Euler equals twice Laplacian", first),
        _check_record("nested bracket vanishes", nested),
    ]
    verdict = "pass" if first.ok and nested.ok else "fail"
    params = {"f": serialize(args.f)}
    return (
        _report("check-commutator", params, records, verdict),
        f"{verdict}: bracket identities on {_quote(params['f'], args.f)}",
    )


def _cmd_bch_check(args):
    basis = graded_basis(args.m, args.n)
    report = bch_check(args.s, args.lam, basis)
    record = {
        "name": "exponential factorization",
        "dim": report.dim,
        "bch_rel_err": report.bch_rel_err,
        "bch2_rel_err": report.bch2_rel_err,
        "scalar_lhs": report.scalar_lhs,
        "scalar_rhs": _rat(report.t / (2 * report.s)),
        "scalar_abs_err": report.scalar_abs_err,
        "exact_route_ok": report.exact_route_ok,
        "exact_witness": report.exact_witness,
    }
    params = {
        "m": args.m,
        "n": args.n,
        "s": _rat(report.s),
        "t": _rat(report.t),
        "lambda": _rat(report.lam),
        "tau": report.tau,
        "tol": BCH_TOL,
    }
    verdict = "pass" if report.ok else "fail"
    return (
        _report("bch-check", params, [record], verdict),
        f"{verdict}: float gaps {report.bch_rel_err:.3e}/{report.bch2_rel_err:.3e}, "
        f"exact route {'ok' if report.exact_route_ok else 'FAILED'}",
    )


def _cmd_hermite(args):
    h = hermite(args.alpha, args.s)
    norm_sq = args.alpha.factorial() * args.s ** args.alpha.degree
    record = {
        "name": "backward heat flow of the monomial",
        "monomial": str(args.alpha),
        "polynomial": serialize(h),
        "degree": args.alpha.degree,
        "norm_squared": _rat(norm_sq),
    }
    params = {"alpha": str(args.alpha), "s": _rat(args.s)}
    summary = f"pass: {_quote(record['polynomial'], h)}"
    return _report("hermite", params, [record], "pass"), summary


def _cmd_apply_heat(args):
    result = heat(args.f, args.t)
    record = {"name": "heat flow", "input": serialize(args.f), "output": serialize(result)}
    params = {"f": record["input"], "t": _rat(args.t)}
    summary = f"pass: {_quote(record['output'], result)}"
    return _report("apply-heat", params, [record], "pass"), summary


def _cmd_nonclosability_demo(args):
    s = variance_of(args.s)
    f_n = nonclosability_example(args.n, s)
    norm_sq = inner_product(f_n, f_n, s)
    expected_norm_sq = 2 * s * s / args.n
    lap = laplacian(f_n)
    shift = heat(f_n, _DEMO_T) - f_n
    ok = norm_sq == expected_norm_sq and lap == 2 and shift == Polynomial.constant(_DEMO_T)
    record = {
        "name": "vanishing sequence with constant Laplacian",
        "norm_squared": _rat(norm_sq),
        "expected_norm_squared": _rat(expected_norm_sq),
        "laplacian": serialize(lap),
        "heat_minus_identity": serialize(shift),
        "ok": ok,
    }
    params = {"s": _rat(s), "n": args.n, "t": _rat(_DEMO_T)}
    verdict = "pass" if ok else "fail"
    return (
        _report("nonclosability-demo", params, [record], verdict),
        f"{verdict}: squared norm {_rat(norm_sq)}, Laplacian {serialize(lap)}",
    )


def _battery(s: Fraction, degree_cap: int, epsilon_grid) -> list:
    """The documented probe battery: single-variable Hermite polynomials of
    each degree up to the cap, then the near-constant functions 1 + eps*x1."""
    functions = [hermite(MultiIndex({1: k} if k else {}), s) for k in range(degree_cap + 1)]
    x1 = Polynomial.variable(1)
    functions.extend(Polynomial.one() + eps * x1 for eps in epsilon_grid)
    return functions


def _contraction_records(p, q, s, t, degree_cap, epsilon_grid):
    """Test every battery function; returns (records, first_violation_index).

    Outside the exact L^2 case a function expands only when its two norms
    differ by more than their summed error bounds, each valid whatever the
    other drew: every Monte Carlo cross-check draws from Philox(key=MC_KEY).
    """
    exact_l2 = p == 2 and q == 2 and t > 0
    records = []
    violation = None
    for idx, f in enumerate(_battery(s, degree_cap, epsilon_grid)):
        record = {"f": serialize(f)}
        if exact_l2:
            ratio_sq = l2_contraction_ratio(f, s, t)
            record["method"] = "exact"
            record["ratio_squared"] = _rat(ratio_sq)
            record["ratio"] = math.sqrt(float(ratio_sq))
            violated = ratio_sq > 1
        else:
            lhs = lp_norm(heat(f, t), q, s - t)
            rhs = lp_norm(f, p, s)
            exact = lhs.method == rhs.method == "exact"
            record["method"] = "exact" if exact else "quadrature"
            record["lhs"] = lhs.value
            record["rhs"] = rhs.value
            record["error_bound"] = lhs.abs_error_bound + rhs.abs_error_bound
            record["ratio"] = lhs.value / rhs.value
            violated = lhs.value - rhs.value > record["error_bound"]
        record["contractive"] = not violated
        records.append(record)
        if violated and violation is None:
            violation = idx
    return records, violation


def _classify(command, condition_holds, witness, count, degree_cap):
    """(verdict, summary) of a battery scan.

    hypercontractivity-scan passes when every battery function contracts.
    sharpness-probe asks the same where the condition holds; where it
    fails, a witness of expansion is the expected outcome and passes, and
    finding none is inconclusive.
    """
    if command == "hypercontractivity-scan":
        if witness is None:
            return "pass", f"pass: {count} functions, all contractive"
        return "fail", f"fail: contraction violated by {witness}"
    if condition_holds:
        if witness is None:
            return "pass", "pass: condition holds and every battery function contracts"
        return "fail", f"fail: condition holds but {witness} expands"
    if witness is not None:
        return "pass", f"pass: condition fails and {witness} witnesses the expansion"
    return "inconclusive", (
        f"inconclusive: condition fails but no violation found up to degree {degree_cap}"
    )


def _cmd_contraction(args):
    if not 0 < args.lam <= 1:
        raise ValueError(f"need a scale in (0, 1], got {abbreviate(args.lam)}")
    scale = VarianceParams.from_scale(args.s, args.lam)
    # Contractivity holds exactly when (q-1)/(p-1) <= s/(s-t) = 1/lam^2.
    condition_holds = (args.q - 1) * scale.lam_sq <= (args.p - 1)
    records, violation = _contraction_records(
        args.p, args.q, scale.s, scale.t, args.degree_cap, args.epsilon_grid
    )
    params = {
        "p": _rat(args.p),
        "q": _rat(args.q),
        "s": _rat(scale.s),
        "lambda": _rat(scale.lam),
        "t": _rat(scale.t),
        "degree_cap": args.degree_cap,
        "epsilon_grid": [_rat(e) for e in args.epsilon_grid],
        "budget": LP_QUADRATURE_NODES,
        "condition_holds": condition_holds,
    }
    witness = None if violation is None else records[violation]["f"]
    verdict, summary = _classify(
        args.command, condition_holds, witness, len(records), args.degree_cap
    )
    if args.command == "sharpness-probe":
        params["witness"] = witness
    return {**_report(args.command, params, records, verdict), "seed": MC_KEY}, summary


def _cmd_convolution_check(args):
    result = heat_convolution_oracle(args.f, args.t, args.x)
    record = {
        "name": "kernel integration vs series",
        "numeric": result.numeric_value,
        "algebraic": result.algebraic_value,
        "abs_discrepancy": result.abs_discrepancy,
        "rel_discrepancy": result.rel_discrepancy,
    }
    point_text = ",".join(f"x{k}={v}" for k, v in sorted(args.x.items()))
    params = {
        "f": serialize(args.f),
        "t": _rat(args.t),
        "x": point_text,
        "nodes": result.nodes,
        "tol": CONVOLUTION_TOL,
    }
    verdict = "pass" if result.rel_discrepancy <= CONVOLUTION_TOL else "fail"
    return (
        _report("convolution-check", params, [record], verdict),
        f"{verdict}: relative discrepancy {result.rel_discrepancy:.3e}",
    )


# -- plumbing ----------------------------------------------------------------


def _report(command, params, results, verdict):
    return {"command": command, "params": params, "results": results, "verdict": verdict}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausscalc",
        description="Exact checks of the heat/Hermite/dilation calculus on polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json-out", metavar="PATH", default=None,
                       help="also write the JSON report to this file")
        return p

    p = add("check-identity", _cmd_check_identity,
            "dilated heat flow vs Hermite coefficient decay on one polynomial")
    p.add_argument("--f", type=_poly_arg, required=True, help="polynomial text")
    p.add_argument("--s", type=_positive_rational_arg, required=True)
    scale = p.add_mutually_exclusive_group(required=True)
    scale.add_argument("--lambda", dest="lam", type=_positive_rational_arg,
                       help="scale; t = s(1 - lambda^2) is derived")
    scale.add_argument("--t", type=_rational_arg,
                       help="time; the scale is sqrt((s-t)/s), exact only for perfect squares")

    p = add("check-commutator", _cmd_check_commutator,
            "bracket identities of the Laplacian and Euler operators")
    p.add_argument("--f", type=_poly_arg, required=True)

    p = add("bch-check", _cmd_bch_check,
            "exponential factorization on a graded matrix basis")
    p.add_argument("--m", type=_int_at_least(1), required=True, help="variable count")
    p.add_argument("--n", type=_int_at_least(0), required=True, help="max degree")
    p.add_argument("--s", type=_positive_rational_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_rational_arg, required=True)

    p = add("hermite", _cmd_hermite, "print one Hermite polynomial")
    p.add_argument("--alpha", type=_alpha_arg, required=True,
                   help="comma-separated exponents, e.g. '2,0,3'")
    p.add_argument("--s", type=_positive_rational_arg, required=True)

    p = add("apply-heat", _cmd_apply_heat, "run the heat flow on a polynomial")
    p.add_argument("--f", type=_poly_arg, required=True)
    p.add_argument("--t", type=_rational_arg, required=True,
                   help="time, any rational; negative runs the flow backwards "
                        "(write --t=-1/2, the separated form reads as a flag)")

    p = add("nonclosability-demo", _cmd_nonclosability_demo,
            "vanishing sequence whose Laplacian stays constant")
    p.add_argument("--s", type=_positive_rational_arg, required=True)
    p.add_argument("--n", type=_arg(_int_at_least(1), lambda v: v <= _DEMO_N_CAP,
                                    f"must be at most {_DEMO_N_CAP}"), required=True)

    for name, help_text in (
        ("hypercontractivity-scan", "norm contraction over the documented battery"),
        ("sharpness-probe",
         "classify (p,q,s,t) by the contraction condition (q-1)/(p-1) <= s/(s-t), "
         "that is (q-1) lambda^2 <= p-1 (PAPER.md's transcription of the abstract "
         "swaps p and q), and hunt for an expansion witness where it fails"),
    ):
        p = add(name, _cmd_contraction, help_text)
        p.add_argument("--p", type=_gt1_rational_arg, required=True)
        p.add_argument("--q", type=_gt1_rational_arg, required=True)
        p.add_argument("--s", type=_positive_rational_arg, required=True)
        p.add_argument("--lambda", dest="lam", type=_positive_rational_arg, required=True)
        p.add_argument("--degree-cap", type=_arg(_int_at_least(0), lambda v: v <= _DEGREE_CAP_MAX,
                                                 f"must be at most {_DEGREE_CAP_MAX}"), default=6)
        p.add_argument("--epsilon-grid", type=_grid_arg,
                       default=(Fraction(1, 2), Fraction(1, 10)))

    p = add("convolution-check", _cmd_convolution_check,
            "heat kernel integration vs the series, at one point")
    p.add_argument("--f", type=_poly_arg, required=True)
    p.add_argument("--t", type=_positive_rational_arg, required=True)
    p.add_argument("--x", type=_point_arg, default={},
                   help="evaluation point like 'x1=1/2,x2=-3' (missing variables are 0)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors.
        return int(exc.code or 0)
    # Exact results may outgrow Python's int-to-str digit limit, which still
    # guards the parsing of the arguments above.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        report, summary = args.handler(args)
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write --json-out: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return _EXIT_BY_VERDICT[report["verdict"]]
