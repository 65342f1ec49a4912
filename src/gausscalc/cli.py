"""Command-line entry points: reproducible experiments, JSON reports.

Every subcommand prints a single JSON report to stdout and a one-line
human summary to stderr.  Exit code 0 means the checked property held
(or the run was informational), 1 means a checked identity or
inequality verifiably failed, 2 means the invocation itself was bad.
Rationals cross this boundary as "p/q" strings, never as floats, and a
fixed seed makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .gaussian import char_check, inner_product, lp_norm, variance_of
from .matrixrep import bch_check, graded_basis
from .poly import MultiIndex, Polynomial, PolyParseError, as_fraction, parse, serialize
from .semigroups import (
    VarianceParams,
    heat,
    heat_convolution_oracle,
    hermite,
    hermite_semigroup,
    l2_contraction_ratio,
    laplacian,
    nonclosability_example,
    verify_commutator,
    verify_ident2,
    verify_nested_commutator,
)

#: Relative slack allowed when comparing two quadrature norms.
NORM_REL_TOL = 1e-6

_EXIT_BY_VERDICT = {"pass": 0, "inconclusive": 0, "fail": 1}


def _rat(x) -> str:
    return str(Fraction(x))


def _rational_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_rational_arg(text: str) -> Fraction:
    value = _rational_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _poly_arg(text: str) -> Polynomial:
    try:
        return parse(text)
    except PolyParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _alpha_arg(text: str) -> MultiIndex:
    try:
        exponents = [int(part) for part in text.split(",")]
        if any(e < 0 for e in exponents):
            raise ValueError
        return MultiIndex({i + 1: e for i, e in enumerate(exponents) if e})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated nonnegative exponents like '2,0,3', got {text!r}"
        )


def _point_arg(text: str) -> dict:
    """Parse 'x1=1/2,x2=-3' into {1: Fraction(1,2), 2: Fraction(-3)}."""
    point = {}
    if not text.strip():
        return point
    for chunk in text.split(","):
        try:
            name, raw = chunk.split("=", 1)
            name = name.strip()
            if not name.startswith("x"):
                raise ValueError
            var = int(name[1:])
            if var < 1:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected assignments like 'x1=1/2,x2=-3', got {chunk!r}"
            )
        try:
            point[var] = as_fraction(raw.strip())
        except (ValueError, TypeError):
            try:
                value = float(raw)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad value for {name}: {raw!r}")
            if not math.isfinite(value):
                raise argparse.ArgumentTypeError(f"{name} must be finite, got {raw!r}")
            point[var] = value
    return point


def _grid_arg(text: str) -> tuple:
    try:
        return tuple(as_fraction(part) for part in text.split(","))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _gt1_rational_arg(text: str) -> Fraction:
    value = _rational_arg(text)
    if value <= 1:
        raise argparse.ArgumentTypeError(f"must be greater than 1, got {value}")
    return value


def _int_at_least(lowest: int):
    """argparse type for an integer >= lowest."""

    def parse_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse_int


def _positive_float_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _params_from_args(args) -> VarianceParams:
    if args.lam is not None and args.t is not None:
        raise ValueError("give either --lambda or --t, not both")
    if args.lam is not None:
        return VarianceParams.from_scale(args.s, args.lam)
    if args.t is not None:
        return VarianceParams.from_times(args.s, args.t)
    raise ValueError("one of --lambda or --t is required")


# -- subcommand handlers -----------------------------------------------------


def _cmd_check_identity(args):
    params = _params_from_args(args)
    result = verify_ident2(args.f, params, float_tol=args.tol)
    report_params = {
        "f": serialize(args.f),
        "s": _rat(params.s),
        "t": _rat(params.t),
        "lambda": _rat(params.lam) if params.lam is not None else None,
        "lambda_squared": _rat(params.lam_sq),
        "tau": params.tau,
        "tol": args.tol,
    }
    record = {
        "name": "dilated heat flow vs Hermite coefficient decay",
        "lhs": serialize(result.lhs),
        "rhs": serialize(result.rhs),
        "witness": serialize(result.witness),
        "mode": result.mode,
        "max_rel_error": result.max_rel_error,
        "ok": result.ok,
    }
    verdict = "pass" if result.ok else "fail"
    summary = (
        f"{verdict}: both sides {serialize(result.lhs)}"
        if result.ok
        else f"{verdict}: witness {serialize(result.witness)}"
    )
    return _report("check-identity", report_params, [record], verdict), summary


def _cmd_check_commutator(args):
    first = verify_commutator(args.f)
    nested = verify_nested_commutator(args.f)
    records = [
        {
            "name": "bracket of Laplacian with Euler equals twice Laplacian",
            "lhs": serialize(first.lhs),
            "rhs": serialize(first.rhs),
            "witness": serialize(first.witness),
            "ok": first.ok,
        },
        {
            "name": "nested bracket vanishes",
            "lhs": serialize(nested.lhs),
            "rhs": serialize(nested.rhs),
            "witness": serialize(nested.witness),
            "ok": nested.ok,
        },
    ]
    verdict = "pass" if first.ok and nested.ok else "fail"
    return (
        _report("check-commutator", {"f": serialize(args.f)}, records, verdict),
        f"{verdict}: bracket identities on {serialize(args.f)}",
    )


def _cmd_bch_check(args):
    basis = graded_basis(args.m, args.n)
    report = bch_check(args.s, args.lam, basis, tol=args.tol)
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
        "tol": args.tol,
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
    return _report("hermite", params, [record], "pass"), f"pass: {serialize(h)}"


def _cmd_apply_heat(args):
    result = heat(args.f, args.t)
    record = {"name": "heat flow", "input": serialize(args.f), "output": serialize(result)}
    params = {"f": serialize(args.f), "t": _rat(args.t)}
    return _report("apply-heat", params, [record], "pass"), f"pass: {serialize(result)}"


def _cmd_nonclosability_demo(args):
    s = variance_of(args.s)
    f_n = nonclosability_example(args.n, s)
    norm_sq = inner_product(f_n, f_n, s)
    expected_norm_sq = 2 * s * s / args.n
    lap = laplacian(f_n)
    shift = heat(f_n, args.t) - f_n
    ok = norm_sq == expected_norm_sq and lap == 2 and shift == Polynomial.constant(args.t)
    record = {
        "name": "vanishing sequence with constant Laplacian",
        "norm_squared": _rat(norm_sq),
        "expected_norm_squared": _rat(expected_norm_sq),
        "laplacian": serialize(lap),
        "heat_minus_identity": serialize(shift),
        "ok": ok,
    }
    params = {"s": _rat(s), "n": args.n, "t": _rat(args.t)}
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


def _norm_pair(f, p, q, s, t, budget, seed):
    """(||heat(f,t)||_{L^q(mu_{s-t})}, ||f||_{L^p(mu_s)}) as LpEstimates."""
    flowed = heat(f, t)
    lhs = lp_norm(flowed, q, s - t, budget=budget, seed=seed)
    rhs = lp_norm(f, p, s, budget=budget, seed=seed + 1)
    return lhs, rhs


def _contraction_records(p, q, s, lam, degree_cap, epsilon_grid, budget, seed):
    """Test every battery function; returns (records, first_violation_index)."""
    t = s * (1 - lam * lam)
    exact_l2 = p == 2 and q == 2 and t > 0
    records = []
    violation = None
    for idx, f in enumerate(_battery(s, degree_cap, epsilon_grid)):
        record = {"f": serialize(f)}
        if f.is_zero:
            continue
        if exact_l2:
            ratio_sq = l2_contraction_ratio(f, s, t)
            record["method"] = "exact"
            record["ratio_squared"] = _rat(ratio_sq)
            record["ratio"] = math.sqrt(float(ratio_sq))
            violated = ratio_sq > 1
        else:
            lhs, rhs = _norm_pair(f, p, q, s, t, budget, seed + 100 * idx)
            record["method"] = "quadrature"
            record["lhs"] = lhs.value
            record["rhs"] = rhs.value
            record["error_bound"] = lhs.abs_error_bound + rhs.abs_error_bound
            record["ratio"] = lhs.value / rhs.value if rhs.value else math.inf
            allowance = NORM_REL_TOL * rhs.value + lhs.abs_error_bound + rhs.abs_error_bound
            violated = lhs.value > rhs.value + allowance
        record["contractive"] = not violated
        records.append(record)
        if violated and violation is None:
            violation = idx
    return records, violation


def _cmd_hypercontractivity_scan(args):
    s = variance_of(args.s)
    lam = args.lam
    if not 0 < lam <= 1:
        raise ValueError(f"need a scale in (0, 1], got {lam}")
    t = s * (1 - lam * lam)
    condition_holds = (args.q - 1) * lam * lam <= (args.p - 1)
    records, violation = _contraction_records(
        args.p, args.q, s, lam, args.degree_cap, args.epsilon_grid, args.budget, args.seed
    )
    params = {
        "p": _rat(args.p),
        "q": _rat(args.q),
        "s": _rat(s),
        "lambda": _rat(lam),
        "t": _rat(t),
        "degree_cap": args.degree_cap,
        "epsilon_grid": [_rat(e) for e in args.epsilon_grid],
        "budget": args.budget,
        "condition_holds": condition_holds,
    }
    verdict = "pass" if violation is None else "fail"
    summary = (
        f"{verdict}: {len(records)} functions, all contractive"
        if violation is None
        else f"{verdict}: contraction violated by {records[violation]['f']}"
    )
    return _report("hypercontractivity-scan", params, records, verdict, seed=args.seed), summary


def _cmd_sharpness_probe(args):
    s = variance_of(args.s)
    lam = args.lam
    if not 0 < lam <= 1:
        raise ValueError(f"need a scale in (0, 1], got {lam}")
    t = s * (1 - lam * lam)
    # Contractivity holds exactly when (q-1)/(p-1) <= s/(s-t) = 1/lam^2.
    condition_holds = (args.q - 1) * lam * lam <= (args.p - 1)
    records, violation = _contraction_records(
        args.p, args.q, s, lam, args.degree_cap, args.epsilon_grid, args.budget, args.seed
    )
    params = {
        "p": _rat(args.p),
        "q": _rat(args.q),
        "s": _rat(s),
        "lambda": _rat(lam),
        "t": _rat(t),
        "degree_cap": args.degree_cap,
        "epsilon_grid": [_rat(e) for e in args.epsilon_grid],
        "budget": args.budget,
        "condition_holds": condition_holds,
    }
    if condition_holds:
        verdict = "pass" if violation is None else "fail"
        summary = (
            f"{verdict}: condition holds and every battery function contracts"
            if violation is None
            else f"{verdict}: condition holds but {records[violation]['f']} expands"
        )
        witness = None if violation is None else records[violation]["f"]
    else:
        if violation is not None:
            verdict = "pass"
            witness = records[violation]["f"]
            summary = f"pass: condition fails and {witness} witnesses the expansion"
        else:
            verdict = "inconclusive"
            witness = None
            summary = (
                f"inconclusive: condition fails but no violation found up to "
                f"degree {args.degree_cap}"
            )
    params["witness"] = witness
    return _report("sharpness-probe", params, records, verdict, seed=args.seed), summary


def _cmd_convolution_check(args):
    degree = 0 if args.f.is_zero else int(max(args.f.degree, 0))
    nodes = args.nodes if args.nodes is not None else degree // 2 + 5
    result = heat_convolution_oracle(args.f, args.t, args.x, nodes)
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
        "nodes": nodes,
        "tol": args.tol,
    }
    verdict = "pass" if result.rel_discrepancy <= args.tol else "fail"
    return (
        _report("convolution-check", params, [record], verdict),
        f"{verdict}: relative discrepancy {result.rel_discrepancy:.3e}",
    )


# -- plumbing ----------------------------------------------------------------


def _report(command, params, results, verdict, seed=None):
    report = {
        "command": command,
        "params": params,
        "results": results,
        "verdict": verdict,
    }
    if seed is not None:
        report["seed"] = seed
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausscalc",
        description="Exact checks of the heat/Hermite/dilation calculus on polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json-out", metavar="PATH", default=None,
                       help="also write the JSON report to this file")
        return p

    p = add("check-identity", _cmd_check_identity,
            "dilated heat flow vs Hermite coefficient decay on one polynomial")
    p.add_argument("--f", type=_poly_arg, required=True, help="polynomial text")
    p.add_argument("--s", type=_positive_rational_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_rational_arg, default=None,
                   help="scale; t = s(1 - lambda^2) is derived")
    p.add_argument("--t", type=_rational_arg, default=None,
                   help="time; the scale is sqrt((s-t)/s), exact only for perfect squares")
    p.add_argument("--tol", type=_positive_float_arg, default=1e-12,
                   help="relative tolerance for the float path (irrational scale)")

    p = add("check-commutator", _cmd_check_commutator,
            "bracket identities of the Laplacian and Euler operators")
    p.add_argument("--f", type=_poly_arg, required=True)

    p = add("bch-check", _cmd_bch_check,
            "exponential factorization on a graded matrix basis")
    p.add_argument("--m", type=int, required=True, help="variable count")
    p.add_argument("--n", type=int, required=True, help="max degree")
    p.add_argument("--s", type=_positive_rational_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_rational_arg, required=True)
    p.add_argument("--tol", type=_positive_float_arg, default=1e-10)

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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=_rational_arg, default=Fraction(1, 2))

    p = add("hypercontractivity-scan", _cmd_hypercontractivity_scan,
            "norm contraction over the documented battery")
    p.add_argument("--p", type=_gt1_rational_arg, required=True)
    p.add_argument("--q", type=_gt1_rational_arg, required=True)
    p.add_argument("--s", type=_positive_rational_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_rational_arg, required=True)
    p.add_argument("--degree-cap", type=_int_at_least(0), default=6)
    p.add_argument("--epsilon-grid", type=_grid_arg, default=(Fraction(1, 2), Fraction(1, 10)))
    p.add_argument("--budget", type=_int_at_least(1), default=401,
                   help="quadrature nodes per variable")
    p.add_argument("--seed", type=int, default=0)

    p = add("sharpness-probe", _cmd_sharpness_probe,
            "classify (p,q,s,t) and hunt for an expansion witness when allowed")
    p.add_argument("--p", type=_gt1_rational_arg, required=True)
    p.add_argument("--q", type=_gt1_rational_arg, required=True)
    p.add_argument("--s", type=_positive_rational_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_rational_arg, required=True)
    p.add_argument("--degree-cap", type=_int_at_least(0), default=6)
    p.add_argument("--epsilon-grid", type=_grid_arg, default=(Fraction(1, 2), Fraction(1, 10)))
    p.add_argument("--budget", type=_int_at_least(1), default=401)
    p.add_argument("--seed", type=int, default=0)

    p = add("convolution-check", _cmd_convolution_check,
            "heat kernel integration vs the series, at one point")
    p.add_argument("--f", type=_poly_arg, required=True)
    p.add_argument("--t", type=_positive_rational_arg, required=True)
    p.add_argument("--x", type=_point_arg, default={},
                   help="evaluation point like 'x1=1/2,x2=-3' (missing variables are 0)")
    p.add_argument("--nodes", type=int, default=None,
                   help="quadrature nodes per variable (default: enough for deg f, plus margin)")
    p.add_argument("--tol", type=_positive_float_arg, default=1e-10,
                   help="relative discrepancy allowed")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors.
        return int(exc.code or 0)
    try:
        report, summary = args.handler(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
