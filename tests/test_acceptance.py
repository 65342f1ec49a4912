"""The acceptance gate: ten checks, one verdict line each.

Each test prints ``ACCEPTANCE k (name): PASS`` (or FAIL) straight to the
terminal, bypassing capture, then asserts.  Run the whole gate with

    pytest tests/test_acceptance.py -v
"""

import json
import random
from fractions import Fraction

import pytest

import helpers
from gausscalc.cli import main
from gausscalc.gaussian import heat_convolution_oracle, inner_product, lp_norm
from gausscalc.matrixrep import bch_check, graded_basis
from gausscalc.poly import Polynomial, parse
from gausscalc.semigroups import (
    heat,
    hermite,
    l2_contraction_ratio,
    laplacian,
    nonclosability_example,
    verify_commutator,
    verify_ident2,
    verify_nested_commutator,
    VarianceParams,
)

F = Fraction

#: the (lambda, s) grid shared by the identity and contraction checks
SCALE_GRID = [F(1, 2), F(2, 3), F(3, 5)]
VARIANCE_GRID = [F(1), F(4), F(9)]


def _verdict(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"ACCEPTANCE {number} ({name}) failed"


@pytest.fixture(scope="module")
def poly_battery():
    """200 random polynomials, degree <= 8, up to 4 variables, fixed seed."""
    rng = random.Random(3202)
    polys = [helpers.random_polynomial(rng, max_vars=4, max_degree=8) for _ in range(200)]
    assert len(polys) == 200
    return polys


def test_criterion_01_hermite_orthogonality(capsys):
    indices = graded_basis(3, 6).monomials  # all alpha with <= 3 vars, degree <= 6
    assert len(indices) == 84
    ok = True
    for s in (F(1), F(1, 2), F(4)):
        hs = {alpha: hermite(alpha, s) for alpha in indices}
        for a in indices:
            for b in indices:
                expected = a.factorial() * s**a.degree if a == b else 0
                if inner_product(hs[a], hs[b], s) != expected:
                    ok = False
    _verdict(capsys, 1, "Hermite orthogonality and normalization", ok)


def test_criterion_02_heat_intertwines_the_hermite_family(capsys):
    rng = random.Random(4202)
    ok = True
    for _ in range(100):
        alpha = helpers.random_multi_index(rng)
        s = F(rng.randint(1, 5), rng.randint(1, 2))
        t = s - F(rng.randint(1, 6), rng.randint(1, 3))  # any t < s
        if heat(hermite(alpha, s), t) != hermite(alpha, s - t):
            ok = False
    _verdict(capsys, 2, "heat flow intertwining", ok)


def test_criterion_03_central_identity(capsys, poly_battery):
    ok = True
    for lam in SCALE_GRID:
        for s in VARIANCE_GRID:
            params = VarianceParams.from_scale(s, lam)
            for f in poly_battery:
                result = verify_ident2(f, params)
                if not (result.ok and result.mode == "exact"):
                    ok = False
    _verdict(capsys, 3, "dilated heat flow equals Hermite decay", ok)


def test_criterion_04_commutator_and_nilpotency(capsys, poly_battery):
    ok = True
    for f in poly_battery:
        if not verify_commutator(f).ok:
            ok = False
        if not verify_nested_commutator(f).ok:
            ok = False
    _verdict(capsys, 4, "bracket identities", ok)


def test_criterion_05_exponential_factorization(capsys):
    ok = True
    for m in (1, 2):
        for n in (4, 6):
            basis = graded_basis(m, n)
            for s in (F(1), F(4)):
                for lam in (F(1, 2), F(2, 3)):
                    report = bch_check(s, lam, basis)
                    if not (report.ok and report.exact_route_ok):
                        ok = False
    _verdict(capsys, 5, "matrix exponential factorization", ok)


def test_criterion_06_nonclosability(capsys):
    s = F(1)
    t = F(7, 3)
    ok = True
    for n in (10, 100, 1000):
        f_n = nonclosability_example(n, s)
        if inner_product(f_n, f_n, s) != F(2, n):
            ok = False
        if laplacian(f_n) != Polynomial.constant(2):
            ok = False
        if heat(f_n, t) - f_n != Polynomial.constant(t):
            ok = False
    _verdict(capsys, 6, "vanishing sequence with constant image", ok)


def test_criterion_07_l2_contraction(capsys):
    rng = random.Random(7302)
    polys = [helpers.random_nonzero_polynomial(rng, max_vars=4, max_degree=8) for _ in range(100)]
    ok = True
    for lam in SCALE_GRID:
        for s in VARIANCE_GRID:
            t = s * (1 - lam * lam)
            for f in polys:
                if not l2_contraction_ratio(f, s, t) <= 1:
                    ok = False
            for d in ({1: 1}, {1: 2}, {1: 3, 2: 1}):
                h = hermite(d, s)
                expected = (lam * lam) ** sum(d.values())
                if l2_contraction_ratio(h, s, t) != expected:
                    ok = False
    _verdict(capsys, 7, "exact norm contraction", ok)


def test_criterion_08_lp_contraction_on_the_battery(capsys):
    s = F(1)
    x1 = Polynomial.variable(1)
    battery = [hermite({1: k} if k else {}, s) for k in range(7)]
    battery += [Polynomial.one() + eps * x1 for eps in (F(1, 2), F(1, 10))]
    cases = [(F(2), F(2), F(1, 2)), (F(2), F(3), F(1, 2)), (F(3), F(2), F(2, 3))]
    ok = True
    for p, q, lam in cases:
        assert (q - 1) * lam * lam <= (p - 1)  # contractive regime
        t = s * (1 - lam * lam)
        for f in battery:
            lhs = lp_norm(heat(f, t), q, s - t)
            rhs = lp_norm(f, p, s)
            allowed = rhs.value * (1 + 1e-6) + lhs.abs_error_bound + rhs.abs_error_bound
            if not lhs.value <= allowed:
                ok = False
    _verdict(capsys, 8, "Lp contraction in the hypercontractive regime", ok)


def test_criterion_09_convolution_oracle(capsys):
    rng = random.Random(9501)
    ok = True
    for _ in range(50):
        f = helpers.random_nonzero_polynomial(rng, max_vars=3, max_degree=6)
        t = F(rng.randint(1, 5), rng.randint(1, 3))
        point = {v: F(rng.randint(-2, 2), rng.randint(1, 3)) for v in f.active_variables}
        check = heat_convolution_oracle(f, t, point)
        if not check.rel_discrepancy <= 1e-10:
            ok = False
    _verdict(capsys, 9, "kernel integration matches the series", ok)


CLI_RUNS = [
    ("check-identity", "--f", "x1^3 - x2", "--s", "4", "--lambda", "1/2"),
    ("check-commutator", "--f", "x1^4 x2"),
    ("bch-check", "--m", "2", "--n", "4", "--s", "1", "--lambda", "2/3"),
    ("hermite", "--alpha", "2,0,3", "--s", "2"),
    ("apply-heat", "--f", "x1^6", "--t=-1/2"),
    ("nonclosability-demo", "--s", "2", "--n", "5"),
    ("hypercontractivity-scan", "--p", "2", "--q", "3", "--s", "1",
     "--lambda", "1/2", "--degree-cap", "3"),
    ("sharpness-probe", "--p", "2", "--q", "4", "--s", "1", "--lambda", "7/10",
     "--degree-cap", "4"),
    ("convolution-check", "--f", "x1^2 + x2", "--t", "1", "--x", "x1=1/2"),
]


def test_criterion_10_cli_determinism(capsys):
    ok = True
    for argv in CLI_RUNS:
        first_code = main(list(argv))
        first = capsys.readouterr().out
        second_code = main(list(argv))
        second = capsys.readouterr().out
        if first_code != second_code or first != second:
            ok = False
        json.loads(first)  # every report is well-formed JSON
    _verdict(capsys, 10, "byte-identical CLI reruns", ok)
