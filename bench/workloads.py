"""The four benchmark workloads: seeded inputs, the checks run on them,
and the exact outputs each check is judged by.

Inputs come from a fixed pool.  A workload is a list of slots; every
slot has VARIANTS interchangeable variants of the same shape (the same
exponents under other coefficients and variable labels, or rationals of
the same size), and the seed picks one variant per slot.  So

* any seed gives inputs whose exact outputs were recorded: reference.json
  holds a digest of every variant's outputs, written by record_reference.py;
* the seed changes the inputs but hardly the amount of work, which keeps
  run-to-run spread down to timing noise.

A check is one verification: one public API call, or the two sides of one
identity.  Its exact output (serialized polynomials, rationals, verdicts)
is digested under the check's reference item; numeric-oracle values are
only required to be finite and within their own stated tolerance.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

F = Fraction

VARIANTS = 4
#: The seed claims are tuned on, and the one they are re-checked on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "identity": "semigroups and the poly ring do the work, so heat, "
    "hermite_semigroup and dilate show; irrational-lambda cells add large denominators",
    "l2-gram": "exact L^2(mu_s) on few variables and many terms: "
    "gaussian.inner_product dominates and matrixrep and scipy are bypassed",
    "matrix": "bch_check on growing graded bases: the only workload where the dense "
    "Fraction OperatorMatrix, exact nilpotent expm and scipy expm matter",
    "cli": "all nine subcommands as fresh processes: the import floor, argparse/JSON "
    "plumbing, numeric oracles, and inner_product on many variables of one term each",
}


@dataclass(slots=True)
class Check:
    """One timed call ``fn(*args)`` and how to judge its result.

    ``verify(result, args)`` returns ``(exact_text, problem)``: the exact output
    to digest under ``item`` (None: judged by a closed form instead) and
    a message when a verdict or a numeric bound failed.  ``expects`` names
    the traced functions this check must reach.
    """

    kind: str
    item: str | None
    fn: object
    args: tuple
    verify: object
    expects: tuple = field(default=())


def choices(workload: str, seed: int, slots: int) -> list:
    """The variant the seed picks for each slot.

    Each aligned group of VARIANTS slots gets every variant once, in an
    order the seed shuffles.  Variants of one shape can differ in cost by
    about 7 %, and a median over a block of like checks (the dimension-35
    bch_check block) would otherwise jump with the seed's mix of variants.
    """
    rng = random.Random(f"{workload}:seed:{seed}")
    picks = []
    while len(picks) < slots:
        group = list(range(VARIANTS))
        rng.shuffle(group)
        picks += group
    return picks[:slots]


# -- seeded shapes and their variants ----------------------------------------

_NONZERO = [k for k in range(-9, 10) if k]


def _exponents(rng, max_vars, max_degree):
    """Random exponent map {abstract variable 0..max_vars-1: e}, |alpha| <= max_degree."""
    alpha = {}
    budget = rng.randint(0, max_degree)
    while budget > 0 and rng.random() < 0.75:
        var = rng.randrange(max_vars)
        step = rng.randint(1, budget)
        alpha[var] = alpha.get(var, 0) + step
        budget -= step
    return tuple(sorted(alpha.items()))


def _shape(rng, max_vars, max_degree, terms):
    """Up to `terms` distinct exponent maps; distinct so no variant cancels."""
    seen = {}
    for _ in range(20 * terms):
        if len(seen) == terms:
            break
        seen.setdefault(_exponents(rng, max_vars, max_degree), None)
    return list(seen)


def _dress(rng, shape, max_vars):
    """A variant of a shape: fresh coefficients and a relabeling of the variables."""
    labels = rng.sample(range(1, max_vars + 1), max_vars)
    return [
        ({labels[v]: e for v, e in alpha}, F(rng.choice(_NONZERO), rng.randint(1, 4)))
        for alpha in shape
    ]


def _poly_text(pairs) -> str:
    parts = []
    for alpha, c in pairs:
        factors = " ".join(f"x{v}^{e}" for v, e in sorted(alpha.items()))
        body = f"{abs(c)} {factors}".strip()
        parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _variant_rng(workload, slot, variant):
    return random.Random(f"{workload}:{slot}:{variant}")


def _shape_rng(workload, slot):
    return random.Random(f"{workload}:{slot}")


def _rat(x) -> str:
    return str(F(x))


# -- identity -----------------------------------------------------------------

IDENTITY_POLYS = 200
IDENTITY_INTERTWINE = 100
#: (s, lambda) cells with rational lambda: exact term-map comparison.
IDENTITY_EXACT_CELLS = [(F(s), F(lam)) for s in (1, 4) for lam in ("1/2", "2/3", "3/5")]
#: (s, t) cells where (s-t)/s is no rational square: lambda is a float embedded exactly.
IDENTITY_IRRATIONAL_CELLS = [(F(1), F(1, 2)), (F(4), F(1))]


def _identity_polys(gc, variants):
    polys = []
    for slot, v in enumerate(variants):
        rng = _shape_rng("identity", slot)
        shape = _shape(rng, 4, 12, rng.randint(1, 10))
        polys.append(gc.Polynomial(_dress(_variant_rng("identity", slot, v), shape, 4)))
    return polys


def _ident_verifier(gc):
    def verify(result, args):
        text = gc.serialize(result.lhs) + " | " + gc.serialize(result.rhs)
        if result.mode == "exact":
            return text, None if result.ok else "exact identity failed"
        bad = not math.isfinite(result.max_rel_error) or not result.ok
        return text, f"float identity off by {result.max_rel_error}" if bad else None

    return verify


def _intertwine(gc, alpha, s, t):
    return gc.heat(gc.hermite(alpha, s), t), gc.hermite(alpha, s - t)


def build_identity(gc, variants, tiny=False):
    polys_variants = variants[:IDENTITY_POLYS]
    inter_variants = variants[IDENTITY_POLYS:]
    exact_cells, irr_cells = IDENTITY_EXACT_CELLS, IDENTITY_IRRATIONAL_CELLS
    if tiny:
        polys_variants, inter_variants = polys_variants[:3], inter_variants[:2]
        exact_cells, irr_cells = exact_cells[:1], irr_cells[:1]
    polys = _identity_polys(gc, polys_variants)
    items = [f"poly/{k}/{v}" for k, v in enumerate(polys_variants)]
    verify_ident = _ident_verifier(gc)
    identity_expects = ("semigroups.heat", "semigroups.dilate", "semigroups.hermite_semigroup",
                        "semigroups.hermite", "semigroups.laplacian", "poly.add", "poly.mul")
    checks = []
    cells = [gc.VarianceParams.from_scale(s, lam) for s, lam in exact_cells]
    cells += [gc.VarianceParams.from_times(s, t) for s, t in irr_cells]
    for params in cells:
        for item, f in zip(items, polys):
            checks.append(Check("verify_ident2", item, gc.verify_ident2, (f, params),
                                verify_ident, identity_expects))

    def verify_bracket(result, args):
        return gc.serialize(result.lhs), None if result.ok else "bracket identity failed"

    for item, f in zip(items, polys):
        checks.append(Check("verify_commutator", item, gc.verify_commutator, (f,),
                            verify_bracket, ("semigroups.laplacian",)))
        checks.append(Check("verify_nested_commutator", item, gc.verify_nested_commutator, (f,),
                            verify_bracket, ("semigroups.laplacian",)))

    def verify_intertwine(result, args):
        lhs, rhs = result
        return gc.serialize(lhs), None if lhs == rhs else "heat does not intertwine"

    for k, v in enumerate(inter_variants):
        # Degree >= 1: h_0 = 1 would leave heat and Hermite nothing to do.
        shape_rng, alpha = _shape_rng("intertwine", k), ()
        while not alpha:
            alpha = _exponents(shape_rng, 4, 12)
        rng = _variant_rng("intertwine", k, v)
        labels = rng.sample(range(1, 5), 4)
        s = F(rng.randint(1, 5), rng.randint(1, 2))
        t = s - F(rng.randint(1, 6), rng.randint(1, 3))
        checks.append(Check("intertwine", f"intertwine/{k}/{v}", _intertwine,
                            (gc, gc.MultiIndex({labels[a]: e for a, e in alpha}), s, t),
                            verify_intertwine, ("semigroups.heat", "semigroups.hermite")))
    return checks


# -- l2-gram -------------------------------------------------------------------

#: Each slot offers variances of one size class, so any pick costs the same.
GRAM_S_SLOTS = [
    ("1", "2", "3", "5"),
    ("1/2", "1/3", "1/5", "1/7"),
    ("3/2", "5/2", "7/2", "9/2"),
    ("2/3", "3/4", "4/5", "5/6"),
    ("4/3", "5/4", "6/5", "7/6"),
    ("5/3", "7/4", "9/5", "11/6"),
]
GRAM_VARS, GRAM_DEGREE = 3, 6
CONTRACTION_POLYS = 24
CONTRACTION_TERMS = 30
#: (s, t) with 0 < t < s for l2_contraction_ratio.
CONTRACTION_CELLS = [(F(1), F(1, 2)), (F(1), F(1, 4)), (F(2), F(1)), (F(2), F(3, 2))]


def _all_indices(gc, m, n):
    """Every alpha on m variables with |alpha| <= n, built without matrixrep."""
    out = []

    def grow(prefix, var, budget):
        if var > m:
            out.append(gc.MultiIndex(dict(prefix)))
            return
        for e in range(budget + 1):
            grow(prefix + ([(var, e)] if e else []), var + 1, budget - e)

    grow([], 1, n)
    return out


def build_l2_gram(gc, variants, tiny=False):
    s_variants = variants[: len(GRAM_S_SLOTS)]
    poly_variants = variants[len(GRAM_S_SLOTS):]
    indices = _all_indices(gc, GRAM_VARS, GRAM_DEGREE)
    cells = CONTRACTION_CELLS
    if tiny:
        s_variants, poly_variants = s_variants[:1], poly_variants[:2]
        indices, cells = _all_indices(gc, 2, 3), cells[:1]
    checks = []

    def verify_hermite(h, args):
        return gc.serialize(h), None

    # The Gram entries pair the Hermite polynomials the hermite checks
    # return, so the cache fills only as a user's sweep fills it.
    for slot, v in enumerate(s_variants):
        s = F(GRAM_S_SLOTS[slot][v])
        item = f"gram/{slot}/{v}"
        hs = {}
        for alpha in indices:
            checks.append(Check("hermite", item, _hermite_into, (gc, hs, alpha, s), verify_hermite,
                                ("semigroups.hermite", "semigroups.heat")))
        for a in indices:
            for b in indices:
                checks.append(Check("inner_product", None, _gram_entry, (gc, hs, a, b, s),
                                    _verify_gram, ("gaussian.inner_product",)))

    def verify_rational(value, args):
        return _rat(value), None

    for k, v in enumerate(poly_variants):
        shape = _shape(_shape_rng("contraction", k), 3, 8, CONTRACTION_TERMS)
        f = gc.Polynomial(_dress(_variant_rng("contraction", k, v), shape, 3))
        item = f"contraction/{k}/{v}"
        for s in sorted({s for s, _ in cells}):
            checks.append(Check("inner_product", item, gc.inner_product, (f, f, s),
                                verify_rational, ("gaussian.inner_product",)))
        for s, t in cells:
            checks.append(Check("l2_contraction_ratio", item, gc.l2_contraction_ratio,
                                (f, s, t), verify_rational, ("semigroups.heat",)))
    return checks


def _hermite_into(gc, hs, alpha, s):
    hs[alpha] = h = gc.hermite(alpha, s)
    return h


def _gram_entry(gc, hs, a, b, s):
    return gc.inner_product(hs[a], hs[b], s)


def _verify_gram(value, args):
    """Orthogonality and normalization: E[h_a h_b] = [a == b] a! s^|a|."""
    _, _, a, b, s = args
    expected = a.factorial() * s**a.degree if a == b else 0
    return None, None if value == expected else f"Gram entry {value} != {expected}"


# -- matrix --------------------------------------------------------------------

#: Graded bases (m, n) in increasing dimension C(m+n, n), 15 up to 165.  The
#: repeated dimension-35 and dimension-56 blocks hold the median and the tail
#: check, so each is estimated from many checks of one cost, not a single one.
MATRIX_BASES = ([(2, 4), (4, 2), (2, 5), (2, 6)] + [(3, 4)] * 20 + [(3, 5)] * 10
                + [(3, 6), (2, 12), (4, 5), (3, 8)])
#: (s, lambda) variants of one size class.
MATRIX_PARAMS = [(F(1), F(1, 2)), (F(2), F(2, 3)), (F(3, 2), F(3, 5)), (F(4), F(3, 4))]


def _bch(gc, m, n, s, lam):
    return gc.bch_check(s, lam, gc.graded_basis(m, n))


def build_matrix(gc, variants, tiny=False):
    bases = MATRIX_BASES[:2] if tiny else MATRIX_BASES

    def verify(report, args):
        text = " ".join(str(x) for x in (report.m, report.n, report.dim, report.s, report.t,
                                         report.lam, report.t / (2 * report.s),
                                         report.exact_route_ok, report.exact_witness))
        gaps = (report.bch_rel_err, report.bch2_rel_err, report.scalar_abs_err)
        if not all(math.isfinite(g) for g in gaps):
            return text, f"non-finite float gap {gaps}"
        return text, None if report.ok else f"factorization failed {gaps}"

    checks = []
    for slot, ((m, n), v) in enumerate(zip(bases, variants)):
        s, lam = MATRIX_PARAMS[v]
        checks.append(Check("bch_check", f"bch/{slot}/{v}", _bch, (gc, m, n, s, lam), verify,
                            ("matrixrep.graded_basis", "matrixrep.expm_exact",
                             "matrixrep.expm_float", "semigroups.hermite_semigroup")))
    return checks


# -- cli -----------------------------------------------------------------------


def _cli_poly(workload, slot, variant, max_vars, max_degree, terms):
    shape = _shape(_shape_rng(workload, slot), max_vars, max_degree, terms)
    return "--f=" + _poly_text(_dress(_variant_rng(workload, slot, variant), shape, max_vars))


def _cli_argv(slot, v):
    """The argv of cli slot `slot`, variant `v`: one of the nine subcommands."""
    kind = CLI_SLOTS[slot]
    pick = _variant_rng("cli", slot, v)
    s = str(pick.choice((1, 2, 3, 4)))
    if kind == "check-identity":
        lam = ("1/2", "2/3", "3/5", "3/4")[v]
        return [kind, _cli_poly("cli", slot, v, 3, 8, 6), "--s", s, "--lambda", lam]
    if kind == "check-identity-float":
        return ["check-identity", _cli_poly("cli", slot, v, 3, 8, 6), "--s", s, "--t=1/2"]
    if kind == "check-commutator":
        return [kind, _cli_poly("cli", slot, v, 4, 10, 8)]
    if kind == "bch-check":
        m, n = (2, 6) if slot == CLI_SLOTS.index("bch-check") else (3, 4)
        s, lam = MATRIX_PARAMS[v]
        return [kind, "--m", str(m), "--n", str(n), "--s", str(s), "--lambda", str(lam)]
    if kind == "hermite":
        exps = [3, 2, 4, 0] if slot == CLI_SLOTS.index("hermite") else [6, 0, 1, 5]
        pick.shuffle(exps)
        return [kind, "--alpha", ",".join(map(str, exps)), "--s", ("3/2", "5/2", "2/3", "4/3")[v]]
    if kind == "apply-heat":
        t = ("-1/2", "1/2", "-3/2", "3/2")[v]
        return [kind, _cli_poly("cli", slot, v, 3, 10, 6), f"--t={t}"]
    if kind == "nonclosability-demo":
        return [kind, "--s", ("1", "2", "1/2", "3/2")[v], "--n", "300"]
    if kind == "hypercontractivity-scan":
        # (q - 1) lambda^2 <= p - 1 holds, so every battery function contracts.
        lam = ("1/2", "3/5", "2/3", "7/10")[v]
        return [kind, "--p", "2", "--q", "3", "--s", s, "--lambda", lam]
    if kind == "hypercontractivity-scan-l2":
        lam = ("1/2", "3/5", "2/3", "7/10")[v]
        return ["hypercontractivity-scan", "--p", "2", "--q", "2", "--s", s, "--lambda", lam]
    if kind == "sharpness-probe":
        # Non-even p: quadrature and Monte Carlo run; either verdict exits 0.
        lam = ("7/10", "3/4", "4/5", "9/10")[v]
        return [kind, "--p", "3/2", "--q", "3", "--s", s, "--lambda", lam]
    if kind == "convolution-check":
        x = ",".join(f"x{k}={pick.choice(('1/2', '-3', '2', '-1/3'))}" for k in (1, 2, 3))
        return [kind, _cli_poly("cli", slot, v, 3, 6, 5), "--t", s, "--x", x]
    raise ValueError(kind)


CLI_SLOTS = [
    "check-identity", "check-identity", "check-identity-float",
    "check-commutator", "check-commutator",
    "bch-check", "bch-check",
    "hermite", "hermite",
    "apply-heat",
    "nonclosability-demo",
    "hypercontractivity-scan", "hypercontractivity-scan-l2",
    "sharpness-probe",
    "convolution-check",
]
#: Subcommand slots kept in the tiny smoke-test size.
CLI_TINY = [CLI_SLOTS.index(k) for k in ("check-identity", "hermite", "apply-heat")]

CLI_EXPECTS = {
    "check-identity": ("poly.parse", "poly.serialize", "semigroups.heat", "semigroups.dilate",
                       "semigroups.hermite_semigroup"),
    "bch-check": ("matrixrep.graded_basis", "matrixrep.expm_exact", "matrixrep.expm_float"),
    "check-commutator": ("semigroups.laplacian",),
    "hermite": ("semigroups.hermite", "poly.serialize"),
    "apply-heat": ("semigroups.heat", "semigroups.laplacian"),
    "nonclosability-demo": ("gaussian.inner_product",),
    "hypercontractivity-scan": ("gaussian.lp_norm", "gaussian.expectation_quadrature"),
    "sharpness-probe": ("gaussian.lp_norm", "gaussian.expectation_quadrature"),
    "convolution-check": ("gaussian.expectation_quadrature", "semigroups.heat"),
}


#: The report keys that carry a check's outputs; other blocks, such as work
#: counters, are not judged as exact outputs.
CLI_REPORT_KEYS = ("command", "params", "results", "verdict", "seed")


def _exact_view(report):
    """The report's outputs with numeric-oracle values masked, plus any non-finite ones.

    Floats are masked.  Records judged by quadrature lose their
    ``contractive`` flag, and a scan or probe that used quadrature loses its
    verdict and witness: those follow the L^p error bounds, which may
    legitimately change.
    """
    bad = []

    def mask(x):
        if isinstance(x, float):
            if not math.isfinite(x):
                bad.append(x)
            return "<float>"
        if isinstance(x, dict):
            return {k: mask(v) for k, v in x.items()}
        if isinstance(x, list):
            return [mask(v) for v in x]
        return x

    view = mask({k: v for k, v in report.items() if k in CLI_REPORT_KEYS})
    if any(r.get("method") == "quadrature" for r in view.get("results", [])):
        for r in view["results"]:
            r.pop("contractive", None)
        view.pop("verdict", None)
        view["params"].pop("witness", None)
    return view, bad


def _verify_cli(result, args):
    code, out = result
    if code != 0:
        return f"exit {code}", f"exit code {code}"
    view, bad = _exact_view(json.loads(out))
    text = json.dumps(view, sort_keys=True)
    return text, f"non-finite numeric values {bad}" if bad else None


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_subprocess(argv, env):
    proc = subprocess.run([sys.executable, "-m", "gausscalc", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=100)
    return proc.returncode, proc.stdout


def _run_in_process(cli, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def build_cli(gc, variants, tiny=False):
    """Subprocess checks when gc is None, else in-process gausscalc.cli.main calls."""
    slots = CLI_TINY if tiny else range(len(CLI_SLOTS))
    env = cli_env()
    checks = []
    for slot in slots:
        v = variants[slot]
        argv = _cli_argv(slot, v)
        expects = ("cli.main",) + CLI_EXPECTS.get(argv[0], ())
        if gc is None:
            fn, args = _run_subprocess, (argv, env)
        else:
            fn, args = _run_in_process, (gc.cli, argv)
        checks.append(Check(argv[0], f"cli/{slot}/{v}", fn, args, _verify_cli, expects))
    return checks


WORKLOADS = {
    "identity": (build_identity, IDENTITY_POLYS + IDENTITY_INTERTWINE),
    "l2-gram": (build_l2_gram, len(GRAM_S_SLOTS) + CONTRACTION_POLYS),
    "matrix": (build_matrix, len(MATRIX_BASES)),
    "cli": (build_cli, len(CLI_SLOTS)),
}
