"""Integration against the mean-zero product Gaussian with variance s.

Only finite-dimensional marginals are ever touched: a polynomial (or any
integrand) depends on finitely many coordinates, and each coordinate is
an independent N(0, s) variable.  Exact rational moments and inner
products come from the even-moment formula, and so does the L^p norm
for even integer p, where |f|^p = f^p is a polynomial.  Other L^p norms
come from tensor Gauss-Hermite quadrature with a Monte Carlo cross-check, and
heat_convolution_oracle checks semigroups.heat against the heat kernel by the
same quadrature.  No oracle takes a setting: its constants are below.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import MultiIndex, Polynomial, abbreviate, as_fraction
from .semigroups import heat, variance_of

#: Hard ceiling on total tensor-product quadrature nodes per integral.
NODE_CAP = 10**8

#: Monte Carlo sample count of every cross-check.
MC_DEFAULT_SAMPLES = 10**6

#: Philox key of every cross-check.
MC_KEY = 0

#: Gauss-Hermite nodes per variable of a non-even L^p norm.
LP_QUADRATURE_NODES = 401

#: Relative discrepancy a heat_convolution_oracle result may show and pass.
CONVOLUTION_TOL = 1e-10


@dataclass(frozen=True)
class LpEstimate:
    """A numeric estimate of an L^p norm with an explicit error bound.

    method "exact" (even integer p): value is the float p-th root of the
    exact rational E[f^p], and abs_error_bound is proven in rationals.
    method "quadrature" (other p): the bound is a 3-sigma Monte Carlo
    standard error propagated through the p-th root, and cross_check
    carries the Monte Carlo value of the norm itself.
    A constant c keeps its exponent's label but runs no integral: value
    is float(|c|), and the bound is 0 when that float equals |c| and one
    ulp of it otherwise.
    """

    value: float
    abs_error_bound: float
    method: str  # "exact" | "quadrature"
    samples_or_nodes: int
    cross_check: float | None = None
    cross_check_samples: int = 0


@functools.lru_cache(maxsize=None)
def _even_double_factorial_part(e: int) -> int:
    """(e-1)!! for even e >= 0, i.e. (2k)!/(2^k k!) with e = 2k."""
    k = e // 2
    return math.factorial(2 * k) // (2**k * math.factorial(k))


def gaussian_moment(alpha, s) -> Fraction:
    """E[x^alpha] under the product Gaussian with Var(x_k) = s.

    Zero if any exponent is odd; otherwise the product over variables of
    (alpha_i - 1)!! * s^(alpha_i / 2).
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(alpha)
    moment = _pair_moment(alpha, MultiIndex(), [Fraction(1), variance_of(s)])
    return Fraction(0) if moment is None else moment


def _pair_moment(a: MultiIndex, b: MultiIndex, s_powers: list) -> Fraction | None:
    """E[x^(a+b)] without materializing a+b; None means an odd exponent."""
    ea, eb = a.entries, b.entries
    i = j = 0
    coeff = 1
    half = 0
    while i < len(ea) or j < len(eb):
        if j == len(eb) or (i < len(ea) and ea[i][0] < eb[j][0]):
            e = ea[i][1]
            i += 1
        elif i == len(ea) or eb[j][0] < ea[i][0]:
            e = eb[j][1]
            j += 1
        else:
            e = ea[i][1] + eb[j][1]
            i += 1
            j += 1
        if e % 2:
            return None
        coeff *= _even_double_factorial_part(e)
        half += e // 2
    while len(s_powers) <= half:
        s_powers.append(s_powers[-1] * s_powers[1])
    return coeff * s_powers[half]


def inner_product(f: Polynomial, g: Polynomial, s) -> Fraction:
    """The L^2(mu_s) pairing E[f g], exact.

    Expands the product term pair by term pair and applies the moment
    formula; symmetric, bilinear, and positive definite on polynomials.
    """
    s = variance_of(s)
    s_powers = [Fraction(1), s]
    g_terms = list(g.items())
    total = Fraction(0)
    for a1, c1 in f.items():
        for a2, c2 in g_terms:
            m = _pair_moment(a1, a2, s_powers)
            if m is not None:
                total += c1 * c2 * m
    return total


# Largest array the quadrature layer materializes: one tensor-quadrature block.
_QUAD_BLOCK_LIMIT = 1 << 22

#: Most nodes a Gauss-Hermite rule may have.  A rule takes O(n) memory but
#: O(n^2) time (about 0.1 s at 2048 nodes), so the cap bounds time.
_RULE_NODE_CAP = 2048

#: Magnitude at which the Hermite recurrence rescales a node's values.
_RESCALE = 1e150

#: Newton steps from the middle of a node's bracket (see gauss_hermite_rule).
_NEWTON_STEPS = 4


def _orthonormal_hermite(n: int, x):
    """(p_{n-1}(x), p_n(x), r): orthonormal Hermite values, both divided by _RESCALE^r."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    rescales = np.zeros_like(x)
    for k in range(n):
        p_prev, p = p, (x * p - math.sqrt(k) * p_prev) / math.sqrt(k + 1)
        big = np.abs(p) > _RESCALE
        p_prev[big] /= _RESCALE
        p[big] /= _RESCALE
        rescales += big
    return p_prev, p, rescales


def _sturm_pivots(n: int, x):
    """The pivots u_1 .. u_n of x - J = L D L^T, J the n-node Jacobi matrix.

    u_1 = x and u_{k+1} = x - k / u_k, so u_k = sqrt(k) p_k(x) / p_{k-1}(x).
    By Sylvester's law of inertia the negative pivots count the
    eigenvalues of J above x.  A zero pivot makes the next one infinite
    and the one after x again, which is the limit; callers ignore the
    division by zero.
    """
    return itertools.accumulate(range(1, n), lambda u, k: x - k / u, initial=x)


@functools.lru_cache(maxsize=128)
def gauss_hermite_rule(n: int):
    """Nodes and weights for the standard normal, exact through degree 2n-1.

    The nodes are the zeros of the probabilists' Hermite polynomial He_n,
    the eigenvalues of its Jacobi matrix J (zero diagonal, off-diagonal
    sqrt(k)), found in O(n) memory.  psi(x) = He_n(x) exp(-x^2/4) solves
    psi'' + (n + 1/2 - x^2/4) psi = 0, so by Sturm comparison the nodes
    are at least pi / sqrt(n + 1/2) apart.  One Sturm count of J at every
    multiple of half that gap up to the Gershgorin bound 2 sqrt(n) puts
    each of the n // 2 positive nodes alone in a cell narrower than the
    spacing; the others are their mirror images and, for odd n, 0.  From
    the middle of its cell each node takes _NEWTON_STEPS Newton steps on
    psi, psi / psi' = 1 / (n / u_n - x / 2) with u_n the last Sturm pivot.
    psi'' vanishes at the nodes, so the error e shrinks cubically, about
    as w e -> (w e)^3 / 3 for the local frequency w: from w e <= pi / 4 to
    0.16, 1e-3, 1e-9 and 1e-27, rounding after four steps.  The weights
    come from the orthonormal recurrence sqrt(k+1) p_{k+1} = x p_k -
    sqrt(k) p_{k-1} as w_i = 1 / (n p_{n-1}(x_i)^2), so each is accurate
    relative to itself down to the float range; the recurrence divides a
    node's values by _RESCALE whenever they pass it, so nothing
    overflows.  A rule costs O(n^2) time (n recurrence steps over O(n)
    points), once per n and process; an n above _RULE_NODE_CAP is
    refused.  The returned arrays are read-only.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if n > _RULE_NODE_CAP:
        raise ValueError(f"a {n}-node rule is above the cap of {_RULE_NODE_CAP} nodes")
    half_gap = math.pi / math.sqrt(4 * n + 2)
    grid = half_gap * np.arange(1, math.ceil(2 * math.sqrt(n) / half_gap) + 1)
    with np.errstate(divide="ignore"):
        above = sum(u < 0 for u in _sturm_pivots(n, grid))
        # The k-th largest node lies in the first cell whose top has fewer
        # than k nodes above it.
        cell = np.searchsorted(-above, -np.arange(n // 2, 0, -1), side="right")
        x = (cell + 0.5) * half_gap
        for _ in range(_NEWTON_STEPS):
            u_n = collections.deque(_sturm_pivots(n, x), maxlen=1)[0]
            x = x - 1.0 / (n / u_n - x / 2)
    if n % 2:
        x = np.concatenate(([0.0], x))
    p_prev, _, rescales = _orthonormal_hermite(n, x)
    weights = 1.0 / (n * p_prev * p_prev) * _RESCALE ** (-2.0 * rescales)
    nodes = np.concatenate((-x[::-1][: n // 2], x))
    weights = np.concatenate((weights[::-1][: n // 2], weights))
    weights /= weights.sum()  # constants must integrate to exactly 1
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def expectation_quadrature(integrand, variables, s, nodes_per_var: int) -> float:
    """E_{mu_s}[integrand] by tensor Gauss-Hermite over the given variables.

    ``integrand`` maps {variable index: ndarray} to an ndarray and must broadcast
    (polynomial evaluate does).  Rejects more than NODE_CAP nodes in all.  Summation
    order is fixed, so results are bit-identical across runs.  Overflow in the
    integrand or the sums leaves the result non-finite and raises no numpy warning.
    """
    s = variance_of(s)
    variables = sorted(set(variables))
    if not variables:
        return float(integrand({}))
    if nodes_per_var < 1:
        raise ValueError(f"need at least one node per variable, got {nodes_per_var}")
    v = len(variables)
    total = nodes_per_var**v
    if total > NODE_CAP:
        raise ValueError(
            f"{abbreviate(nodes_per_var)}^{v} = {abbreviate(total)} tensor nodes exceeds "
            f"the cap of {NODE_CAP}"
        )
    x, w = gauss_hermite_rule(nodes_per_var)
    x = x * math.sqrt(s)
    rest_shape = (nodes_per_var,) * (v - 1)
    rest_size = nodes_per_var ** (v - 1)
    block = max(1, _QUAD_BLOCK_LIMIT // rest_size)
    tail_point = {
        var: x.reshape((1,) + (1,) * k + (nodes_per_var,) + (1,) * (v - 2 - k))
        for k, var in enumerate(variables[1:])
    }
    subscripts = []
    acc = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, nodes_per_var, block):
            lead = x[start : start + block]
            point = dict(tail_point)
            point[variables[0]] = lead.reshape((-1,) + (1,) * (v - 1))
            values = np.asarray(integrand(point), dtype=float)
            values = np.broadcast_to(values, (len(lead),) + rest_shape)
            args = [values, list(range(v)), w[start : start + block], [0]]
            for k in range(1, v):
                args.extend([w, [k]])
            args.append(subscripts)
            acc += float(np.einsum(*args))
    return acc


#: Rows of Monte Carlo draws held at once, so the cross-check's memory is
#: one block whatever the sample count.
_MC_BLOCK = 1 << 14


def _monte_carlo_abs_power_mean(f: Polynomial, p: float, s, samples: int):
    """Monte Carlo estimate of E|f|^p with its standard error, Philox stream.

    The samples are drawn and reduced _MC_BLOCK rows at a time from one
    Philox(key=MC_KEY) generator; consecutive draws continue one stream, so
    the samples are exactly those of a single draw of all of them.  With
    three variables one block's draws, Horner intermediates and |f|^p
    stay under about 1 MB; smaller blocks only add per-block overhead.
    Each block's mean and centred sum of squares merge into the running
    ones by the pairwise update of Chan, Golub & LeVeque (1979), which
    avoids the cancellation of sum(v^2) - sum(v)^2 / n.  A |f|^p that
    overflows in any block leaves the mean or the standard error
    non-finite.
    """
    s = variance_of(s)
    variables = f.active_variables
    rng = np.random.Generator(np.random.Philox(key=MC_KEY))
    scale = math.sqrt(s)
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, samples, _MC_BLOCK):
        rows = min(_MC_BLOCK, samples - start)
        draws = rng.normal(0.0, scale, size=(rows, len(variables)))
        point = {var: draws[:, k] for k, var in enumerate(variables)}
        values = np.abs(np.broadcast_to(f.evaluate(point), (rows,)))
        del draws, point
        with np.errstate(over="ignore", invalid="ignore"):
            values **= p
            block_mean = float(values.mean())
            values -= block_mean
            values *= values
            block_m2 = float(values.sum())
        total = count + rows
        delta = block_mean - mean
        mean += delta * (rows / total)
        m2 += block_m2 + delta * delta * (count * rows / total)
        count = total
    return mean, math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)


def lp_norm(f: Polynomial, p, s) -> LpEstimate:
    """(E_{mu_s}|f|^p)^(1/p), numerically.

    Even integer p: the p-th root of the exact moment E_s[f^p], with a
    bound on its float rounding proven in rationals.
    Other p >= 1: quadrature with LP_QUADRATURE_NODES nodes per variable
    plus a cross-check of MC_DEFAULT_SAMPLES Monte Carlo draws from
    Philox(key=MC_KEY), whose 3-sigma standard error, pushed through the
    p-th root, is the reported bound.
    A p, constant or estimate beyond the float range, and a nonconstant
    f whose norm underflows to 0, raise ValueError, so a nonconstant f's
    norm is positive.
    """
    p_text = abbreviate(p)
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p_text}")
    s = variance_of(s)

    def not_finite(what="not finite"):
        return ValueError(
            f"L^p norm {what} in floating point at p = {p_text}, deg f = {f.degree} "
            f"(largest coefficient {f.coefficient_digits} digits), s = {abbreviate(s)}"
        )

    try:
        p = float(p)
    except OverflowError:
        raise not_finite() from None
    even = p.is_integer() and int(p) % 2 == 0
    if f.degree <= 0:
        c = abs(f.constant_term())
        try:
            value = float(c)
        except OverflowError:
            raise not_finite() from None
        bound = 0.0 if Fraction(value) == c else math.ulp(value)
        return LpEstimate(value, bound, "exact" if even else "quadrature", 0)

    if even:
        # The bound is the first b, doubling from one ulp, with
        # (value - b)^k <= E_s[f^k] <= (value + b)^k in rationals.
        k = int(p)
        mean = inner_product(f**k, Polynomial.one(), s)
        try:
            value = math.exp((math.log(mean.numerator) - math.log(mean.denominator)) / k)
        except OverflowError:
            raise not_finite() from None
        if not value:
            raise not_finite("underflows to 0")
        exact, bound = Fraction(value), 0.0
        if exact**k != mean:
            bound = math.ulp(value)
            while not (exact - Fraction(bound)) ** k <= mean <= (exact + Fraction(bound)) ** k:
                bound *= 2
        return LpEstimate(value, bound, "exact", 0)

    variables = f.active_variables

    def integrand(point):
        return np.abs(f.evaluate(point)) ** p

    try:
        mean = expectation_quadrature(integrand, variables, s, LP_QUADRATURE_NODES)
        mc_mean, mc_std_err = _monte_carlo_abs_power_mean(f, p, s, MC_DEFAULT_SAMPLES)
    except OverflowError:  # a coefficient beyond the float range
        raise not_finite() from None
    if not all(map(math.isfinite, (mean, mc_mean, mc_std_err))):
        raise not_finite()
    if not mean:  # every summand is >= 0, and a nonconstant f has a positive norm
        raise not_finite("underflows to 0")
    bound = (1.0 / p) * mean ** (1.0 / p - 1.0) * 3.0 * mc_std_err
    return LpEstimate(
        mean ** (1.0 / p),
        bound,
        "quadrature",
        LP_QUADRATURE_NODES ** len(variables),
        cross_check=mc_mean ** (1.0 / p),
        cross_check_samples=MC_DEFAULT_SAMPLES,
    )


@dataclass(frozen=True)
class ConvolutionCheck:
    """Quadrature convolution vs algebraic heat at one evaluation point."""

    numeric_value: float
    algebraic_value: float
    abs_discrepancy: float
    rel_discrepancy: float  # absolute discrepancy over max(1, |algebraic|)
    nodes: int  # quadrature nodes per variable


def heat_convolution_oracle(f: Polynomial, t, x) -> ConvolutionCheck:
    """Compare E[f(x + z)], z ~ N(0, t I), against heat(f, t) evaluated at x.

    The expectation runs over the active variables of f by tensor
    Gauss-Hermite with deg f // 2 + 5 points per variable (the result
    reports it); deg f // 2 + 1 already integrate f exactly, so the
    margin moves only rounding.  A rel_discrepancy within CONVOLUTION_TOL
    passes.  This is the measure-level route to the heat operator,
    independent of the series.
    """
    t = as_fraction(t)
    if t <= 0:
        raise ValueError(f"need t > 0, got {abbreviate(t)}")
    x = {int(k): v for k, v in dict(x or {}).items()}
    variables = f.active_variables
    degree = 0 if f.is_zero else int(max(f.degree, 0))
    nodes = degree // 2 + 5

    def integrand(point):
        return f.evaluate({v: shift[v] + point[v] for v in variables})

    not_finite = (
        f"heat convolution not finite in floating point at t = {abbreviate(t)}, deg f = {degree}"
    )
    try:
        shift = {v: float(x.get(v, 0)) for v in variables}
        numeric = expectation_quadrature(integrand, variables, t, nodes)
        algebraic = float(heat(f, t).evaluate(x))
    except OverflowError:
        raise ValueError(not_finite) from None
    abs_disc = abs(numeric - algebraic)
    if not math.isfinite(abs_disc):
        raise ValueError(not_finite)
    rel_disc = abs_disc / max(1.0, abs(algebraic))
    return ConvolutionCheck(numeric, algebraic, abs_disc, rel_disc, nodes)
