"""Integration against the mean-zero product Gaussian with variance s.

Only finite-dimensional marginals are ever touched: a polynomial (or any
integrand) depends on finitely many coordinates, and each coordinate is
an independent N(0, s) variable.  Exact rational moments and inner
products come from the even-moment formula, and so does the L^p norm
for even integer p, where |f|^p = f^p is a polynomial.  Other L^p norms
come from tensor Gauss-Hermite quadrature with a seeded Monte Carlo
cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import MultiIndex, Polynomial, as_fraction

#: Hard ceiling on total tensor-product quadrature nodes per integral.
NODE_CAP = 10**8

#: Default Monte Carlo sample count for cross-checks.
MC_DEFAULT_SAMPLES = 10**6


def variance_of(s) -> Fraction:
    """Normalize a Fraction, int, or rational string to a Fraction > 0."""
    value = as_fraction(s)
    if value <= 0:
        raise ValueError(f"variance must be positive, got {value}")
    return value


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


# Largest array the quadrature layer materializes: a tensor-quadrature
# block, or the dense Jacobi matrix of one Gauss-Hermite rule.
_QUAD_BLOCK_LIMIT = 1 << 22


#: Magnitude at which the Hermite recurrence rescales a node's values.
_RESCALE = 1e150


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


@functools.lru_cache(maxsize=128)
def gauss_hermite_rule(n: int):
    """Nodes and weights for the standard normal, exact through degree 2n-1.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the probabilists' Hermite recurrence (off-diagonal
    sqrt(k)), refined by one Newton step on p_n.  The weights come from
    the orthonormal recurrence sqrt(k+1) p_{k+1} = x p_k - sqrt(k) p_{k-1}
    as w_i = 1 / (n p_{n-1}(x_i)^2), so each is accurate relative to
    itself down to the float range (the squared first eigenvector
    components are accurate only relative to the largest weight).  The
    recurrence divides a node's values by _RESCALE whenever they pass
    it, so nothing overflows.  The Jacobi matrix is held dense and solved
    by numpy's eigvalsh, so a rule costs O(n^3) time and O(n^2) memory,
    once per n and process; an n with n^2 above _QUAD_BLOCK_LIMIT
    (n > 2048) is refused.  The returned arrays are read-only.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if n * n > _QUAD_BLOCK_LIMIT:
        raise ValueError(
            f"a {n}-node rule needs a dense {n}x{n} Jacobi matrix, above the "
            f"{_QUAD_BLOCK_LIMIT}-entry limit on one array (at most "
            f"{math.isqrt(_QUAD_BLOCK_LIMIT)} nodes)"
        )
    off_diag = np.sqrt(np.arange(1, n, dtype=float))
    nodes = np.linalg.eigvalsh(np.diag(off_diag, 1) + np.diag(off_diag, -1))
    p_prev, p_last, _ = _orthonormal_hermite(n, nodes)
    nodes -= p_last / (math.sqrt(n) * p_prev)  # Newton: p_n' = sqrt(n) p_{n-1}
    p_prev, _, rescales = _orthonormal_hermite(n, nodes)
    weights = 1.0 / (n * p_prev * p_prev) * _RESCALE ** (-2.0 * rescales)
    weights /= weights.sum()  # constants must integrate to exactly 1
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def expectation_quadrature(integrand, variables, s, nodes_per_var: int) -> float:
    """E_{mu_s}[integrand] by tensor Gauss-Hermite over the given variables.

    ``integrand`` maps {variable index: ndarray} to an ndarray and must
    broadcast (polynomial evaluate does).  Rejects requests whose total
    node count exceeds NODE_CAP.  Summation order is fixed, so results
    are bit-identical across runs.
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
            f"{nodes_per_var}^{v} = {total} tensor nodes exceeds the cap of "
            f"{NODE_CAP}; reduce the node budget or the variable count"
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
_MC_BLOCK = 1 << 16


def _monte_carlo_abs_power_mean(f: Polynomial, p: float, s, samples: int, seed: int):
    """Monte Carlo estimate of E|f|^p with its standard error, Philox stream.

    The samples are drawn and reduced _MC_BLOCK rows at a time from one
    Philox(key=seed) generator; consecutive draws continue one stream, so
    the samples are exactly those of a single draw of all of them.  Each
    block's mean and centred sum of squares merge into the running ones
    by the pairwise update of Chan, Golub & LeVeque (1979), which avoids
    the cancellation of sum(v^2) - sum(v)^2 / n.  A |f|^p that overflows
    in any block leaves the mean or the standard error non-finite.
    """
    s = variance_of(s)
    variables = f.active_variables
    rng = np.random.Generator(np.random.Philox(key=seed))
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


def lp_norm(
    f: Polynomial,
    p,
    s,
    budget: int | None = None,
    seed: int = 0,
    mc_samples: int = MC_DEFAULT_SAMPLES,
) -> LpEstimate:
    """(E_{mu_s}|f|^p)^(1/p), numerically.

    Even integer p: the p-th root of the exact moment E_s[f^p], with a
    bound on its float rounding proven in rationals.
    Other p >= 1: quadrature at the budgeted node count (default 401 per
    variable) plus a Monte Carlo cross-check whose 3-sigma standard
    error, pushed through the p-th root, is the reported bound; an
    estimate that is not finite raises ValueError.
    A budget, when given, must be at least 1, mc_samples at least 2 (a
    standard error needs two samples), and seed a Philox key in
    [0, 2**128), whatever p is.
    """
    p = float(p)
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if budget is not None and budget < 1:
        raise ValueError(f"the node budget must be at least 1, got {budget}")
    if mc_samples < 2:
        raise ValueError(f"need at least 2 Monte Carlo samples, got {mc_samples}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"the Monte Carlo seed must be in [0, 2**128), got {seed}")
    s = variance_of(s)
    even = p.is_integer() and int(p) % 2 == 0
    if f.degree <= 0:
        c = abs(f.constant_term())
        value = float(c)
        bound = 0.0 if Fraction(value) == c else math.ulp(value)
        return LpEstimate(value, bound, "exact" if even else "quadrature", 0)
    not_finite = f"L^p norm not finite in floating point at p = {p:g}, deg f = {f.degree}"
    if even:
        # The bound is the first b, doubling from one ulp, with
        # (value - b)^k <= E_s[f^k] <= (value + b)^k in rationals.
        k = int(p)
        mean = inner_product(f**k, Polynomial.one(), s)
        try:
            value = math.exp((math.log(mean.numerator) - math.log(mean.denominator)) / k)
        except OverflowError:
            raise ValueError(not_finite) from None
        exact, bound = Fraction(value), 0.0
        if exact**k != mean:
            bound = math.ulp(value)
            while not (exact - Fraction(bound)) ** k <= mean <= (exact + Fraction(bound)) ** k:
                bound *= 2
        return LpEstimate(value, bound, "exact", 0)

    variables = f.active_variables
    nodes = 401 if budget is None else budget

    def integrand(point):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(f.evaluate(point)) ** p

    mean = expectation_quadrature(integrand, variables, s, nodes)
    mc_mean, mc_std_err = _monte_carlo_abs_power_mean(f, p, s, mc_samples, seed)
    if not all(map(math.isfinite, (mean, mc_mean, mc_std_err))):
        raise ValueError(not_finite)
    mean = max(mean, 0.0)
    value = mean ** (1.0 / p)
    if mean > 0:
        bound = (1.0 / p) * mean ** (1.0 / p - 1.0) * 3.0 * mc_std_err
    else:
        bound = 3.0 * mc_std_err ** (1.0 / p)
    cross = mc_mean ** (1.0 / p) if mc_mean > 0 else 0.0
    return LpEstimate(
        value,
        bound,
        "quadrature",
        nodes ** len(variables),
        cross_check=cross,
        cross_check_samples=mc_samples,
    )
