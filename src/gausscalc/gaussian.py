"""Integration against the mean-zero product Gaussian with variance s.

Only finite-dimensional marginals are ever touched: a polynomial (or any
integrand) depends on finitely many coordinates, and each coordinate is
an independent N(0, s) variable.  Exact rational moments and inner
products come from the even-moment formula; numeric L^p norms come from
tensor Gauss-Hermite quadrature, with a seeded Monte Carlo cross-check
when |f|^p is not itself a polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .poly import MultiIndex, Polynomial, as_fraction

#: Hard ceiling on total tensor-product quadrature nodes per integral.
NODE_CAP = 10**8

#: Default Monte Carlo sample count for cross-checks.
MC_DEFAULT_SAMPLES = 10**6


@dataclass(frozen=True)
class Variance:
    """The variance parameter s > 0 of the product Gaussian measure."""

    s: Fraction

    def __post_init__(self):
        s = as_fraction(self.s)
        if s <= 0:
            raise ValueError(f"variance must be positive, got {s}")
        object.__setattr__(self, "s", s)


def variance_of(s) -> Fraction:
    """Normalize a Variance, Fraction, int, or rational string to Fraction > 0."""
    if isinstance(s, Variance):
        return s.s
    value = as_fraction(s)
    if value <= 0:
        raise ValueError(f"variance must be positive, got {value}")
    return value


@dataclass(frozen=True)
class LpEstimate:
    """A numeric estimate of an L^p norm with an explicit error bound.

    For even integer p the quadrature integrates |f|^p = f^p exactly
    (polynomial of known degree), so abs_error_bound is 0 up to float
    rounding.  Otherwise the bound is a 3-sigma Monte Carlo standard
    error propagated through the p-th root, and cross_check carries the
    Monte Carlo value of the norm itself.
    """

    value: float
    abs_error_bound: float
    method: str  # "quadrature" | "monte-carlo"
    samples_or_nodes: int
    cross_check: float | None = None
    cross_check_samples: int = 0


@dataclass(frozen=True)
class CharCheck:
    """Quadrature vs closed form for E[cos(sum theta_k x_k)]."""

    lhs: float
    rhs: float
    discrepancy: float


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
    s = variance_of(s)
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(alpha)
    coeff = 1
    half = 0
    for _, e in alpha.entries:
        if e % 2:
            return Fraction(0)
        coeff *= _even_double_factorial_part(e)
        half += e // 2
    return coeff * s**half


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


@functools.lru_cache(maxsize=128)
def gauss_hermite_rule(n: int):
    """Nodes and weights for the standard normal, exact through degree 2n-1.

    Golub-Welsch: eigenvalues of the symmetric tridiagonal Jacobi matrix
    of the probabilists' Hermite recurrence (off-diagonal sqrt(k)), with
    weights the squared first components of the normalized eigenvectors.
    The returned arrays are read-only.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if n == 1:
        nodes = np.zeros(1)
        weights = np.ones(1)
    else:
        off_diag = np.sqrt(np.arange(1, n, dtype=float))
        nodes, vectors = eigh_tridiagonal(np.zeros(n), off_diag)
        weights = vectors[0] ** 2
        weights /= weights.sum()  # constants must integrate to exactly 1
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# Largest intermediate array materialized during tensor quadrature.
_QUAD_BLOCK_LIMIT = 1 << 22


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

    if v == 1:
        values = np.asarray(integrand({variables[0]: x}), dtype=float)
        values = np.broadcast_to(values, x.shape)
        return float(np.dot(w, values))

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


def _monte_carlo_abs_power_mean(f: Polynomial, p: float, s, samples: int, seed: int):
    """Monte Carlo estimate of E|f|^p with its standard error, Philox stream."""
    s = variance_of(s)
    variables = f.active_variables
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.normal(0.0, math.sqrt(s), size=(samples, len(variables)))
    point = {var: draws[:, k] for k, var in enumerate(variables)}
    values = np.abs(np.asarray(f.evaluate(point), dtype=float)) ** p
    values = np.broadcast_to(values, (samples,))
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(samples))
    return mean, std_err


def lp_norm(
    f: Polynomial,
    p,
    s,
    budget: int | None = None,
    seed: int = 0,
    mc_samples: int = MC_DEFAULT_SAMPLES,
) -> LpEstimate:
    """(E_{mu_s}|f|^p)^(1/p), numerically.

    Even integer p: |f|^p is a polynomial of degree p*deg(f), so tensor
    Gauss-Hermite with ceil((p*deg(f)+1)/2) nodes per variable (or the
    budget, if larger) integrates it exactly; the error bound is 0.
    Other p >= 1: quadrature at the budgeted node count (default 401 per
    variable) plus a Monte Carlo cross-check whose 3-sigma standard
    error, pushed through the p-th root, is the reported bound.
    A budget, when given, must be at least 1.
    """
    p = float(p)
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if budget is not None and budget < 1:
        raise ValueError(f"the node budget must be at least 1, got {budget}")
    s = variance_of(s)
    if f.degree <= 0:
        value = abs(float(f.constant_term()))
        return LpEstimate(value, 0.0, "quadrature", 0)

    variables = f.active_variables
    degree = int(f.degree)
    even = p.is_integer() and int(p) % 2 == 0
    if even:
        k = int(p)
        needed = (k * degree) // 2 + 1
        nodes = needed if budget is None else max(budget, needed)
        mean = expectation_quadrature(
            lambda point: f.evaluate(point) ** k, variables, s, nodes
        )
        mean = max(mean, 0.0)
        return LpEstimate(mean ** (1.0 / p), 0.0, "quadrature", nodes ** len(variables))

    nodes = 401 if budget is None else budget
    mean = expectation_quadrature(
        lambda point: np.abs(f.evaluate(point)) ** p, variables, s, nodes
    )
    mean = max(mean, 0.0)
    mc_mean, mc_std_err = _monte_carlo_abs_power_mean(f, p, s, mc_samples, seed)
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


def char_check(theta, s, budget: int = 64) -> CharCheck:
    """Compare E[cos(sum theta_k x_k)] against exp(-s |theta|^2 / 2).

    theta is a sparse map {variable index: real}; the expectation is
    computed by tensor quadrature over the variables with nonzero theta.
    """
    s = variance_of(s)
    theta = {int(k): float(v) for k, v in dict(theta).items() if float(v) != 0.0}
    for k in theta:
        if k < 1:
            raise ValueError(f"variable index must be at least 1, got {k}")

    def integrand(point):
        phase = 0.0
        for var, t in theta.items():
            phase = phase + t * point[var]
        return np.cos(phase)

    lhs = expectation_quadrature(integrand, theta.keys(), s, budget)
    rhs = math.exp(-float(s) * sum(t * t for t in theta.values()) / 2.0)
    return CharCheck(lhs, rhs, abs(lhs - rhs))
