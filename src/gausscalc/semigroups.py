"""The operator calculus on polynomials: heat flow, Hermite bases, dilation.

Everything here is exact.  The Laplacian lowers degree by 2, so on any
single polynomial it is nilpotent and e^{t Laplacian / 2} is a finite
sum; running it backwards (negative time) out of the monomials produces
the Hermite family h_{alpha,s}, and its coefficients in that family give
the expansion every other operator is diagonal in.

The central objects:

    heat(f, t)              e^{t Delta / 2} f, any rational t
    hermite(alpha, s)       h_{alpha,s} = heat(x^alpha, -s)
    dilate(f, lam)          f(lam x)
    number_op(f, s)         (D - s Delta) f, with D the Euler operator
    hermite_semigroup       coefficient decay lam^{|alpha|} in the h basis

and the identity the package exists to check: dilating the heat flow
with lam^2 = (s-t)/s agrees with the Hermite-coefficient decay by
lam^{|alpha|}, exactly, polynomial by polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .gaussian import expectation_quadrature, variance_of
from .poly import MultiIndex, Polynomial, as_fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


# -- first-order building blocks -------------------------------------------


def laplacian(f: Polynomial) -> Polynomial:
    """Sum of second partials over every active variable of f."""
    out = {}
    for alpha, c in f.items():
        entries = alpha.entries
        for i, (var, e) in enumerate(entries):
            if e >= 2:
                rest = entries[i + 1 :]
                lowered = entries[:i] + (((var, e - 2),) + rest if e > 2 else rest)
                out[lowered] = out.get(lowered, 0) + c * e * (e - 1)
    return Polynomial._make(
        {
            MultiIndex._from_entries(lowered, sum(e for _, e in lowered)): c
            for lowered, c in out.items()
            if c
        }
    )


def euler_d(f: Polynomial) -> Polynomial:
    """The Euler operator sum_k x_k d/dx_k; multiplies each monomial by its degree."""
    return Polynomial._make(
        {alpha: c * alpha.degree for alpha, c in f.items() if alpha.degree}
    )


def number_op(f: Polynomial, s) -> Polynomial:
    """(D - s Delta) f: diagonal on the h_{alpha,s} with eigenvalue |alpha|."""
    return euler_d(f) - as_fraction(s) * laplacian(f)


def heat(f: Polynomial, t) -> Polynomial:
    """e^{t Delta / 2} f as the terminating series sum_k (t/2)^k Delta^k f / k!.

    The series stops once the iterated Laplacian hits zero, which takes
    at most K = deg(f) // 2 steps, so t of either sign (backward heat
    included) is fine and the result is exact.  The sum runs in
    integers: with f = g / D for an integer polynomial g and t/2 = p/q,
    term k is Delta^k g times p^k q^(K-k) K!/k!, and each coefficient of
    the sum is divided once by D q^K K!.
    """
    t = as_fraction(t)
    if t == 0 or f.is_zero:
        return f
    half = t / 2
    p, q = half.numerator, half.denominator
    big_d = math.lcm(*(c.denominator for _, c in f.items()))
    # g and its Laplacians hold int coefficients; they never leave heat.
    term = Polynomial._make({a: c.numerator * (big_d // c.denominator) for a, c in f.items()})
    top = int(f.degree) // 2
    weight = q**top * math.factorial(top)
    denominator = big_d * weight
    acc = {a: c * weight for a, c in term.items()}
    k = 1
    while True:
        term = laplacian(term)
        if term.is_zero:
            break
        weight = weight * p // (q * k)
        for a, c in term.items():
            acc[a] = acc.get(a, 0) + c * weight
        k += 1
    return Polynomial._make(
        {a: Fraction(c, denominator) for a, c in acc.items() if c}
    )


def dilate(f: Polynomial, lam) -> Polynomial:
    """f(lam x): scales each coefficient by lam^{|alpha|}.

    A float lam is embedded as the exact rational equal to its binary
    value, so the symbolic layer stays rational either way; pass a
    Fraction or string like '2/3' for a mathematically exact scale.
    """
    if isinstance(lam, float):
        lam = Fraction(lam)
    else:
        lam = as_fraction(lam)
    if lam == 0:
        raise ValueError("dilation scale must be nonzero")
    if lam == 1 or f.is_zero:
        return f
    powers = {0: _F1}
    out = {}
    for alpha, c in f.items():
        d = alpha.degree
        if d not in powers:
            powers[d] = lam**d
        out[alpha] = c * powers[d]
    return Polynomial._make(out)


# -- Hermite polynomials and expansions -------------------------------------


def hermite(alpha, s) -> Polynomial:
    """h_{alpha,s} = backward heat flow out of the monomial x^alpha.

    Monic in x^alpha, degree |alpha|; for s > 0 these are orthogonal in
    L^2(mu_s) with squared norm alpha! s^{|alpha|}.  The polynomial is
    defined for any rational s (it is pure algebra); the measure-level
    statements need s > 0.
    """
    return heat(Polynomial.monomial(alpha), -as_fraction(s))


@dataclass(frozen=True, eq=True)
class HermiteExpansion:
    """Coefficients c_alpha of f = sum c_alpha h_{alpha,s} at a fixed s."""

    base_variance: Fraction
    coeffs: object  # read-only mapping MultiIndex -> nonzero Fraction

    def coefficient(self, alpha) -> Fraction:
        if not isinstance(alpha, MultiIndex):
            alpha = MultiIndex(alpha)
        return self.coeffs.get(alpha, _F0)

    def items(self):
        return self.coeffs.items()

    def __len__(self) -> int:
        return len(self.coeffs)

    def resum(self) -> Polynomial:
        """Reassemble sum c_alpha h_{alpha,s}; inverts hermite_expand exactly.

        By linearity this is backward heat by s applied to the polynomial
        whose monomial coefficients are the c_alpha.
        """
        return heat(Polynomial._make(dict(self.coeffs)), -self.base_variance)

    def weighted_norm_squared(self, variance) -> Fraction:
        """sum c_alpha^2 alpha! v^{|alpha|}: the L^2(mu_v) squared norm of
        the polynomial with these coefficients on the h_{alpha,v} basis."""
        v = variance_of(variance)
        return sum(
            (c * c * alpha.factorial() * v**alpha.degree for alpha, c in self.coeffs.items()),
            _F0,
        )

    def norm_squared(self) -> Fraction:
        """The L^2(mu_s) squared norm of resum(), via the basis weights."""
        return self.weighted_norm_squared(self.base_variance)


def hermite_expand(f: Polynomial, s) -> HermiteExpansion:
    """Coefficients of f in the h_{alpha,s} basis.

    Forward heat by s turns each h_{alpha,s} back into x^alpha, so the
    monomial coefficients of heat(f, s) are exactly the c_alpha.
    """
    s = as_fraction(s)
    return HermiteExpansion(s, MappingProxyType(heat(f, s).terms))


def hermite_semigroup(f: Polynomial, s, lam) -> Polynomial:
    """Decay each Hermite coefficient: c_alpha -> lam^{|alpha|} c_alpha at variance s.

    This is the operator with eigenvalue lam^{|alpha|} on h_{alpha,s}
    (lam = e^{-tau}); lam in (0,1] is the contractive regime, lam > 1
    runs it backwards, which is still well defined on polynomials.
    Forward heat by s maps each h_{alpha,s} to x^alpha, dilation scales
    x^alpha by lam^{|alpha|}, and backward heat by s maps it back, so the
    operator is heat(dilate(heat(f, s), lam), -s).
    """
    s = variance_of(s)
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError(f"the semigroup scale must be positive, got {lam}")
    return heat(dilate(heat(f, s), lam), -s)


# -- the (s, t, lambda, tau) bookkeeping ------------------------------------


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


@dataclass(frozen=True)
class VarianceParams:
    """The pair (s, t) with t < s, plus the derived scale and time constant.

    lam satisfies lam^2 = (s-t)/s and is stored exactly when that ratio
    is a perfect rational square, else as None (lam_sq is always exact
    and float paths use sqrt(lam_sq)).  tau = -log(lam) =
    (1/2) log(s/(s-t)), nonnegative exactly when t >= 0.
    """

    s: Fraction
    t: Fraction
    lam: Fraction | None
    lam_sq: Fraction
    tau: float = field(compare=False)

    @classmethod
    def from_scale(cls, s, lam) -> "VarianceParams":
        """Exact path: rational lam > 0 determines t = s (1 - lam^2)."""
        s = variance_of(s)
        lam = as_fraction(lam)
        if lam <= 0:
            raise ValueError(f"the scale must be positive, got {lam}")
        lam_sq = lam * lam
        t = s * (1 - lam_sq)
        return cls(s, t, lam, lam_sq, -math.log(float(lam)))

    @classmethod
    def from_times(cls, s, t) -> "VarianceParams":
        """From (s, t) with t < s; lam is exact only if (s-t)/s is a square."""
        s = variance_of(s)
        t = as_fraction(t)
        if t >= s:
            raise ValueError(f"need t < s, got t = {t}, s = {s}")
        lam_sq = (s - t) / s
        return cls(s, t, _rational_sqrt(lam_sq), lam_sq, 0.5 * math.log(float(s / (s - t))))

    @property
    def lam_float(self) -> float:
        return math.sqrt(float(self.lam_sq))


# -- identity checkers -------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact identity check with the evidence attached.

    witness = lhs - rhs is the zero polynomial exactly when ok (in float
    mode, ok means its coefficients are below tolerance relative to the
    coefficient scale of the two sides, recorded in max_rel_error).
    """

    ok: bool
    lhs: Polynomial
    rhs: Polynomial
    witness: Polynomial
    mode: str = "exact"
    max_rel_error: float = 0.0


def _float_compare(lhs: Polynomial, rhs: Polynomial, tol: float) -> CheckResult:
    witness = lhs - rhs
    scale = 1.0
    for g in (lhs, rhs):
        for _, c in g.items():
            scale = max(scale, abs(float(c)))
    worst = max((abs(float(c)) for _, c in witness.items()), default=0.0) / scale
    return CheckResult(worst <= tol, lhs, rhs, witness, "float", worst)


def verify_ident2(f: Polynomial, params: VarianceParams, float_tol: float = 1e-12) -> CheckResult:
    """Check dilate(heat(f, t), lam) == hermite_semigroup(f, s, lam).

    With rational lam (the exact path) the comparison is exact term-map
    equality and the witness is the literal difference.  When lam is
    irrational the float sqrt is embedded as a rational and the two
    sides are compared to float_tol relative.
    """
    if params.lam is not None:
        lhs = dilate(heat(f, params.t), params.lam)
        rhs = hermite_semigroup(f, params.s, params.lam)
        witness = lhs - rhs
        return CheckResult(witness.is_zero, lhs, rhs, witness)
    lam = Fraction(params.lam_float)
    lhs = dilate(heat(f, params.t), lam)
    rhs = hermite_semigroup(f, params.s, lam)
    return _float_compare(lhs, rhs, float_tol)


def verify_commutator(f: Polynomial) -> CheckResult:
    """Check the bracket [Delta, D] f = 2 Delta f exactly."""
    lhs = laplacian(euler_d(f)) - euler_d(laplacian(f))
    rhs = 2 * laplacian(f)
    witness = lhs - rhs
    return CheckResult(witness.is_zero, lhs, rhs, witness)


def verify_nested_commutator(f: Polynomial) -> CheckResult:
    """Check [Delta, [Delta, D]] f = 0 exactly.

    The inner bracket acts as C = Delta D - D Delta; nesting once more
    must vanish because C = 2 Delta commutes with Delta.
    """

    def inner(g):
        return laplacian(euler_d(g)) - euler_d(laplacian(g))

    lhs = laplacian(inner(f)) - inner(laplacian(f))
    rhs = Polynomial.zero()
    return CheckResult(lhs.is_zero, lhs, rhs, lhs)


# -- contraction bookkeeping and the numeric oracle --------------------------


def l2_contraction_ratio(f: Polynomial, s, t) -> Fraction:
    """||heat(f,t)||^2 in L^2(mu_{s-t}) over ||f||^2 in L^2(mu_s), exact.

    Heat preserves Hermite coefficients while lowering the basis
    variance, so the ratio is
    sum c^2 alpha! (s-t)^{|alpha|} / sum c^2 alpha! s^{|alpha|},
    which never exceeds 1 for 0 < t < s.
    """
    s = variance_of(s)
    t = as_fraction(t)
    if not 0 < t < s:
        raise ValueError(f"need 0 < t < s, got t = {t}, s = {s}")
    if f.is_zero:
        raise ValueError("the ratio is undefined for the zero polynomial")
    expansion = hermite_expand(f, s)
    return expansion.weighted_norm_squared(s - t) / expansion.weighted_norm_squared(s)


@dataclass(frozen=True)
class ConvolutionCheck:
    """Quadrature convolution vs algebraic heat at one evaluation point."""

    numeric_value: float
    algebraic_value: float
    abs_discrepancy: float
    rel_discrepancy: float  # absolute discrepancy over max(1, |algebraic|)


def heat_convolution_oracle(f: Polynomial, t, x, nodes: int) -> ConvolutionCheck:
    """Compare E[f(x + z)], z ~ N(0, t I), against heat(f, t) evaluated at x.

    The expectation runs over the active variables of f by tensor
    Gauss-Hermite with `nodes` points per variable, which must cover
    deg(f): nodes >= ceil((deg f + 1) / 2).  This is the measure-level
    route to the heat operator, fully independent of the series route.
    """
    t = as_fraction(t)
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    x = {int(k): v for k, v in dict(x or {}).items()}
    variables = f.active_variables
    degree = 0 if f.is_zero else int(max(f.degree, 0))
    min_nodes = degree // 2 + 1
    if nodes < min_nodes:
        raise ValueError(
            f"{nodes} nodes per variable cannot integrate degree {degree}; "
            f"need at least {min_nodes}"
        )
    shift = {v: float(x.get(v, 0)) for v in variables}

    def integrand(point):
        return f.evaluate({v: shift[v] + point[v] for v in variables})

    numeric = expectation_quadrature(integrand, variables, t, nodes)
    flowed = heat(f, t)
    exact_point = all(not isinstance(v, float) for v in x.values())
    if exact_point:
        algebraic = float(flowed.evaluate({k: as_fraction(v) for k, v in x.items()}))
    else:
        algebraic = float(flowed.evaluate({k: float(v) for k, v in x.items()}))
    abs_disc = abs(numeric - algebraic)
    return ConvolutionCheck(numeric, algebraic, abs_disc, abs_disc / max(1.0, abs(algebraic)))


def nonclosability_example(n: int, s) -> Polynomial:
    """f_n = (1/n) sum_{k<=n} (x_k^2 - s).

    ||f_n||^2 in L^2(mu_s) is 2 s^2 / n, so f_n -> 0 in norm, while
    laplacian(f_n) = 2 for every n: the Laplacian sends a vanishing
    sequence to a fixed nonzero constant, so it cannot have a closed
    graph over L^2(mu_s).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    s = as_fraction(s)
    inv = Fraction(1, n)
    terms = {MultiIndex.single(k, 2): inv for k in range(1, n + 1)}
    if s:
        terms[MultiIndex()] = -s
    return Polynomial._make(terms)
