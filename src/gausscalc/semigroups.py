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

heat, dilate and hermite_semigroup run on an integer form (int coefficients
over one common denominator) and build Fractions once, at the end.  Exact
checks compare the two sides before they build the witness lhs - rhs.
It imports only `poly`; the convolution oracle for heat lives in `gaussian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import MultiIndex, Polynomial, abbreviate, as_fraction

_F0 = Fraction(0)

#: Relative tolerance of verify_ident2's float mode.
IDENT_FLOAT_TOL = 1e-12


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
    at most deg(f) // 2 steps, so t of either sign (backward heat
    included) is fine and the result is exact.  The sum runs on the
    integer form of f (see _heat_integer).
    """
    t = as_fraction(t)
    if t == 0 or f.is_zero:
        return f
    return _fraction_form(*_heat_integer(*_integer_form(f), t))


def dilate(f: Polynomial, lam) -> Polynomial:
    """f(lam x): scales each coefficient by lam^{|alpha|}, on the integer form.

    lam is an exact scalar (see as_fraction); a float is refused, and a
    caller that means its binary value passes Fraction(lam).
    """
    lam = as_fraction(lam)
    if lam == 0:
        raise ValueError("dilation scale must be nonzero")
    if lam == 1 or f.is_zero:
        return f
    return _fraction_form(*_dilate_integer(*_integer_form(f), lam))


# -- the integer form f = g / d: int coefficients over one denominator d > 0 --


def _integer_form(f: Polynomial) -> tuple:
    d = math.lcm(*(c.denominator for _, c in f.items()))
    return Polynomial._make({a: c.numerator * (d // c.denominator) for a, c in f.items()}), d


def _fraction_form(g: Polynomial, d: int) -> Polynomial:
    return Polynomial._make({a: Fraction(c, d) for a, c in g.items()})


def _heat_integer(g: Polynomial, d: int, t: Fraction) -> tuple:
    """heat on g / d.  With t/2 = p/q and K = deg(g) // 2, term k of the
    series is Delta^k g times p^k q^(K-k) K!/k!, over d q^K K!; the gcd
    of the sum's coefficients and that denominator is divided out once."""
    if g.is_zero:
        return g, d
    half = t / 2
    p, q = half.numerator, half.denominator
    top = int(g.degree) // 2
    weight = q**top * math.factorial(top)
    d *= weight
    acc = {a: c * weight for a, c in g.items()}
    term = g
    k = 1
    while True:
        term = laplacian(term)
        if term.is_zero:
            break
        weight = weight * p // (q * k)
        for a, c in term.items():
            acc[a] = acc.get(a, 0) + c * weight
        k += 1
    common = math.gcd(d, *acc.values())
    return Polynomial._make({a: c // common for a, c in acc.items() if c}), d // common


def _dilate_integer(g: Polynomial, d: int, lam: Fraction) -> tuple:
    """dilate on g / d: lam = p/q scales x^alpha by p^|alpha| q^(D-|alpha|) / q^D, D = deg g."""
    if lam == 1 or g.is_zero:
        return g, d
    p, q, top = lam.numerator, lam.denominator, int(g.degree)
    weights = [p**k * q ** (top - k) for k in range(top + 1)]
    return Polynomial._make({a: c * weights[a.degree] for a, c in g.items()}), d * q**top


# -- Hermite polynomials and expansions -------------------------------------


def hermite(alpha, s) -> Polynomial:
    """h_{alpha,s} = backward heat flow out of the monomial x^alpha.

    Monic in x^alpha, degree |alpha|; for s > 0 these are orthogonal in
    L^2(mu_s) with squared norm alpha! s^{|alpha|}.  The polynomial is
    defined for any rational s (it is pure algebra); the measure-level
    statements need s > 0.
    """
    return heat(Polynomial.monomial(alpha), -as_fraction(s))


def hermite_expand(f: Polynomial, s) -> Polynomial:
    """Coefficients of f in the h_{alpha,s} basis, as a polynomial.

    Forward heat by s turns each h_{alpha,s} back into x^alpha, so the
    monomial coefficients of heat(f, s) are exactly the c_alpha; backward
    heat by s, heat(c, -s), resums them into f.
    """
    return heat(f, as_fraction(s))


def hermite_semigroup(f: Polynomial, s, lam) -> Polynomial:
    """Decay each Hermite coefficient: c_alpha -> lam^{|alpha|} c_alpha at variance s.

    This is the operator with eigenvalue lam^{|alpha|} on h_{alpha,s}
    (lam = e^{-tau}); lam in (0,1] is the contractive regime, lam > 1
    runs it backwards, which is still well defined on polynomials.
    Forward heat by s maps each h_{alpha,s} to x^alpha, dilation scales
    x^alpha by lam^{|alpha|}, and backward heat by s maps it back, so the
    operator is heat(dilate(heat(f, s), lam), -s), composed here on the
    integer form so no coefficient is reduced between the three stages.
    """
    s = variance_of(s)
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError(f"the semigroup scale must be positive, got {abbreviate(lam)}")
    g, d = _heat_integer(*_integer_form(f), s)
    return _fraction_form(*_heat_integer(*_dilate_integer(g, d, lam), -s))


# -- the (s, t, lambda, tau) bookkeeping ------------------------------------


def variance_of(s) -> Fraction:
    """Normalize a Fraction, int, or rational string to a Fraction > 0."""
    value = as_fraction(s)
    if value <= 0:
        raise ValueError(f"variance must be positive, got {abbreviate(value)}")
    return value


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _log(q: Fraction) -> float:
    """log q for a rational q > 0 of any size, accurate also near q = 1:
    an exact shift by a power of 2 brings q to r in (1/2, 2), and
    log r = log1p(r - 1) with r - 1 computed exactly."""
    shift = q.numerator.bit_length() - q.denominator.bit_length()
    return math.log1p(q / Fraction(2) ** shift - 1) + shift * math.log(2)


@dataclass(frozen=True)
class VarianceParams:
    """The pair (s, t) with t < s, plus the derived scale and time constant.

    lam satisfies lam^2 = (s-t)/s and is stored exactly when that ratio
    is a perfect rational square, else as None (lam_sq is always exact
    and float paths use sqrt(lam_sq)).  tau = -log(lam) = -(1/2) log(lam^2),
    nonnegative exactly when t >= 0, is taken from the exact lam^2 (see
    _log), so it is finite whatever the size of lam.
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
            raise ValueError(f"the scale must be positive, got {abbreviate(lam)}")
        lam_sq = lam * lam
        t = s * (1 - lam_sq)
        return cls(s, t, lam, lam_sq, -0.5 * _log(lam_sq))

    @classmethod
    def from_times(cls, s, t) -> "VarianceParams":
        """From (s, t) with t < s; lam is exact only if (s-t)/s is a square."""
        s = variance_of(s)
        t = as_fraction(t)
        if t >= s:
            raise ValueError(f"need t < s, got t = {abbreviate(t)}, s = {abbreviate(s)}")
        lam_sq = (s - t) / s
        return cls(s, t, _rational_sqrt(lam_sq), lam_sq, -0.5 * _log(lam_sq))

    @property
    def lam_float(self) -> float:
        """sqrt(lam^2) as a positive float; ValueError when it leaves the float range."""
        try:
            lam = math.sqrt(float(self.lam_sq))
        except OverflowError:
            lam = math.inf
        if not 0 < lam < math.inf:
            raise ValueError(
                f"the scale lambda^2 = {abbreviate(self.lam_sq)} (s = {abbreviate(self.s)}, "
                f"t = {abbreviate(self.t)}) is beyond the float range"
            )
        return lam


# -- identity checkers -------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact identity check with the evidence attached.

    witness = lhs - rhs is the zero polynomial exactly when ok; an exact
    check compares lhs == rhs first and subtracts only on a mismatch.  In
    float mode, ok means the witness's coefficients are below tolerance
    relative to the coefficient scale of the two sides, recorded in
    max_rel_error.
    """

    ok: bool
    lhs: Polynomial
    rhs: Polynomial
    witness: Polynomial
    mode: str = "exact"
    max_rel_error: float = 0.0


def _float_compare(lhs: Polynomial, rhs: Polynomial) -> CheckResult:
    witness = lhs - rhs
    scale = 1.0
    for g in (lhs, rhs):
        for _, c in g.items():
            scale = max(scale, abs(float(c)))
    worst = max((abs(float(c)) for _, c in witness.items()), default=0.0) / scale
    return CheckResult(worst <= IDENT_FLOAT_TOL, lhs, rhs, witness, "float", worst)


def verify_ident2(f: Polynomial, params: VarianceParams) -> CheckResult:
    """Check dilate(heat(f, t), lam) == hermite_semigroup(f, s, lam).

    With rational lam (the exact path) the comparison is exact term-map
    equality and the witness is the literal difference.  When lam is
    irrational the float sqrt is embedded as a rational and the two
    sides are compared to IDENT_FLOAT_TOL relative.
    """
    lam = Fraction(params.lam_float) if params.lam is None else params.lam
    lhs = dilate(heat(f, params.t), lam)
    rhs = hermite_semigroup(f, params.s, lam)
    if params.lam is None:
        try:
            return _float_compare(lhs, rhs)
        except OverflowError:
            raise ValueError(
                f"identity sides not finite in floating point at s = {abbreviate(params.s)}, "
                f"t = {abbreviate(params.t)}, deg f = {f.degree} (largest coefficient "
                f"{f.coefficient_digits} digits)"
            ) from None
    return _compare(lhs, rhs)


def _compare(lhs: Polynomial, rhs: Polynomial) -> CheckResult:
    """Exact verdict; lhs - rhs is built only when the sides differ."""
    if lhs == rhs:
        return CheckResult(True, lhs, rhs, Polynomial.zero())
    return CheckResult(False, lhs, rhs, lhs - rhs)


def _bracket(f: Polynomial) -> Polynomial:
    """[Delta, D] f = Delta D f - D Delta f."""
    return laplacian(euler_d(f)) - euler_d(laplacian(f))


def verify_commutator(f: Polynomial) -> CheckResult:
    """Check the bracket [Delta, D] f = 2 Delta f exactly."""
    lhs = _bracket(f)
    return _compare(lhs, 2 * laplacian(f))


def verify_nested_commutator(f: Polynomial) -> CheckResult:
    """Check [Delta, [Delta, D]] f = 0 exactly.

    Nesting the bracket once more must vanish because [Delta, D] = 2 Delta
    commutes with Delta.
    """
    return _compare(laplacian(_bracket(f)) - _bracket(laplacian(f)), Polynomial.zero())


# -- contraction bookkeeping and the nonclosability example ------------------


def _weighted_norm_squared(coeffs: Polynomial, v: Fraction) -> Fraction:
    """sum c_alpha^2 alpha! v^{|alpha|}: the L^2(mu_v) squared norm of
    sum c_alpha h_{alpha,v}, with the c_alpha the monomial coefficients."""
    return sum((c * c * alpha.factorial() * v**alpha.degree for alpha, c in coeffs.items()), _F0)


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
        raise ValueError(f"need 0 < t < s, got t = {abbreviate(t)}, s = {abbreviate(s)}")
    if f.is_zero:
        raise ValueError("the ratio is undefined for the zero polynomial")
    coeffs = hermite_expand(f, s)
    return _weighted_norm_squared(coeffs, s - t) / _weighted_norm_squared(coeffs, s)


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
