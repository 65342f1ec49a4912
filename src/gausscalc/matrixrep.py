"""Matrix representations of the operators on a graded monomial basis.

Polynomials of degree <= n in variables x1..xm form a space of dimension
C(m+n, n) that the Laplacian, the Euler operator, and their combinations
map into itself.  On the degree-ascending monomial basis the Euler
operator D is diagonal and the Laplacian is strictly upper triangular
(it only lowers degree), so its exponential is a terminating Taylor sum.
So is e^{-tau N_s} = lam^{N_s} with N_s = D - s*Laplacian, as a binomial
series: on the span of a degree-k monomial N_s has the integer eigenvalues
k, k-2, ..., k mod 2.  Both run in exact rationals.

Convention: column j of a matrix holds the coefficients of the operator
applied to basis monomial j, so composition is matrix product and
apply_poly agrees with the symbolic operator.

Storage is by sparse columns: column j keeps only the nonzero entries of
that image, so the Laplacian costs at most m entries per column rather
than d.  The exact exponentials run one column at a time and cost the
nonzeros times the terms; only the float route works on dense d x d
arrays.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .poly import MultiIndex, Polynomial, abbreviate, as_fraction
from .semigroups import VarianceParams, euler_d, hermite_semigroup, laplacian

#: Largest basis dimension C(m+n, n) this module will materialize.
DIMENSION_CAP = 5000

#: Tolerance of bch_check's float comparisons.
BCH_TOL = 1e-10

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class GradedBasis:
    """All monomials in x1..xm of degree <= n, in ascending graded-lex order."""

    m: int
    n: int
    monomials: tuple
    _index: dict = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.monomials)

    def index_of(self, alpha: MultiIndex) -> int:
        try:
            return self._index[alpha]
        except KeyError:
            raise ValueError(f"monomial {alpha} is outside the basis") from None


def graded_basis(m: int, n: int) -> GradedBasis:
    """Build the basis for m variables up to total degree n, sorted by the order key.

    Rejects dimensions above DIMENSION_CAP before generating anything.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"variable count must be a positive integer, got {m!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"max degree must be a nonnegative integer, got {n!r}")
    dim = math.comb(m + n, n)
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"basis dimension C({abbreviate(m + n)},{abbreviate(n)}) = {abbreviate(dim)} "
            f"exceeds the cap of {DIMENSION_CAP}"
        )
    # A multiset of n picks from {0, 1, ..., m} is one monomial of degree
    # <= n, with 0 standing for an unused pick.
    monomials = sorted(
        (
            MultiIndex(Counter(v for v in picks if v))
            for picks in combinations_with_replacement(range(m + 1), n)
        ),
        key=MultiIndex.order_key,
    )
    index = {alpha: j for j, alpha in enumerate(monomials)}
    return GradedBasis(m, n, tuple(monomials), index)


def _combine(columns, coeffs: dict) -> dict:
    """Sparse linear combination sum_k coeffs[k] * columns[k], zeros dropped.

    With `columns` the columns of A this is A applied to the sparse vector
    `coeffs`, so column j of A*B is _combine(A.columns, B.columns[j]).
    """
    out = {}
    for k, b in coeffs.items():
        for i, a in columns[k].items():
            out[i] = out.get(i, _F0) + a * b
    return {i: x for i, x in out.items() if x}


def _add_into(acc: dict, vec: dict) -> None:
    """acc += vec in place, dropping entries that cancel."""
    for i, x in vec.items():
        y = acc.get(i, _F0) + x
        if y:
            acc[i] = y
        else:
            del acc[i]


def _sparse_vector(basis: GradedBasis, f: Polynomial) -> dict:
    """{basis index: nonzero coefficient} of f; f must fit inside the basis."""
    return {basis.index_of(alpha): c for alpha, c in f.items()}


@dataclass(frozen=True)
class OperatorMatrix:
    """Exact square matrix over a GradedBasis, stored by sparse columns.

    columns[j] is a {row index: nonzero Fraction} dict holding the image of
    basis monomial j; zeros are never stored, and the dicts are not mutated
    after construction.  Every operation costs the stored nonzeros, not d^2.
    """

    basis: GradedBasis
    columns: tuple

    @property
    def size(self) -> int:
        return len(self.columns)

    def float_array(self) -> np.ndarray:
        d = self.size
        out = np.zeros((d, d))
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i, j] = float(x)
        return out

    def apply_poly(self, f: Polynomial) -> Polynomial:
        """The matrix applied to f; f must fit inside the basis."""
        monomials = self.basis.monomials
        image = _combine(self.columns, _sparse_vector(self.basis, f))
        return Polynomial._make({monomials[i]: x for i, x in image.items()})

    def column(self, j: int) -> tuple:
        col = self.columns[j]
        return tuple(col.get(i, _F0) for i in range(self.size))

    def scaled(self, c) -> "OperatorMatrix":
        c = as_fraction(c)
        if not c:
            return OperatorMatrix(self.basis, tuple({} for _ in self.columns))
        return OperatorMatrix(
            self.basis, tuple({i: c * x for i, x in col.items()} for col in self.columns)
        )


def _matrix_of(op, basis: GradedBasis) -> OperatorMatrix:
    return OperatorMatrix(
        basis,
        tuple(_sparse_vector(basis, op(Polynomial.monomial(alpha))) for alpha in basis.monomials),
    )


def laplacian_matrix(basis: GradedBasis) -> OperatorMatrix:
    """Strictly upper triangular: the image of each monomial sits two degrees lower."""
    return _matrix_of(laplacian, basis)


def euler_matrix(basis: GradedBasis) -> OperatorMatrix:
    """Diagonal with entries |alpha|."""
    return _matrix_of(euler_d, basis)


def _strictly_triangular(mat: OperatorMatrix) -> bool:
    columns = mat.columns
    if all(i < j for j, col in enumerate(columns) for i in col):
        return True
    return all(i > j for j, col in enumerate(columns) for i in col)


def _exp_column(columns, j: int) -> dict:
    """Column j of e^A for nilpotent A: sum of v_k = A v_{k-1} / k from v_0 = e_j."""
    term = {j: _F1}
    total = dict(term)
    k = 1
    while term:
        term = _combine(columns, {i: x / k for i, x in term.items()})
        _add_into(total, term)
        k += 1
    return total


def _expm_nilpotent_float(a: np.ndarray) -> np.ndarray:
    """Terminating Taylor sum of a strictly triangular float matrix."""
    term = np.eye(a.shape[0])
    total = term.copy()
    for k in range(1, a.shape[0] + 1):
        term = (term @ a) / k
        if not term.any():
            break
        total += term
    return total


def expm(matrix, mode: str = "float"):
    """Matrix exponential of a diagonal or a strictly triangular matrix.

    mode='exact-nilpotent' takes an OperatorMatrix that is strictly
    triangular (hence nilpotent, e.g. any scaled Laplacian matrix) and
    returns the exact terminating Taylor sum, column by column, at the
    cost of the nonzeros times the Taylor terms.  mode='float' takes an
    OperatorMatrix or square float array and returns an ndarray: the
    entrywise exponential of the diagonal for a diagonal input, and the
    terminating Taylor sum for a strictly triangular one; any other input
    is refused.  The zero matrix maps to exactly the identity.
    """
    if mode == "exact-nilpotent":
        if not isinstance(matrix, OperatorMatrix):
            raise TypeError("exact-nilpotent mode needs an OperatorMatrix")
        if not _strictly_triangular(matrix):
            raise ValueError(
                "exact-nilpotent mode requires a strictly triangular matrix"
            )
        columns = matrix.columns
        return OperatorMatrix(
            matrix.basis, tuple(_exp_column(columns, j) for j in range(matrix.size))
        )
    if mode == "float":
        a = matrix.float_array() if isinstance(matrix, OperatorMatrix) else np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            return np.diag(np.exp(np.diagonal(a)))
        if not np.tril(a).any() or not np.triu(a).any():
            return _expm_nilpotent_float(a)
        raise ValueError("float expm needs a diagonal or a strictly triangular matrix")
    raise ValueError(f"unknown expm mode {mode!r}")


def _number_power(lap: OperatorMatrix, s: Fraction, lam: Fraction) -> OperatorMatrix:
    """lam^{N_s}, N_s = D - s*Laplacian, by its terminating binomial series.

    From e_j of degree k = 2K + c, c = k mod 2, N_s has the eigenvalues k, k-2, ..., c,
    so lam^{N_s} e_j = lam^c sum_{r<=K} (lam^2-1)^r binom((N_s-c)/2, r) e_j (Newton's
    form of lam^x at those nodes).  With s = a/b, lam = p/q, u_0 = e_j and the integer
    vectors u_r = (b(D - c - 2r + 2) - a*Laplacian) u_{r-1}, term r is (p^2-q^2)^r u_r
    over (2bq^2)^r r!, summed over (2bq^2)^K K! and times lam^c.  u_{K+1} = 0 proves
    the formula applies, so a nonzero one raises ValueError.
    """
    a, b = s.numerator, s.denominator
    p, q = lam.numerator, lam.denominator
    step = p * p - q * q
    scale = 2 * b * q * q
    monomials = lap.basis.monomials
    b_deg = [b * alpha.degree for alpha in monomials]
    a_lap = [{i: a * int(x) for i, x in col.items()} for col in lap.columns]
    columns = []
    for j, alpha in enumerate(monomials):
        half, c = divmod(alpha.degree, 2)
        den = weight = scale**half * math.factorial(half)
        acc = {j: weight}
        u = {j: 1}
        for r in range(1, half + 2):
            shift = b * (c + 2 * r - 2)
            nxt = {i: (b_deg[i] - shift) * x for i, x in u.items()}
            for i, x in u.items():
                for k, y in a_lap[i].items():
                    nxt[k] = nxt.get(k, 0) - y * x
            u = {i: x for i, x in nxt.items() if x}
            if r > half:
                break
            weight = weight * step // (scale * r)
            for i, x in u.items():
                acc[i] = acc.get(i, 0) + x * weight
        if u:
            raise ValueError(
                f"the binomial series of lambda^N_s does not end by term {half + 1} "
                f"at {alpha}"
            )
        columns.append({i: Fraction(x * p**c, den * q**c) for i, x in acc.items() if x})
    return OperatorMatrix(lap.basis, tuple(columns))


@dataclass(frozen=True)
class BchReport:
    """Float and exact comparisons of the semigroup factorization on one basis.

    With A = s*Laplacian and B = -Euler the bracket is [A, B] = -2A, so
    e^{tau(A+B)} factors as e^{tau B} e^{c A} with c = (e^{-2 tau}-1)/(-2);
    equivalently e^{-tau N_s} = e^{-tau D} e^{(t/2) Laplacian} with
    t = s(1 - lam^2).  Since A + B = -N_s and e^{-tau} = lam, both float
    identities share one left-hand side, the exact lam^{N_s} in floats,
    and one decay factor, e^{-tau D} by the diagonal short cut; e^{cA} in
    (i) and e^{(t/2) Laplacian} in (ii) are nilpotent Taylor sums.
    bch_rel_err and bch2_rel_err are the gaps of (i) and (ii); ok needs
    them and scalar_abs_err within BCH_TOL, and the exact route.  The exact
    route scales row i of the terminating Laplacian exponential by
    lam^{|alpha_i|} and compares it column by column with lam^{N_s} and
    with the Hermite-coefficient decay operator.
    """

    m: int
    n: int
    s: Fraction
    t: Fraction
    lam: Fraction
    tau: float
    dim: int
    bch_rel_err: float
    bch2_rel_err: float
    scalar_lhs: float
    scalar_rhs: float
    scalar_abs_err: float
    exact_route_ok: bool
    exact_witness: str | None
    ok: bool


def _rel_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def bch_check(s, lam, basis: GradedBasis) -> BchReport:
    """Verify the noncommutative exponential factorization on a graded basis.

    With A = s*Laplacian and B = -Euler, the left-hand side
    e^{tau(A+B)} = e^{-tau N_s} = lam^{N_s} is built exactly by
    _number_power.  Compares it, entrywise in floats to BCH_TOL, against
    (i) e^{-tau D} e^{c A} with c = (e^{-2 tau}-1)/(-2) from the bracket
    [A, B] = -2A, and (ii) e^{-tau D} e^{(t/2) Laplacian} with the exact t;
    plus the scalar identity -(e^{-2 tau}-1)/2 = t/(2s).  Then checks
    exactly that lam^D e^{(t/2) Laplacian} applied to every basis monomial
    equals both lam^{N_s} and hermite_semigroup of that monomial, and
    names the first monomial where it does not.
    """
    lam = as_fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError(f"need a scale in (0, 1], got {abbreviate(lam)}")
    params = VarianceParams.from_scale(s, lam)
    s, t, tau = params.s, params.t, params.tau
    try:
        s_f = float(s)  # t <= s, so float(t) below cannot overflow either
    except OverflowError:
        raise ValueError(f"the float exponentials cannot represent s = {abbreviate(s)}") from None

    lap = laplacian_matrix(basis)
    power = _number_power(lap, s, lam)
    degrees = [alpha.degree for alpha in basis.monomials]
    lap_f = lap.float_array()
    eul_f = np.diag(np.array(degrees, dtype=float))

    # Both float identities share e^{tau(A+B)} = lam^{N_s} and e^{-tau D},
    # with A = s*Laplacian, B = -Euler: A + B = -N_s and e^{tau B} = e^{-tau D}.
    try:
        lhs = power.float_array()
        with np.errstate(over="ignore", invalid="ignore"):
            decay_f = expm(-tau * eul_f)
            # (i) [A, B] = -2A gives the coefficient c of A from the bracket alone.
            coeff = (math.exp(-2.0 * tau) - 1.0) / (-2.0)
            bch_rel_err = _rel_gap(lhs, decay_f @ expm((coeff * s_f) * lap_f))

            # (ii) the same factor of A from the exact time t = s(1 - lam^2).
            bch2_rel_err = _rel_gap(lhs, decay_f @ expm((float(t) / 2.0) * lap_f))
        finite = math.isfinite(bch_rel_err) and math.isfinite(bch2_rel_err)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"float exponentials not finite on a basis of dimension {basis.size} "
            f"at s = {abbreviate(s)}, lambda = {abbreviate(lam)}"
        )

    scalar_lhs = -(math.exp(-2.0 * tau) - 1.0) / 2.0
    scalar_rhs = float(t / (2 * s))
    scalar_abs_err = abs(scalar_lhs - scalar_rhs)

    # Exact: row i of the terminating Taylor sum of (t/2) Laplacian times
    # lam^{|alpha_i|}, column-checked against lam^{N_s} and the
    # Hermite-coefficient decay.
    heat_exact = expm(lap.scaled(t / 2), mode="exact-nilpotent")
    decay = [lam**d for d in range(basis.n + 1)]
    witness = None
    for j, alpha in enumerate(basis.monomials):
        factored = {i: decay[degrees[i]] * x for i, x in heat_exact.columns[j].items()}
        if factored != power.columns[j] or factored != _sparse_vector(
            basis, hermite_semigroup(Polynomial.monomial(alpha), s, lam)
        ):
            witness = str(alpha)
            break

    ok = (
        bch_rel_err <= BCH_TOL
        and bch2_rel_err <= BCH_TOL
        and scalar_abs_err <= BCH_TOL
        and witness is None
    )
    return BchReport(
        m=basis.m,
        n=basis.n,
        s=s,
        t=t,
        lam=lam,
        tau=tau,
        dim=basis.size,
        bch_rel_err=bch_rel_err,
        bch2_rel_err=bch2_rel_err,
        scalar_lhs=scalar_lhs,
        scalar_rhs=scalar_rhs,
        scalar_abs_err=scalar_abs_err,
        exact_route_ok=witness is None,
        exact_witness=witness,
        ok=ok,
    )
