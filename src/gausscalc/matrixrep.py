"""Matrix representations of the operators on a graded monomial basis.

Polynomials of degree <= n in variables x1..xm form a space of dimension
C(m+n, n) that the Laplacian, the Euler operator, and their combinations
map into itself.  On the degree-ascending monomial basis the Euler
operator is diagonal and the Laplacian is strictly upper triangular
(it only lowers degree), so its exponential is a terminating Taylor sum
that can be carried out in exact rationals.  The float matrix
exponential is the methodologically independent route used to test the
semigroup factorization, since e^{tau(A+B)} with noncommuting A, B has
no terminating expansion.

Convention: column j of a matrix holds the coefficients of the operator
applied to basis monomial j, so composition is matrix product and
applying a matrix to a coefficient vector agrees with the symbolic
operator.

Storage is by sparse columns: column j keeps only the nonzero entries of
that image, so the Laplacian costs at most m entries per column rather
than d.  The exact exponential runs the Taylor sum one column at a time
and costs the nonzeros times the Taylor terms; only the scipy float
route works on dense d x d arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .gaussian import variance_of
from .poly import MultiIndex, Polynomial, as_fraction
from .semigroups import euler_d, hermite_semigroup, laplacian, number_op

#: Largest basis dimension C(m+n, n) this module will materialize.
DIMENSION_CAP = 5000

_F0 = Fraction(0)
_F1 = Fraction(1)


def _exponent_vectors(m: int, d: int):
    """All length-m tuples of nonnegative ints summing to d."""
    if m == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exponent_vectors(m - 1, d - first):
            yield (first,) + rest


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

    def vector_of(self, f: Polynomial) -> tuple:
        """Coefficient vector of f on this basis; f must fit inside it."""
        out = [_F0] * len(self.monomials)
        for alpha, c in f.items():
            out[self.index_of(alpha)] = c
        return tuple(out)

    def poly_of(self, vector) -> Polynomial:
        terms = {}
        for alpha, c in zip(self.monomials, vector):
            c = as_fraction(c)
            if c:
                terms[alpha] = c
        return Polynomial._make(terms)


def graded_basis(m: int, n: int) -> GradedBasis:
    """Build the basis for m variables up to total degree n.

    Rejects dimensions above DIMENSION_CAP before generating anything.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"variable count must be a positive integer, got {m!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"max degree must be a nonnegative integer, got {n!r}")
    dim = math.comb(m + n, n)
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"basis dimension C({m + n},{n}) = {dim} exceeds the cap of {DIMENSION_CAP}"
        )
    monomials = []
    for d in range(n + 1):
        block = [
            MultiIndex({i + 1: e for i, e in enumerate(vec) if e})
            for vec in _exponent_vectors(m, d)
        ]
        block.sort()
        monomials.extend(block)
    assert len(monomials) == dim
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

    @property
    def entries(self) -> tuple:
        """Dense read-only view: entries[i][j] is row i, column j."""
        d = self.size
        rows = [[_F0] * d for _ in range(d)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = x
        return tuple(tuple(row) for row in rows)

    def float_array(self) -> np.ndarray:
        d = self.size
        out = np.zeros((d, d))
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i, j] = float(x)
        return out

    def apply(self, vector) -> tuple:
        """Matrix-vector product on an exact coefficient vector."""
        image = _combine(self.columns, {k: v for k, v in enumerate(vector) if v})
        return tuple(image.get(i, _F0) for i in range(self.size))

    def apply_poly(self, f: Polynomial) -> Polynomial:
        return self.basis.poly_of(self.apply(self.basis.vector_of(f)))

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

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        self._same_basis(other)
        columns = []
        for a, b in zip(self.columns, other.columns):
            col = dict(a)
            _add_into(col, b)
            columns.append(col)
        return OperatorMatrix(self.basis, tuple(columns))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self + other.scaled(-1)

    def matmul(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Exact matrix product: the matrix of (self after other)."""
        self._same_basis(other)
        return OperatorMatrix(
            self.basis, tuple(_combine(self.columns, col) for col in other.columns)
        )

    def is_zero(self) -> bool:
        return not any(self.columns)

    def _same_basis(self, other: "OperatorMatrix"):
        if self.basis is not other.basis and self.basis != other.basis:
            raise ValueError("matrices live on different bases")


def identity_matrix(basis: GradedBasis) -> OperatorMatrix:
    return OperatorMatrix(basis, tuple({j: _F1} for j in range(basis.size)))


def diagonal_matrix(basis: GradedBasis, diagonal) -> OperatorMatrix:
    diagonal = [as_fraction(x) for x in diagonal]
    if len(diagonal) != basis.size:
        raise ValueError("diagonal length does not match the basis size")
    return OperatorMatrix(
        basis, tuple({j: x} if x else {} for j, x in enumerate(diagonal))
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


def number_op_matrix(basis: GradedBasis, s) -> OperatorMatrix:
    """Euler minus s times Laplacian; upper triangular with diagonal |alpha|."""
    s = as_fraction(s)
    return _matrix_of(lambda f: number_op(f, s), basis)


def operator_matrix(which: str, basis: GradedBasis, s=None) -> OperatorMatrix:
    """Dispatch by name: 'laplacian', 'euler_d', or 'number_op' (needs s)."""
    if which == "laplacian":
        return laplacian_matrix(basis)
    if which == "euler_d":
        return euler_matrix(basis)
    if which == "number_op":
        if s is None:
            raise ValueError("number_op needs the variance s")
        return number_op_matrix(basis, s)
    raise ValueError(f"unknown operator {which!r}")


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


def expm(matrix, mode: str = "float"):
    """Matrix exponential.

    mode='exact-nilpotent' takes an OperatorMatrix that is strictly
    triangular (hence nilpotent, e.g. any scaled Laplacian matrix) and
    returns the exact terminating Taylor sum, column by column, at the
    cost of the nonzeros times the Taylor terms.  mode='float' takes an
    OperatorMatrix or float array and returns scipy's scaling-and-
    squaring result as an ndarray.
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
        array = matrix.float_array() if isinstance(matrix, OperatorMatrix) else np.asarray(matrix, dtype=float)
        return scipy.linalg.expm(array)
    raise ValueError(f"unknown expm mode {mode!r}")


@dataclass(frozen=True)
class BchReport:
    """Float and exact comparisons of the semigroup factorization on one basis.

    With A = s*Laplacian and B = -Euler the bracket is [A, B] = -2A, so
    e^{tau(A+B)} factors as e^{tau B} e^{c A} with c = (e^{-2 tau}-1)/(-2);
    equivalently e^{-tau N_s} = e^{-tau D} e^{(t/2) Laplacian} with
    t = s(1 - lam^2).  Float routes use scipy expm on both sides; the
    exact route multiplies the diagonal factor (entries lam^{|alpha|})
    into the terminating Laplacian exponential and compares column by
    column with the Hermite-coefficient decay operator.
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
    tol: float
    ok: bool


def _rel_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def bch_check(s, lam, basis: GradedBasis, tol: float = 1e-10) -> BchReport:
    """Verify the noncommutative exponential factorization on a graded basis.

    Compares, entrywise in floats to `tol`: (i) e^{tau(A+B)} against
    e^{tau B} e^{((e^{-2 tau}-1)/(-2)) A}; (ii) e^{-tau N_s} against
    e^{-tau D} e^{(t/2) Laplacian}; plus the scalar identity
    -(e^{-2 tau}-1)/2 = t/(2s).  Then checks exactly, in rationals, that
    the diagonal-times-nilpotent factorization applied to every basis
    monomial reproduces hermite_semigroup of that monomial.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    s = variance_of(s)
    lam = as_fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError(f"need a scale in (0, 1], got {lam}")
    lam_sq = lam * lam
    t = s * (1 - lam_sq)
    tau = -math.log(float(lam))

    lap = laplacian_matrix(basis)
    eul = euler_matrix(basis)
    n_mat = eul - lap.scaled(s)

    lap_f = lap.float_array()
    eul_f = eul.float_array()
    s_f = float(s)
    t_f = float(t)

    # (i) A = s*Laplacian, B = -Euler, [A, B] = -2A.
    a_f = s_f * lap_f
    b_f = -eul_f
    coeff = (math.exp(-2.0 * tau) - 1.0) / (-2.0)
    lhs1 = expm(tau * (a_f + b_f))
    rhs1 = expm(tau * b_f) @ expm(coeff * a_f)
    bch_rel_err = _rel_gap(lhs1, rhs1)

    # (ii) e^{-tau N_s} = e^{-tau D} e^{(t/2) Laplacian}.
    lhs2 = expm(-tau * n_mat.float_array())
    rhs2 = expm(-tau * eul_f) @ expm((t_f / 2.0) * lap_f)
    bch2_rel_err = _rel_gap(lhs2, rhs2)

    scalar_lhs = -(math.exp(-2.0 * tau) - 1.0) / 2.0
    scalar_rhs = float(t / (2 * s))
    scalar_abs_err = abs(scalar_lhs - scalar_rhs)

    # (iii) exact: diag(lam^{|alpha|}) times the terminating Taylor sum of
    # (t/2) Laplacian, column-checked against the Hermite-coefficient decay.
    decay = diagonal_matrix(basis, [lam**alpha.degree for alpha in basis.monomials])
    heat_exact = expm(lap.scaled(t / 2), mode="exact-nilpotent")
    factored = decay.matmul(heat_exact)
    exact_ok = True
    witness = None
    for j, alpha in enumerate(basis.monomials):
        expected = _sparse_vector(basis, hermite_semigroup(Polynomial.monomial(alpha), s, lam))
        if factored.columns[j] != expected:
            exact_ok = False
            witness = str(alpha)
            break

    ok = (
        bch_rel_err <= tol
        and bch2_rel_err <= tol
        and scalar_abs_err <= tol
        and exact_ok
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
        exact_route_ok=exact_ok,
        exact_witness=witness,
        tol=tol,
        ok=ok,
    )
