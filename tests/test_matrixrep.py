import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gausscalc.matrixrep
import gausscalc.semigroups
from gausscalc.matrixrep import (
    DIMENSION_CAP,
    BchReport,
    OperatorMatrix,
    bch_check,
    diagonal_matrix,
    euler_matrix,
    expm,
    graded_basis,
    identity_matrix,
    laplacian_matrix,
    number_op_matrix,
    operator_matrix,
)
from gausscalc.poly import MultiIndex, Polynomial, parse
from gausscalc.semigroups import euler_d, heat, hermite_semigroup, laplacian, number_op

F = Fraction


def _random_poly_in_basis(rng, basis, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = rng.choice(basis.monomials)
        terms[alpha] = F(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(terms.items())


def _dense(mat):
    """Nested lists of the entries, after checking that no stored entry is zero."""
    assert all(x for col in mat.columns for x in col.values())
    return [list(row) for row in mat.entries]


def _dense_matmul(a, b):
    d = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(d) if a[i][k]), F(0)) for j in range(d)]
            for i in range(d)]


def _dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _dense_scaled(a, c):
    return [[c * x for x in row] for row in a]


def _dense_expm_nilpotent(a):
    """Terminating Taylor sum I + A + A^2/2! + ... on nested lists."""
    d = len(a)
    term = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    total = term
    k = 1
    while True:
        term = _dense_scaled(_dense_matmul(term, a), F(1, k))
        if not any(x for row in term for x in row):
            return total
        total = _dense_add(total, term)
        k += 1


def _transpose(mat):
    """The transpose, built through the sparse column constructor."""
    columns = [{} for _ in range(mat.size)]
    for j, col in enumerate(mat.columns):
        for i, x in col.items():
            columns[i][j] = x
    return OperatorMatrix(mat.basis, tuple(columns))


class TestGradedBasis:
    def test_one_variable_up_to_degree_two(self):
        basis = graded_basis(1, 2)
        assert basis.size == 3
        assert basis.monomials == (
            MultiIndex({}),
            MultiIndex({1: 1}),
            MultiIndex({1: 2}),
        )

    def test_two_variables_orders_blocks_ascending(self):
        basis = graded_basis(2, 2)
        expected = [
            MultiIndex({}),
            MultiIndex({2: 1}),
            MultiIndex({1: 1}),
            MultiIndex({2: 2}),
            MultiIndex({1: 1, 2: 1}),
            MultiIndex({1: 2}),
        ]
        assert list(basis.monomials) == expected

    def test_dimension_formula(self):
        for m, n in [(1, 5), (2, 3), (3, 2), (2, 4), (4, 4)]:
            assert graded_basis(m, n).size == math.comb(m + n, n)

    def test_cap_is_enforced_before_generation(self):
        assert DIMENSION_CAP == 5000
        with pytest.raises(ValueError, match="cap"):
            graded_basis(10, 10)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            graded_basis(0, 2)
        with pytest.raises(ValueError):
            graded_basis(2, -1)
        with pytest.raises(ValueError):
            graded_basis(True, 2)

    def test_vector_round_trip(self):
        basis = graded_basis(2, 3)
        f = parse("x1^2 x2 - 1/2 x2 + 3")
        assert basis.poly_of(basis.vector_of(f)) == f

    def test_vector_of_rejects_outside_monomials(self):
        basis = graded_basis(1, 2)
        with pytest.raises(ValueError, match="outside"):
            basis.vector_of(parse("x1^3"))
        with pytest.raises(ValueError, match="outside"):
            basis.vector_of(parse("x2"))

    def test_index_of_agrees_with_position(self):
        basis = graded_basis(3, 3)
        for j, alpha in enumerate(basis.monomials):
            assert basis.index_of(alpha) == j


class TestOperatorMatrices:
    def test_euler_is_the_degree_diagonal(self):
        basis = graded_basis(1, 2)
        eul = euler_matrix(basis)
        assert eul.entries == (
            (F(0), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(2)),
        )

    def test_laplacian_has_one_entry_on_this_basis(self):
        basis = graded_basis(1, 2)
        lap = laplacian_matrix(basis)
        expected = [[F(0)] * 3 for _ in range(3)]
        expected[0][2] = F(2)
        assert lap.entries == tuple(tuple(row) for row in expected)

    def test_number_op_assembles(self):
        basis = graded_basis(2, 3)
        s = F(5, 3)
        lhs = number_op_matrix(basis, s)
        rhs = euler_matrix(basis) - laplacian_matrix(basis).scaled(s)
        assert lhs.entries == rhs.entries

    def test_matrices_agree_with_symbolic_operators(self):
        rng = random.Random(113)
        basis = graded_basis(3, 4)
        lap = laplacian_matrix(basis)
        eul = euler_matrix(basis)
        num = number_op_matrix(basis, F(1, 2))
        for _ in range(15):
            f = _random_poly_in_basis(rng, basis)
            assert lap.apply_poly(f) == laplacian(f)
            assert eul.apply_poly(f) == euler_d(f)
            assert num.apply_poly(f) == number_op(f, F(1, 2))

    def test_laplacian_is_strictly_upper_triangular(self):
        for m, n in [(1, 4), (2, 3), (3, 3)]:
            lap = laplacian_matrix(graded_basis(m, n))
            d = lap.size
            for i in range(d):
                for j in range(i + 1):
                    assert lap.entries[i][j] == 0

    def test_number_op_is_upper_with_degree_diagonal(self):
        basis = graded_basis(2, 4)
        num = number_op_matrix(basis, F(3))
        for i, alpha in enumerate(basis.monomials):
            assert num.entries[i][i] == alpha.degree
            for j in range(i):
                assert num.entries[i][j] == 0

    def test_commutator_with_euler_is_twice_laplacian(self):
        for m, n in [(1, 4), (2, 5), (3, 8)]:
            basis = graded_basis(m, n)
            lap = laplacian_matrix(basis)
            eul = euler_matrix(basis)
            bracket = lap.matmul(eul) - eul.matmul(lap)
            assert bracket.entries == lap.scaled(2).entries

    def test_composition_matches_matrix_product(self):
        rng = random.Random(127)
        basis = graded_basis(2, 4)
        lap = laplacian_matrix(basis)
        eul = euler_matrix(basis)
        both = lap.matmul(eul)
        for _ in range(10):
            f = _random_poly_in_basis(rng, basis)
            assert both.apply_poly(f) == laplacian(euler_d(f))

    def test_dispatcher(self):
        basis = graded_basis(1, 3)
        assert operator_matrix("laplacian", basis).entries == laplacian_matrix(basis).entries
        assert operator_matrix("euler_d", basis).entries == euler_matrix(basis).entries
        assert (
            operator_matrix("number_op", basis, s=2).entries
            == number_op_matrix(basis, 2).entries
        )
        with pytest.raises(ValueError, match="needs the variance"):
            operator_matrix("number_op", basis)
        with pytest.raises(ValueError, match="unknown"):
            operator_matrix("gradient", basis)

    def test_mismatched_bases_are_rejected(self):
        a = euler_matrix(graded_basis(1, 2))
        b = euler_matrix(graded_basis(1, 3))
        with pytest.raises(ValueError, match="different bases"):
            a + b
        with pytest.raises(ValueError, match="different bases"):
            a.matmul(b)

    def test_diagonal_matrix_validation(self):
        basis = graded_basis(1, 2)
        with pytest.raises(ValueError):
            diagonal_matrix(basis, [1, 2])


class TestExpm:
    def test_zero_matrix_exponentiates_to_identity(self):
        basis = graded_basis(2, 2)
        zero = laplacian_matrix(basis).scaled(0)
        assert expm(zero, mode="exact-nilpotent").entries == identity_matrix(basis).entries

    def test_exact_heat_flow_on_a_square(self):
        basis = graded_basis(1, 4)
        t = F(5, 2)
        flow = expm(laplacian_matrix(basis).scaled(t / 2), mode="exact-nilpotent")
        assert flow.apply_poly(parse("x1^2")) == parse("x1^2 + 5/2")
        assert flow.apply_poly(parse("x1^4")) == heat(parse("x1^4"), t)

    def test_exact_route_equals_series_route_on_randoms(self):
        rng = random.Random(131)
        basis = graded_basis(2, 5)
        t = F(-3, 4)
        flow = expm(laplacian_matrix(basis).scaled(t / 2), mode="exact-nilpotent")
        for _ in range(10):
            f = _random_poly_in_basis(rng, basis)
            assert flow.apply_poly(f) == heat(f, t)

    def test_float_mode_on_a_diagonal(self):
        basis = graded_basis(1, 2)
        result = expm(euler_matrix(basis), mode="float")
        expected = np.diag([1.0, math.e, math.e**2])
        assert np.max(np.abs(result - expected)) < 1e-13

    def test_float_mode_accepts_arrays(self):
        out = expm(np.zeros((2, 2)))
        assert np.array_equal(out, np.eye(2))

    def test_exact_mode_rejects_non_nilpotent_input(self):
        basis = graded_basis(1, 2)
        with pytest.raises(ValueError, match="strictly triangular"):
            expm(identity_matrix(basis), mode="exact-nilpotent")
        with pytest.raises(ValueError, match="strictly triangular"):
            expm(number_op_matrix(basis, 1), mode="exact-nilpotent")
        with pytest.raises(TypeError):
            expm(np.zeros((2, 2)), mode="exact-nilpotent")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            expm(np.zeros((2, 2)), mode="pade")


def _rel_err(approx, exact):
    return float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))


class TestFloatExpm:
    """The numpy float exponential against exact rational references."""

    @staticmethod
    def _branches(monkeypatch):
        """Record which float expm branch each call takes; none recorded is diagonal."""
        taken = []
        for name in ("_expm_nilpotent_float", "_expm_pade13"):
            real = getattr(gausscalc.matrixrep, name)

            def spy(a, real=real, name=name):
                taken.append(name)
                return real(a)

            monkeypatch.setattr(gausscalc.matrixrep, name, spy)
        return taken

    @pytest.mark.parametrize("m,n", [(1, 30), (2, 12), (3, 6)])
    @pytest.mark.parametrize("s", [F(1), F(4)])
    @pytest.mark.parametrize("lam", [F(1, 2), F(1, 10), F(1, 1000)])
    def test_matches_the_exact_factorization(self, monkeypatch, m, n, s, lam):
        # e^{-tau N_s} = diag(lam^|alpha|) e^{(t/2) Laplacian}, t = s(1 - lam^2):
        # each of the three float exponentials against its exact counterpart.
        basis = graded_basis(m, n)
        lap, eul = laplacian_matrix(basis), euler_matrix(basis)
        t, tau = s * (1 - lam * lam), -math.log(float(lam))
        heat_exact = expm(lap.scaled(t / 2), mode="exact-nilpotent")
        decay = diagonal_matrix(basis, [lam**alpha.degree for alpha in basis.monomials])
        taken = self._branches(monkeypatch)

        general = expm(-tau * number_op_matrix(basis, s).float_array())
        assert _rel_err(general, decay.matmul(heat_exact).float_array()) <= 1e-13
        nilpotent = expm((float(t) / 2) * lap.float_array())
        assert _rel_err(nilpotent, heat_exact.float_array()) <= 1e-13
        diagonal = expm(-tau * eul.float_array())
        assert _rel_err(diagonal, decay.float_array()) <= 1e-13
        assert taken == ["_expm_pade13", "_expm_nilpotent_float"]

    def test_strictly_lower_input_takes_the_taylor_sum(self, monkeypatch):
        basis = graded_basis(2, 6)
        heat_exact = expm(laplacian_matrix(basis).scaled(F(3, 4)), mode="exact-nilpotent")
        taken = self._branches(monkeypatch)
        lower = expm(0.75 * laplacian_matrix(basis).float_array().T)
        assert _rel_err(lower, heat_exact.float_array().T) <= 1e-13
        assert taken == ["_expm_nilpotent_float"]

    def test_full_matrices_need_squaring(self, monkeypatch):
        taken = self._branches(monkeypatch)
        theta = 10.0
        rotation = expm(np.array([[0.0, -theta], [theta, 0.0]]))
        cos, sin = math.cos(theta), math.sin(theta)
        expected = np.array([[cos, -sin], [sin, cos]])
        assert np.max(np.abs(rotation - expected)) <= 1e-13
        rng = np.random.default_rng(5)
        sym = rng.normal(size=(6, 6)) * 2.0
        sym = sym + sym.T
        values, vectors = np.linalg.eigh(sym)
        assert _rel_err(expm(sym), (vectors * np.exp(values)) @ vectors.T) <= 1e-13
        assert taken == ["_expm_pade13", "_expm_pade13"]

    def test_pade_is_exact_at_zero_and_on_a_full_nilpotent(self):
        pade = gausscalc.matrixrep._expm_pade13
        assert np.array_equal(pade(np.zeros((4, 4))), np.eye(4))
        nil = np.array([[1.0, 1.0], [-1.0, -1.0]])  # nil @ nil = 0, neither triangle empty
        assert np.max(np.abs(expm(nil) - (np.eye(2) + nil))) <= 1e-15

    def test_rejects_non_square_input(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3)))


class TestDenseOracle:
    """The sparse columns agree exactly with a nested-list reference."""

    BASES = [(1, 5), (2, 4), (3, 3), (2, 6)]

    @staticmethod
    def _nilpotents(m, n):
        basis = graded_basis(m, n)
        upper = laplacian_matrix(basis).scaled(F(-5, 3) / 2)
        return basis, [upper, _transpose(upper)]

    @pytest.mark.parametrize("m,n", BASES)
    def test_transpose_is_strictly_lower(self, m, n):
        _, (upper, lower) = self._nilpotents(m, n)
        dense = _dense(lower)
        assert dense == [list(col) for col in zip(*_dense(upper))]
        assert all(not dense[i][j] for i in range(lower.size) for j in range(i, lower.size))

    @pytest.mark.parametrize("m,n", BASES)
    def test_product_sum_and_scaling(self, m, n):
        basis, nilpotents = self._nilpotents(m, n)
        one = identity_matrix(basis)
        # (I + L)(I - L) = I - L^2 cancels inside every column of the product.
        mats = nilpotents + [number_op_matrix(basis, F(3, 2)), one + nilpotents[0],
                             one - nilpotents[0]]
        for a in mats:
            for b in mats + [euler_matrix(basis)]:
                assert _dense(a.matmul(b)) == _dense_matmul(_dense(a), _dense(b))
                assert _dense(a + b) == _dense_add(_dense(a), _dense(b))
                assert _dense(a - b) == _dense_add(_dense(a), _dense_scaled(_dense(b), F(-1)))
            assert _dense(a.scaled(F(-7, 4))) == _dense_scaled(_dense(a), F(-7, 4))
            assert (a - a).is_zero()
            assert _dense(a - a) == _dense(a.scaled(0))

    @pytest.mark.parametrize("m,n", BASES)
    def test_terminating_taylor_sum(self, m, n):
        _, nilpotents = self._nilpotents(m, n)
        for a in nilpotents:
            assert _dense(expm(a, mode="exact-nilpotent")) == _dense_expm_nilpotent(_dense(a))

    @pytest.mark.parametrize("m,n", BASES)
    def test_float_array_and_apply(self, m, n):
        rng = random.Random(137)
        basis, nilpotents = self._nilpotents(m, n)
        for a in nilpotents:
            assert np.array_equal(a.float_array(), np.array(_dense(a), dtype=float))
            vector = basis.vector_of(_random_poly_in_basis(rng, basis))
            dense = _dense(a)
            expected = tuple(sum((r * v for r, v in zip(row, vector)), F(0)) for row in dense)
            assert a.apply(vector) == expected
            assert all(a.column(j) == tuple(row[j] for row in dense) for j in range(a.size))


def test_exact_expm_never_calls_the_semigroups(monkeypatch):
    """The matrix route stays independent of heat and hermite_semigroup."""

    def forbidden(*args, **kwargs):
        raise AssertionError("exact-nilpotent expm called a semigroups flow")

    for module in (gausscalc.semigroups, gausscalc.matrixrep):
        for name in ("heat", "hermite_semigroup"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    basis = graded_basis(2, 6)
    lap = laplacian_matrix(basis).scaled(F(3, 4))
    for a in (lap, _transpose(lap)):
        flow = expm(a, mode="exact-nilpotent")
        assert not flow.is_zero()


class TestBchCheck:
    def test_small_basis_passes_everything(self):
        report = bch_check(4, F(1, 2), graded_basis(1, 2))
        assert isinstance(report, BchReport)
        assert report.ok
        assert report.dim == 3
        assert report.t == 3
        assert report.bch_rel_err <= report.tol
        assert report.bch2_rel_err <= report.tol
        assert report.exact_route_ok
        assert report.exact_witness is None

    def test_scalar_identity_value(self):
        # -(e^{-2 tau} - 1)/2 with lam = 1/2 is 3/8, and t/(2s) = 3/8
        report = bch_check(4, F(1, 2), graded_basis(1, 2))
        assert report.scalar_rhs == 0.375
        assert abs(report.scalar_lhs - 0.375) < 1e-15

    def test_unit_scale_collapses_to_identities(self):
        report = bch_check(1, 1, graded_basis(2, 3))
        assert report.ok
        assert report.t == 0
        assert report.tau == 0.0
        assert report.bch_rel_err <= 1e-15
        assert report.scalar_abs_err == 0.0

    def test_two_variable_grid(self):
        for s in (F(1), F(4)):
            for lam in (F(1, 2), F(2, 3)):
                report = bch_check(s, lam, graded_basis(2, 4), tol=1e-10)
                assert report.ok, (s, lam)
                assert report.t == s * (1 - lam * lam)

    @pytest.mark.parametrize("m,n,s,lam", [(2, 12, F(4), F(1, 10)), (1, 30, F(2), F(2, 3)),
                                           (1, 30, F(4), F(1, 1000)), (3, 5, F(3, 2), F(3, 5))])
    def test_float_gaps_stay_at_double_precision(self, m, n, s, lam):
        # Float round-off in the exponentials once reached 5e-7 on (1, 30),
        # failing the factorization at the default tolerance.
        report = bch_check(s, lam, graded_basis(m, n))
        assert report.ok
        assert max(report.bch_rel_err, report.bch2_rel_err) <= 1e-13

    def test_exact_route_matches_hermite_decay_by_hand(self):
        s, lam = F(2), F(1, 3)
        basis = graded_basis(1, 3)
        decay = diagonal_matrix(basis, [lam**a.degree for a in basis.monomials])
        flow = expm(laplacian_matrix(basis).scaled(s * (1 - lam * lam) / 2), mode="exact-nilpotent")
        factored = decay.matmul(flow)
        for j, alpha in enumerate(basis.monomials):
            image = hermite_semigroup(Polynomial.monomial(alpha), s, lam)
            assert factored.column(j) == basis.vector_of(image)

    def test_validation(self):
        basis = graded_basis(1, 2)
        with pytest.raises(ValueError):
            bch_check(1, F(1, 2), basis, tol=0.0)
        with pytest.raises(ValueError):
            bch_check(1, 0, basis)
        with pytest.raises(ValueError):
            bch_check(1, F(3, 2), basis)
        with pytest.raises(ValueError):
            bch_check(-1, F(1, 2), basis)
