import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gausscalc.matrixrep
import gausscalc.semigroups
import helpers
from gausscalc.matrixrep import (
    BCH_TOL,
    DIMENSION_CAP,
    BchReport,
    OperatorMatrix,
    _add_into,
    _combine,
    _number_power,
    _sparse_vector,
    bch_check,
    euler_matrix,
    expm,
    graded_basis,
    laplacian_matrix,
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
    """Nested lists of the entries (row i, column j), built from the dense
    column(j) views, after checking that no stored entry is zero."""
    assert all(x for col in mat.columns for x in col.values())
    return [list(row) for row in zip(*(mat.column(j) for j in range(mat.size)))]


def _decayed(flow, lam):
    """Row i of every column of `flow` times lam^{|alpha_i|}: diag(lam^|alpha|) * flow."""
    monomials = flow.basis.monomials
    return OperatorMatrix(flow.basis, tuple(
        {i: lam**monomials[i].degree * x for i, x in col.items()} for col in flow.columns
    ))


def _dense_product(a, b):
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
        term = _dense_scaled(_dense_product(term, a), F(1, k))
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

    def test_matches_the_generate_then_sort_reference(self):
        for m in range(1, 6):
            for n in range(7):
                assert graded_basis(m, n).monomials == helpers.reference_graded_basis(m, n)

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

    def test_apply_poly_rejects_outside_monomials(self):
        lap = laplacian_matrix(graded_basis(1, 2))
        with pytest.raises(ValueError, match="outside"):
            lap.apply_poly(parse("x1^3"))
        with pytest.raises(ValueError, match="outside"):
            lap.apply_poly(parse("x2"))

    def test_index_of_agrees_with_position(self):
        basis = graded_basis(3, 3)
        for j, alpha in enumerate(basis.monomials):
            assert basis.index_of(alpha) == j


class TestOperatorMatrices:
    def test_euler_is_the_degree_diagonal(self):
        basis = graded_basis(1, 2)
        eul = euler_matrix(basis)
        assert _dense(eul) == [
            [F(0), F(0), F(0)],
            [F(0), F(1), F(0)],
            [F(0), F(0), F(2)],
        ]

    def test_laplacian_has_one_entry_on_this_basis(self):
        basis = graded_basis(1, 2)
        lap = laplacian_matrix(basis)
        expected = [[F(0)] * 3 for _ in range(3)]
        expected[0][2] = F(2)
        assert _dense(lap) == expected

    def test_matrices_agree_with_symbolic_operators(self):
        rng = random.Random(113)
        basis = graded_basis(3, 4)
        lap = laplacian_matrix(basis)
        eul = euler_matrix(basis)
        half_lap = lap.scaled(F(1, 2))
        for _ in range(15):
            f = _random_poly_in_basis(rng, basis)
            assert lap.apply_poly(f) == laplacian(f)
            assert eul.apply_poly(f) == euler_d(f)
            assert eul.apply_poly(f) - half_lap.apply_poly(f) == number_op(f, F(1, 2))

    def test_laplacian_is_strictly_upper_triangular(self):
        for m, n in [(1, 4), (2, 3), (3, 3)]:
            lap = laplacian_matrix(graded_basis(m, n))
            dense = _dense(lap)
            for i in range(lap.size):
                for j in range(i + 1):
                    assert dense[i][j] == 0

    def test_commutator_with_euler_is_twice_laplacian(self):
        for m, n in [(1, 4), (2, 5), (3, 8)]:
            basis = graded_basis(m, n)
            lap = laplacian_matrix(basis)
            eul = euler_matrix(basis)
            twice = lap.scaled(2)
            for alpha in basis.monomials:
                x = Polynomial.monomial(alpha)
                bracket = lap.apply_poly(eul.apply_poly(x)) - eul.apply_poly(lap.apply_poly(x))
                assert bracket == twice.apply_poly(x)

    def test_composition_matches_matrix_product(self):
        rng = random.Random(127)
        basis = graded_basis(2, 4)
        lap = laplacian_matrix(basis)
        eul = euler_matrix(basis)
        both = OperatorMatrix(basis, tuple(_combine(lap.columns, col) for col in eul.columns))
        for _ in range(10):
            f = _random_poly_in_basis(rng, basis)
            assert both.apply_poly(f) == laplacian(euler_d(f))


class TestExpm:
    def test_zero_matrix_exponentiates_to_identity(self):
        basis = graded_basis(2, 2)
        zero = laplacian_matrix(basis).scaled(0)
        assert expm(zero, mode="exact-nilpotent").columns == tuple(
            {j: F(1)} for j in range(basis.size)
        )

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
        eul = euler_matrix(basis)
        both_triangles = OperatorMatrix(basis, ({2: F(1)}, {}, {0: F(2)}))
        with pytest.raises(ValueError, match="strictly triangular"):
            expm(eul, mode="exact-nilpotent")
        with pytest.raises(ValueError, match="strictly triangular"):
            expm(both_triangles, mode="exact-nilpotent")
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
        real = gausscalc.matrixrep._expm_nilpotent_float

        def spy(a):
            taken.append("_expm_nilpotent_float")
            return real(a)

        monkeypatch.setattr(gausscalc.matrixrep, "_expm_nilpotent_float", spy)
        return taken

    @pytest.mark.parametrize("m,n", [(1, 30), (2, 12), (3, 6)])
    @pytest.mark.parametrize("s", [F(1), F(4)])
    @pytest.mark.parametrize("lam", [F(1, 2), F(1, 10), F(1, 1000)])
    def test_matches_the_exact_factorization(self, monkeypatch, m, n, s, lam):
        # lam^{N_s} = e^{-tau N_s} = diag(lam^|alpha|) e^{(t/2) Laplacian},
        # t = s(1 - lam^2): the binomial series equals the exact factorization,
        # and each float exponential matches its exact counterpart.
        basis = graded_basis(m, n)
        lap, eul = laplacian_matrix(basis), euler_matrix(basis)
        t, tau = s * (1 - lam * lam), -math.log(float(lam))
        heat_exact = expm(lap.scaled(t / 2), mode="exact-nilpotent")
        decay = np.diag([float(lam**alpha.degree) for alpha in basis.monomials])
        taken = self._branches(monkeypatch)

        assert _number_power(lap, s, lam) == _decayed(heat_exact, lam)
        nilpotent = expm((float(t) / 2) * lap.float_array())
        assert _rel_err(nilpotent, heat_exact.float_array()) <= 1e-13
        diagonal = expm(-tau * eul.float_array())
        assert _rel_err(diagonal, decay) <= 1e-13
        assert taken == ["_expm_nilpotent_float"]

    def test_strictly_lower_input_takes_the_taylor_sum(self, monkeypatch):
        basis = graded_basis(2, 6)
        heat_exact = expm(laplacian_matrix(basis).scaled(F(3, 4)), mode="exact-nilpotent")
        taken = self._branches(monkeypatch)
        lower = expm(0.75 * laplacian_matrix(basis).float_array().T)
        assert _rel_err(lower, heat_exact.float_array().T) <= 1e-13
        assert taken == ["_expm_nilpotent_float"]

    def test_rejects_full_matrices(self):
        # Neither diagonal nor strictly triangular: a rotation generator, a
        # full nilpotent and the triangular tau(s Laplacian - Euler).
        basis = graded_basis(2, 4)
        n_s = 0.5 * laplacian_matrix(basis).float_array() - euler_matrix(basis).float_array()
        for a in (np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [-1.0, -1.0]]), n_s):
            with pytest.raises(ValueError, match="diagonal or a strictly triangular"):
                expm(a)

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
        # The sparse helpers of the exact expm: _combine (column j of A*B) and
        # _add_into (A + B column by column), both dropping cancelled entries.
        basis, nilpotents = self._nilpotents(m, n)
        one = OperatorMatrix(basis, tuple({j: F(1)} for j in range(basis.size)))

        def plus(a, b):
            columns = [dict(col) for col in a.columns]
            for col, other in zip(columns, b.columns):
                _add_into(col, other)
            return OperatorMatrix(basis, tuple(columns))

        def times(a, b):
            return OperatorMatrix(basis, tuple(_combine(a.columns, col) for col in b.columns))

        # (I + L)(I - L) = I - L^2 cancels inside every column of the product.
        mats = nilpotents + [plus(euler_matrix(basis), nilpotents[1]),
                             plus(one, nilpotents[0]), plus(one, nilpotents[0].scaled(-1))]
        for a in mats:
            for b in mats + [euler_matrix(basis)]:
                assert _dense(times(a, b)) == _dense_product(_dense(a), _dense(b))
                assert _dense(plus(a, b)) == _dense_add(_dense(a), _dense(b))
            assert _dense(a.scaled(F(-7, 4))) == _dense_scaled(_dense(a), F(-7, 4))
            assert not any(plus(a, a.scaled(-1)).columns)
            assert not any(a.scaled(0).columns)

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
            dense = _dense(a)
            assert np.array_equal(a.float_array(), np.array(dense, dtype=float))
            f = _random_poly_in_basis(rng, basis)
            vector = [f.coefficient(alpha) for alpha in basis.monomials]
            image = [sum((r * v for r, v in zip(row, vector)), F(0)) for row in dense]
            expected = Polynomial((alpha, c) for alpha, c in zip(basis.monomials, image))
            assert a.apply_poly(f) == expected


def test_exact_expm_never_calls_the_semigroups(monkeypatch):
    """The matrix routes stay independent of heat, dilate and hermite_semigroup."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact matrix route called a semigroups flow")

    for module in (gausscalc.semigroups, gausscalc.matrixrep):
        for name in ("heat", "dilate", "hermite_semigroup"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    basis = graded_basis(2, 6)
    lap = laplacian_matrix(basis).scaled(F(3, 4))
    for a in (lap, _transpose(lap)):
        flow = expm(a, mode="exact-nilpotent")
        assert any(flow.columns)
    power = _number_power(laplacian_matrix(basis), F(3, 2), F(2, 3))
    assert all(power.columns)


class TestNumberPower:
    """lam^{N_s} by the terminating binomial series."""

    def test_by_hand_on_one_variable(self):
        # N_s x1^2 = 2 x1^2 - 2s, so lam^{N_s} x1^2 = lam^2 x1^2 + s(1 - lam^2);
        # the others expand x1^k in the h_{k,s} and decay each by lam^k.
        s, lam = F(3, 2), F(2, 5)
        power = _number_power(laplacian_matrix(graded_basis(1, 5)), s, lam)
        assert power.columns == (
            {0: F(1)}, {1: lam}, {2: lam**2, 0: s * (1 - lam**2)},
            {3: lam**3, 1: 3 * s * (lam - lam**3)},
            {4: lam**4, 2: 6 * s * (lam**2 - lam**4), 0: 3 * s**2 * (1 - lam**2) ** 2},
            {5: lam**5, 3: 10 * s * (lam**3 - lam**5), 1: 15 * s**2 * lam * (1 - lam**2) ** 2},
        )

    def test_a_series_that_does_not_end_is_refused(self):
        # A diagonal entry -1 in the "Laplacian" moves the eigenvalue of N_1
        # on x1^2 from 2 to 3, outside {0, 2}, so term 2 of the series in
        # (N_1)/2 is not zero.
        basis = graded_basis(1, 2)
        bad = OperatorMatrix(basis, ({}, {}, {0: F(2), 2: F(-1)}))
        with pytest.raises(ValueError, match=r"does not end by term 2 at x1\^2"):
            _number_power(bad, F(1), F(1, 2))


class TestBchCheck:
    def test_small_basis_passes_everything(self):
        report = bch_check(4, F(1, 2), graded_basis(1, 2))
        assert isinstance(report, BchReport)
        assert report.ok
        assert report.dim == 3
        assert report.t == 3
        assert report.bch_rel_err <= BCH_TOL
        assert report.bch2_rel_err <= BCH_TOL
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
                report = bch_check(s, lam, graded_basis(2, 4))
                assert report.ok, (s, lam)
                assert report.t == s * (1 - lam * lam)

    @pytest.mark.parametrize("m,n,s,lam", [(2, 12, F(4), F(1, 10)), (1, 30, F(2), F(2, 3)),
                                           (1, 30, F(4), F(1, 1000)), (3, 5, F(3, 2), F(3, 5)),
                                           (1, 2, F(10**200), F(1, 2))])
    def test_float_gaps_stay_at_double_precision(self, m, n, s, lam):
        # Float round-off in the exponentials once reached 5e-7 on (1, 30),
        # failing the factorization at the default tolerance; a Pade left-hand
        # side read a gap of 0.46 at s = 10^200.
        report = bch_check(s, lam, graded_basis(m, n))
        assert report.ok
        assert max(report.bch_rel_err, report.bch2_rel_err) <= 1e-13

    def test_exact_route_matches_hermite_decay_by_hand(self):
        s, lam = F(2), F(1, 3)
        basis = graded_basis(1, 3)
        flow = expm(laplacian_matrix(basis).scaled(s * (1 - lam * lam) / 2), mode="exact-nilpotent")
        factored = _decayed(flow, lam)
        for j, alpha in enumerate(basis.monomials):
            image = hermite_semigroup(Polynomial.monomial(alpha), s, lam)
            assert factored.columns[j] == _sparse_vector(basis, image)
            assert factored.column(j) == tuple(image.coefficient(b) for b in basis.monomials)

    def test_one_exponential_per_operator(self, monkeypatch):
        # One diagonal (the shared decay factor), two Taylor sums (one
        # Laplacian factor per identity), one exact; the left-hand side is
        # the binomial series, outside expm.
        taken = TestFloatExpm._branches(monkeypatch)
        real = gausscalc.matrixrep.expm
        modes = []

        def spy(matrix, mode="float"):
            modes.append(mode)
            return real(matrix, mode)

        monkeypatch.setattr(gausscalc.matrixrep, "expm", spy)
        report = bch_check(F(3, 2), F(3, 5), graded_basis(2, 5))
        assert report.ok
        assert sorted(modes) == ["exact-nilpotent"] + ["float"] * 3
        assert taken == ["_expm_nilpotent_float"] * 2

    def test_a_series_at_a_perturbed_s_is_caught(self, monkeypatch):
        # Only the lam^{N_s} side moves, so only its comparison can fail: the
        # first witness is the first monomial the Laplacian does not kill.
        real = gausscalc.matrixrep._number_power

        def perturbed(lap, s, lam):
            return real(lap, s + F(1, 1000), lam)

        monkeypatch.setattr(gausscalc.matrixrep, "_number_power", perturbed)
        basis = graded_basis(2, 4)
        report = bch_check(F(3, 2), F(2, 3), basis)
        assert report.exact_route_ok is False
        assert report.ok is False
        assert report.exact_witness == str(MultiIndex({2: 2})) == str(basis.monomials[3])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_factored_side_with_one_wrong_power_is_caught(self, monkeypatch, k):
        # Rows of degree k of the exact e^{(t/2) Laplacian} times lam make the
        # factored side lam^D e^{(t/2) Laplacian} carry lam^{k+1} on degree k.
        real = gausscalc.matrixrep.expm
        basis = graded_basis(2, 4)
        lam = F(2, 3)

        def perturbed(matrix, mode="float"):
            out = real(matrix, mode)
            if mode != "exact-nilpotent":
                return out
            degree = [alpha.degree for alpha in basis.monomials]
            return OperatorMatrix(basis, tuple(
                {i: lam * x if degree[i] == k else x for i, x in col.items()} for col in out.columns
            ))

        monkeypatch.setattr(gausscalc.matrixrep, "expm", perturbed)
        report = bch_check(F(3, 2), lam, basis)
        assert report.exact_route_ok is False
        assert report.ok is False
        first = next(alpha for alpha in basis.monomials if alpha.degree == k)
        assert report.exact_witness == str(first)

    def test_failing_exact_route_names_the_perturbed_monomial(self, monkeypatch):
        real = gausscalc.matrixrep.hermite_semigroup
        basis = graded_basis(2, 4)
        target = basis.monomials[7]

        def perturbed(f, s, lam):
            image = real(f, s, lam)
            if f == Polynomial.monomial(target):
                image = image + parse("1/7 x2")
            return image

        monkeypatch.setattr(gausscalc.matrixrep, "hermite_semigroup", perturbed)
        report = bch_check(F(3, 2), F(2, 3), basis)
        assert report.exact_route_ok is False
        assert report.ok is False
        assert report.exact_witness == str(target)
        assert max(report.bch_rel_err, report.bch2_rel_err) <= BCH_TOL

    def test_overflowing_float_left_side_is_named(self):
        # s^2 ~ 1e600 sits in lam^{N_s} on degree 4: float() of it overflows.
        with pytest.raises(ValueError, match="float exponentials not finite on a basis of dimension 5"):
            bch_check(10**300, F(1, 2), graded_basis(1, 4))

    def test_validation(self):
        basis = graded_basis(1, 2)
        with pytest.raises(ValueError):
            bch_check(1, 0, basis)
        with pytest.raises(ValueError):
            bch_check(1, F(3, 2), basis)
        with pytest.raises(ValueError):
            bch_check(-1, F(1, 2), basis)
