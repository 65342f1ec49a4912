import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings

import gausscalc.semigroups
import helpers
from gausscalc.gaussian import heat_convolution_oracle, inner_product
from gausscalc.poly import MultiIndex, Polynomial, parse
from gausscalc.semigroups import (
    IDENT_FLOAT_TOL,
    VarianceParams,
    _weighted_norm_squared,
    dilate,
    euler_d,
    heat,
    hermite,
    hermite_expand,
    hermite_semigroup,
    l2_contraction_ratio,
    laplacian,
    nonclosability_example,
    number_op,
    verify_commutator,
    verify_ident2,
    verify_nested_commutator,
)

F = Fraction


# -- test-only oracles: Fraction series and per-basis resums the core must match


def _laplacian_oracle(f):
    """The Laplacian through the validating MultiIndex/Polynomial constructors."""
    pairs = []
    for alpha, c in f.items():
        for var, e in alpha.entries:
            if e >= 2:
                lowered = dict(alpha.entries)
                lowered[var] = e - 2
                pairs.append((MultiIndex(lowered), c * e * (e - 1)))
    return Polynomial(pairs)


def _heat_oracle(f, t):
    """The repeated-Laplacian series sum_k (t/2)^k Delta^k f / k! in Fractions."""
    half = F(t) / 2
    acc = term = f
    k = 1
    while True:
        term = _laplacian_oracle(term)
        if term.is_zero:
            return acc
        term = term * (half / k)
        acc = acc + term
        k += 1


def _hermite_oracle(alpha, s):
    return _heat_oracle(Polynomial.monomial(alpha), -F(s))


def _semigroup_oracle(f, s, lam):
    """sum_alpha c_alpha lam^{|alpha|} h_{alpha,s}, resummed basis element by element."""
    out = Polynomial.zero()
    for alpha, c in _heat_oracle(f, s).items():
        out = out + (c * F(lam) ** alpha.degree) * _hermite_oracle(alpha, s)
    return out


def _assert_canonical(g):
    """Every stored coefficient is a nonzero Fraction on a well-formed multi-index."""
    for alpha, c in g.items():
        assert isinstance(c, Fraction) and c != 0
        assert all(v >= 1 and e >= 1 for v, e in alpha.entries)
        assert [v for v, _ in alpha.entries] == sorted({v for v, _ in alpha.entries})
        assert alpha.degree == sum(e for _, e in alpha.entries)
        rebuilt = MultiIndex(dict(alpha.entries))
        assert rebuilt == alpha and hash(rebuilt) == hash(alpha)


def _mixed_denominator_polynomial(rng):
    pairs = []
    for _ in range(rng.randint(1, 8)):
        den = rng.choice([1, 2, 3, 7, 12, 10**9 + 7, 2**61 - 1])
        num = rng.randint(-(10**12), 10**12)
        pairs.append((helpers.random_multi_index(rng, 4, 10), F(num, den)))
    return Polynomial(pairs)


_ORACLE_TIMES = [F(3), F(-1, 2), F(-7, 3), F(2, 9), F(123456789, 987654323), F(-1, 10**12 + 39)]


class TestOperatorCoreOracles:
    def test_laplacian_matches_the_validating_route(self):
        rng = random.Random(101)
        for _ in range(60):
            f = _mixed_denominator_polynomial(rng)
            g = laplacian(f)
            assert g == _laplacian_oracle(f)
            _assert_canonical(g)

    def test_laplacian_drops_cancelled_terms(self):
        g = laplacian(parse("x1^2 - x2^2"))
        assert g.is_zero and len(g) == 0
        g = laplacian(parse("x1^3 x2^2 - 3 x1 x2^4 + x3"))
        assert g == parse("6 x1 x2^2 + 2 x1^3 - 36 x1 x2^2")
        _assert_canonical(g)
        assert g.coefficient({1: 1, 2: 2}) == -30

    def test_heat_matches_the_fraction_series(self):
        rng = random.Random(103)
        for _ in range(40):
            f = _mixed_denominator_polynomial(rng)
            for t in _ORACLE_TIMES:
                g = heat(f, t)
                assert g == _heat_oracle(f, t)
                _assert_canonical(g)
        for _ in range(100):
            f = helpers.random_polynomial(rng, max_degree=12)
            t = F(rng.randint(-9, 9), rng.randint(1, 12))
            assert heat(f, t) == _heat_oracle(f, t)

    def test_heat_cancellations_leave_no_zero_terms(self):
        t = F(5, 3)
        g = heat(parse("x1^2 + x2^2") - 2 * t, t)
        assert g == parse("x1^2 + x2^2")
        _assert_canonical(g)
        for alpha in ({1: 4}, {1: 3, 2: 2}, {2: 6}):
            g = heat(hermite(alpha, t), t)
            assert g == Polynomial.monomial(alpha)
            _assert_canonical(g)
        assert heat(Polynomial.zero(), t).is_zero

    def test_heat_runs_through_the_module_laplacian(self, monkeypatch):
        calls = []
        original = gausscalc.semigroups.laplacian

        def counting(f):
            calls.append(len(f))
            return original(f)

        monkeypatch.setattr(gausscalc.semigroups, "laplacian", counting)
        flowed = heat(parse("x1^4 - x1 x2^2 + 3"), F(2))
        assert flowed == parse("x1^4 - x1 x2^2 + 12 x1^2 - 2 x1 + 15")
        assert len(calls) == 3

    def test_hermite_matches_the_fraction_series(self):
        for alpha in ({}, {1: 1}, {1: 7}, {1: 2, 3: 5}, {2: 4, 4: 4}):
            for s in (F(1), F(3, 2), F(-2, 7)):
                assert hermite(alpha, s) == _hermite_oracle(alpha, s)

    def test_semigroup_matches_the_per_basis_resum(self):
        rng = random.Random(109)
        for _ in range(20):
            f = helpers.random_polynomial(rng, max_degree=10)
            for s in (F(1), F(3, 2), F(4)):
                for lam in (F(1, 2), F(2, 3), F(3, 2)):
                    assert hermite_semigroup(f, s, lam) == _semigroup_oracle(f, s, lam)

    def test_semigroup_matches_the_per_basis_resum_at_large_denominators(self):
        rng = random.Random(113)
        lam = F(2**40 + 1, 3**25)
        for _ in range(10):
            f = _mixed_denominator_polynomial(rng)
            assert hermite_semigroup(f, F(7, 5), lam) == _semigroup_oracle(f, F(7, 5), lam)

    def test_semigroup_is_the_literal_composition(self):
        # The integer form keeps one denominator through heat, dilate and heat;
        # the public operators reduce to lowest terms after every stage.
        rng = random.Random(131)
        big_s = F(123456789012345678901234567890, 987654321098765432109876543211)
        # float mode embeds the float sqrt of lam^2 exactly: a dyadic with 2^52 below
        dyadic = F(VarianceParams.from_times(1, F(1, 3)).lam_float)
        assert dyadic.denominator == 2**52
        scales = [F(1), F(1, 2), F(7, 2), F(5, 3), dyadic, F(2**40 + 1, 3**25)]
        polys = [Polynomial.zero(), Polynomial.constant(F(-7, 3)), parse("x1^2 - 1/3")]
        polys += [helpers.random_polynomial(rng, max_degree=10) for _ in range(8)]
        polys += [_mixed_denominator_polynomial(rng) for _ in range(4)]
        for f in polys:
            for s in (F(1), F(3, 2), big_s):
                for lam in scales:
                    g = hermite_semigroup(f, s, lam)
                    assert g == heat(dilate(heat(f, s), lam), -s), (f, s, lam)
                    _assert_canonical(g)

    def test_dilate_matches_its_definition(self):
        rng = random.Random(137)
        scales = [F(1), F(-1), F(1, 2), F(-5, 3), F(7, 2), F(math.sqrt(2 / 3)), F(2**61 - 1, 10**12)]
        polys = [helpers.random_polynomial(rng, max_degree=12) for _ in range(20)]
        polys += [_mixed_denominator_polynomial(rng) for _ in range(10)]
        for f in polys + [Polynomial.zero(), Polynomial.constant(F(-9, 4))]:
            for lam in scales:
                g = dilate(f, lam)
                assert g == helpers.dilate_by_definition(f, lam), (f, lam)
                _assert_canonical(g)

    def test_resum_matches_the_per_basis_sum(self):
        rng = random.Random(127)
        for _ in range(20):
            f = helpers.random_polynomial(rng, max_degree=10)
            coeffs = hermite_expand(f, F(5, 4))
            oracle = Polynomial.zero()
            for alpha, c in coeffs.items():
                oracle = oracle + c * _hermite_oracle(alpha, F(5, 4))
            assert heat(coeffs, -F(5, 4)) == oracle == f


class TestFirstOrderOperators:
    def test_laplacian_basic_values(self):
        assert laplacian(parse("x1^2")) == Polynomial.constant(2)
        assert laplacian(parse("x1^3 x2")) == parse("6 x1 x2")
        assert laplacian(parse("3 x1 + 5")).is_zero
        assert laplacian(Polynomial.zero()).is_zero
        assert laplacian(parse("x1^2 + x2^2 + x3^2")) == Polynomial.constant(6)

    def test_euler_multiplies_by_degree(self):
        assert euler_d(parse("x1^2 x2")) == parse("3 x1^2 x2")
        assert euler_d(parse("7")).is_zero
        assert euler_d(parse("x1 + x2^2")) == parse("x1 + 2 x2^2")

    def test_number_op_assembles_from_parts(self):
        rng = random.Random(47)
        s = F(3, 2)
        for _ in range(10):
            f = helpers.random_polynomial(rng)
            assert number_op(f, s) == euler_d(f) - s * laplacian(f)

    def test_number_op_eigenrelation(self):
        for d, s in [({1: 2}, F(1)), ({1: 3}, F(4)), ({1: 1, 2: 2}, F(1, 2)), ({}, F(2))]:
            alpha = MultiIndex(d)
            h = hermite(alpha, s)
            assert number_op(h, s) == alpha.degree * h

    @given(
        helpers.polynomials(),
        helpers.polynomials(),
        helpers.small_fractions,
    )
    @settings(max_examples=60, deadline=None)
    def test_laplacian_is_linear(self, f, g, c):
        assert laplacian(c * f + g) == c * laplacian(f) + laplacian(g)


class TestHeat:
    def test_quadratic_gains_a_constant(self):
        assert heat(parse("x1^2"), F(3)) == parse("x1^2 + 3")
        assert heat(parse("x1^2"), "1/2") == parse("x1^2 + 1/2")

    def test_quartic_series_terminates(self):
        t = F(2)
        assert heat(parse("x1^4"), t) == parse("x1^4 + 12 x1^2 + 12")
        # generic t: x^4 + 6 t x^2 + 3 t^2
        t = F(1, 3)
        assert heat(parse("x1^4"), t) == parse("x1^4 + 2 x1^2 + 1/3")

    def test_fixes_harmonic_polynomials(self):
        f = parse("x1^2 - x2^2")
        assert heat(f, F(5, 7)) == f
        assert heat(parse("x1 x2"), 4) == parse("x1 x2")

    def test_zero_time_is_identity(self):
        f = parse("x1^3 - 2 x2")
        assert heat(f, 0) is f

    def test_semigroup_law_and_inverse(self):
        rng = random.Random(53)
        for _ in range(20):
            f = helpers.random_polynomial(rng)
            t1 = F(rng.randint(-4, 4), rng.randint(1, 3))
            t2 = F(rng.randint(-4, 4), rng.randint(1, 3))
            assert heat(heat(f, t1), t2) == heat(f, t1 + t2)
            assert heat(heat(f, t1), -t1) == f

    @given(helpers.polynomials(), helpers.polynomials(), helpers.small_fractions)
    @settings(max_examples=60, deadline=None)
    def test_heat_is_linear(self, f, g, c):
        t = F(1, 2)
        assert heat(c * f + g, t) == c * heat(f, t) + heat(g, t)

    def test_preserves_degree_and_leading_terms(self):
        rng = random.Random(59)
        for _ in range(10):
            f = helpers.random_nonzero_polynomial(rng)
            g = heat(f, F(7, 3))
            assert g.degree == f.degree


class TestHermite:
    def test_low_degree_closed_forms(self):
        s = F(1)
        assert hermite({1: 1}, s) == parse("x1")
        assert hermite({1: 2}, s) == parse("x1^2 - 1")
        assert hermite({1: 3}, s) == parse("x1^3 - 3 x1")
        assert hermite({1: 4}, s) == parse("x1^4 - 6 x1^2 + 3")
        assert hermite({}, s) == Polynomial.one()

    def test_general_variance(self):
        s = F(7, 3)
        assert hermite({1: 2}, s) == parse("x1^2 - 7/3")
        assert hermite({1: 3}, s) == parse("x1^3 - 7 x1")

    def test_products_across_variables(self):
        s = F(2)
        assert hermite({1: 1, 2: 1}, s) == parse("x1 x2")
        assert hermite({1: 2, 2: 1}, s) == parse("x1^2 x2 - 2 x2")
        # tensor structure: h_{(a,b)} = h_{(a)} h_{(b)} for disjoint variables
        assert hermite({1: 2, 2: 2}, s) == hermite({1: 2}, s) * hermite({2: 2}, s)

    def test_monic_with_top_term_x_alpha(self):
        alpha = MultiIndex({1: 3, 2: 2})
        h = hermite(alpha, F(5))
        assert h.terms[alpha] == 1
        assert h.degree == alpha.degree

    def test_forward_heat_recovers_the_monomial(self):
        rng = random.Random(61)
        for _ in range(15):
            alpha = helpers.random_multi_index(rng)
            s = F(rng.randint(1, 5), rng.randint(1, 3))
            assert heat(hermite(alpha, s), s) == Polynomial.monomial(alpha)

    def test_intertwining_with_heat_at_any_time(self):
        # e^{t Delta/2} h_{alpha,s} = h_{alpha,s-t}, including t > s
        rng = random.Random(67)
        for _ in range(15):
            alpha = helpers.random_multi_index(rng)
            s = F(rng.randint(1, 5), rng.randint(1, 3))
            t = F(rng.randint(-6, 6), rng.randint(1, 3))
            assert heat(hermite(alpha, s), t) == hermite(alpha, s - t)

    def test_three_term_recurrence_in_one_variable(self):
        # x h_n = h_{n+1} + n s h_{n-1}
        s = F(3, 2)
        x = parse("x1")
        for n in range(1, 8):
            lhs = x * hermite({1: n}, s)
            rhs = hermite({1: n + 1}, s) + n * s * hermite({1: n - 1}, s)
            assert lhs == rhs


class TestDilate:
    def test_scales_by_degree(self):
        assert dilate(parse("x1^2 + x1 + 5"), 2) == parse("4 x1^2 + 2 x1 + 5")
        assert dilate(parse("x1 x2"), F(1, 3)) == parse("1/9 x1 x2")

    def test_identity_and_zero_scale(self):
        f = parse("x1^3 - x2")
        assert dilate(f, 1) is f
        with pytest.raises(ValueError):
            dilate(f, 0)

    def test_float_scale_embeds_exactly(self):
        # Floats are refused as at every exact entry point; a caller that
        # means the binary value embeds it as a Fraction.
        f = parse("x1^2 + x1")
        with pytest.raises(TypeError, match="float"):
            dilate(f, 0.5)
        assert dilate(f, F(0.5)) == dilate(f, F(1, 2))

    def test_composition_multiplies_scales(self):
        rng = random.Random(71)
        for _ in range(10):
            f = helpers.random_polynomial(rng)
            a = F(rng.randint(1, 5), rng.randint(1, 4))
            b = F(-rng.randint(1, 5), rng.randint(1, 4))
            assert dilate(dilate(f, a), b) == dilate(f, a * b)

    def test_moves_the_hermite_variance(self):
        # h_{alpha,s}(lam x) = lam^{|alpha|} h_{alpha, s/lam^2}(x)
        lam = F(1, 2)
        for d in ({1: 1}, {1: 2}, {1: 3}, {1: 2, 2: 1}):
            alpha = MultiIndex(d)
            lhs = dilate(hermite(alpha, 1), lam)
            rhs = lam**alpha.degree * hermite(alpha, 4)
            assert lhs == rhs


class TestHermiteExpansion:
    def test_expansion_of_a_basis_element_is_a_unit_vector(self):
        alpha = MultiIndex({1: 2, 2: 1})
        s = F(3)
        coeffs = hermite_expand(hermite(alpha, s), s)
        assert len(coeffs) == 1
        assert coeffs.coefficient(alpha) == 1
        assert coeffs.coefficient({1: 1}) == 0

    def test_monomial_example(self):
        # x^2 = h_{(2),s} + s h_{0,s}
        s = F(4)
        coeffs = hermite_expand(parse("x1^2"), s)
        assert coeffs.coefficient({1: 2}) == 1
        assert coeffs.coefficient({}) == 4
        assert len(coeffs) == 2

    @given(helpers.polynomials())
    @settings(max_examples=60, deadline=None)
    def test_resum_inverts_expand(self, f):
        s = F(2, 3)
        assert heat(hermite_expand(f, s), -s) == f

    def test_norm_squared_matches_the_inner_product(self):
        # Parseval: ||f||^2 in L^2(mu_s) is sum c^2 alpha! s^{|alpha|}
        rng = random.Random(73)
        for _ in range(15):
            f = helpers.random_polynomial(rng, max_vars=3, max_degree=6)
            s = F(rng.randint(1, 4), rng.randint(1, 2))
            assert _weighted_norm_squared(hermite_expand(f, s), s) == inner_product(f, f, s)

    def test_weighted_norm_reindexes_the_base_variance(self):
        # the same coefficients on the h_{alpha,v} basis have L^2(mu_v) norm
        # sum c^2 alpha! v^{|alpha|}
        f = parse("x1^2 + 2 x1 - 1")
        coeffs = hermite_expand(f, 1)
        v = F(5, 2)
        rebuilt = sum(
            (c * hermite(alpha, v) for alpha, c in coeffs.items()),
            Polynomial.zero(),
        )
        assert _weighted_norm_squared(coeffs, v) == inner_product(rebuilt, rebuilt, v)


class TestHermiteSemigroup:
    def test_eigenvector_decay(self):
        s, lam = F(2), F(1, 3)
        for d in ({}, {1: 1}, {1: 2}, {1: 1, 2: 2}):
            alpha = MultiIndex(d)
            h = hermite(alpha, s)
            assert hermite_semigroup(h, s, lam) == lam**alpha.degree * h

    def test_mixed_polynomial(self):
        # x^2 = h_2 + s: the semigroup sends it to lam^2 h_2 + s
        out = hermite_semigroup(parse("x1^2"), 1, F(1, 2))
        assert out == parse("1/4 x1^2 + 3/4")

    def test_unit_scale_is_identity(self):
        f = parse("x1^3 - 2 x1 x2 + 7")
        assert hermite_semigroup(f, 3, 1) == f

    def test_backward_scale_inverts(self):
        rng = random.Random(79)
        for _ in range(10):
            f = helpers.random_polynomial(rng)
            s = F(rng.randint(1, 4))
            lam = F(rng.randint(1, 5), rng.randint(1, 5))
            forward = hermite_semigroup(f, s, lam)
            assert hermite_semigroup(forward, s, 1 / lam) == f

    def test_semigroup_in_the_scale(self):
        f = parse("x1^4 - x2")
        s = F(1)
        a, b = F(1, 2), F(2, 3)
        assert hermite_semigroup(hermite_semigroup(f, s, a), s, b) == hermite_semigroup(
            f, s, a * b
        )

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            hermite_semigroup(parse("x1"), 1, 0)
        with pytest.raises(ValueError):
            hermite_semigroup(parse("x1"), 1, F(-1, 2))


class TestVarianceParams:
    def test_from_scale(self):
        params = VarianceParams.from_scale(4, F(1, 2))
        assert params.s == 4
        assert params.t == 3
        assert params.lam == F(1, 2)
        assert params.lam_sq == F(1, 4)
        assert math.isclose(math.exp(-params.tau), 0.5, rel_tol=1e-15)

    def test_from_times_recovers_a_square_root(self):
        params = VarianceParams.from_times(4, 3)
        assert params.lam == F(1, 2)
        params = VarianceParams.from_times(9, 5)
        assert params.lam == F(2, 3)

    def test_from_times_without_a_rational_root(self):
        params = VarianceParams.from_times(1, F(1, 3))
        assert params.lam is None
        assert params.lam_sq == F(2, 3)
        assert math.isclose(params.lam_float, math.sqrt(2 / 3), rel_tol=1e-15)

    def test_negative_t_means_expansion(self):
        params = VarianceParams.from_scale(1, 2)
        assert params.t == -3
        assert params.tau < 0

    @pytest.mark.parametrize("make, tau", [
        (lambda: VarianceParams.from_scale(1, F(1, 10**400)), 400 * math.log(10)),
        (lambda: VarianceParams.from_scale(1, 10**400), -400 * math.log(10)),
        (lambda: VarianceParams.from_times(F(1, 10**400), -1), -0.5 * (400 * math.log(10))),
        (lambda: VarianceParams.from_times(1, -(10**400)), -0.5 * (400 * math.log(10))),
        (lambda: VarianceParams.from_times(1, 1 - F(1, 10**400)), 200 * math.log(10)),
    ])
    def test_tau_of_a_scale_beyond_the_float_range(self, make, tau):
        # tau used to be log(float(...)): a math domain error or an overflow.
        assert make().tau == pytest.approx(tau, rel=1e-15)

    @pytest.mark.parametrize("lam", [F(1, 2), F(2, 3), F(7, 10), F(999, 1000), F(3, 2), F(1)])
    def test_tau_is_minus_the_log_of_the_scale(self, lam):
        with decimal.localcontext(decimal.Context(prec=40)):
            exact = float(Decimal(lam.denominator).ln() - Decimal(lam.numerator).ln())
        assert VarianceParams.from_scale(5, lam).tau == pytest.approx(exact, rel=1e-15, abs=0)
        params = VarianceParams.from_times(5, 5 * (1 - lam**2))
        assert params.tau == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("s, t", [(1, -(10**400)), (1, 1 - F(2, 10**700))])
    def test_float_scale_beyond_the_float_range_is_named(self, s, t):
        params = VarianceParams.from_times(s, t)
        assert params.lam is None
        with pytest.raises(ValueError, match=r"lambda\^2 = .*is beyond the float range"):
            params.lam_float

    def test_validation(self):
        with pytest.raises(ValueError):
            VarianceParams.from_times(1, 1)
        with pytest.raises(ValueError):
            VarianceParams.from_times(1, 2)
        with pytest.raises(ValueError):
            VarianceParams.from_scale(1, 0)
        with pytest.raises(ValueError):
            VarianceParams.from_scale(0, F(1, 2))


class TestIdentityChecks:
    def test_quadratic_example_exact(self):
        result = verify_ident2(parse("x1^2"), VarianceParams.from_scale(4, F(1, 2)))
        assert result.ok
        assert result.mode == "exact"
        assert result.lhs == parse("1/4 x1^2 + 3")
        assert result.witness.is_zero

    def test_constants_are_fixed(self):
        result = verify_ident2(Polynomial.one(), VarianceParams.from_scale(1, F(2, 3)))
        assert result.ok
        assert result.lhs == Polynomial.one()

    def test_hermite_input_decays_by_degree(self):
        params = VarianceParams.from_times(9, 5)
        h = hermite({1: 3}, 9)
        result = verify_ident2(h, params)
        assert result.ok
        assert result.lhs == F(8, 27) * h

    def test_round_robin_over_scales_and_variances(self):
        rng = random.Random(83)
        lams = [F(1, 2), F(2, 3), F(3, 5), F(1)]
        variances = [F(1), F(4), F(9)]
        for lam in lams:
            for s in variances:
                params = VarianceParams.from_scale(s, lam)
                for _ in range(4):
                    f = helpers.random_polynomial(rng, max_vars=3, max_degree=6)
                    result = verify_ident2(f, params)
                    assert result.ok, (lam, s, f)
                    assert result.mode == "exact"
                    assert result.witness.is_zero

    def test_a_passing_check_returns_the_zero_witness(self):
        result = verify_ident2(parse("x1^3 x2 - 2/3 x2^2"), VarianceParams.from_scale(3, F(3, 4)))
        assert result.ok and result.lhs == result.rhs
        assert result.witness == Polynomial.zero() and len(result.witness) == 0

    def test_a_perturbed_side_fails_with_the_literal_difference(self, monkeypatch):
        original = gausscalc.semigroups.hermite_semigroup
        extra = parse("1/5 x1 x2^3 - 1")
        monkeypatch.setattr(gausscalc.semigroups, "hermite_semigroup",
                            lambda f, s, lam: original(f, s, lam) + extra)
        f = parse("x1^4 x2^2 - 3 x1 x2 + 1/2")
        result = verify_ident2(f, VarianceParams.from_scale(2, F(2, 5)))
        assert not result.ok
        assert result.witness == result.lhs - result.rhs == -extra
        assert result.lhs == dilate(heat(f, F(2) * (1 - F(4, 25))), F(2, 5))

    def test_float_mode_when_lambda_is_irrational(self):
        params = VarianceParams.from_times(1, F(1, 3))
        result = verify_ident2(parse("x1^3 - x1 x2 + 2"), params)
        assert result.ok
        assert result.mode == "float"
        assert result.max_rel_error <= 1e-12

    def test_float_mode_fails_a_perturbed_side(self, monkeypatch):
        # A gap of 1e-11 relative is within rounding of neither side.
        original = gausscalc.semigroups.hermite_semigroup
        monkeypatch.setattr(gausscalc.semigroups, "hermite_semigroup",
                            lambda f, s, lam: original(f, s, lam) + F(1, 10**11))
        result = verify_ident2(parse("x1^3"), VarianceParams.from_times(1, F(1, 3)))
        assert result.mode == "float"
        assert not result.ok
        assert result.max_rel_error > IDENT_FLOAT_TOL
        assert result.witness == result.lhs - result.rhs


class TestCommutators:
    def test_bracket_on_a_quartic(self):
        result = verify_commutator(parse("x1^4"))
        assert result.ok
        assert result.lhs == parse("24 x1^2")

    def test_bracket_on_randoms(self):
        rng = random.Random(89)
        for _ in range(25):
            f = helpers.random_polynomial(rng)
            result = verify_commutator(f)
            assert result.ok
            assert result.lhs == 2 * laplacian(f)

    def test_nested_bracket_vanishes(self):
        rng = random.Random(97)
        assert verify_nested_commutator(parse("x1^6 x2^2")).ok
        for _ in range(25):
            result = verify_nested_commutator(helpers.random_polynomial(rng))
            assert result.ok
            assert result.lhs.is_zero

    def test_passing_brackets_return_the_zero_witness(self):
        f = parse("x1^5 x2^2 - 4 x3^3 + 1/7")
        for result in (verify_commutator(f), verify_nested_commutator(f)):
            assert result.ok and result.lhs == result.rhs
            assert result.witness == Polynomial.zero()

    def test_a_perturbed_bracket_fails_with_the_literal_difference(self, monkeypatch):
        original = gausscalc.semigroups._bracket
        monkeypatch.setattr(gausscalc.semigroups, "_bracket", lambda f: original(f) + parse("x3"))
        f = parse("x1^4 x2 - 2 x2^3")
        first = verify_commutator(f)
        assert not first.ok
        assert first.witness == first.lhs - first.rhs == parse("x3")
        # Delta(B f + x3) - (B Delta f + x3) = -x3
        nested = verify_nested_commutator(f)
        assert not nested.ok and nested.rhs.is_zero
        assert nested.witness == nested.lhs - nested.rhs == parse("-x3")

    def test_squared_laplacian_bracket(self):
        # [Delta^2, D] = 4 Delta^2, the degree-two echo of [Delta, D] = 2 Delta
        rng = random.Random(101)
        lap2 = lambda g: laplacian(laplacian(g))
        for _ in range(25):
            f = helpers.random_polynomial(rng, max_degree=8)
            lhs = lap2(euler_d(f)) - euler_d(lap2(f))
            assert lhs == 4 * lap2(f)


class TestContractionRatio:
    def test_pure_hermite_gives_the_eigenvalue(self):
        s, t = F(4), F(3)
        for d in ({1: 1}, {1: 2}, {1: 3}, {1: 2, 2: 2}):
            alpha = MultiIndex(d)
            ratio = l2_contraction_ratio(hermite(alpha, s), s, t)
            assert ratio == F(1, 4) ** alpha.degree

    def test_never_exceeds_one(self):
        rng = random.Random(103)
        for _ in range(25):
            f = helpers.random_nonzero_polynomial(rng)
            s = F(rng.randint(2, 5))
            t = F(rng.randint(1, 3), 2)
            ratio = l2_contraction_ratio(f, s, t)
            assert 0 < ratio <= 1

    def test_agrees_with_the_direct_route(self):
        rng = random.Random(107)
        for _ in range(15):
            f = helpers.random_nonzero_polynomial(rng, max_vars=3, max_degree=6)
            s, t = F(3), F(4, 3)
            direct = inner_product(heat(f, t), heat(f, t), s - t) / inner_product(f, f, s)
            assert l2_contraction_ratio(f, s, t) == direct

    def test_validation(self):
        with pytest.raises(ValueError):
            l2_contraction_ratio(parse("x1"), 1, 0)
        with pytest.raises(ValueError):
            l2_contraction_ratio(parse("x1"), 1, 1)
        with pytest.raises(ValueError):
            l2_contraction_ratio(Polynomial.zero(), 2, 1)


class TestConvolutionOracle:
    def test_square_at_the_origin(self):
        check = heat_convolution_oracle(parse("x1^2"), 1, {})
        assert check.algebraic_value == 1.0
        assert check.rel_discrepancy < 1e-13

    def test_odd_function_averages_out(self):
        check = heat_convolution_oracle(parse("x1"), 1, {})
        assert check.algebraic_value == 0.0
        assert abs(check.numeric_value) < 1e-14

    def test_quartic_at_a_shifted_point(self):
        check = heat_convolution_oracle(parse("x1^4"), 2, {1: 1})
        assert check.algebraic_value == 25.0
        assert check.rel_discrepancy < 1e-12

    def test_float_points_are_accepted(self):
        a = heat_convolution_oracle(parse("x1^3 + x2"), F(1, 2), {1: 0.5, 2: -1.0})
        b = heat_convolution_oracle(parse("x1^3 + x2"), F(1, 2), {1: F(1, 2), 2: -1})
        assert a.algebraic_value == pytest.approx(b.algebraic_value, abs=1e-15)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            heat_convolution_oracle(parse("x1^2"), 0, {})
        with pytest.raises(ValueError):
            heat_convolution_oracle(parse("x1^2"), -1, {})

    @pytest.mark.parametrize("text, nodes", [("0", 5), ("3", 5), ("x1", 5), ("x1^4 + x2^3", 7),
                                             ("x1^7 x2^2 - 1/3 x3", 9)])
    def test_default_node_count(self, text, nodes):
        # deg f // 2 + 1 nodes integrate deg f exactly; the oracle adds 4.
        check = heat_convolution_oracle(parse(text), F(1, 2), {1: F(1, 3)})
        assert check.nodes == nodes

    def test_random_polynomials_round_trip(self):
        rng = random.Random(109)
        for _ in range(10):
            f = helpers.random_polynomial(rng, max_vars=3, max_degree=6)
            point = {v: F(rng.randint(-2, 2), rng.randint(1, 2)) for v in f.active_variables}
            check = heat_convolution_oracle(f, F(1, 2), point)
            assert check.rel_discrepancy < 1e-11


class TestNonclosability:
    def test_structure_and_norms(self):
        s = F(2)
        f3 = nonclosability_example(3, s)
        assert f3 == parse("1/3 x1^2 + 1/3 x2^2 + 1/3 x3^2 - 2")
        assert inner_product(f3, f3, s) == 2 * s**2 / 3
        assert laplacian(f3) == Polynomial.constant(2)

    def test_norm_shrinks_while_the_image_stays_put(self):
        s = F(1)
        norms = []
        for n in (1, 4, 16):
            f = nonclosability_example(n, s)
            norms.append(inner_product(f, f, s))
            assert laplacian(f) == Polynomial.constant(2)
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] == F(1, 8)

    def test_heat_shifts_by_t_exactly(self):
        f = nonclosability_example(5, F(3))
        t = F(7, 2)
        assert heat(f, t) - f == Polynomial.constant(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            nonclosability_example(0, 1)
        with pytest.raises(ValueError):
            nonclosability_example(True, 1)
        with pytest.raises((TypeError, ValueError)):
            nonclosability_example("3", 1)
