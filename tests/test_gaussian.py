import math
import random
from fractions import Fraction

import numpy as np
import pytest

import helpers
from gausscalc.gaussian import (
    MC_DEFAULT_SAMPLES,
    NODE_CAP,
    Variance,
    char_check,
    expectation_quadrature,
    gauss_hermite_rule,
    gaussian_moment,
    inner_product,
    lp_norm,
    variance_of,
)
from gausscalc.poly import MultiIndex, Polynomial, parse
from gausscalc.semigroups import hermite


class TestVariance:
    def test_coerces_and_validates(self):
        assert Variance("1/2").s == Fraction(1, 2)
        assert variance_of(Variance(3)) == 3
        with pytest.raises(ValueError):
            Variance(0)
        with pytest.raises(ValueError):
            variance_of("-2")
        with pytest.raises(TypeError):
            variance_of(0.5)


class TestGaussianMoment:
    def test_second_moment_is_the_variance(self):
        assert gaussian_moment({1: 2}, 1) == 1
        assert gaussian_moment({1: 2}, Fraction(7, 3)) == Fraction(7, 3)

    def test_fourth_moment_against_quadrature(self):
        exact = gaussian_moment({1: 4}, 2)
        assert exact == 12
        x, w = gauss_hermite_rule(3)  # degree 4 needs >= 3 nodes
        numeric = float(np.dot(w, (x * math.sqrt(2)) ** 4))
        assert abs(numeric - 12) < 1e-9

    def test_any_odd_exponent_kills_the_moment(self):
        assert gaussian_moment({1: 1, 2: 1}, 5) == 0
        assert gaussian_moment({1: 2, 2: 3}, 1) == 0

    def test_empty_index_integrates_to_one(self):
        assert gaussian_moment({}, Fraction(9, 4)) == 1

    def test_factorizes_over_variables(self):
        s = Fraction(3, 2)
        assert gaussian_moment({1: 4, 2: 2}, s) == gaussian_moment(
            {1: 4}, s
        ) * gaussian_moment({2: 2}, s)

    def test_matches_tensor_quadrature_on_random_even_indices(self):
        rng = random.Random(31)
        for _ in range(20):
            alpha = MultiIndex({v: 2 * rng.randint(1, 3) for v in range(1, rng.randint(2, 4))})
            s = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            exact = float(gaussian_moment(alpha, s))
            mono = Polynomial.monomial(alpha)
            numeric = expectation_quadrature(
                mono.evaluate, alpha.variables, s, alpha.degree // 2 + 1
            )
            assert abs(numeric - exact) <= 1e-9 * max(1.0, abs(exact))


class TestInnerProduct:
    def test_disjoint_blocks_are_orthogonal(self):
        assert inner_product(parse("x1^2 - 1"), parse("x2^2 - 1"), 1) == 0
        s = Fraction(3)
        assert inner_product(parse("x1^2 - 3"), parse("x2^2 - 3"), s) == 0

    def test_squared_block_norm(self):
        # E[(x^2 - s)^2] = 2 s^2, which is alpha! s^{|alpha|} for alpha = (2)
        assert inner_product(parse("x1^2 - 3"), parse("x1^2 - 3"), 3) == 18
        assert MultiIndex({1: 2}).factorial() * Fraction(3) ** 2 == 18

    def test_probability_measure(self):
        assert inner_product(Polynomial.one(), Polynomial.one(), Fraction(7, 2)) == 1

    def test_symmetric_and_bilinear(self):
        rng = random.Random(37)
        s = Fraction(5, 4)
        for _ in range(25):
            f = helpers.random_polynomial(rng, max_vars=3, max_degree=5)
            g = helpers.random_polynomial(rng, max_vars=3, max_degree=5)
            h = helpers.random_polynomial(rng, max_vars=3, max_degree=5)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert inner_product(f, g, s) == inner_product(g, f, s)
            assert inner_product(f + c * g, h, s) == inner_product(
                f, h, s
            ) + c * inner_product(g, h, s)

    def test_positive_definite(self):
        rng = random.Random(41)
        for _ in range(25):
            f = helpers.random_nonzero_polynomial(rng, max_vars=3, max_degree=5)
            assert inner_product(f, f, Fraction(1, 2)) > 0

    def test_hermite_orthogonality_small_sweep(self):
        s = Fraction(2)
        idxs = [MultiIndex(d) for d in ({}, {1: 1}, {2: 1}, {1: 2}, {1: 1, 2: 1}, {2: 2}, {1: 3})]
        for a in idxs:
            for b in idxs:
                expected = a.factorial() * s**a.degree if a == b else 0
                assert inner_product(hermite(a, s), hermite(b, s), s) == expected


class TestQuadratureRule:
    def test_weights_are_a_probability(self):
        for n in (1, 2, 7, 40):
            x, w = gauss_hermite_rule(n)
            assert abs(w.sum() - 1.0) < 1e-15
            assert (w > 0).all()

    def test_integrates_moments_exactly_through_degree(self):
        n = 8
        x, w = gauss_hermite_rule(n)
        for k in range(2 * n):
            numeric = float(np.dot(w, x**k))
            exact = float(gaussian_moment({1: k}, 1)) if k else 1.0
            # scale: the summands reach max|x|^k even when the sum is 0
            scale = max(1.0, float(np.max(np.abs(x))) ** k)
            assert abs(numeric - exact) <= 1e-14 * scale

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)

    def test_rule_arrays_are_read_only(self):
        x, w = gauss_hermite_rule(5)
        with pytest.raises(ValueError):
            x[0] = 0.0


class TestExpectationQuadrature:
    def test_matches_exact_inner_product(self):
        rng = random.Random(43)
        for _ in range(20):
            f = helpers.random_polynomial(rng, max_vars=3, max_degree=6, max_terms=4)
            g = helpers.random_polynomial(rng, max_vars=3, max_degree=6, max_terms=4)
            product = f * g
            if product.is_zero:
                continue
            s = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            exact = float(inner_product(f, g, s))
            nodes = int(product.degree) // 2 + 1
            numeric = expectation_quadrature(
                product.evaluate, product.active_variables, s, nodes
            )
            # rounding scales with ||f||_2 ||g||_2, not with the (possibly
            # cancelling) exact value
            scale = math.sqrt(
                float(inner_product(f, f, s)) * float(inner_product(g, g, s))
            )
            assert abs(numeric - exact) <= 1e-11 * max(1.0, scale)

    def test_no_variables_short_circuits(self):
        assert expectation_quadrature(lambda point: 42.0, [], 1, 5) == 42.0

    def test_node_cap_rejected_up_front(self):
        with pytest.raises(ValueError, match="cap"):
            expectation_quadrature(lambda point: 1.0, [1, 2, 3, 4, 5], 1, 200)
        assert NODE_CAP == 10**8

    def test_blocked_and_unblocked_sums_agree(self):
        # force the chunked path by shrinking the block limit
        import gausscalc.gaussian as g

        f = parse("x1^4 x2^2 + x1 x2 - 2")
        old = g._QUAD_BLOCK_LIMIT
        try:
            full = expectation_quadrature(f.evaluate, [1, 2], 1, 9)
            g._QUAD_BLOCK_LIMIT = 8
            chunked = expectation_quadrature(f.evaluate, [1, 2], 1, 9)
        finally:
            g._QUAD_BLOCK_LIMIT = old
        exact = float(inner_product(f, Polynomial.one(), 1))
        assert chunked == pytest.approx(full, rel=1e-13, abs=1e-13)
        assert full == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestLpNorm:
    def test_constant_for_fractional_p(self):
        est = lp_norm(Polynomial.one(), 17.3, 5)
        assert est.value == 1.0
        assert est.abs_error_bound == 0.0
        est = lp_norm(Polynomial.constant(-3), 2, 1)
        assert est.value == 3.0

    def test_linear_function_l2(self):
        est = lp_norm(parse("x1"), 2, 4)
        assert est.method == "quadrature"
        assert est.abs_error_bound == 0.0
        assert abs(est.value - 2.0) < 1e-12

    def test_quartic_example(self):
        # E[(x^2-1)^4] under the unit Gaussian, by exact moment expansion
        expanded = parse("x1^2 - 1") ** 4
        exact = sum(
            (c * gaussian_moment(a, 1) for a, c in expanded.items()), Fraction(0)
        )
        assert exact == 60
        est = lp_norm(parse("x1^2 - 1"), 4, 1)
        assert abs(est.value - 60**0.25) < 1e-12 * 60**0.25

    def test_even_p_uses_enough_nodes(self):
        est = lp_norm(parse("x1^3"), 4, 1)
        assert est.samples_or_nodes >= (4 * 3) // 2 + 1

    def test_non_even_p_carries_monte_carlo_cross_check(self):
        est = lp_norm(parse("1 + 1/2 x1"), 3, Fraction(1, 4), budget=201, seed=9)
        assert est.cross_check is not None
        assert est.cross_check_samples == MC_DEFAULT_SAMPLES
        assert est.abs_error_bound > 0
        # quadrature value and Monte Carlo value agree within the 3-sigma bound
        assert abs(est.value - est.cross_check) <= est.abs_error_bound

    def test_monotone_in_p(self):
        f = parse("x1^2 - 2 x2")
        s = Fraction(3, 2)
        n2 = lp_norm(f, 2, s)
        n3 = lp_norm(f, 3, s, budget=101)
        n4 = lp_norm(f, 4, s)
        assert n2.value <= n3.value + n3.abs_error_bound + 1e-12
        assert n3.value <= n4.value + n3.abs_error_bound + 1e-12

    def test_scaling_law_matches_variance_change(self):
        # ||f(lam x)||_{L^p(mu_s)} = ||f||_{L^p(mu_{lam^2 s})}
        from gausscalc.semigroups import dilate

        f = parse("x1^4 - 3 x1 + 1")
        lam = Fraction(1, 2)
        left = lp_norm(dilate(f, lam), 4, 4)
        right = lp_norm(f, 4, 1)
        assert abs(left.value - right.value) <= 1e-10 * right.value

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(parse("x1"), 0.5, 1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_budget_below_one_rejected(self, p):
        f = parse("x1^2 + x2")
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget"):
                lp_norm(f, p, 1, budget=budget)

    def test_budget_none_means_default(self):
        f = parse("x1^2 - 1")
        assert lp_norm(f, 4, 1, budget=None).samples_or_nodes == (4 * 2) // 2 + 1
        assert lp_norm(f, 3, 1, budget=None).samples_or_nodes == 401

    def test_budget_over_cap_rejected(self):
        f = parse("x1 x2 x3 x4 x5")
        with pytest.raises(ValueError, match="cap"):
            lp_norm(f, 2, 1, budget=700)

    def test_monte_carlo_streams_are_reproducible(self):
        f = parse("x1^2 + x2")
        a = lp_norm(f, 3, 1, budget=51, seed=123)
        b = lp_norm(f, 3, 1, budget=51, seed=123)
        c = lp_norm(f, 3, 1, budget=51, seed=124)
        assert a == b
        assert a.cross_check != c.cross_check


class TestCharCheck:
    def test_zero_frequency(self):
        result = char_check({}, 3)
        assert result.lhs == result.rhs == 1.0
        assert result.discrepancy == 0.0

    def test_single_mode_unit_variance(self):
        result = char_check({1: 1.0}, 1)
        assert abs(result.rhs - math.exp(-0.5)) < 1e-15
        assert result.discrepancy < 1e-12

    def test_two_modes_product_structure(self):
        result = char_check({1: 1.0, 2: 1.0}, 2)
        assert abs(result.rhs - math.exp(-2.0)) < 1e-15
        assert result.discrepancy < 1e-12

    def test_zero_components_are_dropped(self):
        full = char_check({1: 0.7, 2: 0.0}, 1)
        trimmed = char_check({1: 0.7}, 1)
        assert full.lhs == trimmed.lhs
