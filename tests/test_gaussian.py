import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gausscalc.gaussian
import helpers
from gausscalc.gaussian import (
    LP_QUADRATURE_NODES,
    MC_DEFAULT_SAMPLES,
    MC_KEY,
    NODE_CAP,
    expectation_quadrature,
    gauss_hermite_rule,
    gaussian_moment,
    inner_product,
    lp_norm,
)
from gausscalc.poly import MultiIndex, Polynomial, parse
from gausscalc.semigroups import heat, hermite, variance_of


class TestVariance:
    def test_coerces_and_validates(self):
        assert variance_of("1/2") == Fraction(1, 2)
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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_even_moments_are_double_factorials(self, n):
        # Exact through degree 2n-1: E[x^2k] = (2k-1)!! for 2k <= 2n-1.  The
        # summands are all positive, so the tolerance is relative: 100 ulps.
        x, w = gauss_hermite_rule(n)
        for k in range(n):
            exact = math.prod(range(1, 2 * k, 2))
            assert abs(float(np.dot(w, x ** (2 * k))) - exact) <= 100 * 2.0**-52 * exact

    @pytest.mark.parametrize("n", [40, 64, 401, 2048])
    def test_large_rules_keep_relative_accuracy(self, n):
        # The tail weights must be accurate relative to themselves: E[x^2k]
        # at large k is carried by nodes whose weights are far below the
        # largest one.  2k stays <= 120 at n = 2048 so x^2k is finite.
        x, w = gauss_hermite_rule(n)
        for k in range(min(2 * n - 1, 158 if n < 2048 else 120) // 2 + 1):
            exact = math.prod(range(1, 2 * k, 2))
            numeric = math.fsum((w * x ** (2 * k)).tolist())
            assert abs(numeric - exact) <= 2e-14 * exact, (n, 2 * k)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)

    @pytest.mark.parametrize("n", [2049, 10**6])
    def test_refuses_rules_above_the_node_cap(self, n):
        with pytest.raises(ValueError, match=rf"{n}-node rule.*cap of 2048 nodes"):
            gauss_hermite_rule(n)

    def test_node_cap_is_the_boundary(self, monkeypatch):
        monkeypatch.setattr(gausscalc.gaussian, "_RULE_NODE_CAP", 10)
        gauss_hermite_rule.cache_clear()
        try:
            assert len(gauss_hermite_rule(10)[0]) == 10
            with pytest.raises(ValueError, match="11-node rule"):
                gauss_hermite_rule(11)
        finally:
            gauss_hermite_rule.cache_clear()

    @pytest.mark.parametrize("n", list(range(1, 65)) + [401, 1000, 2048])
    def test_matches_the_dense_reference(self, n):
        # Nodes within a few ulps of max|x|.  A node moved by d moves log w
        # by about |x| d, so the weights agree relative to themselves within
        # a few ulps of max|x| times (1 + |x|), wherever neither is denormal.
        x, w = gauss_hermite_rule.__wrapped__(n)
        ref_x, ref_w = helpers.dense_gauss_hermite_rule(n)
        ulp = 2.0**-52 * max(1.0, float(np.max(np.abs(ref_x))))
        assert np.max(np.abs(x - ref_x)) <= 4 * ulp
        both = (w > 1e-300) & (ref_w > 1e-300)
        assert np.all(np.abs(w[both] / ref_w[both] - 1) <= 8 * ulp * (1 + np.abs(x[both])))
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    def test_memory_is_linear_in_the_node_count(self):
        # The dense Jacobi matrix of 2048 nodes alone took 32 MB.
        tracemalloc.start()
        try:
            gauss_hermite_rule.__wrapped__(2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @pytest.mark.parametrize("p", [2, 3])
    def test_rounded_constant_has_a_bound(self, p):
        # float(1/3) is not 1/3, so a bound of 0 would not be a bound
        est = lp_norm(Polynomial.constant(Fraction(1, 3)), p, 1)
        assert est.method == ("exact" if p == 2 else "quadrature")
        assert est.abs_error_bound > 0
        assert abs(Fraction(est.value) - Fraction(1, 3)) <= Fraction(est.abs_error_bound)

    def test_high_degree_fractional_norm(self):
        # ||x1^16||_3 = (E|x|^48)^(1/3) = (47!!)^(1/3): the 401-node
        # quadrature sees the rule's tail weights
        est = lp_norm(parse("x1^16"), 3, 1)
        exact = math.prod(range(1, 48, 2)) ** (1 / 3)
        assert abs(est.value - exact) <= 1e-12 * exact

    def test_linear_function_l2(self):
        est = lp_norm(parse("x1"), 2, 4)
        assert est.method == "exact"
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

    def test_non_even_p_carries_monte_carlo_cross_check(self):
        est = lp_norm(parse("1 + 1/2 x1"), 3, Fraction(1, 4))
        assert est.cross_check is not None
        assert est.cross_check_samples == MC_DEFAULT_SAMPLES
        assert est.abs_error_bound > 0
        # quadrature value and Monte Carlo value agree within the 3-sigma bound
        assert abs(est.value - est.cross_check) <= est.abs_error_bound

    def test_monotone_in_p(self):
        f = parse("x1^2 - 2 x2")
        s = Fraction(3, 2)
        n2 = lp_norm(f, 2, s)
        n3 = lp_norm(f, 3, s)
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

    @pytest.mark.parametrize("p", [3, 4, Fraction(5, 2)])
    def test_constant_beyond_the_float_range_is_named(self, p):
        # float(c) used to raise a bare OverflowError.
        with pytest.raises(ValueError, match=rf"not finite.*p = {p}, deg f = 0 \(largest "
                                             r"coefficient 401 digits\), s = 1"):
            lp_norm(Polynomial.constant(10**400), p, 1)

    @pytest.mark.parametrize("p", [10**400, Fraction(10**400 + 1, 2), 10**400 + 1])
    def test_p_beyond_the_float_range_is_named(self, p):
        # float(p) used to raise a bare OverflowError.
        with pytest.raises(ValueError, match=r"not finite.*p = 10*\.\.\. \(40[13] characters\)"):
            lp_norm(parse("x1"), p, 1)
        with pytest.raises(ValueError, match=r"p must be >= 1, got -10*\.\.\. \(402 char"):
            lp_norm(parse("x1"), -(10**400), 1)

    def test_norm_underflowing_to_zero_is_named(self):
        # Both estimates of ||x1||_3 at s = 10^-400 round to 0: the CLI's ratio
        # of two such norms was inf, which no JSON report can hold.
        with pytest.raises(ValueError, match=r"underflows to 0.*p = 3, deg f = 1"):
            lp_norm(parse("x1"), 3, Fraction(1, 10**400))

    @pytest.mark.parametrize("f, p, s", [
        ("x1", 2, Fraction(1, 10**800)), ("x1^2", 4, Fraction(1, 10**400)),
    ])
    def test_even_norm_underflowing_to_zero_is_named(self, f, p, s):
        # The exact moment is positive but its float root is 0.0, which no
        # error bound brackets: the doubling search for one ran to inf.
        with pytest.raises(ValueError, match=rf"underflows to 0.*p = {p}, deg f = {p // 2}"):
            lp_norm(parse(f), p, s)

    def test_quadrature_takes_the_module_node_count(self):
        assert LP_QUADRATURE_NODES == 401
        assert lp_norm(parse("x1^2 - 1"), 3, 1).samples_or_nodes == 401
        assert lp_norm(parse("x1 x2"), 3, 1).samples_or_nodes == 401**2

    def test_budget_over_cap_rejected(self):
        # 401^5 tensor nodes: five variables exceed NODE_CAP.
        f = parse("x1 x2 x3 x4 x5")
        with pytest.raises(ValueError, match="cap"):
            lp_norm(f, 3, 1)

    def test_monte_carlo_streams_are_reproducible(self, monkeypatch):
        f = parse("x1^2 + x2")
        a = lp_norm(f, 3, 1)
        b = lp_norm(f, 3, 1)
        monkeypatch.setattr(gausscalc.gaussian, "MC_KEY", MC_KEY + 1)
        c = lp_norm(f, 3, 1)
        assert a == b
        assert a.cross_check != c.cross_check

    def test_non_finite_estimate_rejected(self, monkeypatch):
        # |f|^3 overflows in float at the quadrature nodes and the samples;
        # a nan mean used to come out as a norm that compares as contractive.
        # The overflow itself must not leak out as a numpy RuntimeWarning.
        f = heat(hermite({1: 82}, 1), Fraction(3, 4))
        monkeypatch.setattr(gausscalc.gaussian, "MC_DEFAULT_SAMPLES", 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not finite.*p = 3, deg f = 82"):
                lp_norm(f, 3, Fraction(1, 4))


def _one_shot_abs_power_mean(f, p, s, samples):
    """Test oracle: E|f|^p and its standard error from one draw of every sample."""
    variables = f.active_variables
    rng = np.random.Generator(np.random.Philox(key=MC_KEY))
    draws = rng.normal(0.0, math.sqrt(s), size=(samples, len(variables)))
    values = np.abs(f.evaluate({var: draws[:, k] for k, var in enumerate(variables)})) ** p
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(samples))


class TestMonteCarloStream:
    """The cross-check draws and reduces its samples one block at a time."""

    BLOCK = gausscalc.gaussian._MC_BLOCK
    ONE_VARIABLE = parse("x1^3 - 2 x1 + 1/3")
    THREE_VARIABLES = parse("x1^2 x3 - 1/2 x2 + x3 + 2")

    @pytest.mark.parametrize("width", [1, 3])
    def test_blocked_draws_are_the_one_shot_draw(self, width):
        samples = 10**6 + 7
        whole = np.random.Generator(np.random.Philox(key=MC_KEY)).normal(size=(samples, width))
        rng = np.random.Generator(np.random.Philox(key=MC_KEY))
        blocks = [rng.normal(size=(min(self.BLOCK, samples - start), width))
                  for start in range(0, samples, self.BLOCK)]
        assert np.array_equal(whole, np.concatenate(blocks))

    @pytest.mark.parametrize("f", [ONE_VARIABLE, THREE_VARIABLES], ids=["1var", "3var"])
    @pytest.mark.parametrize("samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7,
                                         4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 12 * BLOCK + 7,
                                         10**6])
    def test_matches_the_one_shot_oracle(self, f, samples):
        s, p = Fraction(3, 2), 2.5
        mean, std_err = gausscalc.gaussian._monte_carlo_abs_power_mean(f, p, s, samples)
        expected_mean, expected_std_err = _one_shot_abs_power_mean(f, p, s, samples)
        assert mean == pytest.approx(expected_mean, rel=1e-12, abs=0)
        assert std_err == pytest.approx(expected_std_err, rel=1e-12, abs=0)

    def test_mean_far_above_the_spread_keeps_its_variance(self):
        # sum(v^2) - sum(v)^2/n cancels here: mean ~1e8, standard deviation ~1.
        f = parse("x1 + 100000000")
        mean, std_err = gausscalc.gaussian._monte_carlo_abs_power_mean(f, 1.0, 1, 10**5)
        expected_mean, expected_std_err = _one_shot_abs_power_mean(f, 1.0, 1, 10**5)
        assert mean == pytest.approx(expected_mean, rel=1e-12, abs=0)
        assert std_err == pytest.approx(expected_std_err, rel=1e-9, abs=0)

    @staticmethod
    def _traced_peak(f, samples):
        tracemalloc.start()
        try:
            gausscalc.gaussian._monte_carlo_abs_power_mean(f, 3.0, 1, samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("f, limit_mb", [(ONE_VARIABLE, 4), (THREE_VARIABLES, 8)],
                             ids=["1var", "3var"])
    def test_memory_is_one_block_whatever_the_sample_count(self, f, limit_mb):
        peak = self._traced_peak(f, 10**6)
        assert peak <= limit_mb * 2**20
        assert self._traced_peak(f, 4 * 10**6) <= peak + 2**16

    def test_an_overflow_in_the_last_block_alone_is_not_lost(self):
        # f = x1 / c with |x1| < c in every sample before the stream's
        # largest |x1|, at index r in a later, partial block: there |f|^p
        # overflows and everywhere before it |f|^p < 1.
        draws = 4 * self.BLOCK
        x = np.abs(np.random.Generator(np.random.Philox(key=MC_KEY)).normal(size=draws))
        r = int(np.argmax(x))
        assert r >= self.BLOCK and (r + 1) % self.BLOCK, "MC_KEY's stream has no such block"
        below, top = float(x[:r].max()), float(x[r])
        c = Fraction(math.sqrt(below * top))
        p = 2000.0 / math.log(top / float(c))
        f = Polynomial.variable(1) * (1 / c)
        estimate = gausscalc.gaussian._monte_carlo_abs_power_mean
        assert all(map(math.isfinite, estimate(f, p, 1, r)))
        assert not all(map(math.isfinite, estimate(f, p, 1, r + 1)))


def _brackets(estimate, p, mean):
    """(value - bound)^p <= mean <= (value + bound)^p, in rationals."""
    value, bound = Fraction(estimate.value), Fraction(estimate.abs_error_bound)
    return (value - bound) ** p <= mean <= (value + bound) ** p


class TestEvenLpNorm:
    """Even integer p: the p-th root of the exact moment E_s[f^p]."""

    def test_bound_brackets_the_exact_moment(self):
        rng = random.Random(47)
        cases = [(parse("x1^7"), 6, Fraction(1))]  # 1/6 is rounded: 2 ulps fall short here
        while len(cases) < 201:
            f = helpers.random_polynomial(rng, max_vars=3, max_degree=6, max_terms=4)
            if f.degree > 0:
                cases.append((f, rng.choice((2, 4, 6)),
                               rng.choice((Fraction(1), Fraction(3, 2), Fraction(1, 4)))))
        for f, p, s in cases:
            half = f ** (p // 2)
            estimate = lp_norm(f, p, s)
            assert estimate.method == "exact" and estimate.samples_or_nodes == 0
            assert _brackets(estimate, p, inner_product(half, half, s))
            assert estimate.abs_error_bound <= 1e-12 * estimate.value

    def test_matches_quadrature_with_enough_nodes(self):
        # An independent route: p * deg f <= 24 keeps the rule's moments
        # accurate, and f^p >= 0 makes every quadrature summand nonnegative.
        rng = random.Random(53)
        checked = 0
        while checked < 40:
            f = helpers.random_polynomial(rng, max_vars=2, max_degree=6, max_terms=3)
            p = rng.choice((2, 4, 6))
            if not 0 < p * f.degree <= 24:
                continue
            checked += 1
            s = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            nodes = int(p * f.degree) // 2 + 1
            mean = expectation_quadrature(
                lambda point: f.evaluate(point) ** p, f.active_variables, s, nodes
            )
            assert abs(mean ** (1 / p) - lp_norm(f, p, s).value) <= 1e-10 * mean ** (1 / p)

    def test_high_degree_monomials(self):
        # E[x^120] = 119!!; quadrature in floats was off by 2.8e-4 relative here
        estimate = lp_norm(parse("x1^30"), 4, 1)
        assert _brackets(estimate, 4, math.prod(range(1, 120, 2)))
        assert abs(estimate.value - 5.1387e24) <= 1e-4 * 5.1387e24
        # f^4 overflows a float at every nonzero node; the exact moment does not
        estimate = lp_norm(parse("x1^200"), 4, 1)
        assert math.isfinite(estimate.value) and math.isfinite(estimate.abs_error_bound)
        assert _brackets(estimate, 4, math.prod(range(1, 800, 2)))

    def test_never_integrates_numerically(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("even p must not reach quadrature or Monte Carlo")

        monkeypatch.setattr(gausscalc.gaussian, "expectation_quadrature", refuse)
        monkeypatch.setattr(gausscalc.gaussian, "_monte_carlo_abs_power_mean", refuse)
        for p in (2, 4, 6, 8.0):
            estimate = lp_norm(parse("x1^2 x2 - 1/3 x3 + 2"), p, Fraction(3, 2))
            assert estimate.method == "exact"
            assert estimate.cross_check is None and estimate.cross_check_samples == 0

    def test_norm_beyond_the_float_range_rejected(self):
        # ||x1^700||_2 = sqrt(1399!!) is about 1e1000
        with pytest.raises(ValueError, match=r"not finite.*p = 2, deg f = 700"):
            lp_norm(parse("x1^700"), 2, 1)


class TestDimensionFreeSetting:
    """Exact facts of mu_s that hold in any number of coordinates."""

    @staticmethod
    def _exp_series(linear, order):
        return sum((linear**k / math.factorial(k) for k in range(order + 1)), Polynomial.zero())

    @pytest.mark.parametrize("a", [
        (1,), (Fraction(3, 5), Fraction(4, 5)), (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
    ])
    def test_moments_are_rotation_invariant(self, a):
        # a.x ~ N(0, s |a|^2) for every unit vector a, however many coordinates it spans.
        linear = sum((c * Polynomial.variable(k) for k, c in enumerate(a, 1)), Polynomial.zero())
        assert sum(Fraction(c) ** 2 for c in a) == 1
        f = self._exp_series(linear, 3)
        assert inner_product(f**4, Polynomial.one(), Fraction(3, 2)) == Fraction(1359883, 1024)

    @pytest.mark.parametrize("p", [2, 4])
    def test_moments_tensorize_over_disjoint_variables(self, p):
        f, g, s = parse("x1^3 - 1/2 x1 + 2"), parse("3 x2^2 - x2 + 1/3"), Fraction(3, 2)
        one = Polynomial.one()
        assert inner_product((f * g) ** p, one, s) == (
            inner_product(f**p, one, s) * inner_product(g**p, one, s)
        )

    @pytest.mark.parametrize("lam", [Fraction(7, 20), Fraction(1003, 3000), Fraction(3, 10)])
    def test_exponentials_reach_the_gaussian_closed_form(self, lam):
        # For f = e^{a x1}, (1/q) log E_{s-t}[(P_t f)^q] - (1/p) log E_s[f^p]
        # is (a^2/2)[(s-t)(q-1) - s(p-1)]; its truncations converge to it exactly.
        a, s, p, q = Fraction(1, 2), Fraction(1), 2, 10
        t = s * (1 - lam**2)
        limit = float(a * a / 2 * ((s - t) * (q - 1) - s * (p - 1)))
        one = Polynomial.one()

        def log(r):
            return math.log(r.numerator) - math.log(r.denominator)

        def log_ratio(order):
            f = self._exp_series(a * Polynomial.variable(1), order)
            return (log(inner_product(heat(f, t) ** q, one, s - t)) / q
                    - log(inner_product(f**p, one, s)) / p)

        coarse, fine = log_ratio(8), log_ratio(12)
        assert abs(fine - limit) < 1e-7 * abs(limit)
        assert abs(fine - limit) < abs(coarse - limit) / 100
        # The sign is the contraction condition (q-1) lam^2 <= p-1.
        assert (fine < 0) == ((q - 1) * lam**2 <= p - 1)
