import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

import helpers
from gausscalc.poly import (
    MultiIndex,
    Polynomial,
    PolyParseError,
    as_fraction,
    parse,
    serialize,
)


class TestMultiIndex:
    def test_canonical_storage(self):
        alpha = MultiIndex({3: 1, 1: 2, 2: 0})
        assert alpha.entries == ((1, 2), (3, 1))
        assert alpha.degree == 3
        assert alpha.exponent(2) == 0

    def test_empty_is_the_constant_monomial(self):
        assert MultiIndex().degree == 0
        assert str(MultiIndex()) == "1"
        assert not MultiIndex()

    def test_product_adds_exponents(self):
        assert MultiIndex({1: 2}) * MultiIndex({1: 1, 2: 3}) == MultiIndex({1: 3, 2: 3})

    def test_factorial(self):
        assert MultiIndex({1: 3, 2: 2}).factorial() == 12
        assert MultiIndex().factorial() == 1

    def test_factorial_of_a_large_exponent(self):
        assert MultiIndex({1: 3000}).factorial() == math.factorial(3000)
        assert MultiIndex({2: 600, 5: 2}).factorial() == math.factorial(600) * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex({0: 1})
        with pytest.raises(ValueError):
            MultiIndex({1: -1})
        with pytest.raises(ValueError):
            MultiIndex([(1, 1), (1, 2)])
        with pytest.raises(TypeError):
            MultiIndex({1: 1.5})

    def test_graded_lex_order(self):
        x1x2 = MultiIndex({1: 1, 2: 1})
        x1sq = MultiIndex({1: 2})
        x2sq = MultiIndex({2: 2})
        x3 = MultiIndex({3: 1})
        # degree first, then x1 beats x2 beats x3
        assert sorted([x1sq, x2sq, x1x2, x3, MultiIndex()]) == [
            MultiIndex(),
            x3,
            x2sq,
            x1x2,
            x1sq,
        ]

    def test_order_is_total_on_samples(self):
        rng = random.Random(5)
        idxs = [helpers.random_multi_index(rng, 3, 5) for _ in range(40)]
        for a in idxs:
            for b in idxs:
                assert (a < b) + (b < a) + (a == b) == 1


class TestParse:
    def test_reads_terms_directly(self):
        f = parse("x1^2 - 4")
        assert f.terms == {MultiIndex({1: 2}): Fraction(1), MultiIndex(): Fraction(-4)}

    def test_collects_like_terms(self):
        assert parse("3/2 x1 x2 + 3/2 x2 x1") == parse("3 x1 x2")

    def test_cancellation_gives_canonical_zero(self):
        f = parse("x1^2 - x1^2")
        assert f.is_zero
        assert f.terms == {}

    def test_repeated_factors_multiply(self):
        assert parse("x1 x1") == parse("x1^2")
        assert parse("2 x3 x1 x3") == parse("2 x1 x3^2")

    def test_leading_sign(self):
        assert parse("-x1 + 1") == Polynomial.one() - Polynomial.variable(1)
        assert parse("+3") == Polynomial.constant(3)

    def test_whitespace_insignificant(self):
        assert parse("x1^2-4") == parse("  x1 ^ 2  -  4 ")
        assert parse("1/2x1") == parse("1/2 x1")

    def test_multi_digit_indices_and_exponents(self):
        f = parse("x12^10")
        assert f.terms == {MultiIndex({12: 10}): Fraction(1)}

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("   ", 3),
            ("x0 + 1", 0),
            ("x1^0", 3),
            ("1/0", 2),
            ("x1 + ", 5),
            ("x1 * x2", 3),
            ("3 4", 2),
            ("^2", 0),
            ("x1^", 3),
            ("x1 ^ -2", 5),
            ("1/", 2),
        ],
    )
    def test_errors_report_position(self, text, position):
        with pytest.raises(PolyParseError) as info:
            parse(text)
        assert info.value.position == position
        assert f"position {position}" in str(info.value)

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            parse(42)


class TestSerialize:
    def test_descending_graded_lex_order(self):
        assert serialize(parse("x2^2 + x1 x2 + x1^2")) == "x1^2 + x1 x2 + x2^2"
        assert serialize(parse("3 + 1/4 x1^2")) == "1/4 x1^2 + 3"

    def test_zero_prints_as_0(self):
        assert serialize(Polynomial.zero()) == "0"
        assert parse("0").is_zero

    def test_unit_coefficients_are_implicit(self):
        assert serialize(parse("1 x1")) == "x1"
        assert serialize(parse("0 - 1 x1")) == "-x1"
        assert serialize(parse("-1")) == "-1"

    @given(helpers.polynomials())
    def test_round_trip(self, f):
        assert parse(serialize(f)) == f

    def test_round_trip_wide_random(self):
        rng = random.Random(11)
        for _ in range(200):
            f = helpers.random_polynomial(rng, max_vars=5, max_degree=9, max_terms=8)
            assert parse(serialize(f)) == f


class TestArithmetic:
    def test_additive_inverse(self):
        f = parse("x1^2")
        assert (f + (-f)).is_zero

    def test_difference_of_squares(self):
        assert parse("x1 + x2") * parse("x1 - x2") == parse("x1^2 - x2^2")

    def test_squaring(self):
        f = parse("x1^2 - 1")
        assert f * f == parse("x1^4 - 2 x1^2 + 1")

    def test_ring_laws_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(200):
            f = helpers.random_polynomial(rng, max_vars=5, max_degree=6, max_terms=4)
            g = helpers.random_polynomial(rng, max_vars=5, max_degree=6, max_terms=4)
            h = helpers.random_polynomial(rng, max_vars=5, max_degree=6, max_terms=4)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_degree_adds_under_multiplication(self):
        rng = random.Random(13)
        for _ in range(100):
            f = helpers.random_nonzero_polynomial(rng, max_vars=4, max_degree=5)
            g = helpers.random_nonzero_polynomial(rng, max_vars=4, max_degree=5)
            assert (f * g).degree == f.degree + g.degree

    def test_zero_degree_sentinel(self):
        assert Polynomial.zero().degree == float("-inf")
        assert Polynomial.one().degree == 0

    def test_canonical_form_is_idempotent(self):
        rng = random.Random(17)
        for _ in range(50):
            f = helpers.random_polynomial(rng)
            assert Polynomial(f.terms) == f
            assert all(c != 0 for c in f.terms.values())

    def test_scalar_mixing(self):
        f = parse("x1^2")
        assert 2 * f - f == f
        assert f / 2 + f / 2 == f
        assert f + "1/2" == parse("x1^2 + 1/2")
        assert 1 - f == parse("1 - x1^2")

    def test_powers(self):
        x1, x2 = Polynomial.variable(1), Polynomial.variable(2)
        assert (x1 + x2) ** 3 == parse("x1^3 + 3 x1^2 x2 + 3 x1 x2^2 + x2^3")
        assert (x1 - x1) ** 0 == Polynomial.one()
        with pytest.raises(ValueError):
            x1 ** (-1)

    def test_floats_rejected_in_symbolic_layer(self):
        with pytest.raises(TypeError):
            Polynomial({MultiIndex({1: 1}): 0.5})
        with pytest.raises(TypeError):
            parse("x1") * 0.5
        with pytest.raises(TypeError):
            as_fraction(0.5)

    def test_as_fraction_accepts_strings_and_ints(self):
        assert as_fraction("3/5") == Fraction(3, 5)
        assert as_fraction(7) == 7
        with pytest.raises(ValueError):
            as_fraction("3/0")


class TestEvaluate:
    def test_at_a_root(self):
        value = parse("x1^2 - 4").evaluate({1: 2})
        assert value == 0
        assert isinstance(value, Fraction)

    def test_exact_rational_point(self):
        assert parse("x1 x2").evaluate({1: 3, 2: Fraction(1, 3)}) == 1

    def test_constant_needs_no_point(self):
        assert Polynomial.one().evaluate({}) == 1
        assert Polynomial.one().evaluate() == 1

    def test_missing_variables_default_to_zero(self):
        assert parse("x1 + x2 + 3").evaluate({1: 5}) == 8

    def test_matches_naive_expansion(self):
        rng = random.Random(23)
        for _ in range(50):
            f = helpers.random_polynomial(rng, max_vars=3, max_degree=6)
            point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for v in (1, 2, 3)}
            naive = sum(
                (
                    c * np.prod([point[v] ** e for v, e in alpha.entries] or [Fraction(1)])
                    for alpha, c in f.items()
                ),
                Fraction(0),
            )
            assert f.evaluate(point) == naive

    def test_numpy_grid_broadcasts(self):
        f = parse("x1^2 + 1/2 x2")
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([2.0, 2.0, 2.0])
        out = f.evaluate({1: xs, 2: ys})
        assert np.allclose(out, [1.0, 2.0, 5.0])
        # sparse broadcast shapes multiply out to a grid
        grid = f.evaluate({1: xs.reshape(-1, 1), 2: ys.reshape(1, -1)})
        assert grid.shape == (3, 3)

    def test_float_point_gives_float(self):
        assert isinstance(parse("x1").evaluate({1: 0.5}), float)

    def test_bad_point_keys_rejected(self):
        with pytest.raises(TypeError):
            parse("x1").evaluate({0: 1})
