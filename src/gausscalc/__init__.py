"""gausscalc: exact calculus of heat flow, Hermite bases, and dilations
on polynomials in infinitely many Gaussian coordinates.

The package keeps two strictly separated layers.  The symbolic layer
(`poly`, `semigroups`, `matrixrep`) works in arbitrary-precision
rationals, so operator identities are checked as exact term-map
equality, never against a tolerance.  Its core, `poly` and `semigroups`,
imports no numpy and nothing but itself; floats enter it only in the
reported time constant `VarianceParams.tau` and the float mode of
`semigroups.verify_ident2` (an irrational scale).  Only `gaussian` and
`matrixrep` import numpy: `gaussian` integrates against the product
Gaussian measure by tensor Gauss-Hermite quadrature and Monte Carlo with
a fixed key, and its `heat_convolution_oracle` checks `heat` through that
independent, measure-level route; `matrixrep.bch_check` adds a float
`expm` route.  The import order is poly, semigroups, then gaussian and
matrixrep, then cli.
"""

from .gaussian import (
    MC_DEFAULT_SAMPLES,
    NODE_CAP,
    ConvolutionCheck,
    LpEstimate,
    expectation_quadrature,
    gauss_hermite_rule,
    gaussian_moment,
    heat_convolution_oracle,
    inner_product,
    lp_norm,
)
from .matrixrep import (
    DIMENSION_CAP,
    BchReport,
    GradedBasis,
    OperatorMatrix,
    bch_check,
    euler_matrix,
    expm,
    graded_basis,
    laplacian_matrix,
)
from .poly import (
    MultiIndex,
    Polynomial,
    PolyParseError,
    as_fraction,
    parse,
    serialize,
)
from .semigroups import (
    CheckResult,
    VarianceParams,
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
    variance_of,
    verify_commutator,
    verify_ident2,
    verify_nested_commutator,
)

__version__ = "0.1.0"

__all__ = [
    "MC_DEFAULT_SAMPLES",
    "NODE_CAP",
    "DIMENSION_CAP",
    "BchReport",
    "CheckResult",
    "ConvolutionCheck",
    "GradedBasis",
    "LpEstimate",
    "MultiIndex",
    "OperatorMatrix",
    "PolyParseError",
    "Polynomial",
    "VarianceParams",
    "as_fraction",
    "bch_check",
    "dilate",
    "euler_d",
    "euler_matrix",
    "expectation_quadrature",
    "expm",
    "gauss_hermite_rule",
    "gaussian_moment",
    "graded_basis",
    "heat",
    "heat_convolution_oracle",
    "hermite",
    "hermite_expand",
    "hermite_semigroup",
    "inner_product",
    "l2_contraction_ratio",
    "laplacian",
    "laplacian_matrix",
    "lp_norm",
    "nonclosability_example",
    "number_op",
    "parse",
    "serialize",
    "variance_of",
    "verify_commutator",
    "verify_ident2",
    "verify_nested_commutator",
]
