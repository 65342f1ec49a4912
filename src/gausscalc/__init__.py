"""gausscalc: exact calculus of heat flow, Hermite bases, and dilations
on polynomials in infinitely many Gaussian coordinates.

The package keeps two strictly separated layers.  The symbolic layer
(`poly`, `semigroups`, `matrixrep`) works in arbitrary-precision
rationals, so operator identities are checked as exact term-map
equality, never against a tolerance.  Floats enter it only in the
reported time constant `VarianceParams.tau`, the float mode of
`semigroups.verify_ident2` (an irrational scale), the
`semigroups.heat_convolution_oracle`, and the numpy `expm` route of
`matrixrep.bch_check`.  The numeric layer (`gaussian`) integrates
against the product Gaussian measure by tensor Gauss-Hermite quadrature
and Monte Carlo with a fixed key, and exists to cross-check the
symbolic layer through an independent, measure-level route.
"""

from .gaussian import (
    MC_DEFAULT_SAMPLES,
    NODE_CAP,
    LpEstimate,
    expectation_quadrature,
    gauss_hermite_rule,
    gaussian_moment,
    inner_product,
    lp_norm,
    variance_of,
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
    ConvolutionCheck,
    VarianceParams,
    dilate,
    euler_d,
    heat,
    heat_convolution_oracle,
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
