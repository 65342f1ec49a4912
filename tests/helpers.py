"""Shared random generators and reference implementations for the test suite.

Two flavors of generator: seeded `random.Random` loops for the
fixed-count batteries (so a failure reproduces from the seed alone), and
hypothesis strategies for the shrinking property tests.  The references
are slower, simpler routes the package's own are checked against.
"""

import functools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from gausscalc.gaussian import _RESCALE, _orthonormal_hermite
from gausscalc.poly import MultiIndex, Polynomial


def random_multi_index(rng, max_vars=4, max_degree=8):
    alpha = {}
    budget = rng.randint(0, max_degree)
    while budget > 0 and rng.random() < 0.75:
        var = rng.randint(1, max_vars)
        step = rng.randint(1, budget)
        alpha[var] = alpha.get(var, 0) + step
        budget -= step
    return MultiIndex(alpha)


def random_polynomial(rng, max_vars=4, max_degree=8, max_terms=6, coeff_bound=9):
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        num = rng.randint(-coeff_bound, coeff_bound)
        if num:
            pairs.append(
                (random_multi_index(rng, max_vars, max_degree), Fraction(num, rng.randint(1, 4)))
            )
    return Polynomial(pairs)


def random_nonzero_polynomial(rng, **kwargs):
    while True:
        f = random_polynomial(rng, **kwargs)
        if not f.is_zero:
            return f


small_fractions = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


@st.composite
def multi_indices(draw, max_vars=3, max_exponent=4):
    exponents = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=max_vars),
            st.integers(min_value=1, max_value=max_exponent),
            max_size=max_vars,
        )
    )
    return MultiIndex(exponents)


@st.composite
def polynomials(draw, max_vars=3, max_exponent=4, max_terms=5):
    pairs = draw(
        st.lists(
            st.tuples(multi_indices(max_vars, max_exponent), small_fractions),
            max_size=max_terms,
        )
    )
    return Polynomial(pairs)


# -- reference dilation -------------------------------------------------------


def dilate_by_definition(f, lam):
    """f(lam x) by its definition: each coefficient c_alpha times lam^|alpha|."""
    lam = Fraction(lam)
    return Polynomial([(alpha, c * lam**alpha.degree) for alpha, c in f.items()])


# -- reference graded-lex order and basis ------------------------------------


def walk_less(a, b):
    """a < b in graded-lex order by a merge walk over the two supports.

    Same degree: at the first variable where the exponents differ, the
    monomial with the larger exponent is the larger one (x1 > x2 > ...).
    """
    if a.degree != b.degree:
        return a.degree < b.degree
    ea, eb = a.entries, b.entries
    i = j = 0
    while i < len(ea) and j < len(eb):
        (va, xa), (vb, xb) = ea[i], eb[j]
        if va == vb:
            if xa != xb:
                return xa < xb
            i += 1
            j += 1
        elif va < vb:
            return False  # a has a positive exponent where b has 0
        else:
            return True
    return i == len(ea) and j < len(eb)


def _exponent_vectors(m, d):
    """All length-m tuples of nonnegative ints summing to d."""
    if m == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exponent_vectors(m - 1, d - first):
            yield (first,) + rest


def reference_graded_basis(m, n):
    """The monomials of degree <= n in x1..xm, each degree sorted by walk_less."""
    key = functools.cmp_to_key(lambda a, b: -1 if walk_less(a, b) else walk_less(b, a))
    monomials = []
    for d in range(n + 1):
        block = [MultiIndex({i + 1: e for i, e in enumerate(vec) if e})
                 for vec in _exponent_vectors(m, d)]
        monomials.extend(sorted(block, key=key))
    return tuple(monomials)


# -- reference Gauss-Hermite rule --------------------------------------------


def dense_gauss_hermite_rule(n):
    """Nodes from numpy's eigvalsh of the dense n x n Jacobi matrix, one Newton step.

    The weights come from the same orthonormal recurrence as the package's.
    """
    off_diag = np.sqrt(np.arange(1, n, dtype=float))
    nodes = np.linalg.eigvalsh(np.diag(off_diag, 1) + np.diag(off_diag, -1))
    p_prev, p_last, _ = _orthonormal_hermite(n, nodes)
    nodes -= p_last / (math.sqrt(n) * p_prev)  # Newton: p_n' = sqrt(n) p_{n-1}
    p_prev, _, rescales = _orthonormal_hermite(n, nodes)
    weights = 1.0 / (n * p_prev * p_prev) * _RESCALE ** (-2.0 * rescales)
    return nodes, weights / weights.sum()
