"""Spans and exact work counters around gausscalc's public functions.

The wrappers live here, not in the package: installing a Tracer rebinds
each wrapped function in every gausscalc module namespace that binds it
(``matrixrep`` and ``cli`` import ``laplacian``, ``inner_product`` and
others by name), plus the ring operators on the Polynomial class.

Each call is a span with a parent (the innermost wrapped call it ran
inside, or "check" at the top).  Self time is the span's duration minus
the time of its child spans, in CPU seconds of the process, like the
end-to-end metrics.  Counters are computed after the span's clock stops,
and that work is charged to no span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_clock = time.process_time


def _parity_signatures(poly) -> Counter:
    """Terms per odd-exponent signature; a pair's moment is nonzero iff signatures agree."""
    return Counter(tuple(v for v, e in alpha.entries if e % 2) for alpha, _ in poly.items())


def _nonzero_entries(matrix) -> int:
    return sum(1 for j in range(matrix.size) for x in matrix.column(j) if x)


def _count_laplacian(counts, args, kwargs, result):
    counts["semigroups.laplacian.terms_in"] += len(args[0])
    counts["semigroups.laplacian.terms_out"] += len(result)


def _count_heat(counts, args, kwargs, result):
    counts["semigroups.heat.terms_in"] += len(args[0])
    counts["semigroups.heat.terms_out"] += len(result)


def _count_inner_product(counts, args, kwargs, result):
    f, g = args[0], args[1]
    counts["gaussian.inner_product.term_pairs"] += len(f) * len(g)
    sig_g = _parity_signatures(g)
    counts["gaussian.inner_product.useful_pairs"] += sum(
        n * sig_g.get(sig, 0) for sig, n in _parity_signatures(f).items()
    )


def _count_quadrature(counts, args, kwargs, result):
    variables = kwargs.get("variables", args[1] if len(args) > 1 else ())
    nodes = kwargs.get("nodes_per_var", args[3] if len(args) > 3 else 0)
    counts["gaussian.expectation_quadrature.nodes"] += nodes ** len(set(variables))


def _count_lp_norm(counts, args, kwargs, result):
    counts["gaussian.lp_norm.mc_samples"] += getattr(result, "cross_check_samples", 0)


def _count_basis(counts, args, kwargs, result):
    counts["matrixrep.graded_basis.dim"] += result.size


def _count_operator_matrix(counts, args, kwargs, result):
    counts["matrixrep.nonzeros"] += _nonzero_entries(result)
    counts["matrixrep.entries"] += result.size**2


def _expm_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "float")
    return "matrixrep.expm_exact" if mode == "exact-nilpotent" else "matrixrep.expm_float"


#: (module, attribute, span name or namer, counter) for every traced function.
FUNCTIONS = [
    ("gausscalc.poly", "parse", "poly.parse", None),
    ("gausscalc.poly", "serialize", "poly.serialize", None),
    ("gausscalc.semigroups", "laplacian", "semigroups.laplacian", _count_laplacian),
    ("gausscalc.semigroups", "heat", "semigroups.heat", _count_heat),
    ("gausscalc.semigroups", "dilate", "semigroups.dilate", None),
    ("gausscalc.semigroups", "hermite", "semigroups.hermite", None),
    ("gausscalc.semigroups", "hermite_semigroup", "semigroups.hermite_semigroup", None),
    ("gausscalc.gaussian", "inner_product", "gaussian.inner_product", _count_inner_product),
    ("gausscalc.gaussian", "expectation_quadrature", "gaussian.expectation_quadrature",
     _count_quadrature),
    ("gausscalc.gaussian", "lp_norm", "gaussian.lp_norm", _count_lp_norm),
    ("gausscalc.matrixrep", "graded_basis", "matrixrep.graded_basis", _count_basis),
    ("gausscalc.matrixrep", "laplacian_matrix", "matrixrep.laplacian_matrix",
     _count_operator_matrix),
    ("gausscalc.matrixrep", "euler_matrix", "matrixrep.euler_matrix", _count_operator_matrix),
    ("gausscalc.matrixrep", "expm", _expm_name, None),
    ("gausscalc.cli", "main", "cli.main", None),
]
#: Polynomial ring operators, wrapped on the class under every name they have.
OPERATORS = [("__add__", "poly.add"), ("__mul__", "poly.mul")]


class Tracer:
    """Per-span-name call counts and self time, parent edges, and counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self.active = False
        self._stack = []

    def wrap(self, name, fn, counter=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                self.calls[span] += 1
                self.self_s[span] += end - start - frame[1]
                self.edges[(parent[0] if parent else "check", span)] += 1
                if parent is not None:
                    parent[1] += end - start
            if counter is not None:
                counter(self.counts, args, kwargs, result)
                if parent is not None:
                    parent[1] += _clock() - end
            return result

        return traced

    def install(self):
        """Rebind every traced function wherever a gausscalc module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gausscalc" or n.startswith("gausscalc.")) and m is not None]
        for module_name, attr, name, counter in FUNCTIONS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(name, original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        poly_class = sys.modules["gausscalc.poly"].Polynomial
        for attr, name in OPERATORS:
            original = poly_class.__dict__[attr]
            wrapped = self.wrap(name, original)
            for alias, value in list(poly_class.__dict__.items()):
                if value is original:
                    setattr(poly_class, alias, wrapped)

    def metrics(self) -> dict:
        """The per-layer metrics of this tracer's spans and counters."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out = {}
        for span in ("poly.add", "poly.mul", "poly.parse", "poly.serialize",
                     "semigroups.laplacian", "semigroups.heat", "semigroups.dilate",
                     "semigroups.hermite", "semigroups.hermite_semigroup",
                     "gaussian.inner_product", "gaussian.expectation_quadrature",
                     "gaussian.lp_norm", "matrixrep.graded_basis", "matrixrep.expm_exact",
                     "matrixrep.expm_float", "cli.main"):
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for name in ("semigroups.laplacian.terms_in", "semigroups.laplacian.terms_out",
                     "semigroups.heat.terms_in", "semigroups.heat.terms_out",
                     "gaussian.inner_product.term_pairs", "gaussian.expectation_quadrature.nodes",
                     "gaussian.lp_norm.mc_samples", "matrixrep.graded_basis.dim",
                     "matrixrep.nonzeros"):
            out[name] = counts[name]
        pairs = counts["gaussian.inner_product.term_pairs"]
        out["gaussian.inner_product.useful_pair_share"] = (
            counts["gaussian.inner_product.useful_pairs"] / pairs if pairs else 0.0)
        entries = counts["matrixrep.entries"]
        out["matrixrep.nonzero_share"] = counts["matrixrep.nonzeros"] / entries if entries else 0.0
        cache = getattr(sys.modules["gausscalc.semigroups"], "_hermite_cached", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        lookups = info.hits + info.misses if info else 0
        out["semigroups.hermite.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["semigroups.hermite.cache_entries"] = info.currsize if info else 0
        return out
