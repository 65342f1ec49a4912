"""Exact sparse multivariate polynomials over the rationals.

Variables are indexed 1, 2, 3, ... with no upper bound; any single
polynomial touches only finitely many of them, which is how the
infinite-variable setting stays computable.  Coefficients are
`fractions.Fraction` throughout.  The symbolic layer never holds floats,
so identity checks reduce to exact equality of term maps.

`parse` and `serialize` implement the text format used everywhere a
polynomial crosses a process boundary: terms joined by '+'/'-', each
term an optional rational coefficient followed by factors like ``x3``
or ``x1^2``.  `serialize` emits terms in descending graded-lexicographic
order (``x1`` largest), e.g. ``"1/4 x1^2 + 3"``, and `parse` inverts it
exactly.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from numbers import Rational


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


def abbreviate(value) -> str:
    """str(value) for an error message: its first 40 characters and its
    length when longer, so a huge number or input cannot flood stderr."""
    try:
        text = str(value)
    except ValueError:  # an integer above Python's int-to-str digit limit
        return f"<more than {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def as_fraction(value) -> Fraction:
    """Coerce an exact scalar (int, Fraction, rational string) to Fraction.

    A string is an optional '-', ASCII digits, then optionally '/' and
    ASCII digits, with whitespace around it allowed; '+', '_', exponents,
    decimal points and other digits are refused.  Floats are rejected:
    binary floats silently misrepresent decimal input, and every exact
    code path in this package depends on the coefficients being true
    rationals.  Callers that really mean a float's exact binary value can
    pass Fraction(x) themselves.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot use a bool as a rational scalar")
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if not _RATIONAL.fullmatch(text):
                raise ValueError
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a rational: {abbreviate(repr(value))}") from None
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} is not accepted as an exact scalar; "
            "pass a Fraction, int, or string like '3/5'"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


@functools.total_ordering
class MultiIndex:
    """A finitely supported exponent vector: the alpha of the monomial x^alpha.

    Stored sparsely as a tuple of (variable index, exponent) pairs with
    indices strictly increasing and exponents positive.  The empty
    multi-index is the monomial 1.  Ordering is graded lexicographic
    with x1 > x2 > ..., as defined by `order_key`.
    """

    __slots__ = ("_entries", "_degree", "_hash")

    def __init__(self, entries=()):
        if isinstance(entries, MultiIndex):
            self._entries = entries._entries
            self._degree = entries._degree
            self._hash = entries._hash
            return
        if isinstance(entries, dict):
            entries = entries.items()
        pairs = []
        for var, exp in entries:
            if not isinstance(var, int) or isinstance(var, bool):
                raise TypeError(f"variable index must be an int, got {var!r}")
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise TypeError(f"exponent must be an int, got {exp!r}")
            if var < 1:
                raise ValueError(f"variable index must be at least 1, got {var}")
            if exp < 0:
                raise ValueError(f"exponent must be nonnegative, got {exp}")
            if exp > 0:
                pairs.append((var, exp))
        pairs.sort()
        for (v1, _), (v2, _) in zip(pairs, pairs[1:]):
            if v1 == v2:
                raise ValueError(f"variable x{v1} appears twice")
        self._entries = tuple(pairs)
        self._degree = sum(e for _, e in pairs)
        self._hash = hash(self._entries)

    @classmethod
    def _from_entries(cls, entries: tuple, degree: int) -> "MultiIndex":
        # Trusted path: `entries` must already be a tuple of (var, exp)
        # pairs with increasing var >= 1 and exp >= 1 summing to `degree`.
        self = object.__new__(cls)
        self._entries = entries
        self._degree = degree
        self._hash = hash(entries)
        return self

    @classmethod
    def single(cls, var: int, exp: int = 1) -> "MultiIndex":
        return cls(((var, exp),))

    @property
    def entries(self) -> tuple:
        return self._entries

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def variables(self) -> tuple:
        return tuple(v for v, _ in self._entries)

    def exponent(self, var: int) -> int:
        for v, e in self._entries:
            if v == var:
                return e
        return 0

    def factorial(self) -> int:
        """alpha! = product of the factorials of the exponents."""
        out = 1
        for _, e in self._entries:
            out *= math.factorial(e)
        return out

    def __mul__(self, other: "MultiIndex") -> "MultiIndex":
        """Exponent-wise sum: the multi-index of x^a * x^b."""
        if not isinstance(other, MultiIndex):
            return NotImplemented
        merged = dict(self._entries)
        for v, e in other._entries:
            merged[v] = merged.get(v, 0) + e
        return MultiIndex(merged)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def order_key(self) -> tuple:
        """The graded-lex sort key (degree, -v1, e1, -v2, e2, ...).

        At the first variable where two supports differ, the one with the
        smaller index, or the larger exponent on it, is the larger monomial.
        """
        key = [self._degree]
        for v, e in self._entries:
            key += (-v, e)
        return tuple(key)

    def __lt__(self, other) -> bool:
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self.order_key() < other.order_key()

    def __repr__(self) -> str:
        return f"MultiIndex({dict(self._entries)!r})"

    def __str__(self) -> str:
        if not self._entries:
            return "1"
        return " ".join(
            f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self._entries
        )


_ZERO_DEGREE = float("-inf")


class Polynomial:
    """A sparse exact-rational polynomial in variables x1, x2, ...

    Canonical form: the term map stores no zero coefficients, so two
    polynomials are equal iff their maps are equal.  Instances are
    immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            if isinstance(terms, Polynomial):
                canonical = dict(terms._terms)
            else:
                if isinstance(terms, dict):
                    terms = terms.items()
                for alpha, coeff in terms:
                    alpha = MultiIndex(alpha) if not isinstance(alpha, MultiIndex) else alpha
                    coeff = as_fraction(coeff)
                    if coeff:
                        acc = canonical.get(alpha, _F0) + coeff
                        if acc:
                            canonical[alpha] = acc
                        else:
                            canonical.pop(alpha, None)
        self._terms = canonical
        self._hash = None

    @classmethod
    def _make(cls, canonical: dict) -> "Polynomial":
        # Trusted path: `canonical` must already map MultiIndex to
        # nonzero Fraction and must not be aliased by the caller.
        self = object.__new__(cls)
        self._terms = canonical
        self._hash = None
        return self

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._make({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, value) -> "Polynomial":
        c = as_fraction(value)
        return cls._make({_EMPTY: c} if c else {})

    @classmethod
    def variable(cls, var: int) -> "Polynomial":
        return cls._make({MultiIndex.single(var): _F1})

    @classmethod
    def monomial(cls, alpha, coeff=1) -> "Polynomial":
        alpha = MultiIndex(alpha) if not isinstance(alpha, MultiIndex) else alpha
        c = as_fraction(coeff)
        return cls._make({alpha: c} if c else {})

    @property
    def terms(self) -> dict:
        """Copy of the term map (MultiIndex -> Fraction)."""
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Max total degree over terms; -inf for the zero polynomial."""
        if not self._terms:
            return _ZERO_DEGREE
        return max(a.degree for a in self._terms)

    @property
    def coefficient_digits(self) -> int:
        """Decimal digits in the integer part of the largest |coefficient|, at least 1.

        Counted from the bit length, since str() refuses integers of more
        than 4300 digits.
        """
        top = max(map(abs, self._terms.values()), default=_F0)
        whole = top.numerator // top.denominator
        digits = max(1, int(whole.bit_length() * math.log10(2)))  # the count or one less
        return digits + (whole >= 10**digits)

    @property
    def active_variables(self) -> tuple:
        seen = set()
        for alpha in self._terms:
            seen.update(alpha.variables)
        return tuple(sorted(seen))

    def coefficient(self, alpha) -> Fraction:
        if not isinstance(alpha, MultiIndex):
            alpha = MultiIndex(alpha)
        return self._terms.get(alpha, _F0)

    def constant_term(self) -> Fraction:
        return self._terms.get(_EMPTY, _F0)

    def sorted_terms(self):
        """Terms as (alpha, coeff) pairs, largest monomial first."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].order_key(), reverse=True)

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for alpha, c in other._terms.items():
            acc = out.get(alpha, _F0) + c
            if acc:
                out[alpha] = acc
            else:
                out.pop(alpha, None)
        return Polynomial._make(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make({a: -c for a, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            out = {}
            for a1, c1 in self._terms.items():
                for a2, c2 in other._terms.items():
                    alpha = a1 * a2
                    acc = out.get(alpha, _F0) + c1 * c2
                    if acc:
                        out[alpha] = acc
                    else:
                        out.pop(alpha, None)
            return Polynomial._make(out)
        try:
            c = as_fraction(other)
        except TypeError:
            return NotImplemented
        if not c:
            return Polynomial.zero()
        return Polynomial._make({a: k * c for a, k in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        c = as_fraction(other)
        return self * (1 / c)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        try:
            c = as_fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._terms == ({_EMPTY: c} if c else {})

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point=None):
        """Evaluate at ``point``, a map {variable index: value}.

        Variables not present in ``point`` are taken to be 0.  With
        int/Fraction values the result is an exact Fraction; float or
        numpy-array values switch the whole evaluation to floating
        point (arrays broadcast, so a grid of points evaluates in one
        call).  Factoring is Horner-style, one variable at a time.
        """
        point = dict(point or {})
        for var in point:
            if not isinstance(var, int) or isinstance(var, bool) or var < 1:
                raise TypeError(f"point keys must be variable indices >= 1, got {var!r}")
        exact = all(
            isinstance(v, (int, Fraction, Rational)) and not isinstance(v, bool)
            for v in point.values()
        )
        if exact:
            terms = [(a.entries, c) for a, c in self._terms.items()]
            zero = _F0
        else:
            terms = [(a.entries, float(c)) for a, c in self._terms.items()]
            zero = 0.0
        if not terms:
            return zero
        return _horner(terms, point, zero)

    def __str__(self) -> str:
        return serialize(self)

    def __repr__(self) -> str:
        return f"Polynomial({serialize(self)!r})"


_F0 = Fraction(0)
_F1 = Fraction(1)
_EMPTY = MultiIndex()


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    try:
        return Polynomial.constant(as_fraction(value))
    except TypeError:
        return NotImplemented


def _horner(terms, point, zero):
    """Evaluate [(entries, coeff)] by Horner factoring on the lowest variable."""
    head = min((e[0][0] for e, _ in terms if e), default=None)
    if head is None:
        # Only the constant term remains.
        acc = zero
        for _, c in terms:
            acc = acc + c
        return acc
    val = point.get(head, 0)
    groups = {}
    for entries, coeff in terms:
        if entries and entries[0][0] == head:
            exp = entries[0][1]
            groups.setdefault(exp, []).append((entries[1:], coeff))
        else:
            groups.setdefault(0, []).append((entries, coeff))
    exps = sorted(groups, reverse=True)
    acc = _horner(groups[exps[0]], point, zero)
    prev = exps[0]
    for e in exps[1:]:
        acc = acc * val ** (prev - e) + _horner(groups[e], point, zero)
        prev = e
    if prev:
        acc = acc * val ** prev
    return acc


# -- text format ----------------------------------------------------------

_WS_RE = re.compile(r"\s*")
_NUMBER_RE = re.compile(r"(?P<num>[0-9]+)(?P<slash>\s*/\s*(?P<den>[0-9]+)?)?")
_VAR_RE = re.compile(r"x([0-9]+)")
_DIGITS_RE = re.compile(r"[0-9]+")

_MINUS_CHARS = "-−"  # accept the unicode minus sign on input
_SIGN_CHARS = "+" + _MINUS_CHARS


def parse(text: str) -> Polynomial:
    """Parse polynomial text into canonical form.

    Grammar: terms joined by '+'/'-'; each term is an optional rational
    coefficient (``3``, ``-1/2``) followed by factors ``x<k>`` or
    ``x<k>^<e>``; whitespace between tokens is insignificant.  Repeated
    variables multiply (``x1 x1`` is ``x1^2``) and like terms collect.
    Raises PolyParseError with the offending position on bad input;
    variable index 0 and exponent 0 are rejected.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a string, got {type(text).__name__}")
    n = len(text)

    def skip_ws(i):
        return _WS_RE.match(text, i).end()

    def parse_term(i, sign):
        coeff = None
        m = _NUMBER_RE.match(text, i)
        if m:
            num = int(m.group("num"))
            if m.group("slash") is not None:
                if m.group("den") is None:
                    raise PolyParseError("expected a denominator after '/'", m.end())
                den = int(m.group("den"))
                if den == 0:
                    raise PolyParseError("denominator must be a positive integer", m.start("den"))
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            i = m.end()
        exps = {}
        while True:
            j = skip_ws(i)
            mv = _VAR_RE.match(text, j)
            if not mv:
                break
            var = int(mv.group(1))
            if var == 0:
                raise PolyParseError("variable index must be at least 1", j)
            i = mv.end()
            exp = 1
            k = skip_ws(i)
            if k < n and text[k] == "^":
                k2 = skip_ws(k + 1)
                me = _DIGITS_RE.match(text, k2)
                if not me:
                    raise PolyParseError("expected a positive integer exponent after '^'", k2)
                exp = int(me.group())
                if exp == 0:
                    raise PolyParseError("exponent must be at least 1", k2)
                i = me.end()
            exps[var] = exps.get(var, 0) + exp
        if coeff is None and not exps:
            raise PolyParseError("expected a term", i)
        if coeff is None:
            coeff = _F1
        alpha = MultiIndex(exps)
        acc[alpha] = acc.get(alpha, _F0) + sign * coeff
        return i

    acc = {}
    i = skip_ws(0)
    if i == n:
        raise PolyParseError("empty input", i)
    sign = 1
    if text[i] in _SIGN_CHARS:
        sign = -1 if text[i] in _MINUS_CHARS else 1
        i = skip_ws(i + 1)
    i = parse_term(i, sign)
    while True:
        i = skip_ws(i)
        if i == n:
            break
        if text[i] not in _SIGN_CHARS:
            raise PolyParseError(f"expected '+' or '-', found {text[i]!r}", i)
        sign = -1 if text[i] in _MINUS_CHARS else 1
        i = skip_ws(i + 1)
        i = parse_term(i, sign)
    return Polynomial(acc)


def serialize(f: Polynomial) -> str:
    """Render canonical text, largest monomial first; zero prints as "0".

    parse(serialize(f)) == f for every polynomial f.
    """
    if f.is_zero:
        return "0"
    parts = []
    for alpha, coeff in f.sorted_terms():
        mag = abs(coeff)
        factors = str(alpha) if alpha else ""
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{mag} {factors}"
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)
