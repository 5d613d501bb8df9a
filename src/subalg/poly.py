"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in ``n`` variables is stored sparsely as a mapping from
exponent tuples to nonzero coefficients, an ``int`` when integral (cheap
arithmetic) and a ``Fraction`` otherwise, e.g. in two variables
``x1^2*x2 - 3/2`` becomes ``{(2, 1): 1, (0, 0): Fraction(-3, 2)}``.  Every
division of two coefficients goes through ``Fraction``, so all arithmetic
is exact; floats never appear.

Monomials, points and multisets of partial derivatives all share the
same concrete shape (a length-``n`` tuple), which keeps the helper
functions below short.  Term iteration is always sorted by descending
graded reverse lexicographic order so equal polynomials print and hash
their way through the test suite identically no matter how they were
built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from operator import neg
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    InvalidDirection,
    PolyParseError,
    ZeroLeadingTerm,
)

Monomial = tuple[int, ...]
Point = tuple[Fraction, ...]
Coeff = int | Fraction
Partials = tuple[int, ...]

ORDER_NAMES = ("lex", "deglex", "degrevlex")


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _as_int(x: int | Fraction) -> int | Fraction:
    """``x`` as an ``int`` when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


def as_point(values: Sequence, n: int | None = None) -> Point:
    pt = tuple(as_fraction(v) for v in values)
    if n is not None and len(pt) != n:
        raise DimensionMismatch(f"expected a point in {n} variables, got {len(pt)}")
    return pt


class TermOrder:
    """A monomial order on exponent tuples: lex, deglex or degrevlex.

    Variables are ordered x1 > x2 > ... > xn.  ``key`` returns a tuple
    that sorts monomials ascending in the order, so ``max(monos,
    key=order.key)`` picks the leading monomial.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in ORDER_NAMES:
            raise ValueError(f"unknown term order {name!r}; expected one of {ORDER_NAMES}")
        self.name = name

    def key(self, mono: Monomial):
        if self.name == "lex":
            return mono
        deg = sum(mono)
        if self.name == "deglex":
            return (deg, mono)
        # degrevlex: higher degree first, ties broken by the *smallest*
        # exponent on the last variable where they differ.
        return (deg, tuple(map(neg, reversed(mono))))

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"TermOrder({self.name!r})"


DEGREVLEX = TermOrder("degrevlex")


def _canonical_sort_key(mono: Monomial):
    return DEGREVLEX.key(mono)


class Poly:
    """An immutable sparse polynomial; the constructor stores integral coefficients as ``int``."""

    __slots__ = ("n", "_terms", "_sorted")

    def __init__(self, n: int, terms: dict[Monomial, Coeff] | None = None):
        self.n = n
        clean: dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != n:
                    raise DimensionMismatch(
                        f"monomial {mono} does not fit a polynomial in {n} variables"
                    )
                if coeff:
                    if type(coeff) is Fraction and coeff.denominator == 1:
                        coeff = coeff.numerator
                    clean[mono] = coeff
        self._terms = clean
        self._sorted: list[tuple[Monomial, Coeff]] | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> Poly:
        return cls(n)

    @classmethod
    def constant(cls, n: int, value) -> Poly:
        return cls(n, {(0,) * n: as_fraction(value)})

    @classmethod
    def variable(cls, n: int, index: int) -> Poly:
        """The variable x<index>, 1-based."""
        if not 1 <= index <= n:
            raise DimensionMismatch(f"variable index {index} out of range 1..{n}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(n))
        return cls(n, {mono: 1})

    @classmethod
    def monomial(cls, mono: Monomial, coeff=1) -> Poly:
        return cls(len(mono), {tuple(mono): as_fraction(coeff)})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._terms)

    def coeff(self, mono: Monomial) -> Coeff:
        return self._terms.get(tuple(mono), 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms sorted by descending degrevlex, independent of any active order."""
        if self._sorted is None:
            self._sorted = sorted(
                self._terms.items(), key=lambda kv: _canonical_sort_key(kv[0]), reverse=True
            )
        return self._sorted

    def items(self) -> Iterable[tuple[Monomial, Coeff]]:
        """Terms in storage order: cheaper than ``terms()`` where order is moot."""
        return self._terms.items()

    def monomials(self) -> Iterator[Monomial]:
        for mono, _ in self.terms():
            yield mono

    def leading(self, order: TermOrder) -> tuple[Monomial, Coeff]:
        """Leading (monomial, coefficient) under ``order``."""
        if not self._terms:
            raise ZeroLeadingTerm("the zero polynomial has no leading term")
        mono = max(self._terms, key=order.key)
        return mono, self._terms[mono]

    def leading_monomial(self, order: TermOrder) -> Monomial:
        return self.leading(order)[0]

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: Poly):
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot combine polynomials in {self.n} and {other.n} variables"
            )

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return Poly(self.n, terms)

    def __sub__(self, other: Poly) -> Poly:
        self._check(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, 0) - coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return Poly(self.n, terms)

    def __neg__(self) -> Poly:
        return Poly(self.n, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> Poly:
        if isinstance(other, Poly):
            self._check(other)
            terms: dict[Monomial, Coeff] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    new = terms.get(mono, 0) + c1 * c2
                    if new:
                        terms[mono] = new
                    else:
                        terms.pop(mono, None)
            return Poly(self.n, terms)
        scalar = _as_int(as_fraction(other))
        return Poly(self.n, {m: c * scalar for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.constant(self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self, order: TermOrder) -> Poly:
        _, lc = self.leading(order)
        if lc == 1:
            return self
        return self * Fraction(1, lc)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity caching is done by callers

    # -- calculus and substitution ------------------------------------

    def evaluate(self, point: Sequence) -> Coeff:
        pt = tuple(map(_as_int, as_point(point, self.n)))
        total = 0
        for mono, coeff in self._terms.items():
            value = coeff
            for base, exp in zip(pt, mono):
                if exp:
                    value *= base**exp
            total += value
        return total

    def derive(self, partials: Sequence[int]) -> Poly:
        """Mixed partial derivative; ``partials[i]`` differentiations in x<i+1>."""
        counts = tuple(partials)
        if len(counts) != self.n:
            raise DimensionMismatch("partial multiset does not match variable count")
        terms: dict[Monomial, Coeff] = {}
        for mono, coeff in self._terms.items():
            factor = 1
            new = list(mono)
            ok = True
            for i, k in enumerate(counts):
                if k == 0:
                    continue
                if mono[i] < k:
                    ok = False
                    break
                # falling factorial e * (e-1) * ... * (e-k+1)
                for step in range(k):
                    factor *= mono[i] - step
                new[i] = mono[i] - k
            if not ok or factor == 0:
                continue
            key = tuple(new)
            value = terms.get(key, 0) + coeff * factor
            if value:
                terms[key] = value
            else:
                terms.pop(key, None)
        return Poly(self.n, terms)

    def directional(self, direction: Sequence) -> Poly:
        """First-order derivative along ``direction`` (a nonzero vector)."""
        vec = as_point(direction, self.n)
        if all(v == 0 for v in vec):
            raise InvalidDirection("direction vector must be nonzero")
        out = Poly.zero(self.n)
        unit = [0] * self.n
        for i, weight in enumerate(vec):
            if weight == 0:
                continue
            unit[i] = 1
            out = out + self.derive(tuple(unit)) * weight
            unit[i] = 0
        return out

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# -- monomial enumeration ---------------------------------------------


def monomials_of_degree(n: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples in n variables with total degree exactly ``degree``."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(n - 1, degree - first):
            yield (first,) + rest


def monomials_up_to(n: int, degree: int) -> Iterator[Monomial]:
    for d in range(degree + 1):
        yield from monomials_of_degree(n, d)


def count_monomials_up_to(n: int, degree: int) -> int:
    return comb(n + degree, n)


# -- partial-derivative multisets -------------------------------------


def partials_from_indices(indices: Iterable[int], n: int) -> Partials:
    """Turn a list of 1-based variable indices (with repetition) into counts."""
    counts = [0] * n
    for i in indices:
        if not 1 <= i <= n:
            raise DimensionMismatch(f"variable index {i} out of range 1..{n}")
        counts[i - 1] += 1
    return tuple(counts)


def indices_from_partials(counts: Partials) -> list[int]:
    out: list[int] = []
    for i, k in enumerate(counts):
        out.extend([i + 1] * k)
    return out


# -- parsing ----------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<var>[xy]\d+)|(?P<op>[*^+-]))"
)


def parse_poly(text: str, n: int) -> Poly:
    """Parse the human syntax, e.g. ``x1^2*x2 - 2*x1 + 3/2``.

    ``y<i>`` is accepted as an alias for ``x<i>``.  Whitespace is
    insignificant.  Raises PolyParseError with the offset of the first
    bad token.
    """
    pos = 0
    tokens: list[tuple[str, str, int]] = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            where = pos + len(rest) - len(stripped)
            raise PolyParseError(f"unexpected character {stripped[0]!r}", where)
        for kind in ("number", "var", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value, match.start(kind)))
                break
        pos = match.end()

    terms: dict[Monomial, Coeff] = {}
    i = 0
    first_term = True
    while i < len(tokens):
        sign = 1
        # leading sign(s) of the term
        saw_sign = False
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if i == len(tokens):
            if saw_sign:
                raise PolyParseError("dangling sign", tokens[-1][2])
            break
        if not first_term and not saw_sign:
            raise PolyParseError("expected '+' or '-' between terms", tokens[i][2])
        first_term = False

        coeff = sign
        exponents = [0] * n
        expect_factor = True
        saw_factor = False
        while i < len(tokens):
            kind, value, offset = tokens[i]
            if kind == "op" and value == "*":
                if expect_factor:
                    raise PolyParseError("misplaced '*'", offset)
                expect_factor = True
                i += 1
                continue
            if kind == "op" and value in "+-":
                break
            if not expect_factor:
                break
            if kind == "number":
                try:
                    coeff *= Fraction(value.replace(" ", ""))
                except ZeroDivisionError:
                    raise PolyParseError("zero denominator", offset) from None
                i += 1
            elif kind == "var":
                index = int(value[1:])
                if not 1 <= index <= n:
                    raise PolyParseError(
                        f"variable index {index} out of range 1..{n}", offset
                    )
                exp = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "number" or "/" in tokens[i][1]:
                        where = tokens[i - 1][2]
                        raise PolyParseError("exponent must be a nonnegative integer", where)
                    exp = int(tokens[i][1])
                    i += 1
                exponents[index - 1] += exp
            else:
                raise PolyParseError(f"unexpected token {value!r}", offset)
            expect_factor = False
            saw_factor = True
        if not saw_factor:
            raise PolyParseError("empty term", tokens[i][2] if i < len(tokens) else len(text))
        mono = tuple(exponents)
        total = terms.get(mono, 0) + coeff
        if total:
            terms[mono] = total
        else:
            terms.pop(mono, None)
    return Poly(n, terms)


def _format_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Render with terms in descending degrevlex; inverse of parse_poly."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for mono, coeff in p.terms():
        mono_text = _format_monomial(mono)
        magnitude = -coeff if coeff < 0 else coeff
        if not mono_text:
            body = str(magnitude)
        elif magnitude == 1:
            body = mono_text
        else:
            body = f"{magnitude}*{mono_text}"
        if not chunks:
            chunks.append(f"-{body}" if coeff < 0 else body)
        else:
            chunks.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(chunks)
