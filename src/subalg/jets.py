"""Truncated derivative tables at finite point sets.

A jet records the raw derivative values d^a f(p) for every base point p
and every partial multiset a up to a fixed order cap.  Two facts make
jets useful here.  First, any functional built from derivative atoms at
the base points factors through the jet, provided its atoms stay within
the cap.  Second, jets multiply: the Leibniz rule expresses d^a (fg)(p)
as a binomial convolution of lower derivatives of f and g at the same
point, so the (truncated) jet of a product is determined by the jets of
the factors.

Jets are stored as sparse rows indexed by a fixed coordinate
enumeration, which keeps the linear algebra exact and deterministic.
Integral point coordinates are read as ``int`` and ``Poly`` stores
integral coefficients as ``int``, so the jet of a polynomial with integer
coefficients at integral points has ``int`` values, and products of such jets stay on
``int``; Fractions enter only where a coefficient or a coordinate has a
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import JetSpaceTooLarge
from .linalg import Echelon, SparseRow
from .poly import (
    Monomial,
    Point,
    Poly,
    _as_int,
    as_point,
    monomials_up_to,
)

if TYPE_CHECKING:
    from .functionals import LinearFunctional

# Most coordinates a jet space may have.  Condition orders set the caps:
# a build validates in one space over every condition point at the largest
# order, derivation and cotangent spaces take twice it plus one.  Those two
# multiply ideal jets pairwise, but only the pairs whose lowest orders at
# some point sum within the cap, so an ideal that starts above half the cap
# forms no product at all.  Larger spaces are refused before any work starts.
MAX_JET_DIM = 22_000

# Per row, its lowest order at each point; and the least of those.
OrderTable = tuple[list[tuple[int, ...]], list[int]]


def _falling_powers(e: int, x: int | Fraction, cap: int) -> list[tuple[int, int | Fraction]]:
    """(k, d^k/dx^k of x^e at x) for k <= min(e, cap), nonzero values only."""
    out = []
    falling = 1
    for k in range(min(e, cap) + 1):
        if x or k == e:
            out.append((k, falling * x ** (e - k)))
        falling *= e - k
    return out


def _binomial_product(a: Monomial, b: Monomial) -> int:
    out = 1
    for x, y in zip(a, b):
        out *= comb(x + y, y)
    return out


class JetSpace:
    """Derivative coordinates d^a f(p), |a| <= cap, over an ordered point list."""

    __slots__ = (
        "n", "points", "cap", "coords", "_index", "_partials", "_orders", "_ends",
        "_int_points", "_conv", "_diff",
    )

    def __init__(self, points, cap: int, n: int):
        self.n = n
        self.points: tuple[Point, ...] = tuple(as_point(p, n) for p in points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("jet base points must be pairwise distinct")
        if not self.points:
            raise ValueError("a jet space needs at least one base point")
        size = len(self.points) * comb(n + cap, n)
        if size > MAX_JET_DIM:
            raise JetSpaceTooLarge(f"refusing a jet space of {size} coordinates "
                                   f"(order cap {cap}); the limit is {MAX_JET_DIM}")
        self.cap = cap
        partials = sorted(monomials_up_to(n, cap), key=lambda m: (sum(m), m))
        self._partials = partials
        self._orders = tuple(sum(a) for a in partials)
        # _ends[k]: how many partials have order <= k, the first ones listed.
        self._ends = tuple(comb(n + k, n) for k in range(cap + 1))
        self.coords: tuple[tuple[int, Monomial], ...] = tuple(
            (pi, a) for pi in range(len(self.points)) for a in partials
        )
        self._index = {c: i for i, c in enumerate(self.coords)}
        self._int_points = tuple(tuple(map(_as_int, p)) for p in self.points)
        # i * len(partials) + j -> (index of a_i + a_j, binomial weight),
        # filled as products meet the pairs; _diff likewise for a_j - a_i,
        # or None unless a_i <= a_j, as adjoints meet them.
        self._conv: dict[int, tuple[int, int]] = {}
        self._diff: dict[int, tuple[int, int] | None] = {}

    @property
    def dim(self) -> int:
        return len(self.coords)

    def point_index(self, point) -> int:
        return self.points.index(as_point(point, self.n))

    def index(self, point_index: int, partials: Monomial) -> int:
        return self._index[(point_index, partials)]

    def jet(self, f: Poly) -> SparseRow:
        """Raw derivative values of ``f``, read straight from its terms.

        d^a f(p) = sum over terms c x^m with m >= a of
        c * prod_i m_i!/(m_i - a_i)! * p_i^(m_i - a_i); only the partials
        a within the cap are formed.
        """
        out: SparseRow = {}
        for pi, point in enumerate(self._int_points):
            values: dict[Monomial, Fraction] = {}
            for mono, coeff in f.terms():
                # (a, |a|, value) over the variables seen so far
                partial = [((), 0, coeff)]
                for e, x in zip(mono, point):
                    factors = _falling_powers(e, x, self.cap)
                    partial = [
                        (a + (k,), order + k, value * w)
                        for a, order, value in partial
                        for k, w in factors
                        if order + k <= self.cap
                    ]
                for a, _, value in partial:
                    values[a] = values.get(a, 0) + value
            for a, value in values.items():
                if value:
                    out[self._index[(pi, a)]] = value
        return out

    def shifted_jet(self, f: Poly, point) -> SparseRow:
        """jet(f − f(point)) for a base point, without forming the difference.

        A constant's jet is its value at every point's order-0 coordinate,
        the first of the point's coordinates.
        """
        out = self.jet(f)
        size = len(self._partials)
        value = out.get(self.point_index(point) * size, 0)
        if value:
            for c in range(0, self.dim, size):
                shifted = out.get(c, 0) - value
                if shifted:
                    out[c] = shifted
                else:
                    del out[c]
        return out

    def lowest_orders(self, u: SparseRow) -> tuple[int, ...]:
        """Per base point, the least derivative order among u's coordinates there.

        At each point a product's coordinates have order at least the sum
        of its factors' lowest orders there (see ``partners``).  A point
        where ``u`` has no coordinate reads cap + 1.
        """
        size, orders = len(self._partials), self._orders
        out = [self.cap + 1] * len(self.points)
        for c in u:
            pi, i = divmod(c, size)
            if orders[i] < out[pi]:
                out[pi] = orders[i]
        return tuple(out)

    def order_table(self, rows: Sequence[SparseRow]) -> OrderTable:
        """Each row's ``lowest_orders``, and the least of them, for ``partners``."""
        lows = [self.lowest_orders(u) for u in rows]
        return lows, [min(low) for low in lows]

    def graded_basis(self, rows: Sequence[SparseRow]) -> list[dict[int, int]]:
        """An integer echelon basis of the rows' span, pivots lowest order first.

        The echelon runs over the coordinates listed by (order, point,
        partial), so each basis row has no coordinate of lower order than
        its pivot at any point, and the rows come in pivot order.  Against
        the rows themselves, whose lowest orders may all be small, that
        leaves ``partners`` few rows of low order to pair.  The basis does
        not depend on the rows' order; sparsest first keeps the fill low.
        """
        size, orders = len(self._partials), self._orders
        graded = sorted(range(self.dim), key=lambda c: (orders[c % size], c // size, c % size))
        position = {c: g for g, c in enumerate(graded)}
        echelon = Echelon()
        for u in sorted(rows, key=len):
            echelon.add({position[c]: v for c, v in u.items()})
        return [
            {graded[g]: v for g, v in echelon.pivot_rows[p].items()}
            for p in echelon.pivots()
        ]

    def partners(self, low: tuple[int, ...], table: OrderTable, start: int = 0) -> Iterator[int]:
        """The j >= start where a row of lowest orders ``low`` and row j of
        ``table`` can have a nonzero truncated product: their lowest orders
        sum within the cap at some point.  The other pairs' products are 0."""
        lows, least = table
        cap = self.cap
        room = cap - min(low)  # a cheap first test on the least orders
        for j in range(start, len(lows)):
            if least[j] <= room and min(map(add, low, lows[j])) <= cap:
                yield j

    def product(self, u: SparseRow, v: SparseRow) -> SparseRow:
        """Jet of a product from jets of the factors (per-point convolution).

        Partials are indexed by order, so each point's right-hand entries
        are walked in index order and the walk stops where the two orders
        sum above the cap.
        """
        size, orders, ends, cap = len(self._partials), self._orders, self._ends, self.cap
        by_point_u: dict[int, list[tuple[int, int | Fraction]]] = {}
        for c, val in u.items():
            pi, i = divmod(c, size)
            by_point_u.setdefault(pi, []).append((i, val))
        by_point_v: dict[int, list[tuple[int, int | Fraction]]] = {}
        for c, val in v.items():
            pi, j = divmod(c, size)
            by_point_v.setdefault(pi, []).append((j, val))
        conv = self._conv
        out: SparseRow = {}
        for pi, left in by_point_u.items():
            right = by_point_v.get(pi)
            if right is None:
                continue
            right.sort()
            base = pi * size
            for i, av in left:
                row, stop = i * size, ends[cap - orders[i]]
                for j, bv in right:
                    if j >= stop:
                        break
                    key = row + j
                    try:
                        k, weight = conv[key]
                    except KeyError:
                        k, weight = conv[key] = self._convolution(i, j)
                    c = base + k
                    out[c] = out.get(c, 0) + weight * av * bv
        return {c: value for c, value in out.items() if value}

    def pair_products(self, rows: Sequence[SparseRow]) -> Iterator[SparseRow]:
        """product(rows[i], rows[j]) for i <= j, over ``partners`` only."""
        table = self.order_table(rows)
        for i, u in enumerate(rows):
            for j in self.partners(table[0][i], table, i):
                yield self.product(u, rows[j])

    def _convolution(self, i: int, j: int) -> tuple[int, int]:
        """(index of a_i + a_j, its binomial weight), for |a_i| + |a_j| <= cap."""
        a, b = self._partials[i], self._partials[j]
        return self._index[(0, tuple(x + y for x, y in zip(a, b)))], _binomial_product(a, b)

    def adjoint(self, covector: SparseRow, u: SparseRow) -> SparseRow:
        """The covector of v -> pair(covector, product(u, v)), without a product.

        At each point, l(u·v) = sum_k l_k sum_{a_i + a_j = a_k}
        C(a_i + a_j, a_j) u_i v_j, so v_j's coefficient gathers one term
        per entry k of the covector and entry i of u at the same point
        with a_i <= a_k: |u|·|covector| terms at most.
        """
        size = len(self._partials)
        by_point: dict[int, list[tuple[int, int | Fraction]]] = {}
        for c, val in covector.items():
            pi, k = divmod(c, size)
            by_point.setdefault(pi, []).append((k, val))
        diff = self._diff
        out: SparseRow = {}
        for c, uv in u.items():
            pi, i = divmod(c, size)
            entries = by_point.get(pi)
            if entries is None:
                continue
            base, row = pi * size, i * size
            for k, lv in entries:
                key = row + k
                try:
                    hit = diff[key]
                except KeyError:
                    hit = diff[key] = self._difference(i, k)
                if hit is not None:
                    j, weight = hit
                    out[base + j] = out.get(base + j, 0) + weight * lv * uv
        return {c: value for c, value in out.items() if value}

    def _difference(self, i: int, k: int) -> tuple[int, int] | None:
        """(index of a_k - a_i, the weight of a_i times it), or None unless a_i <= a_k."""
        a, s = self._partials[i], self._partials[k]
        if any(x > y for x, y in zip(a, s)):
            return None
        b = tuple(y - x for x, y in zip(a, s))
        return self._index[(0, b)], _binomial_product(a, b)

    def functional_covector(
        self, functional: LinearFunctional, *, restrict: bool = False
    ) -> SparseRow:
        """The functional as a row over jet coordinates.

        Every atom must sit at a base point with order within the cap,
        so that applying the functional to f equals pairing the row
        with jet(f).  With ``restrict``, atoms at other points are
        dropped instead: the row is the functional's part at the base.
        """
        out: SparseRow = {}
        for atom in functional.atoms:
            try:
                pi = self.points.index(atom.point)
            except ValueError:
                if restrict:
                    continue
                raise ValueError("functional atom at a point outside the jet base")
            if atom.order > self.cap:
                raise ValueError("functional atom order exceeds the jet cap")
            c = self._index[(pi, atom.partials)]
            value = out.get(c, Fraction(0)) + atom.coeff
            if value:
                out[c] = value
            else:
                out.pop(c, None)
        return out

    def evaluation_covector(self, point) -> SparseRow:
        pi = self.point_index(point)
        return {self._index[(pi, (0,) * self.n)]: 1}

    def pair(self, covector: SparseRow, vector: SparseRow) -> int | Fraction:
        if len(covector) > len(vector):
            covector, vector = vector, covector
        total = 0
        for c, val in covector.items():
            other = vector.get(c)
            if other is not None:
                total += val * other
        return total
