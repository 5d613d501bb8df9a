"""Linear functionals built from derivative evaluations at rational points.

A functional is a finite sum of atoms ``c * (f -> f^(d)(p))`` where d is
a multiset of partial derivatives (as per-variable counts) and p is a
point.  Character differences ``f -> c*(f(a) - f(b))`` and point
derivations are both of this shape, which is why one class covers every
condition the rest of the package works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import Iterable, Sequence

from .errors import DegenerateCondition, DimensionMismatch
from .jets import JetSpace
from .linalg import Echelon, SparseRow, integral, solve
from .poly import Partials, Point, Poly, _as_int, as_fraction, as_point


@dataclass(frozen=True)
class DerivativeAtom:
    """One weighted derivative evaluation: coeff * f^(partials)(point)."""

    coeff: Fraction
    point: Point
    partials: Partials

    @property
    def order(self) -> int:
        return sum(self.partials)

    def apply(self, f: Poly) -> Fraction:
        """coeff * d^partials f(point), read straight from the terms of ``f``.

        A term c x^m contributes c * prod_i m_i!/(m_i - a_i)! * p_i^(m_i - a_i)
        when m >= a, and nothing otherwise.  The terms are summed on
        ``int`` where ``f``, the point and the weight are integral
        (``_apply_atoms``), and the sum becomes a Fraction once.
        """
        if len(self.partials) != f.n or len(self.point) != f.n:
            raise DimensionMismatch("polynomial and atom sizes differ")
        return Fraction(_apply_atoms((self,), f))


def _apply_atoms(atoms: Iterable[DerivativeAtom], f: Poly) -> int | Fraction:
    """The sum of the atoms' values on ``f``, on ``int`` where the data are integral.

    Coefficients and coordinates are read through ``_as_int``, so a sum
    over integral terms, points and weights never leaves ``int``.
    """
    total = 0
    terms = f.items()
    for atom in atoms:
        point = tuple(map(_as_int, atom.point))
        partials = atom.partials
        part = 0
        for mono, value in terms:
            for e, k, x in zip(mono, partials, point):
                if e < k or (e > k and not x):
                    break
                if k:
                    value *= perm(e, k)
                if e > k:
                    value *= x ** (e - k)
            else:
                part += value
        if part:
            total += _as_int(atom.coeff) * part
    return total


def _atom_sort_key(atom: DerivativeAtom):
    return (atom.point, atom.order, atom.partials)


class LinearFunctional:
    """A finite Fraction-combination of derivative evaluations.

    Atoms are merged, zero atoms dropped, and the remainder sorted by
    point then derivative order, so two functionals built differently
    compare equal whenever they are equal term by term.
    """

    __slots__ = ("n", "atoms")

    def __init__(self, n: int, atoms: Sequence[DerivativeAtom] = ()):
        merged: dict[tuple[Point, Partials], Fraction] = {}
        for atom in atoms:
            if len(atom.point) != n or len(atom.partials) != n:
                raise DimensionMismatch("atom does not fit a functional in "
                                        f"{n} variables")
            key = (atom.point, atom.partials)
            merged[key] = merged.get(key, Fraction(0)) + atom.coeff
        clean = [
            DerivativeAtom(coeff, point, partials)
            for (point, partials), coeff in merged.items()
            if coeff
        ]
        clean.sort(key=_atom_sort_key)
        self.n = n
        self.atoms = tuple(clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> LinearFunctional:
        return cls(n)

    @classmethod
    def evaluation(cls, point: Sequence, coeff=1) -> LinearFunctional:
        pt = as_point(point)
        n = len(pt)
        return cls(n, [DerivativeAtom(as_fraction(coeff), pt, (0,) * n)])

    @classmethod
    def partial_at(cls, point: Sequence, partials: Sequence[int], coeff=1) -> LinearFunctional:
        pt = as_point(point)
        return cls(len(pt), [DerivativeAtom(as_fraction(coeff), pt, tuple(partials))])

    @classmethod
    def directional_at(cls, point: Sequence, direction: Sequence, coeff=1) -> LinearFunctional:
        """First-order derivative along ``direction``, split into pure partials."""
        pt = as_point(point)
        vec = as_point(direction)
        if len(vec) != len(pt):
            raise DimensionMismatch("direction and point sizes differ")
        if all(v == 0 for v in vec):
            raise DegenerateCondition("direction vector must be nonzero")
        n = len(pt)
        c = as_fraction(coeff)
        atoms = []
        for i, weight in enumerate(vec):
            if weight == 0:
                continue
            unit = tuple(1 if j == i else 0 for j in range(n))
            atoms.append(DerivativeAtom(c * weight, pt, unit))
        return cls(n, atoms)

    # -- algebra ------------------------------------------------------

    def apply(self, f: Poly) -> Fraction:
        if f.n != self.n:
            raise DimensionMismatch("polynomial and functional sizes differ")
        return Fraction(_apply_atoms(self.atoms, f))

    def __add__(self, other: LinearFunctional) -> LinearFunctional:
        if self.n != other.n:
            raise DimensionMismatch("cannot add functionals of different sizes")
        return LinearFunctional(self.n, self.atoms + other.atoms)

    def __sub__(self, other: LinearFunctional) -> LinearFunctional:
        return self + other.scale(-1)

    def scale(self, factor) -> LinearFunctional:
        c = as_fraction(factor)
        return LinearFunctional(
            self.n,
            [DerivativeAtom(a.coeff * c, a.point, a.partials) for a in self.atoms],
        )

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.atoms

    @property
    def max_order(self) -> int:
        """Highest derivative order among atoms; 0 for the zero functional."""
        return max((a.order for a in self.atoms), default=0)

    def points(self) -> tuple[Point, ...]:
        seen: dict[Point, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.point, None)
        return tuple(sorted(seen))

    def __eq__(self, other):
        if not isinstance(other, LinearFunctional):
            return NotImplemented
        return self.n == other.n and self.atoms == other.atoms

    def __hash__(self):
        return hash((self.n, self.atoms))

    def __repr__(self):
        pieces = []
        for a in self.atoms:
            pt = ",".join(str(c) for c in a.point)
            d = "".join(f"d{i + 1}^{k}" if k > 1 else f"d{i + 1}"
                        for i, k in enumerate(a.partials) if k)
            d = d or "eval"
            pieces.append(f"{a.coeff}*{d}@({pt})")
        return "Functional[" + (" + ".join(pieces) or "0") + "]"


def character_difference(alpha: Sequence, beta: Sequence, coeff=1) -> LinearFunctional:
    """The functional f -> coeff * (f(alpha) - f(beta)), alpha != beta."""
    a = as_point(alpha)
    b = as_point(beta)
    if len(a) != len(b):
        raise DimensionMismatch("points of a character difference differ in size")
    if a == b:
        raise DegenerateCondition("character difference needs two distinct points")
    c = as_fraction(coeff)
    if c == 0:
        raise DegenerateCondition("character difference needs a nonzero scale")
    n = len(a)
    unit = (0,) * n
    return LinearFunctional(n, [DerivativeAtom(c, a, unit), DerivativeAtom(-c, b, unit)])


@dataclass(frozen=True)
class ConditionKind:
    """Declared shape of a condition: the (alpha, beta) of its Leibniz rule.

    Character differences have alpha != beta; derivations have beta ==
    alpha.
    """

    name: str  # "chardiff" or "derivation"
    alpha: Point
    beta: Point

    @classmethod
    def chardiff(cls, alpha: Sequence, beta: Sequence) -> ConditionKind:
        return cls("chardiff", as_point(alpha), as_point(beta))

    @classmethod
    def derivation(cls, point: Sequence) -> ConditionKind:
        pt = as_point(point)
        return cls("derivation", pt, pt)


@dataclass(frozen=True)
class Condition:
    """A functional together with its declared kind."""

    functional: LinearFunctional
    kind: ConditionKind


def leibniz_on_jets(
    space: JetSpace,
    functional: LinearFunctional,
    alpha: Point,
    beta: Point,
    jets: Iterable[SparseRow],
) -> bool:
    """Test L(fg) = f(alpha) L(g) + g(beta) L(f) on an echelon basis of jets.

    ``jets`` spans the jets in ``space`` of the algebra being tested, and
    ``space`` holds the functional's atoms, alpha and beta.  The test
    itself is ``leibniz_on_covectors``.
    """
    # The defect is linear in L and bilinear in the jets, so integer
    # multiples of both decide it.
    covector = integral(space.functional_covector(functional))
    ev_a, ev_b = space.evaluation_covector(alpha), space.evaluation_covector(beta)
    return leibniz_on_covectors(space, covector, ev_a, ev_b, jets)


def leibniz_on_covectors(
    space: JetSpace,
    covector: SparseRow,
    ev_alpha: SparseRow,
    ev_beta: SparseRow,
    jets: Iterable[SparseRow],
) -> bool:
    """``leibniz_on_jets`` for L's covector and alpha's and beta's
    evaluation covectors in ``space``, so that a caller testing one
    functional on many spans builds them once.

    L(fg) is exact up to the space's cap, and it is read without forming
    fg: one adjoint covector g -> L(fg) per basis jet f, paired with the
    jets.  The defect L(fg) - f(alpha) L(g) - g(beta) L(f) is bilinear in
    the jets of f and g, so it is tested in both orders on the pairs of
    the basis only: r adjoints and r(r+1)/2 pairings for jet rank r.
    """
    jets = list(jets)
    values = [space.pair(covector, u) for u in jets]
    at_alpha = [space.pair(ev_alpha, u) for u in jets]
    at_beta = at_alpha if ev_beta == ev_alpha else [space.pair(ev_beta, u) for u in jets]
    for i, u in enumerate(jets):
        adjoint = space.adjoint(covector, u)
        for j in range(i, len(jets)):
            product = space.pair(adjoint, jets[j])
            if product != at_alpha[i] * values[j] + at_beta[j] * values[i]:
                return False
            if product != at_alpha[j] * values[i] + at_beta[i] * values[j]:
                return False
    return True


def check_leibniz(
    functional: LinearFunctional,
    alpha: Sequence,
    beta: Sequence,
    span: Sequence[Poly],
) -> bool:
    """Test L(fg) = f(alpha) L(g) + g(beta) L(f) for all f, g in span(span).

    The verdict is about the linear span of ``span`` only.  Each
    element's jet (at the functional's points, alpha and beta, up to the
    functional's order) is taken once and reduced to an echelon basis,
    on which ``leibniz_on_jets`` runs the pair test, however long the
    span.  A filtration's build validates its levels on their jets
    directly, without a span.
    """
    n = functional.n
    a = as_point(alpha, n)
    b = as_point(beta, n)
    space = JetSpace(sorted(set(functional.points()) | {a, b}), functional.max_order, n)
    basis = Echelon()
    for f in span:
        basis.add(space.jet(f))
    return leibniz_on_jets(space, functional, a, b, basis.pivot_rows.values())


def express_in_span(
    functional: LinearFunctional,
    basis: Sequence[LinearFunctional],
    test_space: Sequence[Poly],
) -> list[Fraction] | None:
    """Coefficients c with L = sum c_i basis_i as functions on span(test_space).

    Returns None when no exact combination matches on the test space.
    """
    rows = [{i: b.apply(t) for i, b in enumerate(basis)} for t in test_space]
    rhs = [functional.apply(t) for t in test_space]
    solution = solve(rows, rhs, len(basis))
    if solution is None:
        return None
    return [solution.get(i, Fraction(0)) for i in range(len(basis))]
