"""Point-set algebras with prescribed vanishing derivatives, two ways.

Fix a finite set S of rational points and an order bound N.  Two
constructions describe the same subalgebra of K[x1..xn]:

* the direct sum of the constants with the ideal generated by all
  products picking one degree-N monomial in shifted variables per point
  of S, and
* the kernel of a condition filtration: character differences gluing
  the values on S, followed by every pure derivative of order below N
  at each point.

The verifiers here certify that agreement instance by instance, along
with the expected derivation-space dimensions, using exact linear
algebra: membership in the algebra is read off the residue functionals
of its certified missing set, computed on integers by a recurrence on
the final basis's generators (``sagbi._Residues``), so no canonical
element is formed.  Results come back as reports of named checks rather
than booleans so a caller can show which side failed and why.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Sequence

from .errors import ContainmentTooLarge, InvariantError, QnSpecTooLarge
from .functionals import (
    Condition,
    ConditionKind,
    LinearFunctional,
    character_difference,
    leibniz_on_covectors,
)
from .jets import JetSpace
from .linalg import Echelon, SparseRow, integral
from .poly import (
    DEGREVLEX,
    Monomial,
    Point,
    Poly,
    TermOrder,
    as_point,
    count_monomials_up_to,
    format_poly,
    monomials_of_degree,
    monomials_up_to,
)
from .sagbi import (
    CodimReport,
    ConditionFiltration,
    SagbiBasis,
    _combine,
    _heads_up_to,
    _lowest_terms,
    _Residues,
    build_from_conditions,
)
from .spectrum import cotangent_dimension, derivation_space, maximal_ideal_jets, spectrum

PointSet = tuple[Point, ...]


def point_set(points: Sequence[Sequence], n: int | None = None) -> PointSet:
    """Freeze a sequence of pairwise distinct points of a common length."""
    frozen: list[Point] = []
    for values in points:
        if n is None:
            n = len(values)
        frozen.append(as_point(values, n))
    if not frozen:
        raise ValueError("a point set needs at least one point")
    if len(set(frozen)) != len(frozen):
        raise ValueError("points must be pairwise distinct")
    return tuple(frozen)


def p_n(alpha: Sequence, level: int) -> list[Poly]:
    """All monomials of total degree ``level`` in the variables shifted by ``alpha``.

    There are C(n + level - 1, level) of them, one per exponent vector.
    """
    if level < 1:
        raise ValueError("the degree level must be at least 1")
    point = as_point(alpha, len(alpha))
    n = len(point)
    shifted = [
        Poly.variable(n, i + 1) - Poly.constant(n, point[i]) for i in range(n)
    ]
    out = []
    for mono in monomials_of_degree(n, level):
        product = Poly.constant(n, 1)
        for i, exponent in enumerate(mono):
            if exponent:
                product = product * shifted[i] ** exponent
        out.append(product)
    return out


def pi_n(points: Sequence[Sequence], level: int) -> list[Poly]:
    """All products choosing one degree-``level`` shifted monomial per point.

    The result has C(n + level - 1, level) ** len(points) entries, each of
    total degree ``level * len(points)``, enumerated with the first point's
    factor varying slowest.  A family of more than MAX_CONTAINMENT_ELEMENTS
    entries is refused before any product is formed.
    """
    if level < 1:
        raise ValueError("the degree level must be at least 1")
    pts = point_set(points)
    count = comb(len(pts[0]) + level - 1, level) ** len(pts)
    if count > MAX_CONTAINMENT_ELEMENTS:
        raise ContainmentTooLarge(
            f"refusing a product family of {count} elements (level {level}); "
            f"the limit is {MAX_CONTAINMENT_ELEMENTS}"
        )
    families = [p_n(alpha, level) for alpha in pts]
    out = []
    for combo in itertools.product(*families):
        product = combo[0]
        for factor in combo[1:]:
            product = product * factor
        out.append(product)
    return out


# -- the condition-side construction ----------------------------------


@dataclass(frozen=True)
class QnSpec:
    """A point set with its derived, filtration-ordered condition list."""

    points: PointSet
    level: int
    conditions: tuple[Condition, ...]


# Most conditions one spec may carry; every condition is one filtration
# level.  The benchmark workloads build at most 11 and the tests at most
# 71 (two plane points at level 8).  Specs of 69 to 110 conditions built
# in 0.2 to 4.2 s on a 2-core x86_64 host, the slowest 55 line points at
# level 2 (109 conditions), so the cap bounds a build to seconds.
MAX_QN_CONDITIONS = 110


def qn_spec(points: Sequence[Sequence], level: int) -> QnSpec:
    """Conditions cutting the algebra: value gluing first, then derivatives.

    Points are sorted; character differences all target the smallest
    point; derivative conditions come in increasing order, then point,
    then exponent enumeration order.  That ordering keeps every level of
    the resulting filtration valid.  Specs of more than
    MAX_QN_CONDITIONS conditions are refused before any is formed.
    """
    if level < 1:
        raise ValueError("the degree level must be at least 1")
    pts = tuple(sorted(point_set(points)))
    n = len(pts[0])
    count = len(pts) - 1 + len(pts) * (comb(n + level - 1, n) - 1)
    if count > MAX_QN_CONDITIONS:
        raise QnSpecTooLarge(
            f"refusing a point-set spec of {count} conditions (level {level}); "
            f"the limit is {MAX_QN_CONDITIONS}"
        )
    conditions: list[Condition] = []
    base = pts[0]
    for other in pts[1:]:
        conditions.append(
            Condition(character_difference(other, base), ConditionKind.chardiff(other, base))
        )
    for order_k in range(1, level):
        for pt in pts:
            for partials in monomials_of_degree(n, order_k):
                conditions.append(
                    Condition(
                        LinearFunctional.partial_at(pt, partials),
                        ConditionKind.derivation(pt),
                    )
                )
    return QnSpec(pts, level, tuple(conditions))


def qn_build(spec: QnSpec, order: TermOrder = DEGREVLEX) -> ConditionFiltration:
    """Cut the kernel filtration for the spec's conditions.

    Every condition drops the codimension by exactly one, so the final
    codimension must equal the condition count; that is checked.
    """
    n = len(spec.points[0])
    flt = build_from_conditions(n, spec.conditions, order)
    if flt.codim != len(spec.conditions):
        raise InvariantError("every condition must cut exactly once")
    return flt


def _spec_filtration(
    spec: QnSpec, order: TermOrder, flt: ConditionFiltration | None
) -> ConditionFiltration:
    """The spec's filtration: ``flt`` when given and built from it, else a new build."""
    if flt is None:
        return qn_build(spec, order)
    if flt.order != order or flt.conditions() != spec.conditions:
        raise ValueError("the filtration was not built from this point set, level and order")
    return flt


# -- membership in the constants-plus-ideal description ---------------


def _monomial_frame(n: int, cap: int, order: TermOrder):
    """Monomials up to ``cap`` sorted descending, with their column indices."""
    monos = sorted(monomials_up_to(n, cap), key=order.key, reverse=True)
    return monos, {mono: i for i, mono in enumerate(monos)}


def _poly_row(f: Poly, index: dict[Monomial, int]) -> dict[int, Fraction]:
    return {index[mono]: coeff for mono, coeff in f.terms()}


class _IdealSlice:
    """The constants plus the shifted-product ideal, capped at a total degree.

    The slice is spanned by 1 and every ``pi_n`` product P times every
    monomial x^s that keeps the total degree within ``cap``; ``elements``
    counts those products times shifts.  It is held as the reduced
    echelon rows of that span over the monomials up to ``cap``, sorted
    descending in ``order``, so each row's pivot is its leading
    monomial.

    The rows grow by shift degree.  With V_t the span of the P·x^s with
    |s| <= t, V_(t+1) = V_t + sum_v x_v·V_t, and x_v·V_(t-1) already lies
    in V_t, so degree t + 1 needs only x_v times the P·x^s of degree t
    that were independent when added: a dependent one lies in V_(t-1)
    plus the rows added before it, whose multiples are already covered.
    The constant row comes last, so "independent" means independent of
    the ideal rows.
    """

    def __init__(self, pts: PointSet, level: int, cap: int, order: TermOrder):
        n = self.n = len(pts[0])
        self.cap = cap
        self.monos, self._index = _monomial_frame(n, cap, order)
        self._echelon = Echelon()
        self.elements = 0
        width = level * len(pts)
        if cap >= width:
            index = self._index
            products = [product.terms() for product in pi_n(pts, level)]
            self.elements = len(products) * comb(n + cap - width, n)
            units = [tuple(int(i == v) for i in range(n)) for v in range(n)]
            frontier = dict.fromkeys((p, (0,) * n) for p in range(len(products)))
            for _ in range(cap - width + 1):
                independent = []
                for p, shift in frontier:
                    # Times x^shift: the exponents move, the coefficients stay.
                    row = {index[tuple(map(add, m, shift))]: c for m, c in products[p]}
                    if self._echelon.add(row) is not None:
                        independent.append((p, shift))
                frontier = dict.fromkeys(
                    (p, tuple(map(add, shift, unit)))
                    for p, shift in independent
                    for unit in units
                )
        self._echelon.add(_poly_row(Poly.constant(n, 1), self._index))

    @property
    def rank(self) -> int:
        return self._echelon.rank

    def pivots(self) -> list[int]:
        return self._echelon.pivots()

    def contains(self, f: Poly) -> bool:
        """Membership of ``f``, whose degree must be within the cap."""
        return self._echelon.contains(_poly_row(f, self._index))

    def rows_outside(self, basis: SagbiBasis, report: CodimReport) -> list[Poly]:
        """Echelon rows, in pivot order, that lie outside the algebra.

        A polynomial within the cap lies in the algebra exactly when every
        residue functional of ``_residue_table`` vanishes on it.  Membership
        is linear and the rows span the slice, so the slice lies in the
        algebra exactly when this list is empty.
        """
        # The table indexed by column once: col -> [(residue k, entry)].
        by_column: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for k, residue in enumerate(_residue_table(_Residues(basis, report), self._index)):
            for col, e in enumerate(residue):
                if e:
                    by_column[col].append((k, e))
        # A stored row is a positive multiple of its RREF row, so it is
        # tested as stored, on integers, and only a failing row is divided.
        # Each row sums its residues in one pass over its own entries.
        outside = []
        for p, row in sorted(self._echelon.pivot_rows.items()):
            sums: dict[int, int] = defaultdict(int)
            for col, c in row.items():
                for k, e in by_column.get(col, ()):
                    sums[k] += c * e
            if any(sums.values()):
                pivot = row[p]
                outside.append(
                    Poly(self.n, {self.monos[col]: Fraction(v, pivot) for col, v in row.items()})
                )
        return outside


def qprime_membership(
    f: Poly, points: Sequence[Sequence], level: int, degree_cap: int
) -> bool:
    """Is f a constant plus an element of the degree-capped ideal slice?

    The slice is spanned by the shifted-monomial products times all
    monomials that keep the total degree within ``degree_cap``; the test
    is exact row reduction against an echelon basis of that span plus
    the constants, grown from the independent products and shifts
    (``_IdealSlice``).
    """
    pts = point_set(points)
    if f.total_degree() > degree_cap:
        raise ValueError("the degree cap must cover the tested polynomial")
    return _IdealSlice(pts, level, degree_cap, DEGREVLEX).contains(f)


# -- reports ----------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    """One named verification step with enough detail to debug a failure."""

    check: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {"check": self.check, "pass": self.passed, "details": self.details}


@dataclass(frozen=True)
class Report:
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def to_json(self) -> list[dict]:
        return [item.to_json() for item in self.items]


# -- two-sided equality of the descriptions ---------------------------


def verify_qprime_eq_q(
    points: Sequence[Sequence],
    level: int,
    order: TermOrder = DEGREVLEX,
    *,
    flt: ConditionFiltration | None = None,
) -> Report:
    """Check both inclusions between the two descriptions of the algebra.

    All three checks read one slice of the constants plus the ideal,
    capped at D, the certified conductor plus the ideal generation
    degree; ``verify_main_theorem`` says why that cap suffices.  Every
    basis generator must land in the slice, the slice must hold at least
    one product and every residue functional of the algebra must vanish
    on an echelon basis of it, and the complement of the slice's leading
    monomials must reproduce the certified missing set exactly.  A
    filtration already built by ``qn_build`` for the same points, level
    and order may be passed as ``flt``.
    """
    spec = qn_spec(points, level)
    flt = _spec_filtration(spec, order, flt)
    basis = flt.final_basis
    report = flt.final_report
    pts = spec.points
    # A correct build's generators all lie below the conductor plus the
    # width; the max keeps a wrong one inside the slice's frame.
    cap = max(report.conductor + level * len(pts), basis.max_generator_degree())
    items: list[CheckItem] = []

    ideal = _IdealSlice(pts, level, cap, order)
    failing = [format_poly(g) for g in basis.gens if not ideal.contains(g)]
    items.append(
        CheckItem(
            "generators_in_ideal_sum",
            not failing,
            {"degree_cap": cap, "generators": len(basis.gens), "failing": failing},
        )
    )

    stuck = [format_poly(row) for row in ideal.rows_outside(basis, report)]
    items.append(
        CheckItem(
            "ideal_slice_subduces",
            ideal.elements > 0 and not stuck,
            {"degree_cap": cap, "elements": ideal.elements, "failing": stuck},
        )
    )

    pivots = set(ideal.pivots())
    complement = sorted(
        mono for i, mono in enumerate(ideal.monos) if i not in pivots
    )
    expected = sorted(report.missing)
    items.append(
        CheckItem(
            "missing_complement_match",
            complement == expected,
            {
                "slice_rank": ideal.rank,
                "expected_missing": [format_poly(Poly.monomial(m)) for m in expected],
                "complement": [format_poly(Poly.monomial(m)) for m in complement],
            },
        )
    )
    return Report(tuple(items))


# -- derivation spaces of the built algebras --------------------------


def verify_d_of_q(
    points: Sequence[Sequence],
    level: int,
    alpha: Sequence,
    order: TermOrder = DEGREVLEX,
    *,
    flt: ConditionFiltration | None = None,
) -> Report:
    """Check the derivation space of the built algebra at one of its points.

    The expected dimension counts pure partials of order between the
    level and twice the level minus one, once per point (the points are
    glued into a single cluster, so every point contributes); the
    cotangent count must agree.  The expected partials have L(1) = 0,
    so they obey the product rule exactly when they kill the jets of
    m², and the computed basis must lie in their span: its rows of
    values on the jets of m must lie in the row space of theirs.  Both
    checks are (bi)linear in the jets, so they read the certified
    closure of ``maximal_ideal_jets`` in one jet space over the point
    set, which is one cluster as that closure requires.  Its cap reaches
    the expected partials and twice the largest condition order plus
    one, where the derivation basis stops too (both are 2·level − 1 on a
    correct build; the larger lets a build of another level fail the
    checks instead of raising).  Expected partials are unit coordinates.
    ``flt`` may pass the filtration ``qn_build`` made for the same
    points, level and order.
    """
    spec = qn_spec(points, level)
    pts = spec.points
    n = len(pts[0])
    point = as_point(alpha, n)
    if point not in pts:
        raise ValueError("the base point must belong to the point set")
    flt = _spec_filtration(spec, order, flt)
    space = derivation_space(flt, point)
    top = 2 * level - 1
    expected = len(pts) * (count_monomials_up_to(n, top) - count_monomials_up_to(n, level - 1))

    jets = JetSpace(pts, max(top, 2 * flt.max_order + 1), n)
    ideal, square = maximal_ideal_jets(flt, jets, point)
    cot = ideal.rank - square.rank
    shifted = list(ideal.pivot_rows.values())

    # The shifted jets by coordinate, so a covector meets only the rows it touches.
    columns: dict[int, list[tuple[int, int]]] = {}
    for i, u in enumerate(shifted):
        for c, x in u.items():
            columns.setdefault(c, []).append((i, x))

    def values(covector: SparseRow) -> SparseRow:
        out: SparseRow = {}
        for c, w in covector.items():
            for i, x in columns.get(c, ()):
                out[i] = out.get(i, 0) + w * x
        return out

    expected_partials = [
        (pi, partials)
        for pi in range(len(pts))
        for k in range(level, top + 1)
        for partials in monomials_of_degree(n, k)
    ]
    bad_leibniz = []
    partial_values = Echelon()
    for pi, partials in expected_partials:
        covector = {jets.index(pi, partials): 1}
        if any(jets.pair(covector, row) for row in square.pivot_rows.values()):
            bad_leibniz.append(f"order {sum(partials)} at {tuple(str(c) for c in pts[pi])}")
        partial_values.add(values(covector))
    unexpressed = [
        repr(functional)
        for functional in space.basis
        if not partial_values.contains(values(integral(jets.functional_covector(functional))))
    ]
    return Report((
        CheckItem(
            "derivation_dimension",
            space.dimension == expected,
            {"computed": space.dimension, "expected": expected},
        ),
        CheckItem(
            "cotangent_dimension",
            cot == space.dimension,
            {"cotangent": cot, "derivations": space.dimension},
        ),
        CheckItem(
            "leibniz_high_orders",
            not bad_leibniz,
            {"functionals": len(expected_partials), "failing": bad_leibniz},
        ),
        CheckItem(
            "basis_in_partial_span",
            not unexpressed,
            {"basis_size": space.dimension, "failing": unexpressed},
        ),
    ))


# -- the capped ideal-in-algebra sweep --------------------------------

# Most elements (products times shifts) one containment sweep may test:
# 10x the largest the test suite builds (67,500: sessions/a4.json at the
# tests' level 4, one degree above the default cap; verify-main sweeps
# 2,160 there).  It also bounds the products one pi_n family may form.
MAX_CONTAINMENT_ELEMENTS = 675_000


def _residue_table(residues: _Residues, index: dict[Monomial, int]) -> list[list[int]]:
    """Rows E[k][index[m]] = rho_k(x^m) of the membership residue functionals.

    The vectors come from the recurrence of ``_Residues`` on the final
    generators, so no canonical element is formed.  A polynomial lies in
    the algebra exactly when every rho_k vanishes on it.  Rows share one
    denominator, the lcm of the vectors' (the lcm of the canonical tails'
    denominators, since a tail is minus rho of its head), and rows that
    vanish on every column are left out.
    """
    vectors = residues.vectors(index)
    scale = lcm(1, *(den for _, den in vectors))
    rows: dict[int, list[int]] = defaultdict(lambda: [0] * len(index))
    for col, (nums, den) in zip(index.values(), vectors):
        factor = scale // den
        for k, v in nums.items():
            rows[k][col] = v * factor
    return list(rows.values())


def _containment_counts(
    flt: ConditionFiltration,
    pts: PointSet,
    level: int,
    cap: int,
    residues: _Residues,
) -> tuple[int, int]:
    """(checked, failed) counts for the capped ideal-in-algebra sweep.

    The elements are f_1 ... f_d * x^s: one shifted monomial per point,
    every shift within the cap.  No product is formed.  Depth i contracts
    the residue table with its factor, E'[k][w] = sum_t f_t E[k][t + w],
    so at a leaf column s holds the residue of the product times x^s.
    ``residues`` is the final basis's residue map, which the caller shares.
    """
    n = flt.n
    width = level * len(pts)
    if cap < width:
        return 0, 0
    checked = comb(n + level - 1, level) ** len(pts) * comb(n + cap - width, n)
    if checked > MAX_CONTAINMENT_ELEMENTS:
        raise ContainmentTooLarge(
            f"refusing a containment sweep of {checked} elements (level {level}, "
            f"degree cap {cap}); the limit is {MAX_CONTAINMENT_ELEMENTS}"
        )
    # Graded order, so every lower-degree window is a prefix of the list.
    monos = list(monomials_up_to(n, cap))
    index = {mono: j for j, mono in enumerate(monos)}
    # Scaling a factor does not change membership, so denominators are cleared.
    families = [
        [list(integral(dict(q.terms())).items()) for q in p_n(alpha, level)] for alpha in pts
    ]
    gathers = []  # per depth: t -> the columns t + w of the next window
    for depth, family in enumerate(families, start=1):
        window = monos[: count_monomials_up_to(n, cap - depth * level)]
        terms = {t for factor in family for t, _ in factor}
        gathers.append({t: [index[tuple(map(add, t, w))] for w in window] for t in terms})

    def failures(depth: int, table: list[list[int]]) -> int:
        if not table:
            return 0
        if depth == len(families):
            return sum(any(column) for column in zip(*table))
        gather, total = gathers[depth], 0
        for factor in families[depth]:
            contracted = []
            for row in table:
                out = [0] * len(gather[factor[0][0]])
                for t, c in factor:
                    out = [o + c * row[j] for o, j in zip(out, gather[t])]
                if any(out):
                    contracted.append(out)
            total += failures(depth + 1, contracted)
        return total

    return checked, failures(0, _residue_table(residues, index))


def verify_main_theorem(flt: ConditionFiltration, alpha: Sequence) -> Report:
    """Cross-check the derivation-space pipeline on a validated filtration.

    Three checks: the capped sweep of shifted-product multiples at level
    k = ``flt.max_order`` + 1 must test at least one element and find all
    of them in the algebra (the containment ∩ m_p^k ⊂ A that caps
    ``derivation_space``; it implies every higher level), the
    candidate-ansatz derivation dimension must equal the independent
    cotangent count, and the Leibniz rule must hold for every computed
    basis derivation on ten random pairs of members each.

    The sweep stops at total degree c + w, the certified conductor c
    plus the degree w of the products P, and that proves the whole
    containment.  The missing monomials m_k all have degree below c, so
    the sweep tests P = P·x^0 and every P·x^(m_k).  Any other shift s
    heads a canonical element c_s = x^s − Σ_k rho_k(x^s)·x^(m_k) of A,
    so P·x^s = P·c_s + Σ_k rho_k(x^s)·P·x^(m_k) lies in A whenever
    those do.  ``verify_qprime_eq_q`` caps its slice the same way.

    A random member is a small integer combination of 1 and canonical
    elements (``random.Random(7)``).  Its jet is the same combination of
    their jets, so those are taken once, in one jet space over the point
    and the basis's points, and cleared of denominators together: the
    Leibniz defect is bilinear and homogeneous, so the scaled jets give
    the verdict of the members themselves.  No element is formed: the
    jet of the one with head h is jet(x^h) − Σ_k rho_k(x^h)·jet(x^(m_k)).
    The residue vectors rho are computed once per call and serve both
    the sweep and these jets.
    """
    n = flt.n
    point = as_point(alpha, n)
    sp = spectrum(flt)
    report = flt.final_report
    residues = _Residues(flt.final_basis, report)
    level = flt.max_order + 1
    items: list[CheckItem] = []

    if sp.points:
        cap = report.conductor + level * len(sp.points)
        checked, failed = _containment_counts(flt, sp.points, level, cap, residues)
        details = {"level": level, "degree_cap": cap, "checked": checked, "failed": failed}
        items.append(CheckItem("ideal_containment", checked > 0 and failed == 0, details))
    else:
        items.append(
            CheckItem(
                "ideal_containment",
                True,
                {"level": level, "checked": 0, "note": "empty spectrum"},
            )
        )

    space = derivation_space(flt, point, spec=sp)
    cot = cotangent_dimension(flt, point, spec=sp)
    items.append(
        CheckItem(
            "derivation_vs_cotangent",
            space.dimension == cot,
            {"derivations": space.dimension, "cotangent": cot},
        )
    )

    bad_pairs = 0
    if space.basis:
        max_order = max(f.max_order for f in space.basis)
        heads = _heads_up_to(flt.final_basis, report, report.conductor + max_order)
        points = {point}.union(*(f.points() for f in space.basis))
        jets = JetSpace(sorted(points), max_order, n)
        one, *rows = _canonical_jets(jets, residues, [(0,) * n, *heads])
        at_point = jets.evaluation_covector(point)
        rng = random.Random(7)
        for functional in space.basis:
            covector = integral(jets.functional_covector(functional))
            for _ in range(10):
                pair = [_random_combination(rng, one, rows) for _ in range(2)]
                bad_pairs += not leibniz_on_covectors(jets, covector, at_point, at_point, pair)
    items.append(
        CheckItem(
            "leibniz_random_pairs",
            bad_pairs == 0,
            {"pairs": 10 * len(space.basis), "failed": bad_pairs},
        )
    )
    return Report(tuple(items))


def _canonical_jets(
    jets: JetSpace, residues: _Residues, heads: Sequence[Monomial]
) -> list[dict[int, int]]:
    """Integer jets of the canonical elements with these heads, at one scale.

    The canonical element with head h is x^h − Σ_k rho_k(x^h)·x^(m_k), so
    its jet is read off the jets of monomials and rho.  Each row is taken
    on integers over its own denominator in lowest terms; the common scale
    is the lcm of those, the lcm of the denominators of the rows' values.
    """
    vectors = residues.vectors(heads)
    monos = {*heads, *(residues.missing[k] for nums, _ in vectors for k in nums)}
    exact = {m: jets.jet(Poly.monomial(m)) for m in monos}
    q = lcm(1, *(v.denominator for jet in exact.values() for v in jet.values()))
    mono_jets = {m: {c: int(v * q) for c, v in jet.items()} for m, jet in exact.items()}
    reduced = []
    for head, (nums, den) in zip(heads, vectors):
        terms = [(den, (mono_jets[head], 1))]
        terms += [(-a, (mono_jets[residues.missing[k]], 1)) for k, a in nums.items()]
        row, _ = _combine(terms)
        reduced.append(_lowest_terms(row, q * den))
    scale = lcm(1, *(d for _, d in reduced))
    return [{c: v * (scale // d) for c, v in row.items()} for row, d in reduced]


def _random_combination(
    rng: random.Random, one: SparseRow, rows: Sequence[SparseRow]
) -> SparseRow:
    """c·one plus up to three random rows with random weights, all small.

    ``rng`` is read in a fixed order, c, then the sample, then one weight
    per sampled row, so a seed fixes the draws.
    """
    constant = rng.randint(-2, 2)
    out = {c: constant * v for c, v in one.items()}
    for i in rng.sample(range(len(rows)), k=min(3, len(rows))):
        weight = rng.randint(-3, 3)
        for c, v in rows[i].items():
            out[c] = out.get(c, 0) + weight * v
    return {c: v for c, v in out.items() if v}
