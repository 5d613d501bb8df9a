import dataclasses
import importlib
import itertools
import json
import random
import re
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb, lcm

import pytest

import subalg.qn
import subalg.sagbi

from subalg.cli import Session, main
from subalg.jets import JetSpace
from subalg.linalg import Echelon, integral
from subalg.poly import (
    DEGREVLEX,
    Poly,
    TermOrder,
    as_point,
    count_monomials_up_to,
    format_poly,
    monomials_of_degree,
    monomials_up_to,
    parse_poly,
)
from subalg.qn import (
    MAX_QN_CONDITIONS,
    _IdealSlice,
    _containment_counts,
    CheckItem,
    Report,
    p_n,
    pi_n,
    point_set,
    qn_build,
    qn_spec,
    qprime_membership,
    verify_d_of_q,
    verify_main_theorem,
    verify_qprime_eq_q,
)
from subalg.sagbi import build_from_conditions, is_member, subduce, truncated_algebra_basis
from subalg.spectrum import cotangent_dimension, derivation_space, maximal_ideal_jets, spectrum
from subalg.errors import ContainmentTooLarge, DimensionMismatch, InvariantError, QnSpecTooLarge
from subalg.functionals import (
    LinearFunctional,
    check_leibniz,
    express_in_span,
    leibniz_on_covectors,
)
from support import (
    LADDER_RUNGS, MEMBER_QN, SESSIONS, ansatz_bound, chain_a1, chardiff_cond, leibniz_expand,
    leibniz_expand_directions, power_multisets, random_filtration, rref_rows, session_filtration,
    space_example, translate,
)

F = Fraction


def random_poly(rng, n, degree, terms=4):
    mono = lambda: tuple(rng.randint(0, degree) for _ in range(n))
    data = {}
    for _ in range(terms):
        m = mono()
        if sum(m) <= degree:
            data[m] = F(rng.randint(-4, 4))
    return Poly(n, data)


# -- shifted-monomial families ----------------------------------------


def test_shifted_family_counts_and_vanishing():
    from math import comb

    rng = random.Random(11)
    for n in (1, 2, 3):
        for level in (1, 2, 3):
            alpha = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            family = p_n(alpha, level)
            assert len(family) == comb(n + level - 1, level)
            for f in family:
                assert f.total_degree() == level
                assert f.evaluate(alpha) == 0
                for k in range(1, level):
                    for partials in monomials_of_degree(n, k):
                        assert f.derive(partials).evaluate(alpha) == 0


def test_shifted_family_display():
    family = p_n((2, 1), 3)
    assert [format_poly(f) for f in family] == [
        "x1^3 - 6*x1^2 + 12*x1 - 8",
        "x1^2*x2 - x1^2 - 4*x1*x2 + 4*x1 + 4*x2 - 4",
        "x1*x2^2 - 2*x1*x2 - 2*x2^2 + x1 + 4*x2 - 2",
        "x2^3 - 3*x2^2 + 3*x2 - 1",
    ]


def test_product_family_counts():
    from math import comb

    for n, level, pts in [
        (1, 2, [(0,), (1,)]),
        (2, 2, [(0, 0), (0, 1)]),
        (2, 1, [(0, 0), (1, 0), (0, 1)]),
    ]:
        family = pi_n(pts, level)
        assert len(family) == comb(n + level - 1, level) ** len(pts)
        for f in family:
            assert f.total_degree() == level * len(pts)
            for alpha in pts:
                assert f.evaluate(alpha) == 0


def test_product_family_display():
    family = pi_n([(0, 0), (0, 1)], 2)
    assert [format_poly(f) for f in family] == [
        "x1^4",
        "x1^3*x2 - x1^3",
        "x1^2*x2^2 - 2*x1^2*x2 + x1^2",
        "x1^3*x2",
        "x1^2*x2^2 - x1^2*x2",
        "x1*x2^3 - 2*x1*x2^2 + x1*x2",
        "x1^2*x2^2",
        "x1*x2^3 - x1*x2^2",
        "x2^4 - 2*x2^3 + x2^2",
    ]


def test_single_point_products_reduce_to_the_family():
    for n, level in [(1, 2), (2, 3)]:
        alpha = tuple(F(1) for _ in range(n))
        assert pi_n([alpha], level) == p_n(alpha, level)


def test_point_set_validation():
    with pytest.raises(ValueError):
        point_set([])
    with pytest.raises(ValueError):
        point_set([(0, 0), (0, 0)])
    with pytest.raises(DimensionMismatch):
        point_set([(0,), (0, 1)])
    with pytest.raises(ValueError):
        p_n((0,), 0)
    with pytest.raises(ValueError):
        qn_spec([(0,)], 0)


# -- product rule, both flavours --------------------------------------


def test_power_multisets_count_index_subsets():
    subs = dict(power_multisets((2, 1)))
    assert subs == {
        (0, 0): 1,
        (1, 0): 2,
        (2, 0): 1,
        (0, 1): 1,
        (1, 1): 2,
        (2, 1): 1,
    }
    assert sum(subs.values()) == 2 ** 3
    # one variable repeated j times has j + 1 distinct sub-derivatives
    for j in (1, 2, 5):
        assert len(power_multisets((j,))) == j + 1


def test_pure_partial_product_rule(seed=13, rounds=40):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 3)
        counts = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(counts) == 0 or sum(counts) > 4:
            continue
        f = random_poly(rng, n, 3)
        g = random_poly(rng, n, 3)
        assert leibniz_expand(f, g, counts) == (f * g).derive(counts)


def test_directional_product_rule(seed=17, rounds=30):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        directions = []
        while len(directions) < k:
            u = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            if any(u):
                directions.append(u)
        f = random_poly(rng, n, 3)
        g = random_poly(rng, n, 3)
        expected = f * g
        for u in directions:
            expected = expected.directional(u)
        assert leibniz_expand_directions(f, g, directions) == expected


# -- the condition-side construction ----------------------------------


def test_build_level_two_origin():
    flt = qn_build(qn_spec([(0,)], 2))
    assert flt.codim == 1
    assert [format_poly(g) for g in flt.final_basis.gens] == ["x1^2", "x1^3"]
    assert flt.final_report.missing == ((1,),)


def test_build_level_one_single_point_is_everything():
    flt = qn_build(qn_spec([(0,)], 1))
    assert flt.codim == 0
    assert is_member(parse_poly("x1", 1), flt.final_basis)


def test_build_level_one_two_points_glues_values():
    flt = qn_build(qn_spec([(0,), (1,)], 1))
    assert flt.codim == 1
    basis = flt.final_basis
    assert is_member(parse_poly("x1^2 - x1", 1), basis)
    assert not is_member(parse_poly("x1", 1), basis)


def test_conditions_annihilate_the_products(seed=19, rounds=12):
    rng = random.Random(seed)
    cases = [([(0,), (1,)], 2), ([(0, 1)], 3), ([(0, 0), (1, -1)], 2)]
    for pts, level in cases:
        spec = qn_spec(pts, level)
        n = len(spec.points[0])
        for _ in range(rounds):
            f = random_poly(rng, n, 4)
            product = rng.choice(pi_n(spec.points, level))
            for condition in spec.conditions:
                assert condition.functional.apply(f * product) == 0


def test_products_subduce_into_the_kernel(seed=23, rounds=20):
    rng = random.Random(seed)
    for pts, level in [([(0,), (1,)], 2), ([(0, 0), (0, 1)], 2)]:
        flt = qn_build(qn_spec(pts, level))
        basis = flt.final_basis
        n = flt.n
        for _ in range(rounds):
            product = rng.choice(pi_n(pts, level))
            shift = tuple(rng.randint(0, 2) for _ in range(n))
            result = subduce(product * Poly.monomial(shift), basis)
            assert result.remainder.is_zero()


def test_translation_moves_with_the_point(seed=29, rounds=25):
    rng = random.Random(seed)
    for n, level in [(1, 2), (2, 2), (1, 3)]:
        origin = qn_build(qn_spec([(0,) * n], level))
        alpha = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        moved = qn_build(qn_spec([alpha], level))
        assert moved.codim == origin.codim
        assert moved.final_report.missing == origin.final_report.missing
        assert moved.final_report.conductor == origin.final_report.conductor
        for _ in range(rounds):
            f = random_poly(rng, n, 2 * level + 1)
            assert is_member(f, origin.final_basis) == is_member(
                translate(f, alpha), moved.final_basis
            )


# -- degree-capped membership the ideal way ---------------------------


def test_capped_membership_goldens():
    pts = [(0,)]
    assert qprime_membership(parse_poly("x1^2", 1), pts, 2, 6)
    assert qprime_membership(parse_poly("x1^3", 1), pts, 2, 6)
    assert qprime_membership(parse_poly("x1^2 + 5", 1), pts, 2, 6)
    assert qprime_membership(parse_poly("7", 1), pts, 2, 6)
    assert not qprime_membership(parse_poly("x1", 1), pts, 2, 6)
    assert not qprime_membership(parse_poly("x1^2 + x1", 1), pts, 2, 6)
    two = [(0,), (1,)]
    assert qprime_membership(parse_poly("x1^2 - x1", 1), two, 1, 4)
    assert not qprime_membership(parse_poly("x1^2", 1), two, 1, 4)
    with pytest.raises(ValueError):
        qprime_membership(parse_poly("x1^9", 1), pts, 2, 6)
    # a cap below the generation degree leaves only the constants
    assert qprime_membership(parse_poly("3", 1), pts, 2, 1)
    assert not qprime_membership(parse_poly("x1", 1), pts, 2, 1)


# -- the slice, checked against the per-element path ------------------


def _fresh_slice(pts, level, cap, order):
    """Row-reduce 1 and every product times every shift from scratch."""
    n = len(pts[0])
    monos = sorted(monomials_up_to(n, cap), key=order.key, reverse=True)
    index = {mono: i for i, mono in enumerate(monos)}

    def row(f):
        return {index[mono]: coeff for mono, coeff in f.terms()}

    ech = Echelon()
    ech.add(row(Poly.constant(n, 1)))
    width = level * len(pts)
    if cap >= width:
        for product in pi_n(pts, level):
            for shift in monomials_up_to(n, cap - width):
                ech.add(row(product * Poly.monomial(shift)))
    return ech, monos, row


def _stuck_products(pts, level, cap, basis):
    """(count, failing) over every product times shift, each subduced."""
    n = len(pts[0])
    width = level * len(pts)
    total = 0
    stuck = []
    if cap >= width:
        for product in pi_n(pts, level):
            for shift in monomials_up_to(n, cap - width):
                total += 1
                element = product * Poly.monomial(shift)
                if not subduce(element, basis).remainder.is_zero():
                    stuck.append(format_poly(element))
    return total, stuck


def _per_element_report(points, level, order=DEGREVLEX):
    """The two-sided check with one fresh slice per generator."""
    spec = qn_spec(points, level)
    flt = qn_build(spec, order)
    basis = flt.final_basis
    report = flt.final_report
    pts = spec.points
    cap = report.conductor + level * len(pts)
    gen_cap = max(cap, basis.max_generator_degree())
    failing = []
    for g in basis.gens:
        ech, _, row = _fresh_slice(pts, level, gen_cap, DEGREVLEX)
        if not ech.contains(row(g)):
            failing.append(format_poly(g))
    total, stuck = _stuck_products(pts, level, cap, basis)
    ech, monos, _ = _fresh_slice(pts, level, cap, order)
    pivots = set(ech.pivots())
    complement = sorted(m for i, m in enumerate(monos) if i not in pivots)
    expected = sorted(report.missing)

    def monomials(ms):
        return [format_poly(Poly.monomial(m)) for m in ms]

    return [
        (
            "generators_in_ideal_sum",
            not failing,
            {"degree_cap": gen_cap, "generators": len(basis.gens), "failing": failing},
        ),
        (
            "ideal_slice_subduces",
            not stuck,
            {"degree_cap": cap, "elements": total, "failing": stuck},
        ),
        (
            "missing_complement_match",
            complement == expected,
            {
                "slice_rank": ech.rank,
                "expected_missing": monomials(expected),
                "complement": monomials(complement),
            },
        ),
    ]


@pytest.mark.parametrize(
    "points, level",
    [
        ([(0,), (1,)], 1),
        ([(0,), (1,)], 2),
        ([(0, 0), (0, 1)], 2),
        ([(0,), (1,), (2,)], 3),
    ],
)
def test_slice_report_matches_per_element_path(points, level):
    report = verify_qprime_eq_q(points, level)
    got = [(item.check, item.passed, item.details) for item in report.items]
    assert got == _per_element_report(points, level)


def slice_rows(ideal):
    """The echelon basis of the slice, as polynomials, in pivot order."""
    return [
        Poly(ideal.n, {ideal.monos[col]: coeff for col, coeff in row.items()})
        for row in rref_rows(ideal._echelon)
    ]


def rows_outside_by_subduction(ideal, basis):
    """Echelon rows that do not subduce to zero against ``basis``."""
    return [row for row in slice_rows(ideal) if not subduce(row, basis).remainder.is_zero()]


def test_slice_outside_the_algebra_fails_both_ways():
    # The level-1 slice of two points only glues values; the level-2
    # algebra also kills first derivatives, so the slice sticks out.
    pts = ((0,), (1,))
    flt = qn_build(qn_spec(pts, 2))
    basis = flt.final_basis
    cap = flt.final_report.conductor + 2
    ideal = _IdealSlice(pts, 1, cap, DEGREVLEX)
    outside = ideal.rows_outside(basis, flt.final_report)
    assert outside
    assert all(not subduce(row, basis).remainder.is_zero() for row in outside)
    total, stuck = _stuck_products(pts, 1, cap, basis)
    assert total == ideal.elements > 0
    assert stuck
    # Each echelon row is a combination of the spanning elements, so a
    # row outside the algebra means some spanning element is outside too.
    ech, _, row = _fresh_slice(pts, 1, cap, DEGREVLEX)
    assert ech.rank == ideal.rank
    assert all(ech.contains(row(r)) for r in slice_rows(ideal))


H = F(1, 2)
RESIDUE_CASES = [
    ([(0,)], 2),
    ([(H,)], 3),
    ([(0,), (1,)], 2),
    ([(-1,), (H,)], 2),
    ([(0,), (1,), (2,)], 2),
    ([(0,), (1,), (2,)], 3),
    ([(0, 0)], 2),
    ([(0, 0), (0, 1)], 2),
    ([(-1, H), (1, 0)], 2),
    ([(0, 0), (1, 0), (0, 1)], 2),
    ([(0, 0, 0)], 2),
    ([(0, 0, 0), (1, 0, -1)], 2),
]
SLICE_ORDERS = [DEGREVLEX, TermOrder("deglex"), TermOrder("lex")]


def test_residue_rows_match_subduction():
    # Each algebra against its own slice and the slice one level below,
    # at the cap verify_qprime_eq_q uses.
    cases = nonempty = 0
    for points, level in RESIDUE_CASES:
        spec = qn_spec(points, level)
        pts = spec.points
        for order in SLICE_ORDERS:
            flt = qn_build(spec, order)
            basis, report = flt.final_basis, flt.final_report
            cap = report.conductor + level * len(pts)
            for slice_level in (level, level - 1):
                ideal = _IdealSlice(pts, slice_level, cap, order)
                got = [format_poly(r) for r in ideal.rows_outside(basis, report)]
                want = [format_poly(r) for r in rows_outside_by_subduction(ideal, basis)]
                assert got == want, (points, level, order.name, slice_level)
                # Shifting the exponents spans the same slice as multiplying.
                ech, _, _ = _fresh_slice(pts, slice_level, cap, order)
                assert rref_rows(ideal._echelon) == rref_rows(ech)
                cases += 1
                nonempty += bool(got)
    assert cases == 72
    assert 3 * nonempty >= cases


def test_slice_membership_ignores_the_column_order():
    pts = ((0, 0), (0, 1))
    for f in ["x1^2*x2^2 + 3", "x1*x2^3 - x1*x2^2", "x1*x2", "x1^4 + x2"]:
        poly = parse_poly(f, 2)
        verdicts = {
            _IdealSlice(pts, 2, 6, order).contains(poly)
            for order in (DEGREVLEX, TermOrder("lex"), TermOrder("deglex"))
        }
        assert verdicts == {qprime_membership(poly, pts, 2, 6)}


GROWTH_CASES = (
    [(((0, 0), (0, 1)), level) for level in range(2, 7)]
    + [(((0,), (1,), (2,)), level) for level in range(2, 6)]
    + [(((0, 0, 0), (1, 0, 0)), level) for level in (2, 3)]
)


def test_slice_grown_from_independent_products_matches_every_shift():
    # Each algebra's slice at the cap verify_qprime_eq_q uses and two
    # above it (an explicit cap, as qprime_membership takes), and the
    # slice one level below, which sticks out of the algebra.
    cases = outside = 0
    for points, level in GROWTH_CASES:
        spec = qn_spec(points, level)
        pts = spec.points
        n = len(pts[0])
        for order in SLICE_ORDERS:
            flt = qn_build(spec, order)
            basis, report = flt.final_basis, flt.final_report
            cap = report.conductor + level * len(pts)
            # So the one slice verify_qprime_eq_q builds holds every generator.
            assert basis.max_generator_degree() < cap, (points, level, order.name)
            for slice_level, slice_cap in [(level, cap), (level, cap + 2), (level - 1, cap)]:
                ideal = _IdealSlice(pts, slice_level, slice_cap, order)
                ech, monos, _ = _fresh_slice(pts, slice_level, slice_cap, order)
                label = (points, level, order.name, slice_level, slice_cap)
                assert rref_rows(ideal._echelon) == rref_rows(ech), label
                assert ideal.pivots() == ech.pivots(), label
                products = len(pi_n(pts, slice_level))
                shifts = len(list(monomials_up_to(n, slice_cap - slice_level * len(pts))))
                assert ideal.elements == products * shifts, label
                if slice_level < level:
                    got = [format_poly(r) for r in ideal.rows_outside(basis, report)]
                    want = [
                        format_poly(row)
                        for row in (
                            Poly(n, {monos[col]: c for col, c in r.items()}) for r in rref_rows(ech)
                        )
                        if not subduce(row, basis).remainder.is_zero()
                    ]
                    assert got == want, label
                    outside += bool(got)
                cases += 1
    assert cases == 99
    assert outside == 33


def rows_outside_by_residue(ideal, basis, report):
    """The per-residue loop ``rows_outside`` replaced, as its oracle.

    One sum per residue row per echelon row, over the row's entries that
    the residue row covers.
    """
    table = [
        {col: e for col, e in enumerate(residue) if e}
        for residue in subalg.qn._residue_table(subalg.qn._Residues(basis, report), ideal._index)
    ]
    rows = ideal._echelon.pivot_rows
    return [
        Poly(ideal.n, {ideal.monos[col]: Fraction(v, row[p]) for col, v in row.items()})
        for p, row in sorted(rows.items())
        if any(
            sum(c * residue[col] for col, c in row.items() if col in residue)
            for residue in table
        )
    ]


def test_rows_outside_matches_the_per_residue_loop():
    # Each algebra against its own slice, which lies inside it, and the
    # slice one level below, which sticks out.
    failing = 0
    for points, level in RESIDUE_CASES + GROWTH_CASES:
        spec = qn_spec(points, level)
        for order in SLICE_ORDERS:
            flt = qn_build(spec, order)
            basis, report = flt.final_basis, flt.final_report
            cap = report.conductor + level * len(spec.points)
            for slice_level in (level, level - 1):
                ideal = _IdealSlice(spec.points, slice_level, cap, order)
                got = [format_poly(r) for r in ideal.rows_outside(basis, report)]
                want = [format_poly(r) for r in rows_outside_by_residue(ideal, basis, report)]
                assert got == want, (points, level, order.name, slice_level)
                failing += bool(got)
    assert failing >= 40


def test_slice_growth_adds_only_multiples_of_independent_products(monkeypatch):
    # 2,127 rows for every product times every shift; the growth from
    # independent products adds 582.  The count is deterministic.
    calls = []
    original = Echelon.add

    def counting(self, row):
        if sys._getframe(1).f_code is _IdealSlice.__init__.__code__:
            calls.append(row)
        return original(self, row)

    monkeypatch.setattr(Echelon, "add", counting)
    ranks = []
    for points, level in LADDER_RUNGS:
        report = verify_qprime_eq_q(points, level)
        assert report.passed
        ranks.append(report.items[2].details["slice_rank"])
    assert ranks == [58, 80, 158, 11]
    assert len(calls) == 582


# -- two-sided verification reports -----------------------------------


def test_two_descriptions_agree_on_a_line_pair():
    for level in (1, 2):
        report = verify_qprime_eq_q([(0,), (1,)], level)
        assert report.passed, report.failures()


def test_two_descriptions_agree_in_the_plane():
    report = verify_qprime_eq_q([(0, 0), (0, 1)], 2)
    assert report.passed, report.failures()
    by_name = {item.check: item for item in report.items}
    assert by_name["missing_complement_match"].details["slice_rank"] == 40


def test_slice_below_the_products_degree_holds_only_the_constants():
    # Two plane points at level 2 have products of degree 4.
    pts = ((0, 0), (0, 1))
    ideal = _IdealSlice(pts, 2, 3, DEGREVLEX)
    assert ideal.elements == 0
    assert ideal.rank == 1
    assert qprime_membership(parse_poly("7", 2), pts, 2, 3)
    assert not qprime_membership(parse_poly("x1*x2 + 7", 2), pts, 2, 3)


def test_qprime_check_builds_one_slice_at_the_derived_cap(monkeypatch):
    caps = []

    class CountingSlice(_IdealSlice):
        def __init__(self, pts, level, cap, order):
            caps.append(cap)
            super().__init__(pts, level, cap, order)

    monkeypatch.setattr(subalg.qn, "_IdealSlice", CountingSlice)
    for points, level in LADDER_RUNGS:
        spec = qn_spec(points, level)
        for order in SLICE_ORDERS:
            flt = qn_build(spec, order)
            cap = flt.final_report.conductor + level * len(spec.points)
            assert flt.final_basis.max_generator_degree() < cap, (points, level, order.name)
            caps.clear()
            report = verify_qprime_eq_q(points, level, order, flt=flt)
            assert report.passed, (points, level, order.name)
            assert caps == [cap], (points, level, order.name)
            assert [item.details.get("degree_cap") for item in report.items] == [cap, cap, None]


def test_derivation_reports_on_single_points():
    for n, level, expected in [(1, 2, 2), (1, 3, 3), (2, 2, 7)]:
        report = verify_d_of_q([(0,) * n], level, (0,) * n)
        assert report.passed, report.failures()
        by_name = {item.check: item for item in report.items}
        assert by_name["derivation_dimension"].details["computed"] == expected
    with pytest.raises(ValueError):
        verify_d_of_q([(0,)], 2, (5,))


def separating_degree(pts, level, space, report):
    """A span degree at which both oracles below are conclusive.

    With r the larger of 2·level − 1 and the derivation basis's order,
    polynomials of degree len(pts)·(r + 1) − 1 take every jet of order r
    at the points (Hermite interpolation along a linear form that takes
    distinct values at them).  The algebra holds the jet map's kernel, so its elements
    of that degree have all of its jets.
    """
    cap = max([2 * level - 1] + [f.max_order for f in space.basis])
    return max(2 * level - 1 + report.conductor, len(pts) * (cap + 1) - 1)


def verify_d_of_q_per_functional(points, level, alpha, order=DEGREVLEX):
    """The per-functional route: one check_leibniz per expected partial,
    then one express_in_span per basis element, over the same span."""
    spec = qn_spec(points, level)
    pts = spec.points
    n = len(pts[0])
    point = as_point(alpha, n)
    flt = subalg.qn.qn_build(spec, order)
    report = flt.final_report
    space = derivation_space(flt, point)
    per_point = count_monomials_up_to(n, 2 * level - 1) - count_monomials_up_to(
        n, level - 1
    )
    expected = per_point * len(pts)
    cot = cotangent_dimension(flt, point)
    items = [
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
    ]
    span = truncated_algebra_basis(
        flt.final_basis, report, separating_degree(pts, level, space, report)
    )
    expected_partials = [
        (pt, partials)
        for pt in pts
        for k in range(level, 2 * level)
        for partials in monomials_of_degree(n, k)
    ]
    bad_leibniz = [
        f"order {sum(partials)} at {tuple(str(c) for c in pt)}"
        for pt, partials in expected_partials
        if not check_leibniz(
            LinearFunctional.partial_at(pt, partials), point, point, span
        )
    ]
    items.append(
        CheckItem(
            "leibniz_high_orders",
            not bad_leibniz,
            {"functionals": len(expected_partials), "failing": bad_leibniz},
        )
    )
    span_functionals = [
        LinearFunctional.partial_at(pt, partials) for pt, partials in expected_partials
    ]
    unexpressed = [
        repr(functional)
        for functional in space.basis
        if express_in_span(functional, span_functionals, span) is None
    ]
    items.append(
        CheckItem(
            "basis_in_partial_span",
            not unexpressed,
            {"basis_size": space.dimension, "failing": unexpressed},
        )
    )
    return Report(tuple(items))


def verify_d_of_q_all_pairs(points, level, alpha, order=DEGREVLEX):
    """``verify_d_of_q``'s two jet checks, squaring every pair of shifted
    span jets and reading values off every one of them, as its oracle."""
    spec = qn_spec(points, level)
    pts = spec.points
    n = len(pts[0])
    point = as_point(alpha, n)
    flt = subalg.qn.qn_build(spec, order)
    report = flt.final_report
    space = derivation_space(flt, point)
    top = 2 * level - 1
    span = truncated_algebra_basis(
        flt.final_basis, report, separating_degree(pts, level, space, report)
    )
    jets = JetSpace(pts, max([top] + [f.max_order for f in space.basis]), n)
    shifted = [jets.jet(f - Poly.constant(n, f.evaluate(point))) for f in span]
    square = Echelon()
    for i, u in enumerate(shifted):
        for v in shifted[i:]:
            square.add(jets.product(u, v))

    def values(covector):
        return {i: jets.pair(covector, u) for i, u in enumerate(shifted)}

    expected_partials = [
        (pt, partials)
        for pt in pts
        for k in range(level, top + 1)
        for partials in monomials_of_degree(n, k)
    ]
    bad_leibniz = []
    partial_values = Echelon()
    for pt, partials in expected_partials:
        covector = jets.functional_covector(LinearFunctional.partial_at(pt, partials))
        if any(jets.pair(covector, row) for row in square.pivot_rows.values()):
            bad_leibniz.append(f"order {sum(partials)} at {tuple(str(c) for c in pt)}")
        partial_values.add(values(covector))
    unexpressed = [
        repr(functional)
        for functional in space.basis
        if not partial_values.contains(values(jets.functional_covector(functional)))
    ]
    return (
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
    )


D_OF_Q_CASES = [
    ([(0,), (1,)], 1),
    ([(0,), (1,)], 2),
    ([(0, 0), (0, 1)], 2),
    ([(0,), (1,), (2,)], 3),
    ([(0,)], 3),
    ([(0, 0)], 2),
]
ORDERS = [DEGREVLEX, TermOrder("lex")]


@pytest.mark.parametrize("order", ORDERS, ids=["degrevlex", "lex"])
@pytest.mark.parametrize("points, level", D_OF_Q_CASES)
def test_derivation_report_matches_per_functional_route(points, level, order):
    alpha = qn_spec(points, level).points[0]
    got = verify_d_of_q(points, level, alpha, order)
    assert got.passed, got.failures()
    assert got == verify_d_of_q_per_functional(points, level, alpha, order)
    assert got.items[2:] == verify_d_of_q_all_pairs(points, level, alpha, order)


def build_off_by(monkeypatch, shift):
    """Make verify_d_of_q cut its filtration at ``level + shift``."""
    build = subalg.qn.qn_build

    def shifted_build(spec, order=DEGREVLEX):
        return build(qn_spec(spec.points, spec.level + shift), order)

    monkeypatch.setattr(subalg.qn, "qn_build", shifted_build)


@pytest.mark.parametrize("order", ORDERS, ids=["degrevlex", "lex"])
@pytest.mark.parametrize(
    "points, level, failing",
    [
        ([(0,), (1,)], 2, 4),
        ([(0, 0), (0, 1)], 2, 14),
        ([(0,), (1,), (2,)], 3, 6),
        ([(0,)], 3, 2),
        ([(0, 0)], 2, 7),
    ],
)
def test_derivation_report_below_the_level_matches(
    monkeypatch, points, level, failing, order
):
    # One level too few: the algebra is larger, so some expected partials
    # are no longer derivations on it.
    build_off_by(monkeypatch, -1)
    alpha = qn_spec(points, level).points[0]
    got = verify_d_of_q(points, level, alpha, order)
    assert got == verify_d_of_q_per_functional(points, level, alpha, order)
    assert got.items[2:] == verify_d_of_q_all_pairs(points, level, alpha, order)
    by_name = {item.check: item for item in got.items}
    assert len(by_name["leibniz_high_orders"].details["failing"]) == failing


@pytest.mark.parametrize("order", ORDERS, ids=["degrevlex", "lex"])
@pytest.mark.parametrize(
    "points, level, unexpressed",
    [
        ([(0,), (1,)], 1, 4),
        ([(0,), (1,)], 2, 4),
        ([(0, 0), (0, 1)], 2, 22),
        # The span must rise from degree 17 to 23 here to tell the order-6
        # and order-7 partials apart from the expected ones.
        ([(0,), (1,), (2,)], 3, 6),
        ([(0,)], 3, 2),
        ([(0, 0)], 2, 11),
    ],
)
def test_derivation_report_above_the_level_matches(
    monkeypatch, points, level, unexpressed, order
):
    # One level too many: the derivation basis reaches order 2·level + 1,
    # past the expected partials, so the jet space must be capped by it.
    build_off_by(monkeypatch, 1)
    alpha = qn_spec(points, level).points[0]
    got = verify_d_of_q(points, level, alpha, order)
    assert got == verify_d_of_q_per_functional(points, level, alpha, order)
    assert got.items[2:] == verify_d_of_q_all_pairs(points, level, alpha, order)
    by_name = {item.check: item for item in got.items}
    assert not by_name["derivation_dimension"].passed
    assert len(by_name["basis_in_partial_span"].details["failing"]) == unexpressed


def maximal_ideal_jets_by_span(flt, jets, point, degree):
    """Echelons of the jets of m and m² from a truncated algebra basis of
    degree ``degree``: its shifted jets, and every pair product of them."""
    ideal = Echelon()
    for f in truncated_algebra_basis(flt.final_basis, flt.final_report, degree):
        ideal.add(jets.shifted_jet(f, point))
    rows = list(ideal.pivot_rows.values())
    square = Echelon()
    for i, u in enumerate(rows):
        for v in rows[i:]:
            square.add(jets.product(u, v))
    return ideal, square


# Every D_OF_Q_CASES algebra built one level low, at its level and one high;
# there is no algebra of level 0.
SHIFTED_CASES = [
    (points, level, shift)
    for points, level in D_OF_Q_CASES
    for shift in (-1, 0, 1)
    if level + shift >= 1
]


@pytest.mark.parametrize("order", ORDERS, ids=["degrevlex", "lex"])
@pytest.mark.parametrize("points, level, shift", SHIFTED_CASES)
def test_maximal_ideal_jets_match_the_span_route(points, level, shift, order):
    pts = qn_spec(points, level).points
    flt = qn_build(qn_spec(pts, level + shift), order)
    point = pts[0]
    space = derivation_space(flt, point)
    # The jet space ``verify_d_of_q`` reads at ``level``.
    cap = max(2 * level - 1, 2 * flt.max_order + 1)
    jets = JetSpace(pts, cap, len(point))
    degree = separating_degree(pts, level, space, flt.final_report)
    assert degree >= len(pts) * (cap + 1) - 1
    ideal, square = maximal_ideal_jets(flt, jets, point)
    span_ideal, span_square = maximal_ideal_jets_by_span(flt, jets, point, degree)
    assert ideal.rank == jets.dim - flt.codim - 1
    assert ideal.pivot_rows == span_ideal.pivot_rows
    assert square.pivot_rows == span_square.pivot_rows


def test_maximal_ideal_jets_refuse_a_basis_missing_a_generator(monkeypatch):
    pts = qn_spec([(0,), (1,)], 2).points
    flt = qn_build(qn_spec(pts, 2))
    jets = JetSpace(pts, 2 * flt.max_order + 1, 1)
    maximal_ideal_jets(flt, jets, pts[0])
    monkeypatch.setattr(flt.final_basis, "gens", flt.final_basis.gens[1:])
    with pytest.raises(InvariantError, match="certified jet rank"):
        maximal_ideal_jets(flt, jets, pts[0])


def refuse_canonical_elements(monkeypatch, caller):
    """Make forming a canonical element, or a span of them, raise.

    ``qn`` no longer imports ``truncated_algebra_basis``; the binding is
    patched there too in case it comes back.
    """

    def refuse(*args):
        raise AssertionError(f"{caller} formed a canonical element")

    monkeypatch.setattr(subalg.sagbi.SagbiBasis, "canonical_element", refuse)
    monkeypatch.setattr(subalg.sagbi, "truncated_algebra_basis", refuse)
    monkeypatch.setattr(subalg.qn, "truncated_algebra_basis", refuse, raising=False)


@pytest.mark.parametrize("points, level", D_OF_Q_CASES)
def test_derivation_report_builds_no_canonical_element(monkeypatch, points, level):
    spec = qn_spec(points, level)
    flt = qn_build(spec)
    alpha = spec.points[0]
    expected = verify_d_of_q(points, level, alpha, flt=flt)
    refuse_canonical_elements(monkeypatch, "verify_d_of_q")
    closures = []

    def counted(*args):
        closures.append(args)
        return maximal_ideal_jets(*args)

    monkeypatch.setattr(subalg.qn, "maximal_ideal_jets", counted)
    assert verify_d_of_q(points, level, alpha, flt=flt) == expected
    assert len(closures) == 1


def test_main_report_on_small_chains():
    report = verify_main_theorem(chain_a1(), (0,))
    assert report.passed, report.failures()

    a2 = build_from_conditions(1, [chardiff_cond((1,), (-1,))], DEGREVLEX)
    report = verify_main_theorem(a2, (1,))
    assert report.passed, report.failures()

    free = build_from_conditions(2, [], DEGREVLEX)
    report = verify_main_theorem(free, (0, 0))
    assert report.passed
    assert report.items[0].details["note"] == "empty spectrum"


def test_main_report_on_the_space_example():
    flt = space_example()
    report = verify_main_theorem(flt, (3, 2, 5))
    assert report.passed, report.failures()
    by_name = {item.check: item for item in report.items}
    assert by_name["ideal_containment"].details["failed"] == 0
    assert by_name["ideal_containment"].details["checked"] > 0
    assert by_name["derivation_vs_cotangent"].details == {
        "derivations": 6,
        "cotangent": 6,
    }


@pytest.mark.parametrize(
    "name, alpha", [("a1", (0,)), ("a2", (1,)), ("a3", (0, 1)), ("a4", (3, 2, 5))]
)
def test_main_report_computes_the_spectrum_once(monkeypatch, name, alpha):
    flt = session_filtration(name)
    calls = []

    def counted(f):
        calls.append(f)
        return spectrum(f)

    monkeypatch.setattr(subalg.qn, "spectrum", counted)
    # The package's ``spectrum`` function shadows the submodule attribute.
    monkeypatch.setattr(importlib.import_module("subalg.spectrum"), "spectrum", counted)
    got = verify_main_theorem(flt, alpha)
    assert len(calls) == 1
    # Each callee computing its own spectrum gives the same report.
    for callee in (derivation_space, cotangent_dimension):
        monkeypatch.setattr(
            subalg.qn, callee.__name__, lambda f, a, spec, callee=callee: callee(f, a)
        )
    assert verify_main_theorem(flt, alpha) == got
    assert len(calls) == 4


# -- the random-pair Leibniz check against its polynomial path --------


def _random_member(rng, span, n):
    """A random member as ``verify_main_theorem`` drew it before it read jets."""
    out = Poly.constant(n, rng.randint(-2, 2))
    for element in rng.sample(span, k=min(3, len(span))):
        out = out + rng.randint(-3, 3) * element
    return out


def random_pairs_by_polynomials(flt, basis):
    """The old path's draws: (derivation, f, g), ten per basis element."""
    report = flt.final_report
    max_order = max(f.max_order for f in basis)
    span = truncated_algebra_basis(flt.final_basis, report, report.conductor + max_order)
    rng = random.Random(7)
    return [
        (d, _random_member(rng, span, flt.n), _random_member(rng, span, flt.n))
        for d in basis
        for _ in range(10)
    ]


def random_pair_checks(monkeypatch, flt, point):
    """``verify_main_theorem``'s random-pair item, and (space, jets, verdict) per draw."""
    checks = []

    def recorded(space, covector, ev_alpha, ev_beta, jets):
        verdict = leibniz_on_covectors(space, covector, ev_alpha, ev_beta, jets)
        checks.append((space, jets, verdict))
        return verdict

    monkeypatch.setattr(subalg.qn, "leibniz_on_covectors", recorded)
    report = verify_main_theorem(flt, point)
    (item,) = [item for item in report.items if item.check == "leibniz_random_pairs"]
    return item, checks


def assert_matches_polynomial_path(checks, draws, point):
    """Same verdict per draw, and jets one common positive multiple of the members'."""
    assert [verdict for _, _, verdict in checks] == [
        check_leibniz(d, point, point, [f, g]) for d, f, g in draws
    ]
    ratios = set()
    for (space, jets, _), (_, f, g) in zip(checks, draws, strict=True):
        for jet, member in zip(jets, (f, g), strict=True):
            exact = space.jet(member)
            assert jet.keys() == exact.keys()
            ratios.update(F(value) / exact[c] for c, value in jet.items())
    (ratio,) = ratios
    assert ratio > 0


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_random_pairs_match_polynomial_path(monkeypatch, name):
    flt = session_filtration(name)
    for point in spectrum(flt).points:
        item, checks = random_pair_checks(monkeypatch, flt, point)
        draws = random_pairs_by_polynomials(flt, derivation_space(flt, point).basis)
        assert_matches_polynomial_path(checks, draws, point)
        assert item.details == {"pairs": len(draws), "failed": 0}
        assert item.passed


@pytest.mark.parametrize("name", ["a2", "a4"])
def test_random_pairs_catch_a_second_order_term(monkeypatch, name):
    # On a2 and a4 the second partial in x1 at a spectrum point is no
    # derivation, so adding it to the first basis element breaks the rule.
    flt = session_filtration(name)

    def mutated(f, alpha, spec=None):
        space = derivation_space(f, alpha, spec=spec)
        second = LinearFunctional.partial_at(alpha, (2,) + (0,) * (f.n - 1))
        return dataclasses.replace(space, basis=(space.basis[0] + second, *space.basis[1:]))

    monkeypatch.setattr(subalg.qn, "derivation_space", mutated)
    for point in spectrum(flt).points:
        item, checks = random_pair_checks(monkeypatch, flt, point)
        draws = random_pairs_by_polynomials(flt, mutated(flt, point).basis)
        assert_matches_polynomial_path(checks, draws, point)
        failed = [verdict for _, _, verdict in checks].count(False)
        assert item.details == {"pairs": len(draws), "failed": failed}
        assert failed > 0 and not item.passed


# -- the product sweep as an oracle for the contracted one ------------


def _int_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            value = out.get(key, 0) + ca * cb
            if value:
                out[key] = value
            elif key in out:
                del out[key]
    return out


class MembershipTable:
    """Single-pass membership residues against cached canonical tails.

    Cancelling every semigroup term of a polynomial in one sweep leaves a
    residue supported on missing monomials and the constants; membership
    is residue flatness.  Tails share one denominator, ``scale``.
    """

    def __init__(self, basis, report, cap):
        self.cap = cap
        tails = {}
        for element in truncated_algebra_basis(basis, report, cap):
            head = element.leading_monomial(basis.order)
            tails[head] = [(m, c) for m, c in element.terms() if m != head and sum(m) > 0]
        self.scale = lcm(1, *(c.denominator for tail in tails.values() for _, c in tail))
        self.tails = {
            mono: tuple((m, int(c * self.scale)) for m, c in tail)
            for mono, tail in tails.items()
        }

    def member(self, int_poly, shift):
        acc = {}
        for mono, coeff in int_poly.items():
            key = tuple(x + y for x, y in zip(mono, shift))
            degree = sum(key)
            if degree == 0:
                continue
            if degree > self.cap:
                raise ValueError("membership table cap exceeded")
            tail = self.tails.get(key)
            if tail is None:
                acc[key] = acc.get(key, 0) + coeff * self.scale
            else:
                for m, t in tail:
                    acc[m] = acc.get(m, 0) - coeff * t
        return all(value == 0 for value in acc.values())


def containment_by_products(flt, pts, level, cap):
    """(checked, failed): every product times every shift, one by one."""
    n = flt.n
    width = level * len(pts)
    if cap < width:
        return 0, 0
    table = MembershipTable(flt.final_basis, flt.final_report, cap)
    families = [[integral(dict(q.terms())) for q in p_n(alpha, level)] for alpha in pts]
    shifts = list(monomials_up_to(n, cap - width))
    checked = failed = 0
    for combo in itertools.product(*families):
        product = {(0,) * n: 1}
        for factor in combo:
            product = _int_mul(product, factor)
        for shift in shifts:
            checked += 1
            failed += not table.member(product, shift)
    return checked, failed


def containment_cases(flt):
    """(points, level, cap) at every level up to the ansatz bound, cap and cap + 1."""
    pts = spectrum(flt).points
    for level in range(1, ansatz_bound(flt) + 1):
        cap = flt.final_report.conductor + level * len(pts)
        yield pts, level, cap
        yield pts, level, cap + 1


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_containment_sweep_matches_products_on_sessions(name):
    flt = session_filtration(name)
    residues = subalg.qn._Residues(flt.final_basis, flt.final_report)
    counts = []
    for pts, level, cap in containment_cases(flt):
        got = _containment_counts(flt, pts, level, cap, residues)
        assert got == containment_by_products(flt, pts, level, cap), (level, cap)
        counts.append(got)
    assert all(checked > 0 for checked, _ in counts)
    if name in ("a1", "a3", "a4"):
        assert any(failed > 0 for _, failed in counts)
    # Below the width of the products nothing is checked.
    pts, level, cap = next(containment_cases(flt))
    assert _containment_counts(flt, pts, level, level * len(pts) - 1, residues) == (0, 0)


def test_space_example_is_session_a4_with_denominators():
    # So the a4 case of the sweep oracle covers the space example, whose
    # tails have denominators.
    flt = space_example()
    a4 = session_filtration("a4")
    assert flt.final_basis.gens == a4.final_basis.gens
    assert MembershipTable(flt.final_basis, flt.final_report, 14).scale > 1


def test_spec_condition_count_is_closed_form():
    for points, level in [
        ([(0,)], 1), ([(0,), (1,)], 3), ([(0, 0), (0, 1)], 4), ([(0, 0, 0), (1, 0, 0)], 3),
    ]:
        n, size = len(points[0]), len(points)
        count = size - 1 + size * (comb(n + level - 1, n) - 1)
        assert len(qn_spec(points, level).conditions) == count


def test_oversized_spec_is_refused():
    assert len(qn_spec([(0,), (1,), (2,)], 37).conditions) == MAX_QN_CONDITIONS
    with pytest.raises(QnSpecTooLarge, match="111 conditions"):
        qn_spec([(0,), (1,)], 56)
    with pytest.raises(QnSpecTooLarge, match="1639 conditions"):
        qn_spec([(0, 0), (0, 1)], 40)


def test_verifiers_use_a_passed_filtration(monkeypatch):
    points, level = [(0, 0), (0, 1)], 2
    flt = qn_build(qn_spec(points, level))
    alpha = qn_spec(points, level).points[0]
    expected = (verify_qprime_eq_q(points, level), verify_d_of_q(points, level, alpha))
    monkeypatch.setattr(subalg.qn, "qn_build", None)
    assert verify_qprime_eq_q(points, level, flt=flt) == expected[0]
    assert verify_d_of_q(points, level, alpha, flt=flt) == expected[1]


def test_verifiers_refuse_a_foreign_filtration():
    points, level = [(0, 0), (0, 1)], 2
    alpha = (0, 0)
    for other in (
        qn_build(qn_spec(points, level + 1)),
        qn_build(qn_spec([(0, 0), (1, 0)], level)),
        qn_build(qn_spec(points, level), TermOrder("lex")),
    ):
        with pytest.raises(ValueError, match="not built from this"):
            verify_qprime_eq_q(points, level, flt=other)
        with pytest.raises(ValueError, match="not built from this"):
            verify_d_of_q(points, level, alpha, flt=other)


def test_oversized_containment_sweep_is_refused(monkeypatch):
    # Four space points at level 3 (39 conditions): conductor 6, so the
    # derived cap is 18, and 10^4 products times C(3 + 18 - 12, 3) shifts
    # pass the limit.  The refusal comes before the residue table is built.
    flt = qn_build(qn_spec([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    assert flt.final_report.conductor == 6
    monkeypatch.setattr(subalg.qn, "_residue_table", None)
    refusal = r"840000 elements \(level 3, degree cap 18\)"
    with pytest.raises(ContainmentTooLarge, match=refusal):
        verify_main_theorem(flt, (0, 0, 0))


def test_three_plane_points_pass_at_the_order_level():
    # At level 2^(derivation levels) = 64 the sweep would be 4,119,375
    # elements, over the limit; at max_order + 1 = 2 it is 405.
    flt = qn_build(qn_spec([(0, 0), (0, 1), (1, 0)], 2))
    report = verify_main_theorem(flt, (0, 0))
    assert report.passed, report.failures()
    # Conductor 4 plus width 6: 3^3 products times C(2 + 4, 2) shifts.
    by_name = {item.check: item for item in report.items}
    assert by_name["ideal_containment"].details == {
        "level": 2, "degree_cap": 10, "checked": 405, "failed": 0,
    }
    # Orders 2 and 3 at each of the three glued points: 3 * (3 + 4).
    assert by_name["derivation_vs_cotangent"].details == {
        "derivations": 21, "cotangent": 21,
    }


def test_oversized_product_family_is_refused(monkeypatch):
    # Five space points at level 4: C(6, 4)^5 = 15^5 products, over the limit.
    formed = []
    multiply = Poly.__mul__

    def counting_mul(self, other):
        formed.append(other)
        return multiply(self, other)

    monkeypatch.setattr(subalg.qn, "p_n", lambda *args: formed.append(args) or [])
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    with pytest.raises(ContainmentTooLarge, match="759375 elements"):
        pi_n(points, 4)
    assert formed == []


LADDER_GOLDEN = json.loads(
    (SESSIONS.parent / "bench" / "golden" / "qn_ladder.json").read_text()
)


def test_ladder_goldens_list_the_rungs():
    assert [(tuple(map(tuple, g["points"])), g["N"]) for g in LADDER_GOLDEN] == list(LADDER_RUNGS)


@pytest.mark.parametrize("golden", LADDER_GOLDEN, ids=lambda g: f"{g['points']}N{g['N']}")
def test_ladder_digest_matches_the_benchmark_golden(golden):
    points, level = golden["points"], golden["N"]
    flt = qn_build(qn_spec(points, level))
    report = verify_qprime_eq_q(points, level, flt=flt)
    digest = {
        "codimension": flt.codim,
        "conductor": flt.final_report.conductor,
        "basis": [format_poly(g) for g in flt.final_basis.gens],
        "passed": report.passed,
        "report": report.to_json(),
    }
    assert json.loads(json.dumps(digest)) == golden["digest"]


def smallest_containment_level(flt):
    """The least level whose shifted-product ideal fits inside the algebra.

    Scans levels from 1 up to 2^(derivation levels); returns None
    when none passes, which does not happen for validated filtrations.
    """
    sp = spectrum(flt)
    if not sp.points:
        return 1
    report = flt.final_report
    residues = subalg.qn._Residues(flt.final_basis, report)
    for level in range(1, ansatz_bound(flt) + 1):
        cap = report.conductor + level * len(sp.points)
        checked, failed = _containment_counts(flt, sp.points, level, cap, residues)
        if checked and not failed:
            return level
    return None


def test_smallest_containment_levels():
    assert smallest_containment_level(chain_a1()) == 3
    a2 = build_from_conditions(1, [chardiff_cond((1,), (-1,))], DEGREVLEX)
    assert smallest_containment_level(a2) == 1
    free = build_from_conditions(1, [], DEGREVLEX)
    assert smallest_containment_level(free) == 1
    # a1–a4, then the ladder rungs, whose derivatives stop below the level.
    fixtures = [
        (session_filtration(name), level)
        for name, level in [("a1", 3), ("a2", 1), ("a3", 3), ("a4", 2)]
    ]
    fixtures += [(qn_build(qn_spec(points, level)), level) for points, level in LADDER_RUNGS]
    for flt, level in fixtures:
        assert flt.max_order + 1 == level
        assert smallest_containment_level(flt) == level
        # So the sweep at max_order + 1 implies the one at 2^(derivation levels).
        assert level <= ansatz_bound(flt)


def test_report_json_shape():
    item = CheckItem("demo", False, {"why": "because"})
    report = Report((CheckItem("ok", True, {}), item))
    assert not report.passed
    assert report.failures() == [item]
    assert report.to_json() == [
        {"check": "ok", "pass": True, "details": {}},
        {"check": "demo", "pass": False, "details": {"why": "because"}},
    ]


# -- residue vectors against the canonical-element table --------------


def residue_table_by_canonical_elements(basis, report, cap, index):
    """The residue table read off canonical tails, as ``_residue_table`` once built it.

    Canonical tails lie outside the leading-monomial semigroup, so x^m is
    congruent to minus its tail when m is a head and is its own residue
    when m is missing.  Rows share one denominator.
    """
    tails = {}
    for element in truncated_algebra_basis(basis, report, cap):
        head = element.leading_monomial(basis.order)
        tails[head] = [(m, c) for m, c in element.terms() if m != head and sum(m) > 0]
    scale = lcm(1, *(c.denominator for tail in tails.values() for _, c in tail))
    rows = defaultdict(lambda: [0] * len(index))
    for head, tail in tails.items():
        for m, c in tail:
            rows[m][index[head]] -= int(c * scale)
    for mono in report.missing:
        if mono in index:
            rows[mono][index[mono]] += scale
    return [row for row in rows.values() if any(row)]


def residue_fixtures():
    """a1–a4, the ladder rungs and the membership benchmark's point sets, per order."""
    for order in SLICE_ORDERS:
        for name in ("a1", "a2", "a3", "a4"):
            yield f"{name} {order.name}", session_filtration(name, order.name)
        for points, level in dict.fromkeys(LADDER_RUNGS + MEMBER_QN):
            yield f"{points} N{level} {order.name}", qn_build(qn_spec(points, level), order)


def assert_residue_tables_agree(label, flt):
    """Equal tables on every level of ``flt``, at its conductor and 3 above."""
    for index, level in enumerate(flt.levels, start=1):
        for cap in (level.report.conductor, level.report.conductor + 3):
            _, columns = subalg.qn._monomial_frame(flt.n, cap, flt.order)
            got = subalg.qn._residue_table(subalg.qn._Residues(level.basis, level.report), columns)
            want = residue_table_by_canonical_elements(level.basis, level.report, cap, columns)
            assert Counter(map(tuple, got)) == Counter(map(tuple, want)), (label, index, cap)


def test_residue_table_matches_canonical_tails():
    fixtures = list(residue_fixtures())
    assert len(fixtures) == 27
    for label, flt in fixtures:
        assert_residue_tables_agree(label, flt)


def test_residue_table_matches_canonical_tails_on_random_filtrations():
    levels = 0
    for seed in (101, 103, 107):
        rng = random.Random(seed)
        for _ in range(40):
            flt = random_filtration(rng)
            for order in SLICE_ORDERS:
                built = build_from_conditions(flt.n, flt.conditions(), order)
                assert_residue_tables_agree((seed, order.name), built)
                levels += built.codim
    assert levels > 0


MEMBER_JET_CASES = {
    **{name: lambda name=name: session_filtration(name) for name in ("a1", "a2", "a3", "a4")},
    # Tails with denominators, and points with them.
    "space example": lambda: space_example(),
    "(-1),(1/2) N2": lambda: qn_build(qn_spec([(-1,), (H,)], 2)),
    "(-1,1/2),(1,0) N2": lambda: qn_build(qn_spec([(-1, H), (1, 0)], 2)),
}


@pytest.mark.parametrize("name", MEMBER_JET_CASES)
def test_random_member_jets_match_canonical_elements(monkeypatch, name):
    flt = MEMBER_JET_CASES[name]()
    report = flt.final_report
    tables, spaces = [], []
    draw = subalg.qn._random_combination

    def recorded_draw(rng, one, rows):
        tables.append([one, *rows])
        return draw(rng, one, rows)

    def recorded_space(space, covector, ev_alpha, ev_beta, jets):
        spaces.append(space)
        return leibniz_on_covectors(space, covector, ev_alpha, ev_beta, jets)

    monkeypatch.setattr(subalg.qn, "_random_combination", recorded_draw)
    monkeypatch.setattr(subalg.qn, "leibniz_on_covectors", recorded_space)
    for point in spectrum(flt).points:
        tables.clear()
        spaces.clear()
        basis = derivation_space(flt, point).basis
        assert verify_main_theorem(flt, point).passed
        assert len(tables) == 20 * len(basis) > 0
        span = truncated_algebra_basis(
            flt.final_basis, report, report.conductor + max(f.max_order for f in basis)
        )
        jets = spaces[0]
        exact = [jets.jet(f) for f in [Poly.constant(flt.n, 1), *span]]
        scale = lcm(1, *(v.denominator for row in exact for v in row.values()))
        want = [{c: int(v * scale) for c, v in row.items()} for row in exact]
        assert all(table == want for table in tables), (name, point)


def test_verification_read_path_forms_no_canonical_element(monkeypatch):
    points, level = LADDER_RUNGS[0]
    rung = qn_build(qn_spec(points, level))
    a4 = session_filtration("a4")
    expected = (
        verify_qprime_eq_q(points, level, flt=rung),
        verify_main_theorem(a4, (3, 2, 5)),
    )
    refuse_canonical_elements(monkeypatch, "a verifier")
    assert verify_qprime_eq_q(points, level, flt=rung) == expected[0]
    assert verify_main_theorem(a4, (3, 2, 5)) == expected[1]
    assert all(report.passed for report in expected)


def without_largest_hole(report, order):
    """``report`` with its largest missing monomial in ``order`` dropped."""
    largest = max(report.missing, key=order.key)
    missing = tuple(m for m in report.missing if m != largest)
    return dataclasses.replace(report, codim=report.codim - 1, missing=missing), largest


def test_residues_refuse_a_missing_set_without_its_largest_hole():
    for points, level in LADDER_RUNGS:
        spec = qn_spec(points, level)
        flt = qn_build(spec)
        basis, cap = flt.final_basis, flt.final_report.conductor
        report, largest = without_largest_hole(flt.final_report, flt.order)
        _, columns = subalg.qn._monomial_frame(flt.n, cap, flt.order)
        refusal = re.escape(f"no generator head reaches {largest},")
        with pytest.raises(InvariantError, match=refusal):
            subalg.qn._residue_table(subalg.qn._Residues(basis, report), columns)
        ideal = _IdealSlice(spec.points, level, cap, flt.order)
        with pytest.raises(InvariantError, match="not certified missing"):
            ideal.rows_outside(basis, report)


def test_verify_main_exits_four_on_a_missing_set_without_its_largest_hole(monkeypatch, capsys):
    residues = subalg.qn._Residues
    order = Session.load(str(SESSIONS / "a4.json")).order
    monkeypatch.setattr(
        subalg.qn,
        "_Residues",
        lambda basis, report: residues(basis, without_largest_hole(report, order)[0]),
    )
    assert main(["verify-main", str(SESSIONS / "a4.json"), "3,2,5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: no generator head reaches" in captured.err
