"""End-to-end checks of the headline behaviours, one test per claim.

Each test prints a single PASS line with its runtime; a failure prints
a FAIL line before the traceback.  Time limits are asserted, so a
regression in speed fails the same way a wrong answer does.
"""

import random
import time
from fractions import Fraction
from math import comb

from subalg.functionals import Condition, ConditionKind, LinearFunctional, express_in_span
from subalg.poly import DEGREVLEX, Poly, format_poly, parse_poly
from subalg.qn import p_n, pi_n, verify_d_of_q, verify_qprime_eq_q
from subalg.sagbi import (
    bases_equivalent,
    build_from_conditions,
    is_member,
    sagbi_from_generators,
    truncated_algebra_basis,
)
from subalg.spectrum import derivation_space, spectrum
import support
from support import PLANE_GENERATORS, SPACE_GENERATORS, chardiff_cond, deriv_cond, space_example

F = Fraction


def timed(label, limit, body):
    """Run ``body`` and assert that it took less than ``limit`` seconds.

    ``body`` may return its own runtime in seconds, measured where the
    work was done; that figure then replaces the wall time of the call.
    """
    start = time.perf_counter()
    try:
        measured = body()
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - start if measured is None else measured
    print(f"{label}: PASS ({elapsed:.2f} s)")
    assert elapsed < limit, f"{label} took {elapsed:.2f} s, limit {limit} s"


# -- 1: one point, two derivative conditions --------------------------


def test_criterion_01_vanishing_first_two_derivatives():
    def body():
        flt = build_from_conditions(
            1, [deriv_cond((0,), (1,)), deriv_cond((0,), (2,))], DEGREVLEX
        )
        assert flt.codim == 2
        assert {format_poly(g) for g in flt.final_basis.gens} == {
            "x1^3",
            "x1^4",
            "x1^5",
        }
        assert set(flt.final_report.missing) == {(1,), (2,)}

    timed("criterion 1 (two vanishing derivatives)", 1.0, body)


# -- 2: one glued pair of values --------------------------------------


def test_criterion_02_glued_pair():
    def body():
        flt = build_from_conditions(1, [chardiff_cond((1,), (-1,))], DEGREVLEX)
        assert flt.codim == 1
        assert is_member(parse_poly("x1^3 - x1", 1), flt.final_basis)
        assert is_member(parse_poly("x1^2", 1), flt.final_basis)
        sp = spectrum(flt)
        assert set(sp.points) == {(F(1),), (F(-1),)}
        assert len(sp.clusters) == 1

    timed("criterion 2 (glued pair)", 1.0, body)


# -- 3: the two-variable worked example -------------------------------


def test_criterion_03_plane_example():
    def body():
        flt = build_from_conditions(
            2, [deriv_cond((0, 1), (1, 0)), deriv_cond((0, 1), (1, 1))], DEGREVLEX
        )
        assert flt.codim == 2
        gens = [parse_poly(s, 2) for s in PLANE_GENERATORS]
        assert all(is_member(g, flt.final_basis) for g in gens)
        rebuilt = sagbi_from_generators(
            gens, DEGREVLEX, degree_cap=flt.final_report.conductor + 2
        )
        assert bases_equivalent(rebuilt, flt.final_basis)

    timed("criterion 3 (plane example)", 5.0, body)


# -- 4: the three-variable generated example --------------------------


def test_criterion_04_space_example():
    def body():
        flt = space_example()
        assert flt.codim == 3
        gens = [parse_poly(s, 3) for s in SPACE_GENERATORS]
        assert all(is_member(g, flt.final_basis) for g in gens)
        rebuilt = sagbi_from_generators(gens, DEGREVLEX, degree_cap=4)
        assert bases_equivalent(rebuilt, flt.final_basis)
        sp = spectrum(flt)
        assert set(sp.points) == {
            (F(1), F(0), F(-1)),
            (F(3), F(2), F(5)),
            (F(1), F(-3), F(2)),
        }
        assert set(sp.clusters) == {
            ((F(1), F(-3), F(2)), (F(3), F(2), F(5))),
            ((F(1), F(0), F(-1)),),
        }

    timed("criterion 4 (space example)", 30.0, body)


# -- 5: derivation-space dimensions in codimension 0 and 1 ------------


def test_criterion_05_derivation_space_dimensions():
    rng = random.Random(55)

    def with_limit(label, body):
        timed(label, 10.0, body)

    def full_ring(n):
        alpha = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        flt = build_from_conditions(n, [], DEGREVLEX)
        assert derivation_space(flt, alpha).dimension == n

    for n in (1, 2, 3):
        with_limit(f"criterion 5 (free ring, n={n})", lambda n=n: full_ring(n))

    def directional_kernel(n):
        alpha = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        u = support.random_direction(rng, n)
        flt = build_from_conditions(
            n,
            [
                Condition(
                    LinearFunctional.directional_at(alpha, u),
                    ConditionKind.derivation(alpha),
                )
            ],
            DEGREVLEX,
        )
        space = derivation_space(flt, alpha)
        assert space.dimension == 2 * n
        report = flt.final_report
        test_space = truncated_algebra_basis(
            flt.final_basis, report, 3 + report.conductor
        )
        unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
        spanning = [LinearFunctional.partial_at(alpha, unit(i)) for i in range(n)]
        for i in range(n):
            # second derivative along x_i then along u
            combo = LinearFunctional.zero(n)
            for j in range(n):
                partials = [0] * n
                partials[i] += 1
                partials[j] += 1
                combo = combo + LinearFunctional.partial_at(alpha, tuple(partials), u[j])
            spanning.append(combo)
        third = LinearFunctional.zero(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    partials = [0] * n
                    partials[a] += 1
                    partials[b] += 1
                    partials[c] += 1
                    third = third + LinearFunctional.partial_at(
                        alpha, tuple(partials), u[a] * u[b] * u[c]
                    )
        spanning.append(third)
        for functional in spanning:
            assert express_in_span(functional, list(space.basis), test_space) is not None

    for n in (1, 2):
        with_limit(
            f"criterion 5 (directional kernel, n={n})",
            lambda n=n: directional_kernel(n),
        )

    def glued_kernel(n):
        alpha = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        beta = alpha
        while beta == alpha:
            beta = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        flt = build_from_conditions(n, [chardiff_cond(alpha, beta)], DEGREVLEX)
        space = derivation_space(flt, alpha)
        assert space.dimension == 2 * n
        report = flt.final_report
        test_space = truncated_algebra_basis(
            flt.final_basis, report, 3 + report.conductor
        )
        unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
        spanning = [
            LinearFunctional.partial_at(pt, unit(i))
            for pt in (alpha, beta)
            for i in range(n)
        ]
        for functional in spanning:
            assert express_in_span(functional, list(space.basis), test_space) is not None

    for n in (1, 2):
        with_limit(f"criterion 5 (glued kernel, n={n})", lambda n=n: glued_kernel(n))


# -- 6: family cardinalities ------------------------------------------


def test_criterion_06_family_cardinalities():
    def body():
        base_points = [(0,), (1,), (2,)]
        for n in (1, 2, 3):
            pts = [p + (0,) * (n - 1) for p in base_points]
            for level in (1, 2, 3):
                family = p_n(pts[0], level)
                assert len(family) == comb(n + level - 1, level)
                for count in (1, 2, 3):
                    products = pi_n(pts[:count], level)
                    assert len(products) == comb(n + level - 1, level) ** count
        shown = [format_poly(f) for f in pi_n([(0, 0), (0, 1)], 2)]
        assert shown == [
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

    timed("criterion 6 (family cardinalities)", 1.0, body)


# -- 7: derivation spaces of the vanishing-order algebras -------------


def test_criterion_07_vanishing_order_derivations():
    def body():
        for n, level in [(1, 2), (1, 3), (2, 2)]:
            report = verify_d_of_q([(0,) * n], level, (0,) * n)
            assert report.passed, report.failures()
            by_name = {item.check: item for item in report.items}
            expected = comb(n + 2 * level - 1, n) - comb(n + level - 1, n)
            assert by_name["derivation_dimension"].details["computed"] == expected
            assert by_name["cotangent_dimension"].details["cotangent"] == expected

    timed("criterion 7 (vanishing-order derivations)", 60.0, body)


# -- 8: the two descriptions agree ------------------------------------


def test_criterion_08_descriptions_agree():
    def body():
        for points, level in [
            ([(0,), (1,)], 1),
            ([(0,), (1,)], 2),
            ([(0, 0), (0, 1)], 2),
        ]:
            report = verify_qprime_eq_q(points, level)
            assert report.passed, report.failures()

    timed("criterion 8 (two descriptions agree)", 120.0, body)


# -- 9: randomized invariant suites -----------------------------------


def test_criterion_09_random_invariants():
    suites = [
        support.subduction_reaches_an_irreducible_remainder,
        support.missing_monomials_grow_one_per_level,
        support.far_conditions_leave_local_dimension_alone,
        support.gluing_two_clusters_adds_their_dimensions,
        support.dimension_bounded_by_generator_count,
        support.product_rule_expansions_match_direct_derivatives,
        support.each_gluing_merges_one_cluster,
    ]

    def body():
        return sum(support.run_suite_once(suite) for suite in suites)

    timed("criterion 9 (randomized invariants)", 300.0, body)


# -- 10: membership against an independent oracle ---------------------


def test_criterion_10_membership_oracle():
    timed(
        "criterion 10 (membership oracle)",
        120.0,
        lambda: support.run_suite_once(support.membership_matches_linear_algebra),
    )
