"""Randomized invariants over freshly generated filtrations.

Every filtration drawn here is valid by construction: derivative
conditions are added in order-complete layers, first-order directional
conditions hold identically, and value gluings follow a tree pattern.
That lets each suite run hundreds of instances without filtering.
"""

import random
from fractions import Fraction

from subalg.functionals import (
    Condition,
    ConditionKind,
    LinearFunctional,
    character_difference,
)
from subalg.linalg import Echelon
from subalg.poly import DEGREVLEX, Poly, monomials_of_degree, monomials_up_to
from subalg.sagbi import build_from_conditions, is_member, subduce
from subalg.spectrum import derivation_space, spectrum
from test_qn import leibniz_expand, leibniz_expand_directions

F = Fraction


def deriv_cond(point, partials, coeff=1):
    return Condition(
        LinearFunctional.partial_at(point, partials, coeff),
        ConditionKind.derivation(point),
    )


def direction_cond(point, direction):
    return Condition(
        LinearFunctional.directional_at(point, direction),
        ConditionKind.derivation(point),
    )


def chardiff_cond(alpha, beta):
    return Condition(
        character_difference(alpha, beta), ConditionKind.chardiff(alpha, beta)
    )


def random_point(rng, n, lo=-2, hi=2, taken=()):
    while True:
        p = tuple(F(rng.randint(lo, hi)) for _ in range(n))
        if p not in taken:
            return p


def random_direction(rng, n):
    while True:
        u = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        if any(u):
            return u


def random_poly(rng, n, degree, terms=5):
    data = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, degree) for _ in range(n))
        if sum(m) <= degree:
            data[m] = F(rng.randint(-4, 4))
    return Poly(n, data)


def jet_conditions(rng, n, alpha):
    """Order-complete derivative layers at one point."""
    top = 4 if n == 1 else 2
    level = rng.randint(2, top)
    conds = []
    for k in range(1, level):
        for partials in monomials_of_degree(n, k):
            conds.append(deriv_cond(alpha, partials))
    return conds


def random_conditions(rng, n, style=None):
    style = style or rng.choice(("jets", "flats", "glue", "mixed"))
    if style == "jets":
        return jet_conditions(rng, n, random_point(rng, n))
    if style == "flats":
        pts, conds = [], []
        for _ in range(rng.randint(1, 3)):
            p = random_point(rng, n, taken=pts)
            pts.append(p)
            conds.append(direction_cond(p, random_direction(rng, n)))
        return conds
    if style == "glue":
        pts = []
        for _ in range(rng.randint(2, 4)):
            pts.append(random_point(rng, n, taken=pts))
        return [chardiff_cond(p, pts[0]) for p in pts[1:]]
    a = random_point(rng, n)
    b = random_point(rng, n, taken=[a])
    return [
        chardiff_cond(b, a),
        direction_cond(a, random_direction(rng, n)),
        direction_cond(b, random_direction(rng, n)),
    ]


def random_filtration(rng, max_n=2, style=None):
    n = rng.randint(1, max_n)
    return build_from_conditions(n, random_conditions(rng, n, style), DEGREVLEX)


# -- subduction contract ----------------------------------------------


def test_subduction_reaches_an_irreducible_remainder(seed=101, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        basis = flt.final_basis
        f = random_poly(rng, flt.n, flt.final_report.conductor + 2)
        remainder = subduce(f, basis).remainder
        if not remainder.is_zero():
            mono = remainder.leading_monomial(basis.order)
            assert not basis.contains_monomial(mono)
            # nothing left to cancel, so subduction fixes the remainder
            assert subduce(remainder, basis).remainder == remainder
        # the subtracted part is an algebra member
        assert subduce(f - remainder, basis).remainder.is_zero()


# -- each condition cuts exactly one monomial -------------------------


def test_missing_monomials_grow_one_per_level(seed=103, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        seen = set()
        for index, level in enumerate(flt.levels, start=1):
            missing = set(level.report.missing)
            assert level.report.codim == index
            assert len(missing) == index
            assert seen <= missing
            seen = missing


# -- locality of derivation spaces ------------------------------------


def test_far_conditions_leave_local_dimension_alone(seed=107, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        n = flt.n
        point = rng.choice(spectrum(flt).points)
        before = derivation_space(flt, point).dimension
        far = random_point(rng, n, lo=5, hi=9)
        if rng.random() < 0.6:
            other = random_point(rng, n, lo=5, hi=9, taken=[far])
            extra = chardiff_cond(other, far)
        else:
            extra = direction_cond(far, random_direction(rng, n))
        extended = build_from_conditions(
            n, list(flt.conditions()) + [extra], DEGREVLEX
        )
        assert derivation_space(extended, point).dimension == before


def test_gluing_two_clusters_adds_their_dimensions(seed=109, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 2)
        a = random_point(rng, n, lo=-2, hi=0)
        b = random_point(rng, n, lo=3, hi=5)
        if n == 1:
            left = jet_conditions(rng, n, a)
            right = jet_conditions(rng, n, b)
        else:
            left = [direction_cond(a, random_direction(rng, n))]
            right = [direction_cond(b, random_direction(rng, n))]
        dim_left = derivation_space(
            build_from_conditions(n, left, DEGREVLEX), a
        ).dimension
        dim_right = derivation_space(
            build_from_conditions(n, right, DEGREVLEX), b
        ).dimension
        merged = build_from_conditions(
            n, left + right + [chardiff_cond(b, a)], DEGREVLEX
        )
        assert derivation_space(merged, a).dimension == dim_left + dim_right


def test_dimension_bounded_by_generator_count(seed=113, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        point = rng.choice(spectrum(flt).points)
        space = derivation_space(flt, point)
        assert space.dimension <= len(flt.final_basis.gens)


# -- the product rule in both expansions ------------------------------


def test_product_rule_expansions_match_direct_derivatives(seed=127, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 3)
        g = random_poly(rng, n, 3)
        counts = tuple(rng.randint(0, 2) for _ in range(n))
        if 0 < sum(counts) <= 4:
            assert leibniz_expand(f, g, counts) == (f * g).derive(counts)
        directions = [random_direction(rng, n) for _ in range(rng.randint(1, 3))]
        expected = f * g
        for u in directions:
            expected = expected.directional(u)
        assert leibniz_expand_directions(f, g, directions) == expected


# -- cluster bookkeeping ----------------------------------------------


def test_each_gluing_merges_one_cluster(seed=131, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 2)
        count = rng.randint(2, 4)
        pts = []
        for _ in range(count):
            pts.append(random_point(rng, n, taken=pts))
        conds = [direction_cond(p, random_direction(rng, n)) for p in pts]
        merges = rng.randint(1, count - 1)
        conds += [chardiff_cond(pts[i], pts[0]) for i in range(1, merges + 1)]
        sp = spectrum(build_from_conditions(n, conds, DEGREVLEX))
        assert len(sp.points) == count
        assert len(sp.clusters) == count - merges
        assert sorted(sp.points) == sorted(pts)


# -- subduction against plain linear algebra --------------------------


def linear_membership(basis, f):
    """Row-reduce generator power products; no subduction involved.

    The term order is graded, so members of degree at most d are spanned
    by the constants and the generator products of degree at most d.
    """
    cap = max(f.total_degree(), 0)
    n = basis.n
    monos = sorted(monomials_up_to(n, cap), key=DEGREVLEX.key, reverse=True)
    index = {m: i for i, m in enumerate(monos)}

    def row(poly):
        return {index[m]: c for m, c in poly.terms()}

    ech = Echelon()
    ech.add(row(Poly.constant(n, 1)))
    gens = [g for g in basis.gens if 0 < g.total_degree() <= cap]

    def expand(idx, current):
        if idx == len(gens):
            if current.total_degree() > 0:
                ech.add(row(current))
            return
        power = current
        while True:
            expand(idx + 1, power)
            if power.total_degree() + gens[idx].total_degree() > cap:
                break
            power = power * gens[idx]

    expand(0, Poly.constant(n, 1))
    return ech.contains(row(f))


def test_membership_matches_linear_algebra(seed=137, rounds=100):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        basis = flt.final_basis
        f = random_poly(rng, flt.n, flt.final_report.conductor + 2)
        assert is_member(f, basis) == linear_membership(basis, f)
