"""Fixtures and oracles shared by the test modules, and the randomized suites.

Test modules import what they share from here, never from each other.
An oracle is code the library no longer runs, kept so that tests can
compare the library against it; each one's docstring says where it came
from and what replaced it.  An oracle that one test module alone uses
stays in that module.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from subalg.cli import Session
from subalg.functionals import Condition, ConditionKind, LinearFunctional, character_difference
from subalg.linalg import Echelon
from subalg.poly import DEGREVLEX, Poly, monomials_of_degree, monomials_up_to, parse_poly
from subalg.sagbi import CodimReport, build_from_conditions, is_member, subduce
from subalg.spectrum import derivation_space, spectrum

F = Fraction

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def session_filtration(name, order=None):
    """The filtration of ``sessions/<name>.json``, in the term order ``order`` if given."""
    return Session.load(str(SESSIONS / f"{name}.json"), order).build()


def P(text, n):
    return parse_poly(text, n)


def deriv_cond(point, partials, coeff=1):
    return Condition(
        LinearFunctional.partial_at(point, partials, coeff),
        ConditionKind.derivation(point),
    )


def chardiff_cond(alpha, beta, coeff=1):
    return Condition(
        character_difference(alpha, beta, coeff), ConditionKind.chardiff(alpha, beta)
    )


def rref_rows(echelon):
    """The RREF rows of ``echelon`` in pivot order, with Fraction entries."""
    return [
        {c: F(v, row[p]) for c, v in row.items()} for p, row in sorted(echelon.pivot_rows.items())
    ]


# -- chains a1 and a4, generators of acceptance criteria 3 and 4 -----

PLANE_GENERATORS = ["x2", "x1^2", "x1*x2^2 - 2*x1*x2 + x1", "x1^3"]

SPACE_GENERATORS = [
    "x3^2 - 81/11*x1 - 27/11*x2 + 2*x3",
    "x2*x3 - 18/11*x1 - 28/11*x2",
    "x1*x3 - 5*x1 - x3",
    "x2^2 - 75/11*x1 + 41/11*x2",
    "x1*x2 - 2*x1 - x2",
    "x1^2 - 54/11*x1 + 4/11*x2",
    "x3^3 - 324/11*x1 - 108/11*x2 - 3*x3",
    "x2*x3^2 - 126/11*x1 - 86/11*x2",
    "x1*x3^2 - 356/11*x1 - 27/11*x2 + 2*x3",
    "x2^2*x3 - 186/11*x1 + 70/11*x2",
    "x1*x2*x3 - 128/11*x1 - 28/11*x2",
    "x1^2*x3 - 270/11*x1 + 20/11*x2 - x3",
    "x2^3 + 300/11*x1 - 197/11*x2",
    "x1*x2^2 - 119/11*x1 + 41/11*x2",
    "x1^2*x2 - 108/11*x1 - 3/11*x2",
    "x1^3 - 213/11*x1 + 28/11*x2",
]


def chain_a1():
    return build_from_conditions(
        1, [deriv_cond((0,), (1,)), deriv_cond((0,), (2,))], DEGREVLEX
    )


def space_example():
    """The chain of session a4, built with its rational tails."""
    mixed = LinearFunctional.partial_at((3, 2, 5), (1, 0, 0)) + (
        LinearFunctional.partial_at((1, -3, 2), (0, 1, 0), -3)
    )
    return build_from_conditions(
        3,
        [
            deriv_cond((1, 0, -1), (0, 0, 1)),
            chardiff_cond((3, 2, 5), (1, -3, 2)),
            Condition(mixed, ConditionKind.derivation((3, 2, 5))),
        ],
        DEGREVLEX,
    )


# -- the benchmark's point sets ---------------------------------------

# The four point sets of the benchmark's qn ladder.
LADDER_RUNGS = (
    (((0, 0), (0, 1), (1, 0)), 2),
    (((0, 0), (1, 1)), 3),
    (((0, 0, 0), (1, 0, 0)), 2),
    (((0,), (1,), (2,)), 3),
)

# The point-set algebras the membership benchmark queries: (points, N).
MEMBER_QN = (
    (((0, 0), (0, 1)), 2),
    (((0, 0, 0), (1, 0, 0)), 2),
    (((0,), (1,), (2,)), 3),
)


# -- random filtrations, valid by construction ------------------------


def direction_cond(point, direction):
    return Condition(
        LinearFunctional.directional_at(point, direction),
        ConditionKind.derivation(point),
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


# -- oracles ----------------------------------------------------------


def translate(f, alpha):
    """f(x - alpha): substitute x_i -> x_i - alpha_i, multiplied out term by term.

    The library's ``Poly.translate``; ``JetSpace.jet`` replaced the full shift.
    """
    n = f.n
    shifted = [Poly.variable(n, i + 1) - Poly.constant(n, alpha[i]) for i in range(n)]
    out = Poly.zero(n)
    for mono, coeff in f.terms():
        term = Poly.constant(n, coeff)
        for i, e in enumerate(mono):
            if e:
                term = term * shifted[i] ** e
        out = out + term
    return out


def power_multisets(counts):
    """Sub-derivatives of a pure higher partial, with multiplicities.

    Choosing a sub-multiset of a multiset of unit directions amounts to
    choosing how many copies of each variable to keep; the multiplicity
    counts the index subsets realizing that choice.
    """
    out = []
    for sub in itertools.product(*(range(c + 1) for c in counts)):
        multiplicity = 1
        for have, take in zip(counts, sub):
            multiplicity *= comb(have, take)
        out.append((tuple(sub), multiplicity))
    return out


def leibniz_expand(f, g, counts):
    """The pure partial of f*g expanded by the product rule, term by term.

    Once in ``qn``, where nothing called it; tests check ``derive`` of a
    product against it.
    """
    total = Poly.zero(f.n)
    for sub, multiplicity in power_multisets(counts):
        rest = tuple(a - b for a, b in zip(counts, sub))
        total = total + multiplicity * (f.derive(sub) * g.derive(rest))
    return total


def leibniz_expand_directions(f, g, directions):
    """The iterated directional derivative of f*g via index-subset expansion.

    Once in ``qn`` beside ``leibniz_expand``; tests check ``directional``
    of a product against it.
    """
    total = Poly.zero(f.n)
    for picks in itertools.product((False, True), repeat=len(directions)):
        left, right = f, g
        for direction, take in zip(directions, picks):
            if take:
                left = left.directional(direction)
            else:
                right = right.directional(direction)
        total = total + left * right
    return total


def ansatz_bound(flt):
    """2^(derivation levels): a looser containment level than max_order + 1.

    The level ``verify_main_theorem`` swept before it used max_order + 1.
    Each derivation level doubles it.  The sweep tests walk levels up to
    it so that they cover more than the level ``verify_main_theorem`` uses.
    """
    doublings = sum(
        1 for level in flt.levels if level.condition.kind.name == "derivation"
    )
    return 2**doublings


def codimension_scan(basis, degree_cap=None, codim=None):
    """(report, complete): the monomials outside the semigroup, by degree.

    The full scan a build once ran on each level, which
    ``sagbi._certify_step`` replaced; it asks the witness search, never
    a hole set.  With a certified ``codim`` it stops once it has found
    that many, and is complete when it found exactly ``codim``.  Without
    one it scans up to ``degree_cap``, and is complete when the top
    ``max_generator_degree`` degrees hold no missing monomial: every
    higher monomial then lies over a semigroup monomial of that window.
    """
    window = basis.max_generator_degree()
    if degree_cap is None:
        degree_cap = (codim + 1) * (window + 1) + basis.n + 2
    missing = []
    for degree in range(degree_cap + 1):
        if len(missing) == codim:
            break
        for mono in sorted(monomials_of_degree(basis.n, degree), key=basis.order.key):
            if basis.witness(mono) is None:
                missing.append(mono)
    conductor = 1 + max((sum(m) for m in missing), default=-1)
    if codim is None:
        complete = 1 <= window <= degree_cap and conductor <= degree_cap - window + 1
    else:
        complete = len(missing) == codim
    return CodimReport(len(missing), tuple(missing), conductor), complete


def linear_membership(basis, f):
    """Row-reduce generator power products; no subduction involved.

    An independent oracle of ``is_member``.  The term order is graded,
    so members of degree at most d are spanned by the constants and the
    generator products of degree at most d.
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


# -- randomized invariant suites -------------------------------------
# test_properties collects each suite as a test, and acceptance criteria
# 9 and 10 assert their time limits; both go through run_suite_once, so
# a test session runs each suite once.  The names carry no test_ prefix,
# so nothing collects them directly.

_suite_outcomes = {}


def run_suite_once(suite):
    """Run ``suite`` at most once per test session and return its runtime.

    Whichever test reaches a suite first runs and times it; a later one
    reads the recorded seconds.  A failure is recorded too and raised
    again on every later call, so each test that needs the suite fails.
    """
    if suite not in _suite_outcomes:
        start = time.perf_counter()
        try:
            suite()
        except Exception as exc:
            _suite_outcomes[suite] = exc
            raise
        _suite_outcomes[suite] = time.perf_counter() - start
    outcome = _suite_outcomes[suite]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def subduction_reaches_an_irreducible_remainder(seed=101, rounds=200):
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


def missing_monomials_grow_one_per_level(seed=103, rounds=200):
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


def far_conditions_leave_local_dimension_alone(seed=107, rounds=200):
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


def gluing_two_clusters_adds_their_dimensions(seed=109, rounds=200):
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


def dimension_bounded_by_generator_count(seed=113, rounds=200):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        point = rng.choice(spectrum(flt).points)
        space = derivation_space(flt, point)
        assert space.dimension <= len(flt.final_basis.gens)


def product_rule_expansions_match_direct_derivatives(seed=127, rounds=200):
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


def each_gluing_merges_one_cluster(seed=131, rounds=200):
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


def membership_matches_linear_algebra(seed=137, rounds=100):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        basis = flt.final_basis
        f = random_poly(rng, flt.n, flt.final_report.conductor + 2)
        assert is_member(f, basis) == linear_membership(basis, f)
