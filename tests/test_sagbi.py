import random
import signal
import sys
from bisect import insort
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from operator import add

import pytest

from subalg import sagbi
from subalg.cli import Session, main
from subalg.errors import (
    DimensionMismatch,
    InvalidFiltration,
    InvariantError,
    JetSpaceTooLarge,
    NotAProperCondition,
    RedundantCondition,
)
from subalg.functionals import (
    Condition,
    ConditionKind,
    LinearFunctional,
    character_difference,
    check_leibniz,
)
from subalg.jets import JetSpace
from subalg.linalg import Echelon, integral
from subalg.poly import (
    DEGREVLEX,
    Poly,
    TermOrder,
    format_poly,
    monomials_of_degree,
    monomials_up_to,
)
from subalg.qn import qn_build, qn_spec
from subalg.sagbi import (
    CodimReport,
    SagbiBasis,
    SubductionResult,
    SubductionStep,
    bases_equivalent,
    build_from_conditions,
    is_member,
    kernel_sagbi,
    kernel_sagbi_raw,
    minimalize,
    sagbi_from_generators,
    subduce,
    truncated_algebra_basis,
    variables_basis,
)
from support import (
    LADDER_RUNGS, MEMBER_QN, PLANE_GENERATORS, SESSIONS, SPACE_GENERATORS, P, codimension_scan,
    random_conditions, random_filtration, random_poly, session_filtration,
)

F = Fraction


def basis_of(texts, n):
    return minimalize([P(t, n) for t in texts], DEGREVLEX, n)


def gens_as_text(basis):
    return [str(g) for g in basis.gens]


# -- semigroup witnesses ----------------------------------------------


def test_witness_numeric_semigroup():
    b = basis_of(["x1^3", "x1^4", "x1^5"], 1)
    assert b.contains_monomial((0,))
    assert not b.contains_monomial((1,))
    assert not b.contains_monomial((2,))
    for d in range(3, 20):
        assert b.contains_monomial((d,))
    e = b.witness((7,))
    assert sum(k * d for k, (d,) in zip(e, b.degrees())) == 7


def test_witness_two_variables():
    b = basis_of(["x2", "x1^2", "x1*x2^2", "x1^3"], 2)
    assert b.contains_monomial((0, 0))
    assert not b.contains_monomial((1, 0))
    assert not b.contains_monomial((1, 1))
    assert b.contains_monomial((1, 2))
    assert b.contains_monomial((2, 1))
    assert b.contains_monomial((1, 3))


def test_product_for_matches_witness():
    b = basis_of(["x1^3", "x1^4", "x1^5"], 1)
    p = b.product_for((9,))
    assert p.leading_monomial(DEGREVLEX) == (9,)
    with pytest.raises(ValueError):
        b.product_for((2,))


# -- subduction -------------------------------------------------------


def test_subduce_powers():
    b = basis_of(["x1^3", "x1^4", "x1^5"], 1)
    res = subduce(P("x1^6 + x1", 1), b)
    assert res.remainder == P("x1", 1)
    assert len(res.steps) == 1
    assert subduce(P("x1^7 + 2*x1^5 - x1^3", 1), b).remainder.is_zero()


def test_constants_are_members():
    b = basis_of(["x1^2", "x1^3"], 1)
    assert is_member(Poly.constant(1, 5), b)
    assert is_member(Poly.zero(1), b)
    assert not is_member(P("x1", 1), b)


def test_subduce_uses_tails():
    # x^3 - x reduces x^3 + 1 to x + 1, which is stuck
    b = basis_of(["x1^2", "x1^3 - x1"], 1)
    res = subduce(P("x1^3 + 1", 1), b)
    assert res.remainder == P("x1 + 1", 1)
    assert is_member(P("x1^3 + x1^2 - x1", 1), b)


def test_membership_random_products(seed=11, rounds=40):
    rng = random.Random(seed)
    b = basis_of(["x1^2", "x1^3 - x1"], 1)
    for _ in range(rounds):
        f = Poly.constant(1, F(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 3)):
            g = b.gens[rng.randrange(len(b.gens))]
            f = f * g
        f = f + Poly.constant(1, F(rng.randint(-3, 3)))
        assert is_member(f, b)


def test_subduction_steps_are_bounded_by_the_terms_of_the_input():
    # Every x1^k, k >= 3, lies in a1's algebra; each term costs one step.
    a1 = session_filtration("a1").final_basis
    assert gens_as_text(a1) == ["x1^3", "x1^4", "x1^5"]
    result = subduce(Poly(1, {(k,): 1 for k in range(3, 10_010)}), a1)
    assert result.remainder.is_zero()
    assert len(result.steps) == 10_007


@contextmanager
def deadline(seconds):
    """Turn a call that loops past ``seconds`` into a failure, not a hang."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_subduction_refuses_a_polynomial_of_another_size():
    a1, a4 = session_filtration("a1").final_basis, session_filtration("a4").final_basis
    cases = [(P("x1^2", 1), a4), (P("x1^3 + x2", 2), a1), (P("x2^5", 2), a1)]
    with deadline(10):
        for f, basis in cases:
            for call in (subduce, is_member):
                with pytest.raises(DimensionMismatch):
                    call(f, basis)
        with pytest.raises(DimensionMismatch):
            bases_equivalent(a1, a4)


def test_basis_refuses_generators_of_another_size():
    with pytest.raises(DimensionMismatch):
        SagbiBasis(2, DEGREVLEX, [P("x1^3", 1)])
    with pytest.raises(DimensionMismatch):
        SagbiBasis(1, DEGREVLEX, [P("x1^2", 1), P("x1^3 + x2", 2)])


def test_witness_refuses_a_monomial_of_another_size():
    built = session_filtration("a4").final_basis  # answers from its certified holes
    searched = SagbiBasis(3, DEGREVLEX, built.gens)  # answers by the witness search
    for basis in (built, searched):
        for call in (basis.witness, basis.contains_monomial, basis.canonical_element,
                     basis.product_for):
            with deadline(10), pytest.raises(DimensionMismatch):
                call((2,))


# -- canonical elements -----------------------------------------------


def test_canonical_element_tail_reduction():
    b = basis_of(["x1^2 + 1", "x1^3"], 1)
    assert gens_as_text(b) == ["x1^2", "x1^3"]
    assert b.canonical_element((4,)) == P("x1^4", 1)


def test_canonical_elements_triangular():
    b = basis_of(["x1^2", "x1^3 - x1"], 1)
    assert b.canonical_element((2,)) == P("x1^2", 1)
    assert b.canonical_element((3,)) == P("x1^3 - x1", 1)
    # x^5 = x^2 * (x^3 - x) + x^3: the tail head x^3 is reachable, so it clears
    c5 = b.canonical_element((5,))
    assert c5.leading_monomial(DEGREVLEX) == (5,)
    for mono, _ in c5.terms():
        assert mono == (5,) or not b.contains_monomial(mono)


def test_truncated_algebra_basis_slices():
    b = basis_of(["x1^2", "x1^3 - x1"], 1)
    report, complete = codimension_scan(b, codim=1)
    assert complete
    span = truncated_algebra_basis(b, report, 4)
    assert [p.leading_monomial(DEGREVLEX) for p in span] == [(0,), (2,), (3,), (4,)]


# -- minimalize -------------------------------------------------------


def test_minimalize_drops_redundant():
    b = basis_of(["x1^3", "x1^4", "x1^5", "x1^6"], 1)
    assert gens_as_text(b) == ["x1^3", "x1^4", "x1^5"]


def test_minimalize_keeps_first_per_lm():
    b = basis_of(["x1^2 + 1", "x1^2", "x1^3"], 1)
    assert gens_as_text(b) == ["x1^2", "x1^3"]


def test_minimalize_sorts_ascending():
    b = basis_of(["x1^3", "x2"], 2)
    assert gens_as_text(b) == ["x2", "x1^3"]


# -- kernel of one condition ------------------------------------------


def dropped_degree(basis, functional):
    """The head that leaves the semigroup: that of the first generator L is nonzero on.

    The oracle of a build's single pivot pass; it applies L to every
    generator.
    """
    values = [functional.apply(g) for g in basis.gens]
    j = next((i for i, v in enumerate(values) if v), None)
    if j is None:
        raise NotAProperCondition("functional vanishes on every generator of the algebra")
    return basis.degrees()[j]


def test_kernel_first_derivative_at_zero():
    base = variables_basis(1, DEGREVLEX)
    L = LinearFunctional.partial_at((0,), (1,))
    raw = kernel_sagbi_raw(base, L)
    assert {str(p) for p in raw} == {"x1^2", "x1^3"}
    cut = kernel_sagbi(base, L)
    assert gens_as_text(cut) == ["x1^2", "x1^3"]
    assert dropped_degree(base, L) == (1,)


def test_kernel_second_level():
    b = basis_of(["x1^2", "x1^3"], 1)
    L = LinearFunctional.partial_at((0,), (2,))
    cut = kernel_sagbi(b, L)
    assert gens_as_text(cut) == ["x1^3", "x1^4", "x1^5"]


def test_kernel_character_difference():
    base = variables_basis(1, DEGREVLEX)
    e = character_difference((1,), (-1,))
    cut = kernel_sagbi(base, e)
    assert gens_as_text(cut) == ["x1^2", "x1^3 - x1"]
    assert e.apply(P("x1^3 - x1", 1)) == 0


def test_kernel_rejects_vanishing_functional():
    b = basis_of(["x1^2", "x1^3"], 1)
    L = LinearFunctional.partial_at((0,), (1,))
    with pytest.raises(NotAProperCondition):
        kernel_sagbi_raw(b, L)
    with pytest.raises(NotAProperCondition):
        dropped_degree(b, L)
    with pytest.raises(NotAProperCondition):
        kernel_sagbi(b, L)


# -- codimension ------------------------------------------------------


def test_codim_reports():
    b = basis_of(["x1^3", "x1^4", "x1^5"], 1)
    assert codimension_scan(b, codim=2) == (CodimReport(2, ((1,), (2,)), 3), True)
    full = codimension_scan(variables_basis(2, DEGREVLEX), codim=0)
    assert full == (CodimReport(0, (), 0), True)


def test_codim_certified_rejects_wrong_count():
    b = basis_of(["x1^2", "x1^3"], 1)
    report, complete = codimension_scan(b, codim=3)
    assert not complete and report.missing == ((1,),)


def test_codim_scan_window_certificate():
    b = basis_of(["x1^3", "x1^4", "x1^5"], 1)
    report, exact = codimension_scan(b, 10)
    assert exact
    assert report.codim == 2 and report.conductor == 3
    # cap too low for the window argument
    _, exact_low = codimension_scan(b, 5)
    assert not exact_low
    # but an external certificate still settles it
    _, exact_known = codimension_scan(b, 5, codim=2)
    assert exact_known


def test_codim_scan_infinite_codimension():
    b = basis_of(["x1 + x2", "x1*x2"], 2)
    report, exact = codimension_scan(b, 6)
    assert not exact
    assert (0, 1) in report.missing and (0, 6) in report.missing


# -- filtration chains ------------------------------------------------


def test_chain_two_derivatives_at_zero():
    d1 = Condition(
        LinearFunctional.partial_at((0,), (1,)), ConditionKind.derivation((0,))
    )
    d2 = Condition(
        LinearFunctional.partial_at((0,), (2,)), ConditionKind.derivation((0,))
    )
    flt = build_from_conditions(1, [d1, d2], DEGREVLEX)
    assert flt.codim == 2
    assert gens_as_text(flt.levels[0].basis) == ["x1^2", "x1^3"]
    assert gens_as_text(flt.final_basis) == ["x1^3", "x1^4", "x1^5"]
    assert flt.final_report == CodimReport(2, ((1,), (2,)), 3)


def test_chain_single_chardiff():
    e = Condition(
        character_difference((1,), (-1,)), ConditionKind.chardiff((1,), (-1,))
    )
    flt = build_from_conditions(1, [e], DEGREVLEX)
    assert gens_as_text(flt.final_basis) == ["x1^2", "x1^3 - x1"]
    assert flt.final_report == CodimReport(1, ((1,),), 2)


def test_chain_two_variables():
    d1 = Condition(
        LinearFunctional.partial_at((0, 1), (1, 0)),
        ConditionKind.derivation((0, 1)),
    )
    d2 = Condition(
        LinearFunctional.partial_at((0, 1), (1, 1)),
        ConditionKind.derivation((0, 1)),
    )
    flt = build_from_conditions(2, [d1, d2], DEGREVLEX)
    assert gens_as_text(flt.levels[0].basis) == [
        "x2",
        "x1*x2 - x1",
        "x1^2",
        "x1^3",
    ]
    assert gens_as_text(flt.final_basis) == [
        "x2",
        "x1^2",
        "x1*x2^2 - 2*x1*x2 + x1",
        "x1^3",
    ]
    assert flt.final_report == CodimReport(2, ((1, 0), (1, 1)), 3)
    # every final generator satisfies both conditions
    for g in flt.final_basis:
        assert d1.functional.apply(g) == 0
        assert d2.functional.apply(g) == 0


def test_chain_rejects_non_leibniz():
    bad = Condition(
        LinearFunctional.partial_at((0,), (2,)), ConditionKind.derivation((0,))
    )
    with pytest.raises(InvalidFiltration) as info:
        build_from_conditions(1, [bad], DEGREVLEX)
    assert info.value.level == 1


def test_chain_rejects_repeat():
    d1 = Condition(
        LinearFunctional.partial_at((0,), (1,)), ConditionKind.derivation((0,))
    )
    with pytest.raises(RedundantCondition) as info:
        build_from_conditions(1, [d1, d1], DEGREVLEX)
    assert info.value.level == 2


def test_chain_rejects_wrong_dimension():
    d1 = Condition(
        LinearFunctional.partial_at((0, 0), (1, 0)),
        ConditionKind.derivation((0, 0)),
    )
    with pytest.raises(InvalidFiltration):
        build_from_conditions(1, [d1], DEGREVLEX)


def test_chain_missing_grows_by_dropped_monomial():
    rng = random.Random(5)
    for _ in range(25):
        pts = rng.sample(range(-4, 5), 2)
        e = Condition(
            character_difference((pts[0],), (pts[1],)),
            ConditionKind.chardiff((pts[0],), (pts[1],)),
        )
        flt = build_from_conditions(1, [e], DEGREVLEX)
        assert flt.final_report.missing == ((1,),)
        assert flt.final_report.codim == 1


def test_builds_repeat_exactly(capsys):
    # A rung rebuilt after the session builds, and each session's build
    # stdout after the rung build, match their first runs.
    points, level = LADDER_RUNGS[0]
    expected = qn_build(qn_spec(points, level))
    stdout = {}
    for name in SESSION_NAMES:
        assert main(["build", str(SESSIONS / f"{name}.json")]) == 0
        stdout[name] = capsys.readouterr().out
    rung = qn_build(qn_spec(points, level))
    assert [lv.basis.gens for lv in rung.levels] == [lv.basis.gens for lv in expected.levels]
    assert [lv.report for lv in rung.levels] == [lv.report for lv in expected.levels]
    for name in SESSION_NAMES:
        assert main(["build", str(SESSIONS / f"{name}.json")]) == 0
        assert capsys.readouterr().out == stdout[name], name


# -- equivalence and completion ---------------------------------------


def test_bases_equivalent():
    left = basis_of(["x1^2", "x1^3"], 1)
    right = basis_of(["x1^2", "x1^3 + x1^2"], 1)
    assert bases_equivalent(left, right)
    assert not bases_equivalent(left, basis_of(["x1^3", "x1^4", "x1^5"], 1))


def test_completion_same_leading_monomials():
    # x^2 and x^2 + x together generate everything
    done = sagbi_from_generators([P("x1^2", 1), P("x1^2 + x1", 1)], DEGREVLEX, 8)
    assert gens_as_text(done) == ["x1"]


def test_completion_recovers_variables():
    done = sagbi_from_generators([P("x1 + x2^2", 2), P("x2", 2)], DEGREVLEX, 8)
    assert gens_as_text(done) == ["x2", "x1"]


def test_completion_product_obstruction():
    # (x1 + x2)^2 - (x1^2 + x2^2) = 2 x1 x2 forces a new generator
    done = sagbi_from_generators(
        [P("x1 + x2", 2), P("x1^2 + x2^2", 2)], DEGREVLEX, 8
    )
    assert gens_as_text(done) == ["x1 + x2", "x1*x2"]
    assert is_member(P("x1^2 + x2^2", 2), done)
    assert not is_member(P("x1 - x2", 2), done)


def test_completion_stable_on_certified_chain():
    flt = build_from_conditions(
        2,
        [
            Condition(
                LinearFunctional.partial_at((0, 1), (1, 0)),
                ConditionKind.derivation((0, 1)),
            ),
            Condition(
                LinearFunctional.partial_at((0, 1), (1, 1)),
                ConditionKind.derivation((0, 1)),
            ),
        ],
        DEGREVLEX,
    )
    redone = sagbi_from_generators(list(flt.final_basis), DEGREVLEX, 8)
    assert gens_as_text(redone) == gens_as_text(flt.final_basis)


def test_completion_symmetric_functions():
    done = sagbi_from_generators([P("x1 + x2", 2), P("x1*x2", 2)], DEGREVLEX, 8)
    assert gens_as_text(done) == ["x1 + x2", "x1*x2"]
    assert is_member(P("x1^2*x2 + x1*x2^2", 2), done)
    assert is_member(P("x1^3 + x2^3", 2), done)
    assert not is_member(P("x1", 2), done)


# -- interaction with other orders ------------------------------------


def test_chain_in_lex_order():
    lex = TermOrder("lex")
    d1 = Condition(
        LinearFunctional.partial_at((0,), (1,)), ConditionKind.derivation((0,))
    )
    flt = build_from_conditions(1, [d1], lex)
    assert gens_as_text(flt.final_basis) == ["x1^2", "x1^3"]


def test_random_chains_match_direct_kernel(seed=17, rounds=20):
    # cutting f(a) - f(b) from K[x] always lands on the same shape
    rng = random.Random(seed)
    for _ in range(rounds):
        a = F(rng.randint(-5, 5))
        b = a
        while b == a:
            b = F(rng.randint(-5, 5))
        e = character_difference((a,), (b,))
        cut = kernel_sagbi(variables_basis(1, DEGREVLEX), e)
        lms = [g.leading_monomial(DEGREVLEX) for g in cut.gens]
        assert lms == [(2,), (3,)]
        for g in cut.gens:
            assert e.apply(g) == 0


# -- the canonical-element path against its predecessors --------------

SESSION_NAMES = ("a1", "a2", "a3", "a4")
_NONZERO = (-3, -2, -1, 1, 2, 3)


def subduce_by_products(f, basis):
    """Subduction that subtracts the full generator power product per step.

    This is the path ``subduce`` replaced, kept as its oracle: each step
    multiplies out ``product_for(lm)`` and subtracts it from a fresh copy
    of the remainder.
    """
    steps = []
    rem = f
    order = basis.order
    previous_key = None
    while not rem.is_zero():
        mono, coeff = rem.leading(order)
        key = order.key(mono)
        if previous_key is not None and key >= previous_key:
            raise InvariantError("subduction failed to descend")
        previous_key = key
        exponents = basis.witness(mono)
        if exponents is None:
            break
        rem = rem - coeff * basis.product_for(mono)
        steps.append(SubductionStep(coeff, exponents))
    return SubductionResult(rem, tuple(steps))


def canonical_element_by_recursion(basis, mono, cache):
    """The recursive construction ``canonical_element`` replaced, as its oracle.

    Peel the first generator with a nonzero witness exponent, recurse on
    the rest, and clear each semigroup monomial of the product's tail
    with a fresh polynomial difference.  ``cache`` is the oracle's own.
    """
    if mono in cache:
        return cache[mono]
    e = basis.witness(mono)
    if e is None:
        raise ValueError(f"{mono} is not in the leading-monomial semigroup")
    if not any(e):
        result = Poly.constant(basis.n, 1)
    else:
        i = next(k for k, count in enumerate(e) if count)
        rest = tuple(m - d for m, d in zip(mono, basis.degrees()[i]))
        if any(rest):
            result = canonical_element_by_recursion(basis, rest, cache) * basis.gens[i]
        else:
            result = basis.gens[i]
        for m, c in list(result.terms()):
            if m != mono and basis.contains_monomial(m):
                result = result - c * canonical_element_by_recursion(basis, m, cache)
    cache[mono] = result
    return result


def cold(basis):
    """A copy of ``basis`` with empty witness and canonical-element caches."""
    return SagbiBasis(basis.n, basis.order, basis.gens)


def membership_fixtures():
    out = [(name, session_filtration(name)) for name in SESSION_NAMES]
    for points, level in MEMBER_QN:
        out.append((f"qn{points}N{level}", qn_build(qn_spec(points, level))))
    return out


def membership_queries(flt, rng, count):
    """Products of two combinations of canonical elements; odd ones leave A.

    Each combination is a nonzero constant plus multiples of one head of
    degree conductor + 3 and one lower head.  An odd query adds a nonzero
    multiple of a missing monomial, so it is not a member.
    """
    basis = flt.final_basis
    report = flt.final_report
    missing = sorted(report.missing)
    top = report.conductor + 3
    heads = [
        m
        for degree in range(1, top + 1)
        for m in sorted(monomials_of_degree(basis.n, degree))
        if m not in report.missing
    ]
    highs = [m for m in heads if sum(m) == top]

    def combination():
        out = Poly.constant(basis.n, rng.choice(_NONZERO))
        for mono in (rng.choice(highs), rng.choice(heads)):
            out = out + rng.choice(_NONZERO) * basis.canonical_element(mono)
        return out

    queries = []
    for k in range(count):
        f = combination() * combination()
        if k % 2 and missing:
            f = f + rng.choice(_NONZERO) * Poly.monomial(rng.choice(missing))
        queries.append((f, k % 2 == 0 or not missing))
    return queries


def exact_coefficients(p):
    """Every coefficient is an int, or a Fraction with a denominator: never a float."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for _, c in p.items()
    )


def test_division_sites_stay_exact():
    # Level generators pass the kernel step's L(c_m)/L(g_j), the raw
    # kernel its three quotients, and canonical elements the monic scaling.
    fixtures = [(name, session_filtration(name)) for name in SESSION_NAMES]
    fixtures += [
        (f"qn{points}N{level}", qn_build(qn_spec(points, level)))
        for points, level in dict.fromkeys(LADDER_RUNGS + MEMBER_QN)
    ]
    assert len(fixtures) == 9
    for label, flt in fixtures:
        below = flt.base
        for index, level in enumerate(flt.levels, start=1):
            assert all(map(exact_coefficients, level.basis.gens)), (label, index)
            raw = kernel_sagbi_raw(below, level.condition.functional)
            assert all(map(exact_coefficients, raw)), (label, index)
            below = level.basis
        warm = flt.final_basis
        heads = [
            m
            for degree in range(flt.final_report.conductor + 4)
            for m in monomials_of_degree(flt.n, degree)
            if warm.contains_monomial(m)
        ]
        for m in reversed(heads):
            warm.canonical_element(m)
        for m in heads:
            element = cold(warm).canonical_element(m)
            assert exact_coefficients(element), (label, m)
            assert exact_coefficients(warm.canonical_element(m)), (label, m)
            assert element == warm.canonical_element(m), (label, m)


def test_canonical_element_high_power_within_default_recursion_limit():
    basis = session_filtration("a1").final_basis
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        with pytest.raises(RecursionError):
            canonical_element_by_recursion(cold(basis), (3000,), {})
        element = cold(basis).canonical_element((3000,))
    finally:
        sys.setrecursionlimit(limit)
    assert element == P("x1^3000", 1)


def test_canonical_elements_match_recursive_construction(seed=41, rounds=40):
    rng = random.Random(seed)
    orders = [TermOrder(name) for name in ("degrevlex", "deglex", "lex")]
    checked = 0
    for _ in range(rounds):
        n = rng.randint(1, 2)
        order = rng.choice(orders)
        flt = build_from_conditions(n, random_conditions(rng, n), order)
        basis = cold(flt.final_basis)
        cache = {}
        for degree in range(flt.final_report.conductor + 4):
            for mono in monomials_of_degree(n, degree):
                if basis.contains_monomial(mono):
                    expected = canonical_element_by_recursion(basis, mono, cache)
                    assert basis.canonical_element(mono) == expected
                    checked += 1
    assert checked > 400


def test_canonical_elements_match_on_incomplete_bases(seed=43, rounds=30):
    # Generators that are not a basis of what they generate: the element
    # depends on the peeled generator, so both constructions must peel alike.
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 2)
        by_lm = {}
        for _ in range(rng.randint(2, 4)):
            g = random_poly(rng, n, 3)
            if not g.is_zero() and not g.is_constant():
                g = g.monic(DEGREVLEX)
                by_lm.setdefault(g.leading_monomial(DEGREVLEX), g)
        basis = SagbiBasis(n, DEGREVLEX, [by_lm[m] for m in sorted(by_lm, key=DEGREVLEX.key)])
        cache = {}
        for degree in range(7):
            for mono in monomials_of_degree(n, degree):
                if basis.contains_monomial(mono):
                    expected = canonical_element_by_recursion(basis, mono, cache)
                    assert basis.canonical_element(mono) == expected


def test_subduction_matches_product_oracle(seed=47, count=8):
    rng = random.Random(seed)
    for label, flt in membership_fixtures():
        for f, member in membership_queries(flt, rng, count):
            fast = subduce(f, cold(flt.final_basis))
            slow = subduce_by_products(f, cold(flt.final_basis))
            assert fast.remainder.is_zero() == slow.remainder.is_zero() == member, label
            assert format_poly(fast.remainder) == format_poly(slow.remainder), label
            assert exact_coefficients(fast.remainder), label
            assert all(type(step.coeff) in (int, Fraction) for step in fast.steps), label


def test_random_remainders_match_product_oracle_modulo_the_algebra(seed=53, rounds=400):
    # The product path leaves semigroup monomials below the leading missing
    # one that a product's tail brought in; canonical tails bring in none.
    # So lower terms may differ (19 of these 400 cases), but the verdict and
    # the leading term agree, and the two remainders differ by a member.
    rng = random.Random(seed)
    orders = [TermOrder(name) for name in ("degrevlex", "deglex", "lex")]
    for _ in range(rounds):
        n = rng.randint(1, 2)
        order = rng.choice(orders)
        flt = build_from_conditions(n, random_conditions(rng, n), order)
        basis = flt.final_basis
        f = random_poly(rng, n, flt.final_report.conductor + 3, 8)
        fast = subduce(f, cold(basis)).remainder
        slow = subduce_by_products(f, cold(basis)).remainder
        if fast != slow:
            assert not fast.is_zero() and not slow.is_zero()
            assert fast.leading(order) == slow.leading(order)
            assert is_member(fast - slow, cold(basis))


@pytest.mark.parametrize(
    "texts, n, degree_cap",
    [(PLANE_GENERATORS, 2, 5), (SPACE_GENERATORS, 3, 4)],
    ids=["plane", "space"],
)
def test_completion_matches_product_oracle(monkeypatch, texts, n, degree_cap):
    gens = [P(t, n) for t in texts]
    fast = sagbi_from_generators(gens, DEGREVLEX, degree_cap)
    monkeypatch.setattr(sagbi, "subduce", subduce_by_products)
    slow = sagbi_from_generators(gens, DEGREVLEX, degree_cap)
    assert gens_as_text(fast) == gens_as_text(slow)


def test_subduction_forms_no_generator_products(monkeypatch, seed=59):
    fixtures = [
        (path.stem, Session.load(str(path)).build())
        for path in sorted(SESSIONS.glob("*.json"))
    ]
    assert len(fixtures) == 5

    rng = random.Random(seed)
    cases = []
    for label, flt in fixtures:
        queries = membership_queries(flt, rng, 4)
        queries.append((flt.final_basis.gens[-1] ** 12, True))
        cases.append((label, flt, queries))

    def refuse(*args):
        raise AssertionError("subduction formed a generator power product")

    monkeypatch.setattr(SagbiBasis, "product_for", refuse)
    monkeypatch.setattr(SagbiBasis, "product_for_exponents", refuse)
    for label, flt, queries in cases:
        basis = cold(flt.final_basis)
        for f, member in queries:
            assert subduce(f, basis).remainder.is_zero() == member, label
        assert bases_equivalent(basis, cold(flt.final_basis))


# -- the kernel step and minimalize against their predecessors --------

ORDERS = tuple(TermOrder(name) for name in ("degrevlex", "deglex", "lex"))
# The four point sets of the benchmark's qn ladder, then two plane points.
KERNEL_QN = LADDER_RUNGS + ((((0, 0), (0, 1)), 4),)


def minimalize_by_fresh_memo(gens, order, n):
    """The loop ``minimalize`` replaced, as its oracle.

    Each leading monomial is tested against all the others, each time
    with an empty witness memo.
    """
    by_lm = {}
    for g in gens:
        if not (g.is_zero() or g.is_constant()):
            g = g.monic(order)
            by_lm.setdefault(g.leading_monomial(order), g)
    lms = sorted(by_lm, key=order.key)
    kept = [
        lm for lm in lms
        if sagbi._witness_search(lm, tuple(m for m in lms if m != lm), {}) is None
    ]
    rough = SagbiBasis(n, order, [by_lm[lm] for lm in kept])
    return SagbiBasis(n, order, [rough.canonical_element(lm) for lm in kept])


def kernel_by_raw_products(basis, functional):
    """The kernel step ``kernel_sagbi`` replaced, as its oracle."""
    return minimalize(kernel_sagbi_raw(basis, functional), basis.order, basis.n)


def test_minimalize_matches_fresh_memo_oracle(seed=61, rounds=150):
    rng = random.Random(seed)
    dropped = 0
    for k in range(rounds):
        n = rng.randint(1, 3)
        order = ORDERS[k % 3]
        gens = [random_poly(rng, n, 4, 4) for _ in range(rng.randint(1, 6))]
        # Products and powers of earlier generators make some heads redundant.
        for _ in range(rng.randint(0, 3)):
            gens.append(rng.choice(gens) * rng.choice(gens) + random_poly(rng, n, 2, 2))
        rng.shuffle(gens)
        fast = minimalize(gens, order, n)
        slow = minimalize_by_fresh_memo(gens, order, n)
        assert gens_as_text(fast) == gens_as_text(slow)
        assert fast.gens == slow.gens
        dropped += sum(1 for g in gens if not g.is_constant()) - len(fast)
    assert dropped > 100


def kernel_fixtures():
    """Session filtrations in each term order, and the point-set builds."""
    out = [
        (f"{path.stem}/{order.name}", Session.load(str(path), order.name).build())
        for path in sorted(SESSIONS.glob("*.json"))
        for order in ORDERS
    ]
    out += [(f"qn{points}N{level}", qn_build(qn_spec(points, level))) for points, level in KERNEL_QN]
    return out


def random_kernel_inputs(rng, rounds):
    """(n, conditions, order) triples for random filtrations, orders in turn."""
    out = []
    for k in range(rounds):
        n = rng.randint(1, 3)
        out.append((n, random_conditions(rng, n), ORDERS[k % 3]))
    return out


def test_kernel_step_matches_raw_product_oracle(seed=67, rounds=150):
    fixtures = kernel_fixtures()
    for n, conditions, order in random_kernel_inputs(random.Random(seed), rounds):
        fixtures.append((f"random/{order.name}", build_from_conditions(n, conditions, order)))
    levels = 0
    for label, flt in fixtures:
        below = flt.base
        for index, level in enumerate(flt.levels, start=1):
            functional = level.condition.functional
            fast = kernel_sagbi(below, functional)
            slow = kernel_by_raw_products(below, functional)
            assert gens_as_text(fast) == gens_as_text(slow), (label, index)
            assert fast.gens == slow.gens == level.basis.gens, (label, index)
            below = level.basis
            levels += 1
    assert levels > 400


def test_kernel_multiplier_is_an_int_exactly_when_integral(monkeypatch):
    # a4 carries /11 into its values, so its kernel steps subtract both
    # integral and fractional multiples of the pivot generator; a qn rung
    # only integral ones.
    multipliers = []
    original = sagbi._subtract

    def recording(terms, coeff, element):
        if sys._getframe(1).f_code is kernel_sagbi.__code__:
            multipliers.append(coeff)
        return original(terms, coeff, element)

    monkeypatch.setattr(sagbi, "_subtract", recording)
    kinds = {}
    for label, flt in [
        ("a4", session_filtration("a4")),
        ("qn", qn_build(qn_spec(((0, 0), (1, 1)), 3))),
    ]:
        below = flt.base
        multipliers.clear()
        for index, level in enumerate(flt.levels, start=1):
            functional = level.condition.functional
            fast = kernel_sagbi(below, functional)
            assert fast.gens == kernel_by_raw_products(below, functional).gens, (label, index)
            assert fast.gens == level.basis.gens, (label, index)
            below = level.basis
        assert all(type(c) is int or c.denominator != 1 for c in multipliers)
        kinds[label] = {type(c).__name__ for c in multipliers}
    assert kinds == {"a4": {"int", "Fraction"}, "qn": {"int"}}


@pytest.mark.parametrize("level", range(2, 9))
def test_kernel_step_on_plane_points_matches_raw_product_oracle(level):
    # Large levels, where a candidate head has many kept heads below it.
    flt = qn_build(qn_spec([(0, 0), (0, 1)], level))
    below = flt.base
    for index, step in enumerate(flt.levels, start=1):
        slow = kernel_by_raw_products(below, step.condition.functional)
        assert slow.gens == step.basis.gens, index
        below = step.basis


def test_builds_form_no_raw_kernel_and_minimalize_once(monkeypatch, seed=67, rounds=150):
    def refuse(*args):
        raise AssertionError("a build formed the raw kernel generators")

    calls = []

    def counting_minimalize(*args, **kwargs):
        calls.append(args)
        return minimalize(*args, **kwargs)

    monkeypatch.setattr(sagbi, "kernel_sagbi_raw", refuse)
    monkeypatch.setattr(sagbi, "minimalize", counting_minimalize)
    builds = len(kernel_fixtures())
    for n, conditions, order in random_kernel_inputs(random.Random(seed), rounds):
        build_from_conditions(n, conditions, order)
        builds += 1
    assert len(calls) == builds  # variables_basis alone


# -- the jet shadow against spans of canonical elements ---------------


def evaluation_difference_as_derivation(n):
    """ev_(1,0..) - ev_(0,..) declared a derivation at (1,0..): not one."""
    one = (1,) + (0,) * (n - 1)
    functional = LinearFunctional.evaluation(one) - LinearFunctional.evaluation((0,) * n)
    return Condition(functional, ConditionKind.derivation(one))


@pytest.mark.parametrize("n", [1, 2])
def test_evaluation_difference_declared_a_derivation_is_refused(n):
    # L(x1·x1) = 1, but 2·x1(1)·L(x1) = 2.  The span of degree
    # max_order + conductor = 0 that validated level 1 saw only constants.
    condition = evaluation_difference_as_derivation(n)
    with pytest.raises(InvalidFiltration) as info:
        build_from_conditions(n, [condition], DEGREVLEX)
    assert type(info.value) is InvalidFiltration
    assert info.value.level == 1
    assert str(info.value).startswith("condition 1:")
    x1 = Poly.variable(n, 1)
    functional, alpha = condition.functional, condition.kind.alpha
    assert functional.apply(x1 * x1) == 1
    assert 2 * x1.evaluate(alpha) * functional.apply(x1) == 2
    # Declared as what it is, it cuts.
    kind = ConditionKind.chardiff(alpha, (0,) * n)
    assert build_from_conditions(n, [Condition(functional, kind)], DEGREVLEX).codim == 1


def test_first_derivatives_at_two_points_declared_a_derivation_are_refused():
    # f'(1) + f'(-1) at 0: it kills 1 and x1^2 and meets the rule on every
    # pair of degree <= 1, but L(x1^3) = 6 where 3·0^2·L(x1) = 0.
    functional = LinearFunctional.partial_at((1,), (1,)) + LinearFunctional.partial_at((-1,), (1,))
    condition = Condition(functional, ConditionKind.derivation((0,)))
    with pytest.raises(InvalidFiltration) as info:
        build_from_conditions(1, [condition], DEGREVLEX)
    assert type(info.value) is InvalidFiltration and info.value.level == 1
    assert functional.apply(P("x1^3", 1)) == 6


def chain(texts):
    """Conditions from (kind, point, other) triples."""
    out = []
    for kind, point, other in texts:
        if kind == "chardiff":
            out.append(Condition(character_difference(point, other), ConditionKind.chardiff(point, other)))
        elif kind == "zero":
            out.append(Condition(LinearFunctional.zero(len(point)), ConditionKind.derivation(point)))
        else:
            out.append(Condition(LinearFunctional.partial_at(point, other), ConditionKind.derivation(point)))
    return out


# Refused condition lists beside test_chain_rejects_*: the error type and
# the level index they name, the same as when a span validated them.
REFUSED = [
    ("zero functional", 1, [("zero", (0,), None)], RedundantCondition, 1),
    ("repeated gluing", 2,
     [("chardiff", (1, 0), (0, 0)), ("chardiff", (0, 1), (0, 0)), ("chardiff", (0, 1), (1, 0))],
     RedundantCondition, 3),
    ("second order before first", 2,
     [("chardiff", (1, 0), (0, 0)), ("derivation", (0, 0), (1, 0)), ("derivation", (0, 0), (0, 2))],
     InvalidFiltration, 3),
    ("second derivative after gluing", 1,
     [("chardiff", (1,), (0,)), ("derivation", (0,), (2,))], InvalidFiltration, 2),
]


@pytest.mark.parametrize("label,n,texts,error,level", REFUSED, ids=[r[0] for r in REFUSED])
def test_refused_fixtures_keep_their_error_and_level(label, n, texts, error, level):
    with pytest.raises(InvalidFiltration) as info:
        build_from_conditions(n, chain(texts), DEGREVLEX)
    assert type(info.value) is error
    assert info.value.level == level


def shadow_fixtures():
    """Sessions, the ladder rungs, two plane points at N=2..5, random filtrations."""
    out = [(name, session_filtration(name)) for name in SESSION_NAMES]
    out += [(f"qn{points}N{level}", qn_build(qn_spec(points, level))) for points, level in LADDER_RUNGS]
    out += [(f"plane N={level}", qn_build(qn_spec([(0, 0), (0, 1)], level))) for level in range(2, 6)]
    for n, conditions, order in random_kernel_inputs(random.Random(71), 45):
        out.append((f"random/{order.name}", build_from_conditions(n, conditions, order)))
    return out


def replay_shadow(flt, extra=()):
    """(condition, level basis, report, shadow) per level, the shadow before its cut.

    ``extra`` conditions widen the shadow's jet space and are never cut.
    """
    shadow = sagbi._JetShadow(flt.n, list(flt.conditions()) + list(extra))
    basis, report = flt.base, CodimReport(0, (), 0)
    for level in flt.levels:
        yield level.condition, basis, report, shadow
        assert shadow.cut(level.condition.functional)
        basis, report = level.basis, level.report


def condition_space(shadow, condition):
    """The condition's own jet space, over its points, alpha and beta up to
    its order, and the shadow coordinate of each of its coordinates."""
    functional, kind = condition.functional, condition.kind
    points = sorted(set(functional.points()) | {kind.alpha, kind.beta})
    space = JetSpace(points, functional.max_order, functional.n)
    big = shadow.space
    return space, [big.index(big.point_index(space.points[pi]), a) for pi, a in space.coords]


def span_reaching(space, basis, report, rank):
    """Canonical elements by head degree until their jets reach ``rank``."""
    missing = set(report.missing)
    jets, span = Echelon(), []
    guard = report.conductor + (space.cap + 1) * len(space.points) + 2
    for degree in range(guard + 1):
        if jets.rank == rank:
            return jets, span
        for mono in sorted(monomials_of_degree(basis.n, degree), key=basis.order.key):
            if mono not in missing:
                span.append(basis.canonical_element(mono))
                jets.add(space.jet(span[-1]))
    assert jets.rank == rank, "the span never reached the shadow's rank"
    return jets, span


def perturbed(condition, rng):
    """Conditions around a valid one that mostly fail its level's Leibniz rule."""
    functional, kind = condition.functional, condition.kind
    n = functional.n
    elsewhere = tuple(c + 1 for c in kind.alpha)
    higher = LinearFunctional.partial_at(kind.alpha, tuple(rng.randint(0, 2) for _ in range(n)))
    return [
        Condition(functional, ConditionKind("chardiff", elsewhere, kind.beta)),
        Condition(functional, ConditionKind("chardiff", kind.beta, kind.alpha)),
        Condition(LinearFunctional.evaluation(kind.alpha), ConditionKind.derivation(kind.alpha)),
        Condition(functional + higher, kind),
    ]


def test_shadow_projection_equals_a_canonical_span_and_its_verdict():
    rng = random.Random(73)
    levels = verdicts = refusals = 0
    for label, flt in shadow_fixtures():
        probes = {level.condition: perturbed(level.condition, rng) for level in flt.levels}
        extra = [c for wrong in probes.values() for c in wrong]
        for condition, basis, report, shadow in replay_shadow(flt, extra):
            for probe in [condition] + probes[condition]:
                projected = shadow.project(probe)
                space, columns = condition_space(shadow, probe)
                jets, span = span_reaching(space, basis, report, projected.rank)
                reindexed = {
                    columns[p]: {columns[c]: v for c, v in row.items()}
                    for p, row in jets.pivot_rows.items()
                }
                assert projected.pivot_rows == reindexed, (label, probe)
                verdict = shadow.leibniz_holds(probe)
                kind = probe.kind
                assert verdict == check_leibniz(probe.functional, kind.alpha, kind.beta, span), (label, probe)
                assert verdict or probe is not condition, (label, probe)
                verdicts += 1
                refusals += not verdict
            levels += 1
    assert levels > 200
    assert verdicts // 4 < refusals < verdicts


class RowShadow(sagbi._JetShadow):
    """The former shadow, kept as an oracle: the level's jets as integer rows.

    It starts from the unit rows and cuts each level by one fraction-free
    elimination step.
    """

    __slots__ = ("rows",)

    def __init__(self, n, conditions):
        super().__init__(n, conditions)
        self.rows = [{c: 1} for c in range(self.space.dim)]

    def project(self, condition):
        columns = set(condition_space(self, condition)[1])
        jets = Echelon()
        for row in self.rows:
            projected = {c: v for c, v in row.items() if c in columns}
            if projected and jets.add(projected) is not None and jets.rank == len(columns):
                break
        return jets

    def cut(self, functional):
        """The sparsest row where ℓ is nonzero is the pivot; every other such
        row r becomes ℓ(p)·r − ℓ(r)·p over their gcd, and the pivot leaves."""
        covector = integral(self.space.functional_covector(functional))
        pair = self.space.pair
        hits = [(i, value) for i, row in enumerate(self.rows) if (value := pair(covector, row))]
        if not hits:
            return False
        p, vp = min(hits, key=lambda hit: len(self.rows[hit[0]]))
        pivot = self.rows[p]
        for i, value in hits:
            if i == p:
                continue
            g = gcd(vp, value)
            scale, factor = vp // g, value // g
            row = {c: scale * v for c, v in self.rows[i].items()}
            for c, v in pivot.items():
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                else:
                    del row[c]
            content = gcd(*row.values())
            self.rows[i] = row if content == 1 else {c: v // content for c, v in row.items()}
        del self.rows[p]
        return True


def test_covector_shadow_matches_row_elimination_oracle():
    chains = [(label, flt.n, list(flt.conditions())) for label, flt in shadow_fixtures()]
    chains += [(label, n, chain(texts)) for label, n, texts, _, _ in REFUSED]
    levels = redundant = 0
    for label, n, conditions in chains:
        shadow, oracle = sagbi._JetShadow(n, conditions), RowShadow(n, conditions)
        for index, condition in enumerate(conditions, start=1):
            projected = shadow.project(condition).pivot_rows
            assert projected == oracle.project(condition).pivot_rows, (label, index)
            verdict = shadow.cut(condition.functional)
            assert verdict == oracle.cut(condition.functional), (label, index)
            levels += 1
            redundant += not verdict
    assert levels > 200 and redundant >= 2


def test_builds_take_no_span_and_no_polynomial_jets(monkeypatch):
    def refuse(*args):
        raise AssertionError("a build validated on a span of polynomials")

    monkeypatch.setattr(sagbi, "truncated_algebra_basis", refuse)
    monkeypatch.setattr(sagbi.JetSpace, "jet", refuse)
    assert sum(flt.codim for _, flt in shadow_fixtures()) > 200


def test_shadow_cut_must_agree_with_the_generators(monkeypatch):
    conditions = chain([("chardiff", (1, 0), (0, 0)), ("derivation", (0, 0), (1, 0))])
    assert build_from_conditions(2, conditions, DEGREVLEX).codim == 2
    with monkeypatch.context() as patch:
        patch.setattr(sagbi._JetShadow, "cut", lambda self, functional: False)
        with pytest.raises(InvariantError, match="vanishes on its level's jets"):
            build_from_conditions(2, conditions, DEGREVLEX)

    def vanishing(basis, functional):
        raise NotAProperCondition("patched")

    monkeypatch.setattr(sagbi, "_pivot", vanishing)
    with pytest.raises(InvariantError, match="vanishes on every generator"):
        build_from_conditions(2, conditions, DEGREVLEX)


def test_oversized_jet_union_is_refused_before_level_one(monkeypatch):
    # Each condition's own space is small: 2 points at order 0, or one
    # point at order 20 (1,771 coordinates).  Their union at order 20
    # over 13 points has 23,023.
    origin = (0, 0, 0)
    conditions = [
        Condition(character_difference((i, 0, 0), origin), ConditionKind.chardiff((i, 0, 0), origin))
        for i in range(1, 13)
    ]
    conditions.append(
        Condition(LinearFunctional.partial_at(origin, (20, 0, 0)), ConditionKind.derivation(origin))
    )
    cuts = []
    monkeypatch.setattr(sagbi, "kernel_sagbi", lambda *args: cuts.append(args))
    with pytest.raises(JetSpaceTooLarge, match="23023 coordinates"):
        build_from_conditions(3, conditions, DEGREVLEX)
    assert cuts == []


def test_misfit_point_is_refused_at_its_own_level():
    # A declared point of the wrong size is left out of the shared jet
    # space, so an invalid condition before it still names its level.
    origin = (0, 0)
    first = Condition(LinearFunctional.partial_at(origin, (1, 0)), ConditionKind.derivation(origin))
    second = Condition(LinearFunctional.partial_at(origin, (2, 0)), ConditionKind.derivation(origin))
    misfit = Condition(LinearFunctional.partial_at(origin, (1, 0)), ConditionKind.derivation((0,)))
    with pytest.raises(InvalidFiltration, match="condition 1:"):
        build_from_conditions(2, [second, misfit], DEGREVLEX)
    with pytest.raises(DimensionMismatch, match="got 1"):
        build_from_conditions(2, [first, misfit], DEGREVLEX)
    with pytest.raises(DimensionMismatch, match="got 1"):
        build_from_conditions(2, [misfit], DEGREVLEX)


# -- certified holes and seeded canonical elements -------------------


def test_certified_levels_answer_membership_from_their_holes():
    checked = 0
    for label, flt in shadow_fixtures():
        assert flt.base._holes == frozenset()
        for index, level in enumerate(flt.levels, start=1):
            basis = level.basis
            assert basis._holes == frozenset(level.report.missing), (label, index)
            top = level.report.conductor + basis.max_generator_degree()
            for degree in range(top + 1):
                for mono in monomials_of_degree(flt.n, degree):
                    assert basis.contains_monomial(mono) == (basis.witness(mono) is not None)
                    checked += 1
    assert checked > 10_000


def test_codimension_scan_never_reads_the_holes():
    flt = session_filtration("a4")
    basis = flt.final_basis
    holes = basis._holes
    try:
        basis._holes = frozenset()  # a wrong hole set: every monomial a member
        assert codimension_scan(basis, codim=flt.codim) == (flt.final_report, True)
    finally:
        basis._holes = holes


def test_seeded_kernel_elements_equal_cold_ones():
    for label, flt in shadow_fixtures():
        for index, level in enumerate(flt.levels, start=1):
            basis = level.basis
            fresh = cold(basis)
            for mono, element in basis._canon.items():
                assert element == fresh.canonical_element(mono), (label, index, mono)
            # Cold copies get no holes, so their queries take the witness search.
            assert fresh._holes is None


def test_kernel_step_on_certified_levels_matches_raw_product_oracle():
    for label, flt in shadow_fixtures():
        below = flt.base
        for index, level in enumerate(flt.levels, start=1):
            assert below._holes is not None
            functional = level.condition.functional
            fast = kernel_sagbi(below, functional)
            assert fast.gens == kernel_by_raw_products(below, functional).gens, (label, index)
            below = level.basis


def test_kernel_heads_are_the_generators_leading_monomials():
    for label, flt in shadow_fixtures():
        for index, level in enumerate(flt.levels, start=1):
            basis = level.basis
            assert basis.degrees() == cold(basis).degrees(), (label, index)
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    with pytest.raises(ValueError, match="distinct leading monomials"):
        SagbiBasis._with_heads(2, DEGREVLEX, [x1, x2], [(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="distinct leading monomials"):
        SagbiBasis(2, DEGREVLEX, [x1, x1])


# -- the step certificate ---------------------------------------------


def step_certificate_fixtures():
    """a1-a4 in three orders, the ladder rungs, two plane points at N=2..8, random filtrations."""
    out = [
        (f"{name}/{order.name}", session_filtration(name, order.name))
        for name in SESSION_NAMES
        for order in ORDERS
    ]
    out += [(f"qn{points}N{level}", qn_build(qn_spec(points, level))) for points, level in LADDER_RUNGS]
    out += [(f"plane N={level}", qn_build(qn_spec([(0, 0), (0, 1)], level))) for level in range(2, 9)]
    # The random filtrations of the first two invariant suites, at their seeds.
    for seed in (101, 103):
        rng = random.Random(seed)
        out += [(f"random {seed}/{k}", random_filtration(rng)) for k in range(200)]
    return out


def step_report_by_witness_search(kernel, dropped, report):
    """``sagbi._step_report`` by the kernel's witness search over the window."""
    n, key = kernel.n, kernel.order.key
    top = max(report.conductor, sum(dropped) + 1)
    window = {tuple(map(add, dropped, e)) for e in monomials_up_to(n, top - 1 - sum(dropped))}
    for degree in range(report.conductor, top):
        window.update(monomials_of_degree(n, degree))
    missing = [m for m in report.missing if m not in window]
    for m in window:
        if kernel.witness(m) is None:
            insort(missing, m, key=lambda m: (sum(m), key(m)))
    conductor = sum(missing[-1]) + 1 if missing else 0
    return CodimReport(len(missing), tuple(missing), conductor)


def test_step_reports_equal_the_full_scan():
    # Each step's lookup also equals the witness search over its window.
    levels = 0
    for label, flt in step_certificate_fixtures():
        below = CodimReport(0, (), 0)
        for index, level in enumerate(flt.levels, start=1):
            assert codimension_scan(level.basis, codim=index) == (level.report, True), (label, index)
            (dropped,) = set(level.report.missing) - set(below.missing)
            searched = step_report_by_witness_search(level.basis, dropped, below)
            assert searched == sagbi._step_report(level.basis, dropped, below), (label, index)
            below = level.report
            levels += 1
    assert levels > 1_100


def test_kernel_heads_from_products_equal_the_witness_path():
    # A kept head d + g is cleared from g_j·g, and 3d from a product of
    # g_j's; the witness path of a cold copy builds the same element.
    checked = 0
    for label, flt in shadow_fixtures():
        below = flt.base
        for index, level in enumerate(flt.levels, start=1):
            functional = level.condition.functional
            # With no certified holes, the step asks the witness search.
            assert kernel_sagbi(cold(below), functional).gens == level.basis.gens, (label, index)
            d = dropped_degree(below, functional)
            gj = below.gens[below.degrees().index(d)]
            for m in set(level.basis.degrees()) - set(below.degrees()):
                rest = tuple(a - b for a, b in zip(m, d))
                if rest in below.degrees():
                    product = gj * below.gens[below.degrees().index(rest)]
                else:
                    assert rest == tuple(2 * k for k in d)
                    product = gj * gj * gj
                by_product = cold(below).canonical_element(m, product)
                assert by_product == cold(below).canonical_element(m), (label, index, m)
                checked += 1
            below = level.basis
    assert checked > 500


def with_generators(basis, pairs):
    """``basis`` with its (head, generator) pairs replaced by ``pairs``, in term order."""
    pairs = sorted(pairs, key=lambda pair: basis.order.key(pair[0]))
    return SagbiBasis._with_heads(
        basis.n, basis.order, [g for _, g in pairs], [m for m, _ in pairs]
    )


def drop_another_head(below, kernel, d):
    pairs = list(zip(kernel.degrees(), kernel.gens))
    other = next((m for m, _ in pairs if m in below.degrees()), None)
    if other is None:
        return None
    return with_generators(kernel, [(m, g) for m, g in pairs if m != other])


def keep_the_dropped_head(below, kernel, d):
    gj = below.gens[below.degrees().index(d)]
    return with_generators(kernel, [*zip(kernel.degrees(), kernel.gens), (d, gj)])


def keep_an_old_hole(below, kernel, d):
    if below._holes is None or not below._holes:
        return None
    hole = min(below._holes)
    monomial = Poly(kernel.n, {hole: 1})
    return with_generators(kernel, [*zip(kernel.degrees(), kernel.gens), (hole, monomial)])


def keep_a_reducible_candidate(below, kernel, d):
    first = kernel.degrees()[0]
    twice = tuple(2 * k for k in first)
    element = kernel.canonical_element(twice)
    return with_generators(kernel, [*zip(kernel.degrees(), kernel.gens), (twice, element)])


KERNEL_MUTANTS = {
    "drops another head": drop_another_head,
    "keeps the dropped head": keep_the_dropped_head,
    "keeps an old hole": keep_an_old_hole,
    "keeps a reducible candidate": keep_a_reducible_candidate,
}
MUTANTS = (*KERNEL_MUTANTS, "reports a wrong dropped head")
# The part of the certificate that must catch each mutant.
CAUGHT_BY = {
    "drops another head": "left too",
    "keeps the dropped head": "lies outside the semigroup",
    "keeps an old hole": "lies outside the semigroup",
    "keeps a reducible candidate": "is reducible",
    "reports a wrong dropped head": "left too",
}


def install_mutant(monkeypatch, mutant, at):
    """Patch the build's kernel step to go wrong at its ``at``-th level.

    Returns the list of levels stepped, and whether the mutant applied.
    """
    steps, applied = [], []
    real_kernel, real_certify = sagbi.kernel_sagbi, sagbi._certify_step

    def kernel_step(basis, functional, pivot=None):
        kernel = real_kernel(basis, functional, pivot)
        steps.append(basis)
        if len(steps) == at and mutant in KERNEL_MUTANTS:
            mutated = KERNEL_MUTANTS[mutant](basis, kernel, dropped_degree(basis, functional))
            if mutated is not None:
                applied.append(mutant)
                return mutated
        return kernel

    def certify(below, kernel, dropped, report):
        if len(steps) == at and mutant not in KERNEL_MUTANTS:
            others = [m for m in below.degrees() if m != dropped]
            dropped = others[0] if others else tuple(2 * k for k in dropped)
            applied.append(mutant)
        return real_certify(below, kernel, dropped, report)

    monkeypatch.setattr(sagbi, "kernel_sagbi", kernel_step)
    monkeypatch.setattr(sagbi, "_certify_step", certify)
    return steps, applied


MUTATION_FIXTURES = [(name, lambda name=name: session_filtration(name)) for name in SESSION_NAMES]
MUTATION_FIXTURES += [
    (f"qn{points}N{level}", lambda points=points, level=level: qn_build(qn_spec(points, level)))
    for points, level in LADDER_RUNGS
]


@pytest.mark.parametrize("mutant", MUTANTS)
def test_step_mutants_raise_at_their_own_level(monkeypatch, mutant):
    raised = 0
    for label, make in MUTATION_FIXTURES:
        flt = make()
        for at in range(1, flt.codim + 1):
            with monkeypatch.context() as patch:
                steps, applied = install_mutant(patch, mutant, at)
                try:
                    build_from_conditions(flt.n, flt.conditions(), flt.order)
                except InvariantError as error:
                    message = str(error)
                    assert message.startswith("kernel step did not drop"), (label, at)
                    assert message.endswith(CAUGHT_BY[mutant]), (label, at, message)
                    assert applied == [mutant] and len(steps) == at, (label, at)
                    raised += 1
                else:
                    assert not applied, (label, at)
    assert raised > 20


@pytest.mark.parametrize("mutant", MUTANTS)
def test_step_mutants_exit_four_through_build(monkeypatch, capsys, mutant):
    exits = 0
    for name in SESSION_NAMES:
        path = str(SESSIONS / f"{name}.json")
        last = session_filtration(name).codim
        with monkeypatch.context() as patch:
            _, applied = install_mutant(patch, mutant, last)
            code = main(["build", path])
            out, err = capsys.readouterr()
        if applied:
            assert (code, out) == (4, ""), name
            assert err.startswith("internal error: kernel step did not drop"), name
            exits += 1
    assert exits >= 3


# -- work the builds no longer do -------------------------------------


def test_builds_apply_each_condition_in_one_pivot_pass(monkeypatch):
    calls = []
    real = sagbi._pivot

    def counting(basis, functional):
        calls.append(basis)
        return real(basis, functional)

    monkeypatch.setattr(sagbi, "_pivot", counting)
    levels = 0
    for label, flt in shadow_fixtures():
        calls.clear()
        again = build_from_conditions(flt.n, flt.conditions(), flt.order)
        assert len(calls) == again.codim == flt.codim, label
        below = again.base
        for index, level in enumerate(again.levels, start=1):
            # The dropped head is the one the oracle finds on every generator.
            before = set(again.levels[index - 2].report.missing) if index > 1 else set()
            dropped = set(level.report.missing) - before
            assert dropped == {dropped_degree(below, level.condition.functional)}, (label, index)
            below = level.basis
            levels += 1
    assert levels > 200
