import random
from fractions import Fraction
from pathlib import Path

import pytest

import subalg.sagbi
from subalg.cli import Session
from subalg.errors import DegenerateCondition, DimensionMismatch, InvalidFiltration
from subalg.functionals import (
    Condition,
    ConditionKind,
    DerivativeAtom,
    LinearFunctional,
    character_difference,
    check_leibniz,
    express_in_span,
    leibniz_on_jets,
)
from subalg.jets import JetSpace
from subalg.linalg import Echelon
from subalg.poly import DEGREVLEX, Poly, TermOrder, as_point, parse_poly
from subalg.qn import qn_build, qn_spec
from subalg.sagbi import CodimReport, build_from_conditions, truncated_algebra_basis
from test_properties import random_conditions
from test_qn import LADDER_RUNGS

F = Fraction
SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def P(text, n):
    return parse_poly(text, n)


def test_partial_atom_apply():
    second_at_zero = LinearFunctional.partial_at((0,), (2,))
    assert second_at_zero.apply(P("x1^3 + x1^2", 1)) == 2
    assert second_at_zero.apply(P("x1", 1)) == 0


def random_terms(rng, n):
    return {
        tuple(rng.randint(0, 4) for _ in range(n)): F(rng.randint(-5, 5), rng.choice((1, 1, 3, 11)))
        for _ in range(rng.randint(0, 6))
    }


@pytest.mark.parametrize("rational", [False, True], ids=["integral", "rational"])
def test_atom_apply_matches_derive_and_evaluate(rational, seed=43, rounds=200):
    rng = random.Random(seed + rational)
    coordinates = (0, 0, 1, -1, 2, -3) + ((F(1, 2), F(-5, 3), F(7, 4)) if rational else ())
    for _ in range(rounds):
        n = rng.randint(1, 3)
        f = Poly(n, random_terms(rng, n))
        point = tuple(F(rng.choice(coordinates)) for _ in range(n))
        partials = tuple(rng.randint(0, 3) for _ in range(n))
        atom = DerivativeAtom(F(rng.randint(-3, 3), rng.randint(1, 4)), point, partials)
        value = atom.apply(f)
        assert type(value) is Fraction
        assert value == atom.coeff * f.derive(partials).evaluate(point)


def test_atom_apply_checks_sizes():
    atom = DerivativeAtom(F(1), (F(0), F(0)), (1, 0))
    with pytest.raises(DimensionMismatch):
        atom.apply(P("x1", 1))


def test_evaluation_and_scale():
    ev = LinearFunctional.evaluation((F(1, 2),), coeff=3)
    assert ev.apply(P("x1^2", 1)) == F(3, 4)


def test_character_difference_on_members():
    # f(1) - f(-1) kills x^3 - x and x^2
    e = character_difference((1,), (-1,))
    assert e.apply(P("x1^3 - x1", 1)) == 0
    assert e.apply(P("x1^2", 1)) == 0
    assert e.apply(P("x1", 1)) == 2


def test_character_difference_rejects_equal_points():
    with pytest.raises(DegenerateCondition):
        character_difference((1, 2), (1, 2))
    with pytest.raises(DegenerateCondition):
        character_difference((1,), (0,), coeff=0)
    with pytest.raises(DimensionMismatch):
        character_difference((1,), (0, 0))


def test_directional_splits_into_pure_partials():
    d = LinearFunctional.directional_at((0, 1), (2, -3))
    assert len(d.atoms) == 2
    f = P("x1*x2", 2)
    # 2*f_x1 - 3*f_x2 at (0,1) = 2*1 - 3*0
    assert d.apply(f) == 2
    with pytest.raises(DegenerateCondition):
        LinearFunctional.directional_at((0, 0), (0, 0))


def test_normalization_merges_and_sorts():
    a = DerivativeAtom(F(1), (F(0),), (1,))
    b = DerivativeAtom(F(2), (F(0),), (1,))
    c = DerivativeAtom(F(-3), (F(0),), (1,))
    combined = LinearFunctional(1, [a, b, c])
    assert combined.is_zero()
    mixed = LinearFunctional(
        1,
        [
            DerivativeAtom(F(1), (F(1),), (0,)),
            DerivativeAtom(F(1), (F(0),), (2,)),
            DerivativeAtom(F(1), (F(0),), (1,)),
        ],
    )
    # sorted by point, then derivative order
    assert [atom.point for atom in mixed.atoms] == [(F(0),), (F(0),), (F(1),)]
    assert [atom.order for atom in mixed.atoms] == [1, 2, 0]


def test_functional_linear_combinations():
    e1 = LinearFunctional.evaluation((1,))
    e2 = LinearFunctional.evaluation((2,))
    diff = e1 - e2
    assert diff == character_difference((1,), (2,))
    assert (2 * e1).apply(P("x1", 1)) == 2
    assert e1 + e2.scale(-1) == diff


def test_max_order_and_points():
    mixed = LinearFunctional(
        2,
        [
            DerivativeAtom(F(1), (F(0), F(0)), (1, 2)),
            DerivativeAtom(F(5), (F(1), F(1)), (0, 0)),
        ],
    )
    assert mixed.max_order == 3
    assert mixed.points() == ((F(0), F(0)), (F(1), F(1)))


def test_check_leibniz_second_derivative():
    # On K + x^2 K[x] the second derivative at 0 is a derivation ...
    span = [Poly.constant(1, 1)] + [P(f"x1^{a}", 1) for a in range(2, 7)]
    second = LinearFunctional.partial_at((0,), (2,))
    assert check_leibniz(second, (0,), (0,), span)
    # ... but not on all of K[x]
    full = [Poly.constant(1, 1)] + [P(f"x1^{a}", 1) for a in range(1, 5)]
    assert not check_leibniz(second, (0,), (0,), full)


def test_check_leibniz_chardiff_any_span():
    rng = random.Random(21)
    e = character_difference((1,), (-1,), coeff=F(5, 3))
    for _ in range(20):
        span = []
        for _ in range(4):
            terms = {
                (rng.randint(0, 4),): F(rng.randint(-4, 4)) for _ in range(3)
            }
            span.append(Poly(1, terms))
        assert check_leibniz(e, (1,), (-1,), span)


def test_chardiff_is_not_a_derivation():
    # the two-point rule holds, the one-point rule fails on K[x]
    e = character_difference((1,), (-1,))
    span = [Poly.constant(1, 1)] + [P(f"x1^{a}", 1) for a in range(1, 4)]
    assert check_leibniz(e, (1,), (-1,), span)
    assert not check_leibniz(e, (1,), (1,), span)
    assert not check_leibniz(e, (-1,), (-1,), span)


def test_express_in_span_telescoping():
    target = character_difference((2,), (0,))
    basis = [character_difference((2,), (1,)), character_difference((1,), (0,))]
    test_space = [P(f"x1^{a}", 1) for a in range(5)]
    assert express_in_span(target, basis, test_space) == [F(1), F(1)]


def test_express_in_span_failure():
    target = LinearFunctional.partial_at((0,), (1,))
    basis = [character_difference((1,), (0,))]
    test_space = [P(f"x1^{a}", 1) for a in range(5)]
    assert express_in_span(target, basis, test_space) is None


def test_express_in_span_random_combinations():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 2)
        points = []
        while len(points) < 3:
            pt = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            if pt not in points:
                points.append(pt)
        basis = [
            LinearFunctional.partial_at(pt, tuple(rng.randint(0, 2) for _ in range(n)))
            for pt in points
        ]
        coeffs = [F(rng.randint(-5, 5)) for _ in basis]
        target = LinearFunctional.zero(n)
        for c, b in zip(coeffs, basis):
            target = target + b.scale(c)
        test_space = [
            Poly.monomial(mono)
            for mono in [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(12)]
        ]
        found = express_in_span(target, basis, test_space)
        assert found is not None
        rebuilt = LinearFunctional.zero(n)
        for c, b in zip(found, basis):
            rebuilt = rebuilt + b.scale(c)
        for t in test_space:
            assert rebuilt.apply(t) == target.apply(t)


def test_condition_kind_constructors():
    kind = ConditionKind.chardiff((1,), (2,))
    assert kind.name == "chardiff"
    assert kind.alpha != kind.beta
    deriv = ConditionKind.derivation((0, 0))
    assert deriv.alpha == deriv.beta


# -- the polynomial pair loop as an oracle for the jet check ----------


def leibniz_by_products(functional, alpha, beta, span):
    """Multiply out every ordered pair from span and apply the functional."""
    a = as_point(alpha, functional.n)
    b = as_point(beta, functional.n)
    values = [functional.apply(f) for f in span]
    at_alpha = [f.evaluate(a) for f in span]
    at_beta = [f.evaluate(b) for f in span]
    for i, f in enumerate(span):
        for j, g in enumerate(span):
            left = functional.apply(f * g)
            right = at_alpha[i] * values[j] + at_beta[j] * values[i]
            if left != right:
                return False
    return True


def level_spans(flt):
    """(condition, span) per level: the span its build step validates it on."""
    basis, report = flt.base, CodimReport(0, (), 0)
    for level in flt.levels:
        bound = level.condition.functional.max_order + report.conductor
        yield level.condition, truncated_algebra_basis(basis, report, bound)
        basis, report = level.basis, level.report


def filtrations():
    for name in ("a1", "a2", "a3", "a4"):
        yield Session.load(str(SESSIONS / f"{name}.json")).build()
    yield qn_build(qn_spec([(0, 0), (0, 1)], 2))
    yield qn_build(qn_spec([(0,), (1,), (2,)], 3))


def agree(functional, alpha, beta, span):
    verdict = check_leibniz(functional, alpha, beta, span)
    assert verdict == leibniz_by_products(functional, alpha, beta, span)
    return verdict


def test_check_leibniz_matches_products_on_every_level():
    levels = 0
    for flt in filtrations():
        for condition, span in level_spans(flt):
            levels += 1
            assert agree(condition.functional, condition.kind.alpha, condition.kind.beta, span)
    assert levels == 2 + 1 + 2 + 3 + 5 + 8


def test_check_leibniz_matches_products_on_failures():
    rng = random.Random(23)
    verdicts = []
    for flt in filtrations():
        for condition, span in level_spans(flt):
            functional, kind = condition.functional, condition.kind
            n = functional.n
            elsewhere = tuple(c + 1 for c in kind.alpha)
            # wrong alpha, wrong beta, swapped points
            verdicts.append(agree(functional, elsewhere, kind.beta, span))
            verdicts.append(agree(functional, kind.alpha, elsewhere, span))
            verdicts.append(agree(functional, kind.beta, kind.alpha, span))
            # not a derivation: evaluation, and a derivative one order up
            verdicts.append(agree(LinearFunctional.evaluation(kind.alpha), kind.alpha, kind.alpha, span))
            partials = tuple(rng.randint(0, 2) for _ in range(n))
            higher = LinearFunctional.partial_at(kind.alpha, partials)
            verdicts.append(agree(functional + higher, kind.alpha, kind.beta, span))
            # a span without 1, and the zero functional
            assert span[0] == Poly.constant(n, 1)
            verdicts.append(agree(functional, kind.alpha, kind.beta, span[1:]))
            verdicts.append(agree(LinearFunctional.zero(n), kind.alpha, kind.beta, span))
    assert verdicts.count(False) > len(verdicts) // 4
    assert verdicts.count(True) > len(verdicts) // 4


def test_check_leibniz_matches_products_on_random_spans():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 2)
        points = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(2)]
        functional = LinearFunctional.zero(n)
        for _ in range(rng.randint(0, 3)):
            partials = tuple(rng.randint(0, 2) for _ in range(n))
            functional = functional + LinearFunctional.partial_at(
                rng.choice(points), partials, rng.randint(-2, 2)
            )
        span = [
            Poly(n, {tuple(rng.randint(0, 3) for _ in range(n)): F(rng.randint(-3, 3)) for _ in range(3)})
            for _ in range(rng.randint(1, 4))
        ]
        agree(functional, points[0], points[1], span)


def jet_rank(functional, alpha, beta, span):
    """Rank of the span's jets in the space check_leibniz builds for them."""
    n = functional.n
    points = set(functional.points()) | {as_point(alpha, n), as_point(beta, n)}
    space = JetSpace(sorted(points), functional.max_order, n)
    jets = Echelon()
    for f in span:
        jets.add(space.jet(f))
    return jets.rank


def count_calls(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` so that each call bumps ``calls[name]``."""
    method = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return method(*args)

    monkeypatch.setattr(owner, name, counted)


def test_check_leibniz_forms_no_product_and_an_adjoint_per_jet(monkeypatch):
    # The defect is bilinear in the jets, so one check reads L(fg) off one
    # adjoint covector per basis jet f: at most r adjoints for jet rank r,
    # however long the span, and no jet product at all.
    calls = {"product": 0, "adjoint": 0}
    for name in calls:
        count_calls(monkeypatch, JetSpace, name, calls)
    levels = adjoints = 0
    for flt in filtrations():
        for condition, span in level_spans(flt):
            functional, kind = condition.functional, condition.kind
            r = jet_rank(functional, kind.alpha, kind.beta, span)
            calls.update(product=0, adjoint=0)
            assert check_leibniz(functional, kind.alpha, kind.beta, span)
            assert calls["product"] == 0
            assert calls["adjoint"] <= r
            levels += 1
            adjoints += calls["adjoint"]
    assert levels == 2 + 1 + 2 + 3 + 5 + 8
    assert adjoints > 0


def test_check_leibniz_tests_both_orders_of_a_pair():
    # With alpha != beta the rule is not symmetric in f and g: here
    # (x1, 1 - x1^3) passes and (1 - x1^3, x1) fails.
    functional = LinearFunctional.evaluation((0,), -1) + LinearFunctional.evaluation((1,), -2)
    f, g = P("x1", 1), P("1 - x1^3", 1)
    assert not agree(functional, (0,), (1,), [f, g])
    assert not agree(functional, (0,), (1,), [g, f])
    assert agree(functional, (0,), (1,), [f])


# -- the jet-product pair loop as an oracle for the adjoint one -------


def leibniz_on_jets_by_products(space, functional, alpha, beta, jets):
    """``leibniz_on_jets`` by jet products: L applied to u·v for every
    pair of basis jets, in both orders."""
    covector = space.functional_covector(functional)
    jets = list(jets)
    ev_a, ev_b = space.evaluation_covector(alpha), space.evaluation_covector(beta)
    values = [space.pair(covector, u) for u in jets]
    at_alpha = [space.pair(ev_a, u) for u in jets]
    at_beta = [space.pair(ev_b, u) for u in jets]
    for i, u in enumerate(jets):
        for j in range(i, len(jets)):
            product = space.pair(covector, space.product(u, jets[j]))
            if product != at_alpha[i] * values[j] + at_beta[j] * values[i]:
                return False
            if product != at_alpha[j] * values[i] + at_beta[i] * values[j]:
                return False
    return True


def compare_build_verdicts(monkeypatch):
    """Make every build decide each level on both paths; returns the verdicts."""
    verdicts = []

    def both(space, functional, alpha, beta, jets):
        jets = list(jets)
        verdict = leibniz_on_jets(space, functional, alpha, beta, jets)
        assert verdict == leibniz_on_jets_by_products(space, functional, alpha, beta, jets)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(subalg.sagbi, "leibniz_on_jets", both)
    return verdicts


@pytest.mark.parametrize("order", ["degrevlex", "deglex", "lex"])
def test_build_levels_match_the_product_path(monkeypatch, order):
    verdicts = compare_build_verdicts(monkeypatch)
    for name in ("a1", "a2", "a3", "a4"):
        Session.load(str(SESSIONS / f"{name}.json"), order_override=order).build()
    assert len(verdicts) == 2 + 1 + 2 + 3
    for points, level in LADDER_RUNGS:
        qn_build(qn_spec(points, level), TermOrder(order))
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 2)
        build_from_conditions(n, random_conditions(rng, n), TermOrder(order))
    assert all(verdicts)
    assert len(verdicts) > 8 + 30


def test_broken_conditions_are_refused_by_both_paths(monkeypatch):
    verdicts = compare_build_verdicts(monkeypatch)
    refused = 0
    for name in ("a1", "a2", "a3", "a4"):
        session = Session.load(str(SESSIONS / f"{name}.json"))
        for index, condition in enumerate(session.conditions, start=1):
            # L(1) = 0 on every derivation and character difference, so
            # adding an evaluation at alpha breaks L(1·1) = L(1) + L(1).
            kind = condition.kind
            broken = Condition(condition.functional + LinearFunctional.evaluation(kind.alpha), kind)
            chain = [*session.conditions[: index - 1], broken]
            verdicts.clear()
            with pytest.raises(InvalidFiltration, match="Leibniz") as info:
                build_from_conditions(session.n, chain, session.order)
            assert info.value.level == index
            assert verdicts == [True] * (index - 1) + [False]
            refused += 1
    assert refused == 2 + 1 + 2 + 3
    # f -> f(1) - f(0) is a character difference, not a derivation at 1.
    verdicts.clear()
    shifted = Condition(character_difference((1,), (0,)), ConditionKind.derivation((1,)))
    with pytest.raises(InvalidFiltration, match="Leibniz"):
        build_from_conditions(1, [shifted], DEGREVLEX)
    assert verdicts == [False]
