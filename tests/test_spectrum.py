import dataclasses
import importlib
import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial, prod
from operator import add
from pathlib import Path

import pytest

from subalg.cli import Session
from subalg.errors import InvariantError, JetSpaceTooLarge, SubalgError
from subalg.functionals import (
    Condition,
    ConditionKind,
    LinearFunctional,
    character_difference,
    check_leibniz,
    express_in_span,
)
from subalg.jets import MAX_JET_DIM, JetSpace
from subalg.linalg import Echelon, integral, kernel_basis, span_within
from subalg.poly import DEGREVLEX, Poly, as_point, parse_poly
from subalg.qn import qn_build, qn_spec, verify_d_of_q
from subalg.sagbi import (
    ConditionFiltration,
    SagbiBasis,
    build_from_conditions,
    truncated_algebra_basis,
)
from subalg.spectrum import (
    DerivationSpace,
    Spectrum,
    _ordered_partials,
    are_equivalent,
    cotangent_dimension,
    derivation_space,
    maximal_ideal_jets,
    spectrum,
)
from test_properties import random_filtration, random_point
from test_qn import ansatz_bound, translate

F = Fraction

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def deriv_cond(point, partials, coeff=1):
    return Condition(
        LinearFunctional.partial_at(point, partials, coeff),
        ConditionKind.derivation(point),
    )


def chardiff_cond(alpha, beta, coeff=1):
    return Condition(
        character_difference(alpha, beta, coeff), ConditionKind.chardiff(alpha, beta)
    )


def chain_a1():
    return build_from_conditions(
        1, [deriv_cond((0,), (1,)), deriv_cond((0,), (2,))], DEGREVLEX
    )


def chain_a4():
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


# -- jets -------------------------------------------------------------


def test_jet_reads_derivatives():
    space = JetSpace([(0,), (1,)], 3, 1)
    f = parse_poly("x1^3 + 2*x1", 1)
    jet = space.jet(f)
    # at 0: f=0, f'=2, f''=0, f'''=6; at 1: f=3, f'=5, f''=6, f'''=6
    values = {space.coords[c]: v for c, v in jet.items()}
    assert values[(0, (1,))] == 2
    assert values[(0, (3,))] == 6
    assert values[(1, (0,))] == 3
    assert values[(1, (1,))] == 5
    assert values[(1, (2,))] == 6


def jet_by_translate(space, f):
    """Jet from the full shifted expansion: coefficient of x^a in f(x + p), times a!."""
    out = {}
    for pi, point in enumerate(space.points):
        for mono, coeff in translate(f, tuple(-c for c in point)).terms():
            if sum(mono) <= space.cap:
                scale = 1
                for k in mono:
                    scale *= factorial(k)
                out[space.index(pi, mono)] = coeff * scale
    return out


# Zero twice, so points with a zero coordinate come up often.
COORDINATES = (F(0), F(0), F(-1), F(-3), F(2), F(1, 2), F(-5, 3), F(7, 4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_matches_shifted_expansion(n, seed=37, rounds=60):
    rng = random.Random(seed + n)
    for _ in range(rounds):
        cap = rng.randint(0, 5)
        pts = []
        for _ in range(rng.randint(1, 3)):
            p = tuple(rng.choice(COORDINATES) for _ in range(n))
            if p not in pts:
                pts.append(p)
        space = JetSpace(pts, cap, n)
        # terms from degree 0 up to well past the cap
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): F(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 6))
        }
        for f in (
            Poly(n, terms),
            Poly.zero(n),
            Poly.constant(n, F(rng.randint(-5, 5), 2)),
            Poly.monomial(tuple(rng.randint(cap, cap + 3) for _ in range(n))),
        ):
            assert space.jet(f) == jet_by_translate(space, f)
            for p in pts:
                shifted = f - Poly.constant(n, f.evaluate(p))
                assert space.shifted_jet(f, p) == jet_by_translate(space, shifted)


def test_jet_product_matches_polynomial_product(seed=31, rounds=50):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 2)
        pts = []
        while len(pts) < 2:
            p = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            if p not in pts:
                pts.append(p)
        space = JetSpace(pts, 3, n)
        f = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)): F(rng.randint(-3, 3)) for _ in range(3)})
        g = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)): F(rng.randint(-3, 3)) for _ in range(3)})
        assert space.product(space.jet(f), space.jet(g)) == space.jet(f * g)


def product_all_pairs(space, u, v):
    """``JetSpace.product`` by every pair of entries at a point, the sums
    above the cap dropped one by one."""
    size = space.dim // len(space.points)
    out = {}
    for cu, av in u.items():
        pi, i = divmod(cu, size)
        a = space.coords[i][1]
        for cv, bv in v.items():
            pj, j = divmod(cv, size)
            b = space.coords[j][1]
            if pj != pi or sum(a) + sum(b) > space.cap:
                continue
            weight = prod(comb(x + y, y) for x, y in zip(a, b))
            c = space.index(pi, tuple(x + y for x, y in zip(a, b)))
            out[c] = out.get(c, 0) + weight * av * bv
    return {c: value for c, value in out.items() if value}


def random_sparse_jet(rng, space, rational):
    """Up to eight random entries anywhere in ``space``, int or Fraction."""
    out = {}
    for c in rng.sample(range(space.dim), k=rng.randint(0, min(8, space.dim))):
        value = F(rng.randint(-4, 4), rng.randint(1, 3)) if rational else rng.randint(-4, 4)
        if value:
            out[c] = value
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoint_pairs_like_the_product(n, seed=61, rounds=120):
    rng = random.Random(seed + n)
    spread = 0
    for _ in range(rounds):
        pts = []
        for _ in range(rng.randint(1, 3)):
            p = tuple(rng.choice(COORDINATES) for _ in range(n))
            if p not in pts:
                pts.append(p)
        space = JetSpace(pts, rng.randint(0, 4), n)
        rational = rng.random() < 0.5
        functional = LinearFunctional.zero(n)
        for _ in range(rng.randint(1, 4)):
            partials = tuple(rng.randint(0, space.cap) for _ in range(n))
            if sum(partials) <= space.cap:
                coeff = F(rng.randint(-3, 3), rng.randint(1, 2)) if rational else rng.randint(-3, 3)
                functional = functional + LinearFunctional.partial_at(rng.choice(pts), partials, coeff)
        spread += len(functional.points()) > 1
        covector = space.functional_covector(functional)
        if not rational:
            covector = integral(covector)
        u, v = random_sparse_jet(rng, space, rational), random_sparse_jet(rng, space, rational)
        product = space.product(u, v)
        assert product == product_all_pairs(space, u, v)
        if min(map(add, space.lowest_orders(u), space.lowest_orders(v))) > space.cap:
            assert product == {}
        assert space.pair(space.adjoint(covector, u), v) == space.pair(covector, product)
    assert spread > rounds // 10


def test_jet_values_are_exact(seed=53, rounds=60):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 3)
        pts = list({tuple(rng.choice(COORDINATES) for _ in range(n)) for _ in range(2)})
        space = JetSpace(pts, rng.randint(0, 4), n)
        f = Poly(n, {
            tuple(rng.randint(0, 3) for _ in range(n)): F(rng.randint(-4, 4), rng.choice((1, 1, 3)))
            for _ in range(4)
        })
        jet = space.jet(f)
        assert all(type(v) in (int, Fraction) for v in jet.values())
        square = space.product(jet, jet)
        assert all(type(v) in (int, Fraction) for v in square.values())
        assert square == space.jet(f * f)
    # integer coefficients at integral points: int values throughout
    space = JetSpace([(0, 1), (2, -3)], 3, 2)
    jet = space.jet(parse_poly("x1^3*x2 - 4*x2^2 + 7", 2))
    assert jet and all(type(v) is int for v in space.product(jet, jet).values())
    assert all(type(v) is int for v in jet.values())


def test_jet_at_rational_point_matches_derive_and_evaluate():
    point = (F(1, 2), F(-5, 3))
    space = JetSpace([point, (F(0), F(2))], 4, 2)
    f = parse_poly("3/7*x1^4*x2 - x1^2*x2^3 + 5*x2^2 - 2/3*x1 + 1", 2)
    jet = space.jet(f)
    for c, (pi, a) in enumerate(space.coords):
        want = f.derive(a).evaluate(space.points[pi])
        assert jet.get(c, 0) == want, (pi, a)


def test_jet_space_refuses_huge_dimension():
    # The doubling ansatz cap 2·2^(derivation levels) − 1 for qn N=3 at
    # two plane points: cap 2047, 4,196,352 coordinates.
    with pytest.raises(JetSpaceTooLarge, match="4196352 coordinates"):
        JetSpace([(0, 0), (0, 1)], 2047, 2)
    # Refused from the count alone: enumerating this space would never end.
    with pytest.raises(SubalgError):
        JetSpace([(0, 0, 0)], 10**9, 3)
    assert JetSpace([(0,)], MAX_JET_DIM - 1, 1).dim == MAX_JET_DIM


def test_functional_covector_pairs_like_apply():
    space = JetSpace([(0, 1)], 2, 2)
    L = LinearFunctional.partial_at((0, 1), (1, 1), F(5, 2))
    row = space.functional_covector(L)
    f = parse_poly("x1*x2^2 - x1", 2)
    assert space.pair(row, space.jet(f)) == L.apply(f)
    with pytest.raises(ValueError):
        space.functional_covector(LinearFunctional.partial_at((9, 9), (1, 0)))
    with pytest.raises(ValueError):
        space.functional_covector(LinearFunctional.partial_at((0, 1), (3, 0)))


# -- spectrum and clusters --------------------------------------------


def test_spectrum_empty():
    flt = build_from_conditions(2, [], DEGREVLEX)
    assert spectrum(flt) == Spectrum((), ())
    assert ansatz_bound(flt) == 1


def test_spectrum_single_cluster():
    flt = build_from_conditions(1, [chardiff_cond((1,), (-1,))], DEGREVLEX)
    sp = spectrum(flt)
    assert sp.points == ((F(-1),), (F(1),))
    assert sp.clusters == (((F(-1),), (F(1),)),)
    assert ansatz_bound(flt) == 1


def test_spectrum_a4():
    sp = spectrum(chain_a4())
    assert sp.points == (
        (F(1), F(-3), F(2)),
        (F(1), F(0), F(-1)),
        (F(3), F(2), F(5)),
    )
    assert sp.clusters == (
        ((F(1), F(-3), F(2)), (F(3), F(2), F(5))),
        ((F(1), F(0), F(-1)),),
    )
    assert ansatz_bound(chain_a4()) == 4


def test_are_equivalent():
    a4 = chain_a4()
    basis = a4.final_basis
    assert are_equivalent((3, 2, 5), (1, -3, 2), basis)
    assert are_equivalent((3, 2, 5), (3, 2, 5), basis)
    assert not are_equivalent((3, 2, 5), (1, 0, -1), basis)


def test_cluster_of():
    sp = spectrum(chain_a4())
    assert sp.cluster_of((F(3), F(2), F(5))) == (
        (F(1), F(-3), F(2)),
        (F(3), F(2), F(5)),
    )
    assert sp.cluster_of((F(9), F(9), F(9))) is None


# -- derivation spaces ------------------------------------------------


def test_full_ring_derivations():
    rng = random.Random(41)
    for n in (1, 2, 3):
        flt = build_from_conditions(n, [], DEGREVLEX)
        alpha = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        ds = derivation_space(flt, alpha)
        assert ds.dimension == n
        assert ds.relations == 0
        for i, b in enumerate(ds.basis):
            assert len(b.atoms) == 1 and b.atoms[0].order == 1
        assert cotangent_dimension(flt, alpha) == n


def test_a1_derivation_space():
    flt = chain_a1()
    ds = derivation_space(flt, (0,))
    assert ds.dimension == 3
    assert [str(b) for b in ds.basis] == [
        "Functional[1*d1^3@(0)]",
        "Functional[1*d1^4@(0)]",
        "Functional[1*d1^5@(0)]",
    ]
    assert cotangent_dimension(flt, (0,)) == 3
    # away from the spectrum the space is one-dimensional
    away = derivation_space(flt, (2,))
    assert away.dimension == 1
    assert cotangent_dimension(flt, (2,)) == 1


def test_codim_one_derivation_condition():
    # single directional-derivative condition: dimension 2n
    rng = random.Random(43)
    for n in (1, 2):
        direction = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        while not any(direction):
            direction = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        alpha = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        cond = Condition(
            LinearFunctional.directional_at(alpha, direction),
            ConditionKind.derivation(alpha),
        )
        flt = build_from_conditions(n, [cond], DEGREVLEX)
        ds = derivation_space(flt, alpha)
        assert ds.dimension == 2 * n
        assert cotangent_dimension(flt, alpha) == 2 * n
        # the explicit low-order spanning set lies inside the computed span
        report = flt.final_report
        test_space = truncated_algebra_basis(
            flt.final_basis, report, 3 + report.conductor
        )
        u = direction
        candidates = [
            LinearFunctional.partial_at(alpha, tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)
        ]
        for i in range(n):
            second = LinearFunctional.zero(n)
            for j in range(n):
                partials = [0] * n
                partials[i] += 1
                partials[j] += 1
                second = second + LinearFunctional.partial_at(
                    alpha, tuple(partials), u[j]
                )
            candidates.append(second)
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
        candidates.append(third)
        for func in candidates:
            assert express_in_span(func, list(ds.basis), test_space) is not None


def test_codim_one_chardiff():
    rng = random.Random(47)
    for n in (1, 2):
        alpha = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        beta = alpha
        while beta == alpha:
            beta = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        flt = build_from_conditions(n, [chardiff_cond(alpha, beta)], DEGREVLEX)
        ds = derivation_space(flt, alpha)
        assert ds.dimension == 2 * n
        assert cotangent_dimension(flt, alpha) == 2 * n
        for b in ds.basis:
            assert all(atom.order == 1 for atom in b.atoms)
            assert all(atom.point in (alpha, beta) for atom in b.atoms)


def test_a4_derivation_spaces():
    a4 = chain_a4()
    at_glued = derivation_space(a4, (3, 2, 5))
    assert at_glued.dimension == 6
    assert at_glued.relations == 1
    assert cotangent_dimension(a4, (3, 2, 5)) == 6
    at_simple = derivation_space(a4, (1, 0, -1))
    assert at_simple.dimension == 6
    assert cotangent_dimension(a4, (1, 0, -1)) == 6
    # identical result anywhere in the glued cluster
    assert derivation_space(a4, (1, -3, 2)).basis == at_glued.basis


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_derivation_basis_coefficients_are_fractions(name):
    flt = Session.load(str(SESSIONS / f"{name}.json")).build()
    spec = spectrum(flt)
    for point in spec.points:
        for functional in derivation_space(flt, point, spec=spec).basis:
            assert all(type(atom.coeff) is Fraction for atom in functional.atoms)


def test_derivation_basis_satisfies_leibniz():
    a4 = chain_a4()
    report = a4.final_report
    span = truncated_algebra_basis(a4.final_basis, report, 4)
    ds = derivation_space(a4, (3, 2, 5))
    for b in ds.basis:
        assert check_leibniz(b, (3, 2, 5), (3, 2, 5), span)
    ds2 = derivation_space(a4, (1, 0, -1))
    for b in ds2.basis:
        assert check_leibniz(b, (1, 0, -1), (1, 0, -1), span)


def test_derivation_dimension_bounded_by_generators():
    for flt in (chain_a1(), chain_a4()):
        for p in spectrum(flt).points:
            ds = derivation_space(flt, p)
            assert ds.dimension <= len(flt.final_basis.gens)


def test_condition_on_other_cluster_keeps_dimension():
    # start from a chardiff pair, then condition a third point far away
    base = build_from_conditions(1, [chardiff_cond((0,), (1,))], DEGREVLEX)
    before = derivation_space(base, (0,)).dimension
    extended = build_from_conditions(
        1,
        [chardiff_cond((0,), (1,)), deriv_cond((5,), (1,))],
        DEGREVLEX,
    )
    after = derivation_space(extended, (0,)).dimension
    assert before == after == 2


def test_chardiff_merge_adds_dimensions():
    a = build_from_conditions(1, [deriv_cond((0,), (1,))], DEGREVLEX)
    dim_at_0 = derivation_space(a, (0,)).dimension
    dim_at_3 = derivation_space(a, (3,)).dimension
    merged = build_from_conditions(
        1, [deriv_cond((0,), (1,)), chardiff_cond((0,), (3,))], DEGREVLEX
    )
    assert derivation_space(merged, (0,)).dimension == dim_at_0 + dim_at_3


# -- oracles: the earlier cotangent scan and vanishing kernel ---------


def cotangent_by_scan(flt, alpha):
    """dim m/m² from a degree-ordered scan of shifted generator products.

    The maximal ideal is accumulated from products of shifted generators
    in increasing degree until its rank certificate is met; the square
    is spanned by all pairs of the accumulated rows.
    """
    n = flt.n
    point = as_point(alpha, n)
    spec = spectrum(flt)
    functionals = [level.condition.functional for level in flt.levels]
    max_atom = max((f.max_order for f in functionals), default=0)
    cap = 2 * (1 + max_atom) - 1
    base_points = sorted(set(spec.points) | {point})
    space = JetSpace(base_points, cap, n)
    target_rank = space.dim - (len(functionals) + 1)

    final = flt.final_basis
    degrees = [g.total_degree() for g in final.gens]
    shifted_jets = [
        space.jet(g - Poly.constant(n, g.evaluate(point))) for g in final.gens
    ]
    unit = space.jet(Poly.constant(n, 1))
    ideal_span = Echelon()

    class Done(Exception):
        pass

    def scan(idx, remaining, jet):
        if remaining == 0:
            ideal_span.add(dict(jet))
            if ideal_span.rank >= target_rank:
                raise Done
            return
        if idx == len(degrees):
            return
        current = jet
        multiples = 0
        while True:
            scan(idx + 1, remaining - multiples * degrees[idx], current)
            multiples += 1
            if multiples * degrees[idx] > remaining:
                return
            current = space.product(current, shifted_jets[idx])

    hard_cap = cap * len(base_points) + flt.final_report.conductor
    hard_cap += max(degrees, default=0) + 4
    try:
        for degree in range(1, hard_cap + 1):
            scan(0, degree, unit)
    except Done:
        pass
    assert ideal_span.rank == target_rank

    ideal_rows = ideal_span.rows()
    square_span = Echelon()
    for i, u in enumerate(ideal_rows):
        for v in ideal_rows[i:]:
            square_span.add(space.product(u, v))
    return target_rank - square_span.rank


def derivation_space_by_transposed_kernel(flt, alpha):
    """``derivation_space`` with the vanishing combinations from a kernel.

    Candidates run up to the doubling cap 2·ansatz_bound − 1 instead of
    the 2·max_atom + 1 that ``derivation_space`` takes.  The
    combinations of condition rows that are zero outside the candidate
    coordinates come from the kernel of the transposed outside block,
    recombined onto the candidate slots.
    """
    n = flt.n
    point = as_point(alpha, n)
    spec = spectrum(flt)
    in_spectrum = point in spec.points
    cluster = spec.cluster_of(point) if in_spectrum else (point,)
    N = ansatz_bound(flt)
    cand_cap = 2 * N - 1 if in_spectrum else 1
    functionals = [level.condition.functional for level in flt.levels]
    max_atom = max((f.max_order for f in functionals), default=0)
    cap = max(cand_cap, max_atom)
    base_points = list(spec.points)
    if not in_spectrum:
        base_points.append(point)
    space = JetSpace(base_points, cap, n)

    condition_rows = [space.functional_covector(f) for f in functionals]
    eval_row = space.evaluation_covector(point)
    ideal_jets = kernel_basis(condition_rows + [eval_row], space.dim)

    candidates = []
    for p in cluster:
        pi = space.point_index(p)
        for a in _ordered_partials(n, 1, cand_cap):
            candidates.append((pi, a))
    slot_of = {space.index(pi, a): s for s, (pi, a) in enumerate(candidates)}

    square_span = Echelon()
    covered = set()
    for i, u in enumerate(ideal_jets):
        for v in ideal_jets[i:]:
            product = space.product(u, v)
            projected = {
                slot_of[c]: value for c, value in product.items() if c in slot_of
            }
            if not projected:
                continue
            if len(projected) == 1:
                slot = next(iter(projected))
                if slot in covered:
                    continue
                covered.add(slot)
            square_span.add(projected)

    annihilator = kernel_basis(square_span.rows(), len(candidates))

    transposed = {}
    for j, row in enumerate(condition_rows):
        for c, value in row.items():
            if c not in slot_of:
                transposed.setdefault(c, {})[j] = value
    vanishing = []
    for s in kernel_basis(list(transposed.values()), len(condition_rows)):
        combo = {}
        for j, weight in s.items():
            for c, value in condition_rows[j].items():
                slot = slot_of[c]
                entry = combo.get(slot, F(0)) + weight * value
                if entry:
                    combo[slot] = entry
                else:
                    combo.pop(slot, None)
        if combo:
            vanishing.append(combo)

    for z in vanishing:
        for row in square_span.rows():
            assert space.pair(z, row) == 0

    quotient = Echelon()
    for z in vanishing:
        quotient.add(z)
    relations = quotient.rank
    representatives = [t for t in annihilator if quotient.add(t) is not None]

    basis = []
    for t in representatives:
        functional = LinearFunctional.zero(n)
        for slot in sorted(t):
            pi, a = candidates[slot]
            functional = functional + LinearFunctional.partial_at(
                space.points[pi], a, t[slot]
            )
        basis.append(functional)
    return DerivationSpace(
        point=point,
        basis=tuple(basis),
        ansatz_order=2 * N,
        candidates=len(candidates),
        relations=relations,
    )


def session_points(name):
    """A session's filtration with every spectrum point and one point off it."""
    flt = Session.load(str(SESSIONS / f"{name}.json")).build()
    return flt, list(spectrum(flt).points) + [(7,) * flt.n]


QN_CASES = [
    ([(0, 0), (0, 1)], 2),
    ([(0,), (1,), (2,)], 3),
    ([(0, 0, 0), (1, 0, 0)], 2),
]
QN_IDS = ["plane-N2", "line-N3", "space-N2"]


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_cotangent_closure_matches_scan_on_sessions(name):
    flt, points = session_points(name)
    for p in points:
        assert cotangent_dimension(flt, p) == cotangent_by_scan(flt, p), p


@pytest.mark.parametrize("points,level", QN_CASES, ids=QN_IDS)
def test_cotangent_closure_matches_scan_on_qn(points, level):
    flt = qn_build(qn_spec(points, level))
    assert cotangent_dimension(flt, points[0]) == cotangent_by_scan(flt, points[0])


def assert_closed_form_ansatz(flt, space):
    """Candidates are the pure partials of order 1..2·max_atom + 1 at the
    point's cluster; off the spectrum, the first partials at the point."""
    spec = spectrum(flt)
    max_atom = max((lv.condition.functional.max_order for lv in flt.levels), default=0)
    in_spectrum = space.point in spec.points
    cand_cap = 2 * max_atom + 1 if in_spectrum else 1
    cluster = spec.cluster_of(space.point) if in_spectrum else (space.point,)
    assert space.ansatz_order == cand_cap + 1
    assert space.candidates == len(cluster) * (comb(flt.n + cand_cap, flt.n) - 1)


def assert_same_space(flt, got, want):
    assert got.basis == want.basis
    assert got.relations == want.relations
    assert_closed_form_ansatz(flt, got)


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_vanishing_echelon_matches_kernel_on_sessions(name):
    flt, points = session_points(name)
    for p in points:
        assert_same_space(
            flt, derivation_space(flt, p), derivation_space_by_transposed_kernel(flt, p)
        )


@pytest.mark.parametrize("points,level", QN_CASES, ids=QN_IDS)
def test_vanishing_echelon_matches_kernel_on_qn(points, level):
    flt = qn_build(qn_spec(points, level))
    got = derivation_space(flt, points[0])
    try:
        want = derivation_space_by_transposed_kernel(flt, points[0])
    except JetSpaceTooLarge:
        # The doubling-cap ansatz at (0,0,0),(1,0,0) N=2 needs 715,520 jet
        # coordinates; the 2·max_atom + 1 cap gives the closed form 2·(6 + 10).
        assert got.dimension == 32 == cotangent_dimension(flt, points[0])
        assert_closed_form_ansatz(flt, got)
        return
    assert_same_space(flt, got, want)


def test_random_filtrations_match_doubling_cap_oracle(seed=107, rounds=40):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        far = random_point(rng, flt.n, lo=5, hi=9)
        for p in list(spectrum(flt).points) + [far]:
            want = derivation_space_by_transposed_kernel(flt, p)
            assert_same_space(flt, derivation_space(flt, p), want)


# -- the pair loops without the order skip, as oracles ----------------


@contextmanager
def unpruned():
    """Pair loops that form every product, each by all pairs of entries."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JetSpace, "lowest_orders", lambda self, u: (0,) * len(self.points))
        patch.setattr(JetSpace, "product", product_all_pairs)
        yield


def spaces_and_dimensions(flt, point, spec):
    return derivation_space(flt, point, spec=spec), cotangent_dimension(flt, point, spec=spec)


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_unpruned_pair_loops_agree_on_sessions(name):
    flt = Session.load(str(SESSIONS / f"{name}.json")).build()
    spec = spectrum(flt)
    outside = [(7,) * flt.n, (F(1, 2),) * flt.n]
    assert not set(outside) & set(spec.points)
    for p in [*spec.points, *outside]:
        got = spaces_and_dimensions(flt, p, spec)
        with unpruned():
            assert spaces_and_dimensions(flt, p, spec) == got, p


@pytest.mark.parametrize("level", range(2, 9))
def test_unpruned_pair_loops_agree_on_two_plane_points(level):
    points = [(0, 0), (0, 1)]
    flt = qn_build(qn_spec(points, level))
    spec = spectrum(flt)
    got = spaces_and_dimensions(flt, points[1], spec), verify_d_of_q(points, level, points[0], flt=flt)
    with unpruned():
        want = (
            spaces_and_dimensions(flt, points[1], spec),
            verify_d_of_q(points, level, points[0], flt=flt),
        )
    assert got == want
    assert got[1].passed


def test_qn_pair_loops_form_no_product(monkeypatch):
    # m = ∩ m_p^N holds only jets of order >= N, and the cap is 2N - 1.
    points = [(0, 0), (0, 1)]
    flt = qn_build(qn_spec(points, 4))
    products = []
    product = JetSpace.product

    def counted(self, u, v):
        products.append(None)
        return product(self, u, v)

    monkeypatch.setattr(JetSpace, "product", counted)
    assert cotangent_dimension(flt, points[0]) == 52
    assert verify_d_of_q(points, 4, points[0], flt=flt).passed
    assert products == []
    monkeypatch.setattr(JetSpace, "lowest_orders", lambda self, u: (0,) * len(self.points))
    cotangent_dimension(flt, points[0])
    assert products


# -- oracles: both routes over the whole spectrum ---------------------


def spectrum_wide_cotangent(flt, alpha):
    """``cotangent_dimension`` in one jet space over the spectrum and the
    point, certified at dim − codim − 1 there."""
    n = flt.n
    point = as_point(alpha, n)
    base_points = sorted(set(spectrum(flt).points) | {point})
    space = JetSpace(base_points, 2 * flt.max_order + 1, n)
    shifted = [integral(space.shifted_jet(g, point)) for g in flt.final_basis.gens]
    table = space.order_table(shifted)
    ideal, square = Echelon(), Echelon()
    frontier = list(shifted)
    while frontier:
        row = ideal.add(frontier.pop())
        if row is None:
            continue
        for j in space.partners(space.lowest_orders(row), table):
            product = space.product(row, shifted[j])
            square.add(product)
            frontier.append(product)
    if ideal.rank != space.dim - (flt.codim + 1):
        raise InvariantError("maximal ideal span failed to reach its certified jet rank")
    return ideal.rank - square.rank


def spectrum_wide_derivation_space(flt, alpha):
    """``derivation_space`` in one jet space over the spectrum and the point."""
    n = flt.n
    point = as_point(alpha, n)
    spec = spectrum(flt)
    in_spectrum = point in spec.points
    cluster = spec.cluster_of(point) if in_spectrum else (point,)
    cand_cap = 2 * flt.max_order + 1 if in_spectrum else 1
    base_points = list(spec.points) + ([] if in_spectrum else [point])
    space = JetSpace(base_points, max(cand_cap, flt.max_order), n)

    condition_rows = [space.functional_covector(c.functional) for c in flt.conditions()]
    eval_row = space.evaluation_covector(point)
    ideal_jets = [integral(u) for u in kernel_basis(condition_rows + [eval_row], space.dim)]
    candidates = [
        (space.point_index(p), a) for p in cluster for a in _ordered_partials(n, 1, cand_cap)
    ]
    slot_of = {space.index(pi, a): s for s, (pi, a) in enumerate(candidates)}
    square_span = Echelon()
    for product in space.pair_products(ideal_jets):
        square_span.add({slot_of[c]: x for c, x in product.items() if c in slot_of})
    annihilator = kernel_basis(list(square_span.pivot_rows.values()), len(candidates))
    quotient = Echelon()
    for z in span_within(condition_rows, list(slot_of), space.dim):
        quotient.add(z)
    relations = quotient.rank
    basis = []
    for t in annihilator:
        if quotient.add(t) is None:
            continue
        functional = LinearFunctional.zero(n)
        for slot in sorted(t):
            pi, a = candidates[slot]
            functional = functional + LinearFunctional.partial_at(space.points[pi], a, t[slot])
        basis.append(functional)
    return DerivationSpace(point, tuple(basis), cand_cap + 1, len(candidates), relations)


def assert_matches_spectrum_wide(flt, points):
    spec = spectrum(flt)
    for p in points:
        assert cotangent_dimension(flt, p, spec=spec) == spectrum_wide_cotangent(flt, p), p
        got, want = derivation_space(flt, p, spec=spec), spectrum_wide_derivation_space(flt, p)
        assert got.basis == want.basis, p
        assert got.relations == want.relations, p
        assert got.candidates == want.candidates, p
        assert got.ansatz_order == want.ansatz_order, p


@pytest.mark.parametrize("order", ["lex", "deglex", "degrevlex"])
@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_cluster_routes_match_spectrum_wide_on_sessions(name, order):
    flt = Session.load(str(SESSIONS / f"{name}.json"), order_override=order).build()
    assert_matches_spectrum_wide(flt, [*spectrum(flt).points, (7,) * flt.n])


@pytest.mark.parametrize("points,level", QN_CASES, ids=QN_IDS)
def test_cluster_routes_match_spectrum_wide_on_qn(points, level):
    flt = qn_build(qn_spec(points, level))
    assert_matches_spectrum_wide(flt, [points[0], (3,) * flt.n])


def test_cluster_routes_match_spectrum_wide_on_random_filtrations(seed=109, rounds=40):
    rng = random.Random(seed)
    several = 0
    for _ in range(rounds):
        flt = random_filtration(rng)
        spec = spectrum(flt)
        several += len(spec.clusters) > 1
        assert_matches_spectrum_wide(flt, [*spec.points, random_point(rng, flt.n, lo=5, hi=9)])
    assert several > rounds // 10


def without_generator(flt, i):
    """``flt`` with generator i dropped from its final basis."""
    last = flt.levels[-1]
    gens = last.basis.gens[:i] + last.basis.gens[i + 1:]
    level = dataclasses.replace(last, basis=SagbiBasis(flt.n, flt.order, gens))
    return ConditionFiltration(flt.n, flt.order, flt.base, (*flt.levels[:-1], level))


def outcome(route, flt, point):
    try:
        return route(flt, point)
    except InvariantError:
        return "raises"


def test_deficient_bases_fail_as_the_spectrum_wide_certificate_does():
    # ``per_generator_closure``, defined below, must refuse the same bases.
    fixtures = [Session.load(str(SESSIONS / f"a{k}.json")).build() for k in range(1, 5)]
    fixtures += [qn_build(qn_spec(points, level)) for points, level in QN_CASES]
    cases = refused = 0
    for flt in fixtures:
        points = [*spectrum(flt).points, (7,) * flt.n]
        for i in range(len(flt.final_basis.gens)):
            deficient = without_generator(flt, i)
            got = [outcome(cotangent_dimension, deficient, p) for p in points]
            assert got == [outcome(spectrum_wide_cotangent, deficient, p) for p in points], i
            with per_generator_multipliers():
                assert got == [outcome(cotangent_dimension, deficient, p) for p in points], i
            cases += 1
            refused += "raises" in got
    assert (cases, refused) == (80, 65)
    # a4 without x3^3 - ...: the cluster of (3,2,5) still reaches its rank, the
    # cluster of (1,0,-1) does not, and every point must refuse the basis.
    a4 = fixtures[3]
    heads = [g.leading_monomial(a4.order) for g in a4.final_basis.gens]
    deficient = without_generator(a4, heads.index((0, 0, 3)))
    got = [outcome(cotangent_dimension, deficient, p) for p in spectrum(a4).points]
    assert got == ["raises"] * 3


# -- oracle: the closure multiplied by every shifted generator jet ----


def per_generator_closure(flt, space, point, square):
    """``_ideal_closure`` multiplying each new row of m by every shifted
    generator jet, not by the graded basis of their span."""
    shifted = [integral(space.shifted_jet(g, point)) for g in flt.final_basis.gens]
    origin = (0,) * space.n
    evaluations = [space.index(pi, origin) for pi in range(len(space.points))]
    if any(c in u for u in shifted for c in evaluations):
        raise ValueError("jet base points must lie in the point's cluster")
    table = space.order_table(shifted)
    ideal = Echelon()
    frontier = list(shifted)
    while frontier:
        row = ideal.add(frontier.pop())
        if row is None:
            continue
        for j in space.partners(space.lowest_orders(row), table):
            product = space.product(row, shifted[j])
            if square is not None:
                square.add(product)
            frontier.append(product)
    conditions = Echelon()
    for c in flt.conditions():
        conditions.add(space.functional_covector(c.functional, restrict=True))
    if ideal.rank != space.dim - conditions.rank - 1:
        raise InvariantError("maximal ideal span failed to reach its certified jet rank")
    return ideal


@contextmanager
def per_generator_multipliers():
    with pytest.MonkeyPatch.context() as patch:
        module = importlib.import_module("subalg.spectrum")
        patch.setattr(module, "_ideal_closure", per_generator_closure)
        yield


def closure_outputs(flt, points):
    """Per point: the pivot rows of m and m² on its cluster, and dim m/m²."""
    spec = spectrum(flt)
    out = []
    for p in points:
        cluster = spec.cluster_of(as_point(p, flt.n)) or (p,)
        space = JetSpace(cluster, 2 * flt.max_order + 1, flt.n)
        ideal, square = maximal_ideal_jets(flt, space, as_point(p, flt.n))
        out.append((ideal.pivot_rows, square.pivot_rows, cotangent_dimension(flt, p, spec=spec)))
    return out


def assert_matches_per_generator(flt, points):
    got = closure_outputs(flt, points)
    with per_generator_multipliers():
        assert closure_outputs(flt, points) == got


@pytest.mark.parametrize("order", ["lex", "deglex", "degrevlex"])
@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_graded_multipliers_match_per_generator_on_sessions(name, order):
    flt = Session.load(str(SESSIONS / f"{name}.json"), order_override=order).build()
    assert_matches_per_generator(flt, [*spectrum(flt).points, (7,) * flt.n])


@pytest.mark.parametrize("points,level", QN_CASES, ids=QN_IDS)
def test_graded_multipliers_match_per_generator_on_qn(points, level):
    flt = qn_build(qn_spec(points, level))
    assert_matches_per_generator(flt, [*points, (3,) * flt.n])


@pytest.mark.parametrize("seed", [107, 109, 113])
def test_graded_multipliers_match_per_generator_on_random_filtrations(seed, rounds=40):
    rng = random.Random(seed)
    for _ in range(rounds):
        flt = random_filtration(rng)
        spec = spectrum(flt)
        assert_matches_per_generator(flt, [*spec.points, random_point(rng, flt.n, lo=5, hi=9)])


def test_graded_multipliers_span_the_generator_jets():
    flt = Session.load(str(SESSIONS / "a4.json")).build()
    spec = spectrum(flt)
    for cluster in spec.clusters:
        space = JetSpace(cluster, 2 * flt.max_order + 1, flt.n)
        shifted = [space.shifted_jet(g, cluster[0]) for g in flt.final_basis.gens]
        graded = space.graded_basis(shifted)
        given, basis = Echelon(), Echelon()
        for u in shifted:
            given.add(u)
        for u in graded:
            basis.add(u)
        assert basis.pivot_rows == given.pivot_rows
        assert len(graded) == given.rank
        # Each row's lowest order is its pivot's, and they rise along the list.
        lowest = [min(space.lowest_orders(u)) for u in graded]
        assert lowest == sorted(lowest)
        assert lowest.count(1) < len(graded)


def count_products(monkeypatch):
    products = []
    product = JetSpace.product

    def counted(self, u, v):
        products.append(None)
        return product(self, u, v)

    monkeypatch.setattr(JetSpace, "product", counted)
    return products


def test_a4_cotangent_forms_fewer_products_than_spectrum_wide(monkeypatch):
    flt = Session.load(str(SESSIONS / "a4.json")).build()
    products = count_products(monkeypatch)
    counts = []
    for p in spectrum(flt).points:
        for route in (cotangent_dimension, spectrum_wide_cotangent):
            products.clear()
            assert route(flt, p) == 6
            counts.append(len(products))
    assert counts == [125, 572, 125, 698, 125, 572]


def test_maximal_ideal_jets_refuses_points_outside_the_cluster(monkeypatch):
    flt = Session.load(str(SESSIONS / "a4.json")).build()
    spec = spectrum(flt)
    products = count_products(monkeypatch)
    whole = JetSpace(spec.points, 2 * flt.max_order + 1, flt.n)
    for p in spec.points:
        with pytest.raises(ValueError, match="cluster"):
            maximal_ideal_jets(flt, whole, p)
    assert products == []
    cluster = spec.cluster_of((F(3), F(2), F(5)))
    space = JetSpace(cluster, 2 * flt.max_order + 1, flt.n)
    ideal, square = maximal_ideal_jets(flt, space, cluster[1])
    assert ideal.rank - square.rank == 6
    assert products
