"""Spectrum, clusters, and derivation spaces of a condition filtration.

The spectrum collects every evaluation point used by the conditions.
Two spectrum points are clustered together when the whole algebra
evaluates equally at them, which is decided on the generators.

Derivation spaces at a point are computed along two fully independent
routes.  The primary route spans candidate functionals (pure partial
derivatives at the cluster of the point) and keeps the combinations
that kill the square of the maximal ideal, modulo combinations that
kill the whole algebra; squares are handled through truncated jet
products, so no degree-capped polynomial heuristics enter.  With k one
more than the largest condition order, the algebra contains I = ∩ m_p^k
over the spectrum and the point, and I ⊂ m; every derivation kills
I² = ∩ m_p^2k, so both routes stop at jets of order 2k − 1.  The
cotangent route never looks at candidate functionals or at the kernel
of the conditions: ``maximal_ideal_jets`` closes the shifted generator
jets under products with a basis of their span, certifies the rank of
that maximal ideal, and reads its square off the products formed.  The
two dimensions must agree, and the test suites check that they do; the
point-set verifier in ``qn`` reads m and m² off the same closure.

Both routes work in one jet space over the point's cluster (the point
alone off the spectrum).  The jet algebra is Artinian, a product of
one local ring per cluster, so m/m² and the derivations at a point are
read on its cluster alone, with the condition covectors restricted to
it.  The cotangent route still certifies the rank of m on every
cluster, each in its own space: together these checks hold exactly when
the check over the whole spectrum does.

Both routes skip a pair of jets whose lowest derivative orders sum
above the cap at every point: its truncated product is 0.  Where m holds
only jets of order k or more, as on a point-set algebra, neither forms
a product.  The closure's multipliers are an echelon basis of the
shifted generator jets' span with pivots taken lowest order first, so
most of them start above order 1 and that skip drops most pairs; m·S
depends only on the span of S, so nothing else changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .functionals import LinearFunctional
from .jets import JetSpace
from .linalg import Echelon, SparseRow, integral, kernel_basis, span_within
from .poly import Monomial, Point, as_point, monomials_up_to
from .sagbi import ConditionFiltration, SagbiBasis


def are_equivalent(alpha, beta, basis: SagbiBasis) -> bool:
    """True when every generator takes the same value at both points.

    Generators generate, so agreement on them is agreement on the
    whole subalgebra.
    """
    a = as_point(alpha, basis.n)
    b = as_point(beta, basis.n)
    if a == b:
        return True
    return all(g.evaluate(a) == g.evaluate(b) for g in basis.gens)


@dataclass(frozen=True)
class Spectrum:
    """Condition points and their indistinguishability classes."""

    points: tuple[Point, ...]
    clusters: tuple[tuple[Point, ...], ...]

    def cluster_of(self, point) -> tuple[Point, ...] | None:
        for cluster in self.clusters:
            if point in cluster:
                return cluster
        return None


def spectrum(flt: ConditionFiltration) -> Spectrum:
    """All condition points, partitioned into clusters of the final algebra."""
    seen: set[Point] = set()
    for level in flt.levels:
        for atom in level.condition.functional.atoms:
            seen.add(atom.point)
    points = tuple(sorted(seen))
    final = flt.final_basis
    groups: list[list[Point]] = []
    for p in points:
        for group in groups:
            if are_equivalent(p, group[0], final):
                group.append(p)
                break
        else:
            groups.append([p])
    clusters = tuple(sorted(tuple(sorted(g)) for g in groups))
    for level in flt.levels:
        kind = level.condition.kind
        if kind.name == "chardiff":
            if not are_equivalent(kind.alpha, kind.beta, final):
                raise InvariantError("character difference points failed to merge")
    return Spectrum(points, clusters)


@dataclass(frozen=True)
class DerivationSpace:
    """Basis of the derivations of the algebra at one point.

    ``basis`` elements are honest functionals on the polynomial ring;
    restricted to the algebra they satisfy the one-point Leibniz rule
    and are linearly independent.  ``ansatz_order`` is one more than the
    candidates' order cap (2·max condition order + 1 at spectrum points,
    1 elsewhere), ``candidates`` the candidate count, and
    ``relations`` the dimension of candidate combinations that vanish
    on the whole algebra (quotiented away).
    """

    point: Point
    basis: tuple[LinearFunctional, ...]
    ansatz_order: int
    candidates: int
    relations: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _ordered_partials(n: int, low: int, high: int) -> list[Monomial]:
    out = [m for m in monomials_up_to(n, high) if low <= sum(m) <= high]
    out.sort(key=lambda m: (sum(m), m))
    return out


def derivation_space(
    flt: ConditionFiltration, alpha, *, spec: Spectrum | None = None
) -> DerivationSpace:
    """Derivations at ``alpha`` from the pure-partial candidate ansatz.

    A functional L with L(1) = 0 is a derivation at alpha exactly when
    it kills the square of the maximal ideal m of the algebra at alpha.
    Candidate combinations are therefore intersected with the
    annihilator of the jets of m·m, then reduced modulo combinations
    that vanish on the whole algebra (those act as zero).  Candidates
    stop at order 2·max_order + 1: the algebra holds I = ∩ m_p^(max_order+1)
    over the spectrum and alpha, I ⊂ m, so every derivation kills I²
    and its jets of higher order.

    Everything is read in one jet space over alpha's cluster C (alpha
    alone off the spectrum), with the condition covectors restricted to
    C.  The candidates live on C, and the algebra's jets split by
    cluster (see ``cotangent_dimension``), so the jets of m·m seen on
    the candidates and the combinations that vanish on the algebra span
    the same spaces as over the whole spectrum; the echelon rows are
    canonical, so the basis is the same too.  ``spec`` may pass
    ``spectrum(flt)`` when the caller already has it.
    """
    n = flt.n
    point = as_point(alpha, n)
    if spec is None:
        spec = spectrum(flt)
    in_spectrum = point in spec.points
    cluster = spec.cluster_of(point) if in_spectrum else (point,)
    cand_cap = 2 * flt.max_order + 1 if in_spectrum else 1
    cap = max(cand_cap, flt.max_order)
    space = JetSpace(cluster, cap, n)

    condition_rows = _cluster_rows(flt, space)
    eval_row = space.evaluation_covector(point)
    # Only the span of the ideal jets matters here, so they are scaled to
    # integer rows and their products stay on int.
    ideal_jets = [integral(u) for u in kernel_basis(condition_rows + [eval_row], space.dim)]

    candidates = [
        (pi, a) for pi in range(len(cluster)) for a in _ordered_partials(n, 1, cand_cap)
    ]
    slot_of = {space.index(pi, a): s for s, (pi, a) in enumerate(candidates)}

    # Span of jets of m·m, seen through the candidate coordinates only.
    square_span = Echelon()
    for product in space.pair_products(ideal_jets):
        square_span.add({slot_of[c]: x for c, x in product.items() if c in slot_of})

    square_rows = list(square_span.pivot_rows.values())
    annihilator = kernel_basis(square_rows, len(candidates))

    # Candidate combinations that vanish on the whole algebra: exactly the
    # elements of the condition row space supported on candidate coordinates.
    vanishing = span_within(condition_rows, list(slot_of), space.dim)

    for z in vanishing:
        for row in square_rows:
            if space.pair(z, row) != 0:
                raise InvariantError("vanishing combination misses the square")

    quotient = Echelon()
    for z in vanishing:
        quotient.add(z)
    relations = quotient.rank
    representatives: list[SparseRow] = []
    for t in annihilator:
        if quotient.add(t) is not None:
            representatives.append(t)

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
        ansatz_order=cand_cap + 1,
        candidates=len(candidates),
        relations=relations,
    )


def _cluster_rows(flt: ConditionFiltration, space: JetSpace) -> list[SparseRow]:
    """The condition covectors restricted to the base points of ``space``.

    A condition that lives on other clusters gives an empty row.
    """
    return [space.functional_covector(c.functional, restrict=True) for c in flt.conditions()]


def maximal_ideal_jets(
    flt: ConditionFiltration, space: JetSpace, point: Point
) -> tuple[Echelon, Echelon]:
    """Echelons of the jets of m and of m² at ``point``, by closure.

    S holds the jets of the shifted generators g − g(point), each jet
    scaled to integer entries.  Each row newly added to the
    echelon of m is multiplied by every row of B, an echelon basis of
    span(S), and the product goes back on the frontier, so the echelon
    closes on the jets of m.  Those products span the jets of m²: a
    monomial in the shifted generators with at least two factors is one
    with at least one factor times some s, taking jets is a ring
    homomorphism, and m·span(S) = m·S because the product is bilinear.

    B's pivots are taken lowest derivative order first, by (order,
    point, partial) (``JetSpace.graded_basis``), so a row of B has no
    coordinate below its pivot's order.  At a4's spectrum points only
    2 to 5 of the 16 rows keep order 1, and ``partners`` skips the
    products whose orders sum above the cap.  Only the multipliers are
    graded: both echelons keep the space's own columns, so their rows
    are the RREF rows of the same spans as with S itself.

    The base points of ``space`` must be exactly one cluster C of the
    final basis, ``point`` among them, and the cap at least the largest
    condition order.  A base point outside ``point``'s cluster shows as
    a nonzero order-0 coordinate of some shifted generator jet, and
    raises ``ValueError`` before any product is formed.  On C the
    algebra's jets are j(A) ∩ J_C (see ``cotangent_dimension``), the
    kernel in J_C of the condition covectors restricted to C, so the
    rank of m is certified as dim J_C minus the rank of those covectors
    minus one for evaluation.
    """
    square = Echelon()
    return _ideal_closure(flt, space, point, square), square


def _ideal_closure(
    flt: ConditionFiltration, space: JetSpace, point: Point, square: Echelon | None
) -> Echelon:
    """``maximal_ideal_jets``' echelon of m; products go into ``square`` unless None.

    The frontier starts from the graded basis B, lowest order first, and
    each new row of m is multiplied by B's rows (see ``maximal_ideal_jets``).
    """
    shifted = [integral(space.shifted_jet(g, point)) for g in flt.final_basis.gens]
    origin = (0,) * space.n
    evaluations = [space.index(pi, origin) for pi in range(len(space.points))]
    if any(c in u for u in shifted for c in evaluations):
        raise ValueError("jet base points must lie in the point's cluster")
    multipliers = space.graded_basis(shifted)
    table = space.order_table(multipliers)
    frontier = multipliers[::-1]  # popped lowest order first
    ideal = Echelon()
    while frontier:
        row = ideal.add(frontier.pop())
        if row is None:
            continue
        for j in space.partners(space.lowest_orders(row), table):
            product = space.product(row, multipliers[j])
            if square is not None:
                square.add(product)
            frontier.append(product)
    conditions = Echelon()
    for row in _cluster_rows(flt, space):
        conditions.add(row)
    if ideal.rank != space.dim - conditions.rank - 1:
        raise InvariantError(
            "maximal ideal span failed to reach its certified jet rank"
        )
    return ideal


def cotangent_dimension(
    flt: ConditionFiltration, alpha, *, spec: Spectrum | None = None
) -> int:
    """dim m/m² at ``alpha``, as rank m − rank m² over ``alpha``'s cluster.

    Jets go to twice the largest condition order plus one; derivatives
    beyond that cannot see the quotient.  The jet algebra j(A) is
    finite-dimensional and commutative, so it is a product of local
    rings, one per cluster (Atiyah–Macdonald, Thm 8.7): its idempotent
    e_C is 1 on the jets at C and 0 elsewhere, and e_C·j(A) = j(A) ∩ J_C.
    For alpha in C, j(m) = e_C·j(m) ⊕ (1 − e_C)·j(A), and the second
    summand is its own square, so dim m/m² is read in J_C alone; off
    the spectrum alpha is its own cluster.

    The rank certificate runs on every cluster of ``spec``, each shifted
    at one of its own points, and the square is kept at alpha's only.
    The clusters come from the generators, so the jets of the algebra
    they generate split by the same idempotents, and the certificates
    of all clusters hold exactly when the one over the whole spectrum
    would.  Certifying alpha's cluster alone would pass a basis that
    misses a generator whose jets live on another cluster.  ``spec``
    may pass ``spectrum(flt)`` when the caller already has it.
    """
    n = flt.n
    point = as_point(alpha, n)
    if spec is None:
        spec = spectrum(flt)
    own = spec.cluster_of(point) or (point,)
    cap = 2 * flt.max_order + 1
    ideal, square = maximal_ideal_jets(flt, JetSpace(own, cap, n), point)
    for cluster in spec.clusters:
        if cluster != own:
            _ideal_closure(flt, JetSpace(cluster, cap, n), cluster[0], None)
    return ideal.rank - square.rank
