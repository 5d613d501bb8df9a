"""Subalgebra bases with the subduction algorithm.

A basis here is a finite set of monic nonconstant generators whose
leading monomials generate, as a semigroup under exponent addition, the
leading monomials of the whole subalgebra.  Membership then reduces to
subduction: repeatedly cancel the leading term against the canonical
element with that head until nothing fits.

Bases are kept in a canonical shape: generators sorted by ascending
leading monomial, each monic, and each with every trailing monomial
outside the leading-monomial semigroup.  Canonical shape makes equal
subalgebras produce byte-identical generator lists, which the golden
tests and the command line rely on.

A canonical element, the member in that same shape with a given head, is
cached per basis; in finite codimension it has at most codim + 1 terms,
so a subduction step updates that many terms and multiplies nothing.

A filtration level cuts the kernel of one condition L from the level
below.  The kernel's semigroup is the level's semigroup without the head
d of the first generator where L is nonzero, so its canonical element of
head m is the level's canonical element of m corrected by a multiple of
that generator.  The kernel step reads its basis off those elements;
the raw products of ``kernel_sagbi_raw`` remain as its oracle.  Each
step is certified against the level below by deciding only the
monomials it can change, each by a lookup of its rests against the
kernel heads (``_certify_step``), and a certified level answers
semigroup membership from its holes.  The full scan of
``codimension_certified`` remains as that certificate's oracle.

A build validates each condition on the level's jet shadow: the jets of
the level at every condition point, held as the echelon of the condition
covectors cut so far, whose common kernel they are.  The Leibniz rule on
those jets is the rule on the whole level, so no spanning set of
polynomials is built for it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, lt, sub
from typing import Iterable, Sequence

from .errors import (
    CompletionDidNotStabilize,
    InvalidFiltration,
    InvariantError,
    NotAProperCondition,
    RedundantCondition,
)
from .functionals import Condition, LinearFunctional, leibniz_on_jets
from .jets import JetSpace
from .linalg import Echelon, SpanWithin, SparseRow, integral, kernel_basis
from .poly import (
    Monomial,
    Poly,
    TermOrder,
    _as_int,
    as_point,
    monomials_of_degree,
    monomials_up_to,
)

_ZERO_STEP_GUARD = 10_000


def _witness_search(
    target: Monomial,
    degrees: Sequence[Monomial],
    memo: dict[Monomial, tuple[int, ...] | None],
) -> tuple[int, ...] | None:
    """Multiplicities e with sum e_i * degrees_i == target, or None.

    Depth first over the generators in order, keeping the first witness;
    an explicit stack keeps high powers clear of the recursion limit.
    Generators have positive total degree, so every branch grounds out.
    """
    if not any(target):
        return (0,) * len(degrees)
    hit = memo.get(target, _witness_search)
    if hit is not _witness_search:
        return hit
    zero = (0,) * len(degrees)
    child = None  # outcome of the frame finished last
    stack = [[target, 0]]  # a target and the next generator index to try
    while stack:
        frame = stack[-1]
        t, idx = frame
        if child is not None:  # generator idx - 1 led to a witness
            child = memo[t] = child[: idx - 1] + (child[idx - 1] + 1,) + child[idx:]
            stack.pop()
            continue
        while idx < len(degrees) and any(map(lt, t, degrees[idx])):
            idx += 1
        if idx == len(degrees):
            memo[t] = None
            stack.pop()
            continue
        frame[1] = idx + 1
        rest = tuple(map(sub, t, degrees[idx]))
        child = zero if not any(rest) else memo.get(rest, _witness_search)
        if child is _witness_search:
            child = None
            stack.append([rest, 0])
    return child


def _subtract(
    terms: dict[Monomial, int | Fraction], coeff: int | Fraction, element: Poly
) -> list[Monomial]:
    """terms -= coeff * element in place; returns the monomials it created."""
    created = [m for m, _ in element.items() if m not in terms]
    for m, c in element.items():
        new = terms.get(m, 0) - coeff * c
        if new:
            terms[m] = new
        else:
            del terms[m]
    return created


class SagbiBasis:
    """Canonicalized generators of a subalgebra, plus cached reductions."""

    __slots__ = ("n", "order", "gens", "_degrees", "_witness_memo", "_canon", "_holes")

    def __init__(self, n: int, order: TermOrder, gens: Sequence[Poly]):
        gens = tuple(gens)
        self._start(n, order, gens, tuple(g.leading_monomial(order) for g in gens))

    @classmethod
    def _with_heads(
        cls, n: int, order: TermOrder, gens: Sequence[Poly], heads: Sequence[Monomial]
    ) -> SagbiBasis:
        """A basis whose caller already holds each generator's leading monomial."""
        basis = cls.__new__(cls)
        basis._start(n, order, tuple(gens), tuple(heads))
        return basis

    def _start(
        self, n: int, order: TermOrder, gens: tuple[Poly, ...], heads: tuple[Monomial, ...]
    ) -> None:
        self.n = n
        self.order = order
        self.gens = gens
        self._degrees = heads
        if len(set(self._degrees)) != len(self._degrees):
            raise ValueError("generators must have pairwise distinct leading monomials")
        self._witness_memo: dict[Monomial, tuple[int, ...] | None] = {}
        self._canon: dict[Monomial, Poly] = {}
        # The certified missing monomials, set once a step certificate
        # has passed; None means "ask the witness search".
        self._holes: frozenset[Monomial] | None = None

    def degrees(self) -> tuple[Monomial, ...]:
        """Leading monomials of the generators, ascending."""
        return self._degrees

    def max_generator_degree(self) -> int:
        return max((g.total_degree() for g in self.gens), default=0)

    def witness(self, mono: Monomial) -> tuple[int, ...] | None:
        return _witness_search(tuple(mono), self._degrees, self._witness_memo)

    def contains_monomial(self, mono: Monomial) -> bool:
        if self._holes is not None:
            return tuple(mono) not in self._holes
        return self.witness(mono) is not None

    def product_for_exponents(self, exponents: Sequence[int]) -> Poly:
        out = Poly.constant(self.n, 1)
        for g, k in zip(self.gens, exponents):
            if k:
                out = out * g**k
        return out

    def product_for(self, mono: Monomial) -> Poly:
        """The monic generator product with leading monomial ``mono``."""
        e = self.witness(mono)
        if e is None:
            raise ValueError(f"{mono} is not in the leading-monomial semigroup")
        return self.product_for_exponents(e)

    def canonical_element(self, mono: Monomial, product: Poly | None = None) -> Poly:
        """The monic member with head ``mono`` and a tail outside the semigroup.

        Peel the first generator with a nonzero witness exponent off the
        cached element of the rest, then clear the product's semigroup
        monomials below the head in one term dict.  Their own elements'
        tails avoid the semigroup, so one pass is complete.  An explicit
        stack keeps high powers clear of the recursion limit.  On a true
        basis the element is unique, and these elements form a
        triangular vector-space basis of the subalgebra.

        A caller that already holds a monic member with head ``mono``
        passes it as ``product``; the root is then cleared from it, with
        no witness search of its own.
        """
        canon = self._canon
        cached = canon.get(mono)
        if cached is not None:
            return cached
        root = tuple(mono)
        pending: dict[Monomial, tuple[Poly, list]] = {}  # head -> (product, semigroup tail)
        stack = [root]  # everything above a head is smaller than it
        while stack:
            head = stack[-1]
            if head in canon:
                stack.pop()
            elif head in pending:  # its tail's elements are built by now
                found, tail = pending.pop(head)
                terms = dict(found.items())
                for m, c in tail:
                    _subtract(terms, c, canon[m])
                canon[head] = Poly(self.n, terms)
            else:
                if head is root and product is not None:
                    found = product
                else:
                    e = self.witness(head)
                    if e is None:  # only the root can miss: rests and tails are members
                        raise ValueError(f"{head} is not in the leading-monomial semigroup")
                    if not any(e):
                        canon[head] = Poly.constant(self.n, 1)
                        continue
                    i = next(k for k, count in enumerate(e) if count)
                    rest = tuple(map(sub, head, self._degrees[i]))
                    if any(rest) and rest not in canon:
                        stack.append(rest)
                        continue
                    found = canon[rest] * self.gens[i] if any(rest) else self.gens[i]
                tail = [
                    (m, c)
                    for m, c in found.items()
                    if m != head and self.contains_monomial(m)
                ]
                if not tail:  # already canonical; keep the object and its caches
                    canon[head] = found
                    continue
                pending[head] = (found, tail)
                stack.extend(m for m, _ in tail)
        return canon[root]

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens)
        return f"SagbiBasis[{inner}]"


@dataclass(frozen=True)
class SubductionStep:
    """One cancellation: ``coeff`` times the canonical element with head Σ e_i·lm(g_i)."""

    coeff: int | Fraction
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class SubductionResult:
    remainder: Poly
    steps: tuple[SubductionStep, ...]


def subduce(f: Poly, basis: SagbiBasis) -> SubductionResult:
    """Cancel leading terms of ``f`` against canonical elements.

    Stops when the remainder is zero or its leading monomial falls
    outside the leading-monomial semigroup.  A canonical tail avoids the
    semigroup, so a step touches only that element's terms of the one
    remainder dict, and a queue sorted by the term order yields the next
    leading monomial.  The leading monomial strictly decreases at every
    step; both exit conditions are checked.
    """
    steps: list[SubductionStep] = []
    key = basis.order.key
    rem = dict(f.items())
    queue = sorted((key(m), m) for m in rem)  # ascending; stale entries are skipped
    previous_key = None
    while queue:
        mono_key, mono = queue.pop()
        coeff = rem.get(mono)
        if coeff is None:
            continue
        if previous_key is not None and mono_key >= previous_key:
            raise InvariantError("subduction failed to descend")
        previous_key = mono_key
        exponents = basis.witness(mono)
        if exponents is None:
            break
        for m in _subtract(rem, coeff, basis.canonical_element(mono)):
            insort(queue, (key(m), m))
        steps.append(SubductionStep(coeff, exponents))
        if len(steps) > _ZERO_STEP_GUARD:
            raise InvariantError("subduction exceeded the step guard")
    remainder = Poly(f.n, rem)
    if rem and basis.witness(remainder.leading_monomial(basis.order)) is not None:
        raise InvariantError("subduction stopped on a reducible leading monomial")
    return SubductionResult(remainder, tuple(steps))


def is_member(f: Poly, basis: SagbiBasis) -> bool:
    """Exact membership via subduction; valid when ``basis`` is a true basis."""
    return subduce(f, basis).remainder.is_zero()


def minimalize(gens: Iterable[Poly], order: TermOrder, n: int | None = None) -> SagbiBasis:
    """Drop superfluous generators and normalize the survivors.

    A generator is superfluous when its leading monomial already lies in
    the semigroup spanned by the other leading monomials.  Survivors are
    made monic and tail-reduced into canonical shape.
    """
    pool: list[Poly] = []
    for g in gens:
        if n is None:
            n = g.n
        if g.is_zero() or g.is_constant():
            continue
        pool.append(g.monic(order))
    if n is None:
        raise ValueError("cannot infer the variable count from an empty list")
    if not pool:
        return SagbiBasis(n, order, ())

    by_lm: dict[Monomial, Poly] = {}
    for g in pool:
        by_lm.setdefault(g.leading_monomial(order), g)
    # A decomposition of lm uses only smaller leading monomials, and each
    # dropped one decomposes into kept ones, so the kept list suffices.
    kept: list[Monomial] = []
    memo: dict[Monomial, tuple[int, ...] | None] = {}
    for lm in sorted(by_lm, key=order.key):
        if _witness_search(lm, kept, memo) is None:
            kept.append(lm)
            memo = {}  # its entries were searched over the shorter list

    rough = SagbiBasis(n, order, [by_lm[lm] for lm in kept])
    return SagbiBasis(n, order, [rough.canonical_element(lm) for lm in kept])


def kernel_sagbi_raw(basis: SagbiBasis, functional: LinearFunctional) -> list[Poly]:
    """The unminimalized generator set for the kernel of ``functional``.

    With j the first generator index where the functional is nonzero,
    the set contains the corrected other generators, all corrected
    products with generator j, and the corrected cube of generator j.
    """
    values = [functional.apply(g) for g in basis.gens]
    j = next((i for i, v in enumerate(values) if v != 0), None)
    if j is None:
        raise NotAProperCondition(
            "functional vanishes on every generator of the algebra"
        )
    gj = basis.gens[j]
    vj = values[j]
    out: list[Poly] = []
    for i, g in enumerate(basis.gens):
        if i == j:
            continue
        out.append(g - Fraction(values[i], vj) * gj)
    for g in basis.gens:
        p = g * gj
        out.append(p - Fraction(functional.apply(p), vj) * gj)
    cube = gj * gj * gj
    out.append(cube - Fraction(functional.apply(cube), vj) * gj)
    return out


def _pivot(basis: SagbiBasis, functional: LinearFunctional) -> tuple[int, Fraction]:
    """The first generator index where the functional is nonzero, and its value."""
    for i, g in enumerate(basis.gens):
        value = functional.apply(g)
        if value:
            return i, value
    raise NotAProperCondition("functional vanishes on every generator of the algebra")


def kernel_sagbi(
    basis: SagbiBasis,
    functional: LinearFunctional,
    pivot: tuple[int, Fraction] | None = None,
) -> SagbiBasis:
    """Minimal basis of the kernel of a valid condition inside the algebra.

    With g_j the first generator where L is nonzero and d its head, the
    kernel's semigroup S' is S without d.  Its minimal generators are
    among the heads of ``kernel_sagbi_raw``: the other generators' heads,
    which stay minimal in the smaller S', and the new candidates d + g
    and 3d.  A term order is translation-invariant, so the d + g ascend
    with g, and 3d falls where 2d would among the heads.  A candidate m
    is reducible in S' exactly when a minimal generator h of S' below it
    divides it with m - h in S', one semigroup lookup per old head and
    per candidate kept before m.  The few kept candidates are then merged
    into the old heads, and no list of candidates is sorted.

    A kept d + g is the head of g_j·g, and 3d of g_j·c_(2d), so
    ``canonical_element`` clears that product's tail into c_m, the
    basis's canonical element of m, with no witness search for m.  For
    every kept head m, c_m - (L(c_m)/L(g_j))·g_j lies in the kernel, and
    both tails lie in the missing set, so its tail avoids S': it is the
    kernel's canonical element with head m, and L meets only elements of
    at most codim + 1 terms.  ``pivot`` is ``_pivot(basis, functional)``
    when the caller already holds it.
    """
    j, value = _pivot(basis, functional) if pivot is None else pivot
    degrees, gens, key = basis.degrees(), basis.gens, basis.order.key
    d, gj = degrees[j], gens[j]
    twice = tuple(2 * k for k in d)
    candidates = [(tuple(map(add, d, m)), g) for m, g in zip(degrees, gens)]
    candidates.insert(bisect_left(degrees, key(twice), key=key), (tuple(3 * k for k in d), None))

    def in_kernel_semigroup(a: Monomial) -> bool:
        return a != d and basis.contains_monomial(a)

    old = degrees[:j] + degrees[j + 1 :]
    tested = list(old)  # the old heads, then each kept candidate
    new: list[tuple[Monomial, Poly]] = []
    for m, g in candidates:
        if any(
            all(map(le, h, m)) and in_kernel_semigroup(tuple(map(sub, m, h))) for h in tested
        ):
            continue
        tested.append(m)
        if g is None:
            g = basis.canonical_element(twice, gj * gj)
        new.append((m, basis.canonical_element(m, gj * g)))
    # Generators are their own canonical elements, and L vanishes on the
    # ones before j.
    found = [(m, g, i > j) for i, (m, g) in enumerate(zip(degrees, gens)) if i != j]
    found += [(m, cm, True) for m, cm in new]
    corrected: dict[Monomial, Poly] = {}
    for m, cm, live in found:
        coeff = functional.apply(cm) if live else 0
        if coeff:
            terms = dict(cm.items())
            _subtract(terms, _as_int(coeff / value), gj)
            cm = Poly(basis.n, terms)
        corrected[m] = cm
    # Only heads above d get a multiple of g_j subtracted, so m stays the head.
    heads = list(old)
    at = 0
    for m, _ in new:  # ascending, so each lands after the one before
        at = bisect_left(heads, key(m), at, key=key)
        heads.insert(at, m)
        at += 1
    elements = [corrected[m] for m in heads]
    kernel = SagbiBasis._with_heads(basis.n, basis.order, elements, heads)
    # Each generator is the kernel's canonical element of its head.
    kernel._canon.update(zip(heads, elements))
    return kernel


def variables_basis(n: int, order: TermOrder) -> SagbiBasis:
    """The basis {x1, ..., xn} of the full polynomial ring."""
    return minimalize([Poly.variable(n, i + 1) for i in range(n)], order, n)


# -- codimension ------------------------------------------------------


@dataclass(frozen=True)
class CodimReport:
    """Codimension, the missing monomials, and the conductor degree.

    ``conductor`` is one more than the largest missing total degree;
    every monomial of at least that degree lies in the semigroup.
    """

    codim: int
    missing: tuple[Monomial, ...]
    conductor: int


def _scan_missing(basis: SagbiBasis, target: int, degree_cap: int) -> list[Monomial]:
    """Monomials outside the semigroup by degree, from the witness search alone.

    This is the oracle of a build's step certificate, so it never reads
    a hole set.
    """
    missing: list[Monomial] = []
    degree = 0
    while len(missing) < target and degree <= degree_cap:
        for mono in sorted(monomials_of_degree(basis.n, degree), key=basis.order.key):
            if basis.witness(mono) is None:
                missing.append(mono)
        degree += 1
    return missing


def codimension_certified(basis: SagbiBasis, codim: int) -> CodimReport:
    """Codimension report when the codimension is already certified.

    The certificate lets the degree scan stop exactly when ``codim``
    missing monomials have been found.
    """
    cap = (codim + 1) * (basis.max_generator_degree() + 1) + basis.n + 2
    missing = _scan_missing(basis, codim, cap)
    if len(missing) != codim:
        raise InvariantError(
            f"certified codimension {codim} inconsistent with scan ({len(missing)} found)"
        )
    conductor = 1 + max((sum(m) for m in missing), default=-1)
    return CodimReport(codim, tuple(missing), conductor)


def _step_report(kernel: SagbiBasis, dropped: Monomial, report: CodimReport) -> CodimReport:
    """The kernel's report, deciding only the monomials its step can change.

    ``report`` is the level below's, and ``dropped`` the head d that the
    step removed.  The window holds the monomials componentwise >= d of
    degree below c' = max(c, |d| + 1), with c the old conductor, and
    every monomial of degree from c up to c'.  Outside it the old
    report's holes stand.  Each window monomial m is decided by degree,
    then term order, without a witness search: m is in the kernel's
    semigroup exactly when m is 1 or some kernel head h <= m leaves a
    rest m − h in it.  The rest has lower degree, so a rest in the
    window is decided already; a rest outside it is not >= d and lies
    below c, so the level below's holes give its status
    (``_certify_step``, which checks the heads first).
    """
    n, key = kernel.n, kernel.order.key
    top = max(report.conductor, sum(dropped) + 1)
    window = {tuple(map(add, dropped, e)) for e in monomials_up_to(n, top - 1 - sum(dropped))}
    for degree in range(report.conductor, top):
        window.update(monomials_of_degree(n, degree))
    holes = set(report.missing)
    heads = [h for h in kernel.degrees() if sum(h) < top]
    member: dict[Monomial, bool] = {}

    def inside(m: Monomial) -> bool:
        if not any(m):
            return True
        for h in heads:
            if all(map(le, h, m)):
                rest = tuple(map(sub, m, h))
                if member[rest] if rest in member else rest not in holes:
                    return True
        return False

    for m in sorted(window, key=lambda m: (sum(m), key(m))):
        member[m] = inside(m)
    # By degree, then term order, as a full scan lists them.
    missing = [m for m in report.missing if m not in window]
    missing += [m for m, found in member.items() if not found]
    missing.sort(key=lambda m: (sum(m), key(m)))
    conductor = sum(missing[-1]) + 1 if missing else 0
    return CodimReport(len(missing), tuple(missing), conductor)


def _certify_step(
    below: SagbiBasis, kernel: SagbiBasis, dropped: Monomial, report: CodimReport
) -> CodimReport:
    """The kernel's report, certified from the kernel step alone.

    Induction on the levels.  The level below has semigroup S and
    conductor c; its heads are S's minimal generators, and a monomial of
    degree below c lies in S exactly when it is not one of H, the holes
    in ``report``.  The dropped head d is minimal, so S∖{d} is a
    semigroup, and the kernel's should be it, with holes H ∪ {d} and
    conductor c' = max(c, |d| + 1).  The step is checked in three parts.

    - Every head of ``below`` except d is a kernel head, and every
      kernel head lies in S∖{d}, so the kernel's semigroup S' lies in it.
    - A monomial m that is not componentwise >= d keeps its status:
      every decomposition of m in S uses heads below m componentwise,
      none of them d, and those are kernel heads.  So ``_step_report``
      decides only the monomials >= d below c', and the degrees from c
      to c', which the level below took on its conductor.  It decides
      each by a lookup, m − h for the kernel heads h <= m, reading a
      rest outside that window from H by the same argument, so the head
      checks come first.  It must find exactly H ∪ {d} missing below c'.
    - Each kernel head that was not a head of ``below`` is irreducible:
      no kernel head before it leaves a difference in S'.  Old heads
      stay minimal in the smaller semigroup.

    Then the report equals ``codimension_certified(kernel, codim)``,
    whose full scan also stops once it has found the certified
    codimension.  A failed check raises ``InvariantError``.
    """
    fail = "kernel step did not drop exactly the expected monomial"
    holes = {*report.missing, dropped}
    heads = kernel.degrees()
    kept = set(heads)
    old = set(below.degrees())
    old.discard(dropped)
    if not kept >= old:
        raise InvariantError(f"{fail}: head {min(old - kept)} left too")
    if not kept.isdisjoint(holes):
        raise InvariantError(f"{fail}: head {min(kept & holes)} lies outside the semigroup")
    for m in kept - old:
        # A head that divides m componentwise comes before it.
        below_m = heads[: heads.index(m)]
        if any(all(map(le, g, m)) and tuple(map(sub, m, g)) not in holes for g in below_m):
            raise InvariantError(f"{fail}: head {m} is reducible")
    step = _step_report(kernel, dropped, report)
    if set(step.missing) != holes:
        raise InvariantError(fail)
    return step


# -- filtrations ------------------------------------------------------


@dataclass(frozen=True)
class FiltrationLevel:
    condition: Condition
    basis: SagbiBasis
    report: CodimReport


class ConditionFiltration:
    """A chain of algebras cut one condition at a time from K[x]."""

    __slots__ = ("n", "order", "base", "levels")

    def __init__(
        self,
        n: int,
        order: TermOrder,
        base: SagbiBasis,
        levels: Sequence[FiltrationLevel],
    ):
        self.n = n
        self.order = order
        self.base = base
        self.levels = tuple(levels)

    @property
    def codim(self) -> int:
        return len(self.levels)

    @property
    def final_basis(self) -> SagbiBasis:
        return self.levels[-1].basis if self.levels else self.base

    @property
    def final_report(self) -> CodimReport:
        if self.levels:
            return self.levels[-1].report
        return CodimReport(0, (), 0)

    @property
    def max_order(self) -> int:
        """Largest condition order (0 if none): A holds ∩ m_p^(max_order+1)."""
        return max((lv.condition.functional.max_order for lv in self.levels), default=0)

    def conditions(self) -> tuple[Condition, ...]:
        return tuple(level.condition for level in self.levels)


def truncated_algebra_basis(
    basis: SagbiBasis, report: CodimReport, max_degree: int
) -> list[Poly]:
    """Canonical elements for every head monomial of degree <= max_degree.

    With the missing set certified, semigroup membership is a set lookup
    and the result is a vector-space basis of the degree slice (under
    degree-compatible orders).
    """
    return [basis.canonical_element(mono) for mono in _heads_up_to(basis, report, max_degree)]


def _heads_up_to(basis: SagbiBasis, report: CodimReport, max_degree: int) -> list[Monomial]:
    """The semigroup monomials of degree <= max_degree, by degree, then term order."""
    missing = set(report.missing)
    return [
        mono
        for degree in range(max_degree + 1)
        for mono in sorted(monomials_of_degree(basis.n, degree), key=basis.order.key)
        if mono not in missing
    ]


# Integer numerators over a positive denominator.  A residue vector keys
# them by missing index and is kept in lowest terms.
ResidueVector = tuple[dict[int, int], int]


def _combine(terms: list[tuple[int, ResidueVector]]) -> ResidueVector:
    """Σ c·v over the (c, v), as numerators over the lcm of the denominators."""
    den = 1
    for _, (_, d) in terms:
        if den % d:
            den = lcm(den, d)
    out: dict[int, int] = {}
    for c, (nums, d) in terms:
        factor = c if d == den else c * (den // d)
        for k, v in nums.items():
            out[k] = out.get(k, 0) + factor * v
    return {k: v for k, v in out.items() if v}, den


def _lowest_terms(nums: dict[int, int], den: int) -> ResidueVector:
    """nums/den with the common factor of the numerators and denominator divided out."""
    g = den if den == 1 else gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: v // g for k, v in nums.items()}, den // g


class _Residues:
    """The residue map ρ of an algebra with a certified missing set, by recurrence.

    K[x] = A ⊕ span{x^(m_k)}, so every f is a member plus Σ ρ_k(f)·x^(m_k)
    and f lies in A exactly when ρ(f) = 0.  ρ(1) = 0 and ρ(x^(m_k)) = e_k.
    Any other x^h takes the first generator g_i whose head d_i ≤ h leaves
    a rest r = h − d_i outside the missing set.  Then x^r·g_i is x^h plus
    its tail shifted by r, and x^r is a member plus Σ ρ_k(x^r)·x^(m_k), so

        ρ(x^h) = Σ_k ρ_k(x^r)·ρ(x^(m_k)·g_i) − Σ_(u,c ∈ tail g_i) c·ρ(x^(r+u)).

    ρ(x^r) lives on the m_k below r, so every monomial on the right lies
    below h in the term order and the recurrence is triangular; a memo
    walks it with an explicit stack.  It reads only the generators and
    ``report.missing``, never the conditions, so it tests the basis as
    built.  Generators are scaled to integers once, vectors are held in
    lowest terms, and the products ρ(x^(m_k)·g_i) are kept per (k, i).
    A missing set that is not the basis's own can leave a monomial that
    no generator reaches; that raises ``InvariantError``.  One instance
    memoizes for one computation; it holds no canonical element.
    """

    __slots__ = ("missing", "_heads", "_gens", "_holes", "_rho", "_products")

    def __init__(self, basis: SagbiBasis, report: CodimReport):
        self.missing = tuple(report.missing)
        self._heads = basis.degrees()
        self._gens = []  # per generator: (head coefficient, integer terms, integer tail)
        for g, d in zip(basis.gens, self._heads):
            terms = integral(dict(g.items()))
            tail = [(u, c) for u, c in terms.items() if u != d]
            self._gens.append((terms[d], list(terms.items()), tail))
        self._holes = frozenset(self.missing)
        self._rho: dict[Monomial, ResidueVector] = {(0,) * basis.n: ({}, 1)}
        self._rho.update((m, ({k: 1}, 1)) for k, m in enumerate(self.missing))
        self._products: dict[tuple[int, int], ResidueVector] = {}

    def vectors(self, monomials: Iterable[Monomial]) -> list[ResidueVector]:
        """ρ(x^m) for each monomial, in order."""
        rho = self._rho
        out = []
        for mono in monomials:
            if mono not in rho:
                self._fill(mono)
            out.append(rho[mono])
        return out

    def _split(self, head: Monomial) -> tuple[int, Monomial]:
        """The first generator whose head leaves a rest outside the missing set."""
        for i, d in enumerate(self._heads):
            if all(map(le, d, head)):
                rest = tuple(map(sub, head, d))
                if rest not in self._holes:
                    return i, rest
        raise InvariantError(f"no generator head reaches {head}, which is not certified missing")

    def _fill(self, root: Monomial) -> None:
        """Memoize ρ(x^root) and every vector its recurrence reads."""
        rho, products, missing = self._rho, self._products, self.missing
        pending: dict[Monomial, tuple[int, Monomial, bool]] = {}  # head -> (i, rest, expanded)
        stack = [root]  # everything pushed lies below what pushed it
        while stack:
            head = stack[-1]
            if head in rho:
                stack.pop()
                continue
            step = pending.get(head)
            if step is None:
                step = pending[head] = (*self._split(head), False)
                if step[1] not in rho:
                    stack.append(step[1])
                    continue
            i, rest, expanded = step
            scale, terms, tail = self._gens[i]
            nums, den = rho[rest]
            if not expanded:
                need = [tuple(map(add, rest, u)) for u, _ in tail]
                for k in nums:
                    if (k, i) not in products:
                        need += [tuple(map(add, missing[k], v)) for v, _ in terms]
                need = [m for m in need if m not in rho]
                if need:
                    pending[head] = (i, rest, True)
                    stack.extend(need)
                    continue
            parts = []
            for k, a in nums.items():
                product = products.get((k, i))
                if product is None:
                    m = missing[k]
                    product = products[k, i] = _lowest_terms(
                        *_combine([(c, rho[tuple(map(add, m, v))]) for v, c in terms])
                    )
                parts.append((a, (product[0], product[1] * den)))
            parts += [(-c, rho[tuple(map(add, rest, u))]) for u, c in tail]
            total, total_den = _combine(parts)
            rho[head] = _lowest_terms(total, total_den * scale)
            del pending[head]
            stack.pop()


class _JetShadow:
    """The jets of a filtration level, as the echelon of the covectors that cut it.

    Every condition is a combination of derivative evaluations, so it
    factors through the truncated jet map j at every condition point,
    alpha and beta, up to the largest condition order.  j is onto, so
    j(K[x]) is the whole space, and j(A ∩ ker L) = j(A) ∩ ker ℓ for ℓ the
    covector of L: the level's jets are the common kernel of the
    covectors cut so far, and ℓ vanishes on them exactly when it lies in
    their span.  j is a ring homomorphism, so the Leibniz rule on A is
    the pair test on these jets, projected to the condition's own
    coordinates.
    """

    __slots__ = ("space", "cuts", "_covectors", "_within")

    def __init__(self, n: int, conditions: Sequence[Condition]):
        points: set = set()
        for condition in conditions:
            points.update(condition.functional.points())
            points.update((condition.kind.alpha, condition.kind.beta))
        cap = max(condition.functional.max_order for condition in conditions)
        self.space = JetSpace(sorted(points), cap, n)
        self.cuts = Echelon()
        self._covectors: list[SparseRow] = []  # every covector cut, in order
        self._within: dict[tuple[int, ...], SpanWithin] = {}

    def project(self, condition: Condition) -> tuple[JetSpace, Echelon]:
        """The condition's jet space, and the echelon of the jets projected to it.

        The projection to coordinates C of the covectors' common kernel
        is the kernel of their span's members supported on C.  Each C
        keeps its own ``SpanWithin``, fed only the covectors cut since
        its last use.
        """
        functional, kind = condition.functional, condition.kind
        points = sorted(set(functional.points()) | {kind.alpha, kind.beta})
        space = JetSpace(points, functional.max_order, functional.n)
        big = self.space
        columns = tuple(big.index(big.point_index(space.points[pi]), a) for pi, a in space.coords)
        within = self._within.get(columns)
        if within is None:
            within = self._within[columns] = SpanWithin(columns, big.dim)
        within.extend(self._covectors[within.seen:])
        jets = Echelon()
        for row in kernel_basis(within.basis(), space.dim):
            jets.add(row)
        return space, jets

    def leibniz_holds(self, condition: Condition) -> bool:
        """The condition's Leibniz rule on the level these jets span."""
        space, jets = self.project(condition)
        kind = condition.kind
        return leibniz_on_jets(
            space, condition.functional, kind.alpha, kind.beta, jets.pivot_rows.values()
        )

    def cut(self, functional: LinearFunctional) -> bool:
        """Intersect with ker ℓ; False, changing nothing, when ℓ vanishes on the jets."""
        covector = self.space.functional_covector(functional)
        if self.cuts.add(covector) is None:
            return False
        self._covectors.append(covector)
        return True


def build_from_conditions(
    n: int,
    conditions: Sequence[Condition],
    order: TermOrder,
) -> ConditionFiltration:
    """Validate conditions level by level and cut the kernel chain.

    Each condition must satisfy the Leibniz rule for its declared points
    on the algebra it cuts, and must not vanish on all of it.  Both are
    decided on the level's jet shadow (``_JetShadow``): the common kernel
    of the covectors cut so far, in one jet space that is built, or
    refused as too large, before level 1.  A condition vanishes on the
    level when its covector lies in their span.  The condition is
    evaluated on the generators once per level, for the head d it drops.
    The codimension grows by exactly one per level: ``_certify_step``
    checks each step against the level below, deciding only what the
    step can change, and a certified level answers semigroup membership
    from its holes.
    """
    base = variables_basis(n, order)
    base._holes = frozenset()
    current = base
    # A condition of the wrong size is refused at its own level.
    sized = [
        condition
        for condition in conditions
        if condition.functional.n == n == len(condition.kind.alpha) == len(condition.kind.beta)
    ]
    shadow = _JetShadow(n, sized) if sized else None
    levels: list[FiltrationLevel] = []
    report = CodimReport(0, (), 0)
    for index, condition in enumerate(conditions, start=1):
        functional = condition.functional
        if functional.n != n:
            raise InvalidFiltration(index, "condition has the wrong variable count")
        for point in (condition.kind.alpha, condition.kind.beta):
            as_point(point, n)  # raises DimensionMismatch at this condition's level
        if not shadow.leibniz_holds(condition):
            raise InvalidFiltration(index, "condition fails the Leibniz rule on its level")
        # For a functional that does satisfy the Leibniz rule, vanishing on
        # the generators is vanishing on the whole level, and on its jets.
        try:
            pivot = _pivot(current, functional)
        except NotAProperCondition:
            pivot = None
        if not shadow.cut(functional):
            if pivot is not None:
                raise InvariantError("condition vanishes on its level's jets but not on a generator")
            raise RedundantCondition(index, "condition vanishes on its level")
        if pivot is None:
            raise InvariantError("condition vanishes on every generator but not on its level's jets")
        kernel = kernel_sagbi(current, functional, pivot)
        report = _certify_step(current, kernel, current.degrees()[pivot[0]], report)
        kernel._holes = frozenset(report.missing)
        current = kernel
        levels.append(FiltrationLevel(condition, current, report))
    return ConditionFiltration(n, order, base, levels)


def bases_equivalent(left: SagbiBasis, right: SagbiBasis) -> bool:
    """Two-sided subduction: every generator of each lies in the other."""
    return all(is_member(g, right) for g in left.gens) and all(
        is_member(g, left) for g in right.gens
    )


# -- completion from raw generators -----------------------------------


def _representations(
    target: Monomial, degrees: Sequence[Monomial], idx: int = 0
) -> Iterable[tuple[int, ...]]:
    if not any(target):
        yield (0,) * (len(degrees) - idx)
        return
    if idx == len(degrees):
        return
    d = degrees[idx]
    top = min(
        (t // c for t, c in zip(target, d) if c), default=sum(target)
    )
    for k in range(top, -1, -1):
        rest = tuple(t - k * c for t, c in zip(target, d))
        if any(v < 0 for v in rest):
            continue
        for tail in _representations(rest, degrees, idx + 1):
            yield (k,) + tail


def sagbi_from_generators(
    gens: Sequence[Poly], order: TermOrder, degree_cap: int
) -> SagbiBasis:
    """Desk-scale completion of a raw generator list into a basis.

    The raw pool is repeatedly minimalized; pool members that fail to
    subduce to zero contribute their remainders back, as do differences
    of distinct generator products sharing a leading monomial (searched
    up to ``degree_cap``).  For finite-codimension algebras this
    stabilizes quickly at small scale; the cap keeps the search finite.
    """
    n = gens[0].n if gens else None
    pool = [g for g in gens if not (g.is_zero() or g.is_constant())]
    current = minimalize(pool, order, n)
    for _ in range(256):
        added = None
        for g in pool:
            rem = subduce(g, current).remainder
            if not rem.is_zero():
                added = rem
                break
        if added is None:
            degrees = current.degrees()
            for degree in range(2, degree_cap + 1):
                for mono in sorted(
                    monomials_of_degree(current.n, degree), key=order.key
                ):
                    reps = []
                    for e in _representations(mono, degrees):
                        reps.append(e)
                        if len(reps) > 8:
                            break
                    if len(reps) < 2:
                        continue
                    base_product = current.product_for_exponents(reps[0])
                    for e in reps[1:]:
                        difference = base_product - current.product_for_exponents(e)
                        rem = subduce(difference, current).remainder
                        if not rem.is_zero():
                            added = rem
                            break
                    if added is not None:
                        break
                if added is not None:
                    break
        if added is None:
            return current
        pool.append(added)
        current = minimalize(pool, order, current.n)
    raise CompletionDidNotStabilize("completion did not stabilize within the iteration guard")
