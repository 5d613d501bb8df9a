import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subalg.cli import Session
from subalg.jets import JetSpace
from subalg.linalg import Echelon, SpanWithin, integral, kernel_basis, solve, span_within
from subalg.poly import Poly
from subalg.qn import qn_build, qn_spec, verify_qprime_eq_q
from subalg.spectrum import cotangent_dimension, derivation_space, spectrum

F = Fraction

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


# -- the former Fraction core, kept as an oracle ----------------------


class FractionEchelon:
    """Incremental RREF over Fraction: stored rows normalized, pivot 1."""

    def __init__(self):
        self.pivot_rows = {}

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, row):
        work = {c: Fraction(v) for c, v in row.items() if v}
        for col in sorted(c for c in work if c in self.pivot_rows):
            factor = work.get(col)
            if not factor:
                continue
            for c2, v2 in self.pivot_rows[col].items():
                new = work.get(c2, Fraction(0)) - factor * v2
                if new:
                    work[c2] = new
                else:
                    work.pop(c2, None)
        return work

    def add(self, row):
        reduced = self.reduce(row)
        if not reduced:
            return None
        pivot = min(reduced)
        inv = Fraction(1) / reduced[pivot]
        normalized = {c: v * inv for c, v in reduced.items()}
        for other in self.pivot_rows.values():
            factor = other.get(pivot)
            if factor is None:
                continue
            for col, val in normalized.items():
                new = other.get(col, Fraction(0)) - factor * val
                if new:
                    other[col] = new
                else:
                    other.pop(col, None)
        self.pivot_rows[pivot] = normalized
        return normalized

    def contains(self, row):
        return not self.reduce(row)

    def rows(self):
        return [dict(self.pivot_rows[p]) for p in sorted(self.pivot_rows)]

    def pivots(self):
        return sorted(self.pivot_rows)


def fraction_kernel_basis(rows, ncols):
    ech = FractionEchelon()
    for row in rows:
        ech.add(row)
    vectors = {f: {} for f in range(ncols) if f not in ech.pivot_rows}
    for pivot in ech.pivots():
        for col, value in ech.pivot_rows[pivot].items():
            if col != pivot:
                vectors[col][pivot] = -value
    for f, vec in vectors.items():
        vec[f] = Fraction(1)
    return list(vectors.values())


def fraction_solve(rows, rhs, ncols):
    ech = FractionEchelon()
    for row, b in zip(rows, rhs):
        ech.add({**row, ncols: Fraction(b)} if b else row)
    if ncols in ech.pivot_rows:
        return None
    return {pivot: row[ncols] for pivot, row in ech.pivot_rows.items() if ncols in row}


def assert_matches_oracle(stream, probes=()):
    """Feed ``stream`` to both cores; compare every observable result."""
    ech, oracle = Echelon(), FractionEchelon()
    for row in stream:
        stored, normalized = ech.add(row), oracle.add(row)
        assert (stored is None) == (normalized is None)
        if stored is not None:
            # the stored row is a positive multiple of the normalized one
            assert set(stored) == set(normalized)
            pivot = min(stored)
            assert all(isinstance(v, int) for v in stored.values())
            assert stored[pivot] > 0
            assert all(F(v, stored[pivot]) == normalized[c] for c, v in stored.items())
    assert ech.rank == oracle.rank
    assert ech.pivots() == oracle.pivots()
    assert ech.rows() == oracle.rows()
    for probe in list(probes) + list(stream[:5]):
        assert ech.contains(probe) == oracle.contains(probe)
    ncols = 1 + max((c for row in stream for c in row), default=0)
    # compared as item lists: the entry order must match too
    assert [list(v.items()) for v in kernel_basis(stream, ncols)] == [
        list(v.items()) for v in fraction_kernel_basis(stream, ncols)
    ]
    # the last column as a right-hand side
    last = ncols - 1
    body = [{c: v for c, v in row.items() if c != last} for row in stream]
    rhs = [row.get(last, 0) for row in stream]
    found, expected = solve(body, rhs, last), fraction_solve(body, rhs, last)
    assert (found is None) == (expected is None)
    if found is not None:
        assert list(found.items()) == list(expected.items())


# -- the former dense path, kept as an oracle -------------------------


def _to_sparse(row):
    return {i: Fraction(v) for i, v in enumerate(row) if v}


def dense_rref(matrix):
    ech = Echelon()
    for row in matrix:
        ech.add(_to_sparse(row))
    ncols = max((len(r) for r in matrix), default=0)
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in ech.rows()]
    return dense, ech.pivots()


def dense_rank(matrix):
    return len(dense_rref(matrix)[1])


def dense_kernel_basis(matrix, ncols):
    reduced, pivots = dense_rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            entry = row[f] if f < len(row) else Fraction(0)
            if entry:
                vec[p] = -entry
        basis.append(vec)
    return basis


def dense_solve(matrix, rhs):
    if not matrix:
        return [] if all(not v for v in rhs) else None
    ncols = max(len(r) for r in matrix)
    ech = Echelon()
    for row, b in zip(matrix, rhs):
        sparse = _to_sparse(row)
        if b:
            sparse[ncols] = Fraction(b)
        ech.add(sparse)
    if ncols in ech.pivot_rows:
        return None
    solution = [Fraction(0)] * ncols
    for pivot, row in zip(ech.pivots(), ech.rows()):
        solution[pivot] = row.get(ncols, Fraction(0))
    return solution


def densify(vec, ncols):
    return [vec.get(c, F(0)) for c in range(ncols)]


def random_matrix(rng, nrows, ncols, bound):
    return [[F(rng.randint(-bound, bound)) for _ in range(ncols)] for _ in range(nrows)]


# -- hand-written cases -----------------------------------------------


def test_rref_small():
    ech = Echelon()
    for row in [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 7}, {2: 1}]:
        ech.add(row)
    assert ech.pivots() == [0, 2]
    assert ech.rows() == [{0: F(1), 1: F(2)}, {2: F(1)}]


def test_rank():
    def rank(rows):
        ech = Echelon()
        for row in rows:
            ech.add(row)
        return ech.rank

    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
    assert rank([{0: 1}, {1: 1}]) == 2
    assert rank([]) == 0


def test_kernel_basis():
    # x + 2y + 3z = 0 has a 2-dimensional kernel
    basis = kernel_basis([{0: 1, 1: 2, 2: 3}], 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec.get(0, 0) + 2 * vec.get(1, 0) + 3 * vec.get(2, 0) == 0


def test_solve_consistent_and_not():
    assert solve([{0: 2}, {1: 4}], [6, 8], 2) == {0: F(3), 1: F(2)}
    assert solve([{0: 1, 1: 1}, {0: 2, 1: 2}], [1, 3], 2) is None
    # underdetermined: free variable pinned to zero
    assert solve([{0: 1, 1: 1}], [5], 2) == {0: F(5)}


# -- the sparse core against the dense oracle -------------------------


def test_echelon_matches_dense_rank():
    rng = random.Random(11)
    for _ in range(200):
        nrows = rng.randint(0, 5)
        ncols = rng.randint(1, 5)
        matrix = random_matrix(rng, nrows, ncols, 4)
        ech = Echelon()
        for row in matrix:
            ech.add(_to_sparse(row))
        assert ech.rank == dense_rank(matrix)
        # every original row reduces to zero against the echelon
        for row in matrix:
            assert ech.contains(_to_sparse(row))


def test_kernel_vectors_annihilate():
    rng = random.Random(12)
    for _ in range(100):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        matrix = random_matrix(rng, nrows, ncols, 3)
        rows = [_to_sparse(row) for row in matrix]
        vectors = kernel_basis(rows, ncols)
        assert [densify(v, ncols) for v in vectors] == dense_kernel_basis(matrix, ncols)
        ech = Echelon()
        for row in rows:
            ech.add(row)
        assert ech.rank + len(vectors) == ncols
        for vec in vectors:
            assert all(vec.values())
            assert list(vec) == sorted(vec)
            for row in matrix:
                assert sum(row[c] * v for c, v in vec.items()) == 0


def dense_span_within(matrix, columns, ncols):
    """RREF of the row space's members supported on ``columns``, by brute force.

    The combinations y of the rows with y·M zero off ``columns`` are the
    kernel of the off-column block transposed; their y·M, read at
    ``columns`` in order, span the part.
    """
    off = [c for c in range(ncols) if c not in columns]
    transposed = [[row[c] for row in matrix] for c in off]
    members = [
        [sum(y[i] * matrix[i][c] for i in range(len(matrix))) for c in columns]
        for y in dense_kernel_basis(transposed, len(matrix))
    ]
    return dense_rref(members)[0]


def test_span_within_matches_dense_oracle():
    rng = random.Random(19)
    nonempty = 0
    for _ in range(300):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 7)
        matrix = [
            [F(rng.randint(-3, 3)) if rng.random() < 0.6 else F(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        columns = rng.sample(range(ncols), rng.randint(0, ncols))
        found = span_within([_to_sparse(row) for row in matrix], columns, ncols)
        ech = Echelon()
        for row in found:
            assert all(type(v) is int for v in row.values())
            assert ech.add(row) is not None  # a basis: independent rows
        reduced = [densify(row, len(columns)) for row in ech.rows()]
        expected = [row for row in dense_span_within(matrix, columns, ncols) if any(row)]
        assert reduced == expected, (matrix, columns)
        nonempty += bool(found) and len(columns) < ncols
    assert nonempty > 30


def test_span_within_fed_in_pieces_matches_one_shot():
    rng = random.Random(23)
    for _ in range(100):
        ncols = rng.randint(1, 7)
        rows = [
            {c: F(rng.randint(-3, 3)) for c in range(ncols) if rng.random() < 0.5}
            for _ in range(rng.randint(0, 8))
        ]
        columns = rng.sample(range(ncols), rng.randint(0, ncols))
        within = SpanWithin(columns, ncols)
        while within.seen < len(rows):
            within.extend(rows[within.seen : within.seen + rng.randint(1, 3)])
            prefix = rows[: within.seen]
            # Stored rows are unique multiples of the RREF rows.
            assert sorted(sorted(row.items()) for row in within.basis()) == sorted(
                sorted(row.items()) for row in span_within(prefix, columns, ncols)
            )


def test_solve_random_consistent_systems():
    rng = random.Random(13)
    inconsistent = 0
    for _ in range(100):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        matrix = random_matrix(rng, nrows, ncols, 3)
        hidden = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = [sum(r * v for r, v in zip(row, hidden)) for row in matrix]
        rows = [_to_sparse(row) for row in matrix]
        found = solve(rows, rhs, ncols)
        assert found is not None
        assert densify(found, ncols) == dense_solve(matrix, rhs)
        for row, b in zip(matrix, rhs):
            assert sum(row[c] * v for c, v in found.items()) == b
        # shifting one right-hand side entry may break consistency
        shifted = [rhs[0] + 1] + rhs[1:]
        expected = dense_solve(matrix, shifted)
        found = solve(rows, shifted, ncols)
        if expected is None:
            inconsistent += 1
            assert found is None
        else:
            assert densify(found, ncols) == expected
    assert inconsistent > 0


# -- the integer core against the Fraction oracle ---------------------


def random_rational_matrix(rng, nrows, ncols, bound):
    return [
        [F(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3, 11))) for _ in range(ncols)]
        for _ in range(nrows)
    ]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_echelon_matches_fraction_oracle_on_random_matrices(seed):
    rng = random.Random(seed)
    for _ in range(100):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        make = rng.choice((random_matrix, random_rational_matrix))
        matrix = make(rng, nrows, ncols, rng.choice((1, 3, 9)))
        stream = [_to_sparse(row) for row in matrix]
        probes = [_to_sparse(row) for row in make(rng, 3, ncols, 3)]
        assert_matches_oracle(stream, probes)


def library_streams(monkeypatch, run):
    """The rows ``run`` feeds each Echelon, keyed by the creating library caller."""
    streams = {}
    original = Echelon.add

    def recording(self, row):
        if self not in streams:
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] == "subalg.linalg":
                frame = frame.f_back
            caller = frame.f_code.co_name
            owner = frame.f_locals.get("self")
            if owner is not None:
                caller = f"{type(owner).__name__}.{caller}"
            streams[self] = (caller, [])
        streams[self][1].append(dict(row))
        return original(self, row)

    monkeypatch.setattr(Echelon, "add", recording)
    run()
    monkeypatch.undo()
    return list(streams.values())


LADDER_RUNGS = [
    ([(0, 0), (0, 1), (1, 0)], 2),
    ([(0, 0), (1, 1)], 3),
    ([(0, 0, 0), (1, 0, 0)], 2),
    ([(0,), (1,), (2,)], 3),
]


def run_sessions():
    for name in ("a1", "a2", "a3", "a4"):
        flt = Session.load(str(SESSIONS / f"{name}.json")).build()
        spec = spectrum(flt)
        for point in spec.points:
            derivation_space(flt, point, spec=spec)
            cotangent_dimension(flt, point, spec=spec)


def run_ladder():
    for points, level in LADDER_RUNGS:
        flt = qn_build(qn_spec(points, level))
        verify_qprime_eq_q(points, level, flt=flt)
        spec = spectrum(flt)
        derivation_space(flt, points[0], spec=spec)
        cotangent_dimension(flt, points[0], spec=spec)


@pytest.mark.parametrize("run", [run_sessions, run_ladder], ids=["sessions", "ladder"])
def test_echelon_matches_fraction_oracle_on_library_rows(monkeypatch, run):
    streams = library_streams(monkeypatch, run)
    callers = {caller for caller, _ in streams}
    # Builds validate each level on its jet shadow's projection; the
    # echelon check_leibniz keeps is covered in test_functionals.py.
    assert {"_ideal_closure", "derivation_space", "_JetShadow.project"} <= callers
    if run is run_ladder:
        assert "_IdealSlice.__init__" in callers
    for _, stream in streams:
        assert_matches_oracle(stream)


def test_echelon_matches_fraction_oracle_on_unscaled_generator_jets():
    # The shifted generator jets before ``maximal_ideal_jets`` scales
    # them: a4's generators carry /11 coefficients into them.
    denominators = set()
    for name in ("a1", "a2", "a3", "a4"):
        flt = Session.load(str(SESSIONS / f"{name}.json")).build()
        spec = spectrum(flt)
        for point in spec.points:
            space = JetSpace(spec.points, 2 * flt.max_order + 1, flt.n)
            stream = [
                space.jet(g - Poly.constant(flt.n, g.evaluate(point)))
                for g in flt.final_basis.gens
            ]
            denominators.update(F(v).denominator for row in stream for v in row.values())
            assert_matches_oracle(stream)
    assert any(d % 11 == 0 for d in denominators)


def test_boundary_values_are_fractions():
    # int rows in, so any true division of ints would surface as a float
    rng = random.Random(17)
    for _ in range(50):
        ncols = rng.randint(1, 5)
        rows = [
            {c: rng.randint(-5, 5) for c in range(ncols) if rng.random() < 0.7}
            for _ in range(rng.randint(1, 5))
        ]
        ech = Echelon()
        for row in rows:
            ech.add(row)
        for row in ech.rows():
            assert all(type(v) is Fraction for v in row.values())
        for vec in kernel_basis(rows, ncols):
            assert all(type(v) is Fraction for v in vec.values())
        rhs = [rng.randint(-5, 5) for _ in rows]
        found = solve(rows, rhs, ncols)
        if found is not None:
            assert all(type(v) is Fraction for v in found.values())


def test_integral_scales_by_the_denominator_lcm():
    assert integral({0: F(1, 2), 1: F(-1, 3), 2: 0, 3: 4}) == {0: 3, 1: -2, 3: 24}
    assert integral({0: F(4), 1: 6}) == {0: 4, 1: 6}
    assert all(type(v) is int for v in integral({0: F(4), 1: F(1, 6)}).values())
