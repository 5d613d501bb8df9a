import random
from fractions import Fraction

from subalg.linalg import Echelon, kernel_basis, solve

F = Fraction


# -- the former dense path, kept as an oracle -------------------------


def _to_sparse(row):
    return {i: Fraction(v) for i, v in enumerate(row) if v}


def dense_rref(matrix):
    ech = Echelon()
    for row in matrix:
        ech.add(_to_sparse(row))
    ncols = max((len(r) for r in matrix), default=0)
    pivots = ech.pivots()
    dense = []
    for p in pivots:
        row = ech.pivot_rows[p]
        dense.append([row.get(c, Fraction(0)) for c in range(ncols)])
    return dense, pivots


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
    for pivot, row in ech.pivot_rows.items():
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
