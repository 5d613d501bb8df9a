"""Exact sparse row reduction over Fraction: one echelon, its kernels and solves."""

from __future__ import annotations

from fractions import Fraction

SparseRow = dict[int, Fraction]


class Echelon:
    """Incremental reduced row echelon form over integer column indices.

    Rows are sparse dicts.  The pivot of a row is its smallest column.
    Stored rows are kept normalized (pivot coefficient 1) and mutually
    back-substituted, so at any time they are the RREF of everything
    inserted so far.  With that invariant a row reduces fully in one
    pass: subtracting a stored row can only touch non-pivot columns.
    """

    def __init__(self):
        self.pivot_rows: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: SparseRow) -> SparseRow:
        """Return ``row`` reduced against the current rows (nothing stored)."""
        work = {c: v for c, v in row.items() if v}
        hits = sorted(c for c in work if c in self.pivot_rows)
        for col in hits:
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

    def add(self, row: SparseRow) -> SparseRow | None:
        """Insert a row; return its reduced normalized form, or None if dependent."""
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

    def contains(self, row: SparseRow) -> bool:
        return not self.reduce(row)

    def rows(self) -> list[SparseRow]:
        return [dict(self.pivot_rows[p]) for p in sorted(self.pivot_rows)]

    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)


def kernel_basis(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the right kernel, one vector per free column, in column order.

    The vector of free column f is e_f minus, for each pivot row holding
    f, that row's entry at f placed in its pivot column.  Every pivot
    lies left of the free columns its row touches, so the entries come
    out in increasing column order.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    vectors: dict[int, SparseRow] = {
        f: {} for f in range(ncols) if f not in ech.pivot_rows
    }
    for pivot in ech.pivots():
        for col, value in ech.pivot_rows[pivot].items():
            if col != pivot:
                vectors[col][pivot] = -value
    for f, vec in vectors.items():
        vec[f] = Fraction(1)
    return list(vectors.values())


def solve(rows: list[SparseRow], rhs: list, ncols: int) -> SparseRow | None:
    """One exact solution of M x = b with free variables set to 0, or None.

    Column ``ncols`` carries the right-hand side, so a pivot there is a
    surviving 0 = 1 row.
    """
    ech = Echelon()
    for row, b in zip(rows, rhs):
        ech.add({**row, ncols: Fraction(b)} if b else row)
    if ncols in ech.pivot_rows:
        return None
    return {
        pivot: row[ncols] for pivot, row in ech.pivot_rows.items() if ncols in row
    }
