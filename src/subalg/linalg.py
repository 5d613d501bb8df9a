"""Exact sparse row reduction on integers: one echelon, its kernels and solves.

Rows enter with ``int`` or ``Fraction`` entries and are scaled to integer
rows on the way in.  The echelon keeps primitive integer rows and clears
columns fraction-free, so its arithmetic stays on Python ``int``;
Fractions appear only at the boundary, where ``rows``, ``kernel_basis``
and ``solve`` divide each row by its pivot entry once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

SparseRow = dict[int, Fraction]


def integral(row: SparseRow) -> dict[int, int]:
    """``row`` times the lcm of its denominators: int entries, zeros dropped."""
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    if den == 1:
        return {c: v.numerator for c, v in row.items() if v}
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _primitive(row: dict[int, int], pivot: int) -> dict[int, int]:
    """``row`` divided by its content, signed so the pivot entry is positive."""
    content = gcd(*row.values())
    if row[pivot] < 0:
        content = -content
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


def _clear(work: dict[int, int], row: dict[int, int], col: int) -> dict[int, int]:
    """A positive multiple of ``work`` minus a multiple of ``row``, zero at ``col``.

    With g = gcd(row[col], work[col]) this is
    (row[col]/g)·work − (work[col]/g)·row, which stays integral.
    """
    pivot = row[col]
    g = gcd(pivot, work[col])
    scale = pivot // g
    factor = work[col] // g
    if scale != 1:
        work = {c: scale * v for c, v in work.items()}
    for c, v in row.items():
        new = work.get(c, 0) - factor * v
        if new:
            work[c] = new
        else:
            del work[c]
    return work


class Echelon:
    """Incremental row echelon form over integer column indices.

    Rows are sparse dicts.  The pivot of a row is its smallest column.
    Each stored row is a primitive integer row (content 1, positive
    pivot entry), and the stored rows are mutually back-substituted, so
    dividing each by its pivot entry gives the RREF of everything
    inserted so far.  That multiple of an RREF row is unique, so the
    stored rows do not depend on the insertion order either.  With that
    invariant a row reduces fully in one pass: clearing a pivot column
    can only touch non-pivot columns.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: SparseRow) -> dict[int, int]:
        """A nonzero multiple of ``row`` reduced against the stored rows.

        Nothing is stored; the result is an integer row, empty exactly
        when ``row`` lies in the span.
        """
        work = integral(row)
        pivot_rows = self.pivot_rows
        for col in sorted(c for c in work if c in pivot_rows):
            work = _clear(work, pivot_rows[col], col)
        return work

    def add(self, row: SparseRow) -> dict[int, int] | None:
        """Insert a row; return its stored integer row, or None if dependent.

        The stored row is a positive multiple of the row's reduced
        normalized form.
        """
        reduced = self.reduce(row)
        if not reduced:
            return None
        pivot = min(reduced)
        stored = _primitive(reduced, pivot)
        pivot_rows = self.pivot_rows
        for p, other in pivot_rows.items():
            if pivot in other:
                pivot_rows[p] = _primitive(_clear(other, stored, pivot), p)
        pivot_rows[pivot] = stored
        return stored

    def contains(self, row: SparseRow) -> bool:
        return not self.reduce(row)

    def rows(self) -> list[SparseRow]:
        """The RREF rows in pivot order, with Fraction entries."""
        out = []
        for p in sorted(self.pivot_rows):
            row = self.pivot_rows[p]
            d = row[p]
            out.append({c: Fraction(v, d) for c, v in row.items()})
        return out

    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)


def kernel_basis(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the right kernel, one vector per free column, in column order.

    The vector of free column f is e_f minus, for each RREF row holding
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
        row = ech.pivot_rows[pivot]
        d = row[pivot]
        for col, value in row.items():
            if col != pivot:
                vectors[col][pivot] = Fraction(-value, d)
    for f, vec in vectors.items():
        vec[f] = Fraction(1)
    return list(vectors.values())


class SpanWithin:
    """The members of a growing span that are supported on ``columns``.

    Column ``columns[s]`` is moved to ``ncols + s``, so those columns come
    last and the echelon rows pivoting among them span exactly that part.
    Rows may arrive over time; ``seen`` counts the rows fed so far.
    """

    __slots__ = ("_moved", "_ncols", "_echelon", "seen")

    def __init__(self, columns: Sequence[int], ncols: int):
        self._moved = {c: ncols + s for s, c in enumerate(columns)}
        self._ncols = ncols
        self._echelon = Echelon()
        self.seen = 0

    def extend(self, rows: Iterable[SparseRow]) -> None:
        moved = self._moved
        for row in rows:
            self._echelon.add({moved.get(c, c): v for c, v in row.items()})
            self.seen += 1

    def basis(self) -> list[dict[int, int]]:
        """Integer rows spanning the part, indexed by position in ``columns``."""
        ncols = self._ncols
        return [
            {c - ncols: value for c, value in row.items()}
            for pivot, row in self._echelon.pivot_rows.items()
            if pivot >= ncols
        ]


def span_within(
    rows: Iterable[SparseRow], columns: list[int], ncols: int
) -> list[dict[int, int]]:
    """A basis of the members of the rows' span supported on ``columns``.

    The basis rows are integer rows indexed by position in ``columns``
    (``SpanWithin``).
    """
    within = SpanWithin(columns, ncols)
    within.extend(rows)
    return within.basis()


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
        pivot: Fraction(row[ncols], row[pivot])
        for pivot, row in ech.pivot_rows.items()
        if ncols in row
    }
