"""Exact rational matrices with fraction-free elimination.

One Bareiss-style integer kernel, `_bareiss`, serves rank, determinant,
`rref` (and through it nullspace and inverse) and `echelon_sl`.  Rows are
cleared of denominators first, so every intermediate value is an exact
minor of the scaled matrix and entry growth stays polynomial.  A row swap
negates the row it moves up, so every transform has determinant one; the
sign rides in `div` and the catch-up of the pivot row applies it.
A row whose entry in the pivot column is zero is skipped, not rewritten:
with p_j the pivot of step j and p_{-1} = 1, a row last brought to step
k equals its step-s Bareiss row times p_{k-1} / p_{s-1}, so the one
exact factor p_{s-1} / p_{k-1} catches it up when a later pivot column
needs it.  Going forward only, row r is `div[r]` times the row that
Gaussian elimination with the same pivots and swaps leaves in its place.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import prod
from typing import Iterable, Sequence

from .errors import ShapeError
from .rational import integer_form, rat


class RMatrix:
    """Immutable matrix over the rationals, stored row-major."""

    __slots__ = ("rows", "cols", "entries", "_ints")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(rat(e) for e in entries)
        if len(ent) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *_):
        raise AttributeError("RMatrix is immutable")

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        return RMatrix(r, c, [e for row in rows for e in row])

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "RMatrix":
        return RMatrix(rows, cols, [Fraction(0)] * (rows * cols))

    # -- access ----------------------------------------------------------

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(r)) for r in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        return RMatrix(self.rows, self.cols,
                       [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        return RMatrix(self.rows, self.cols,
                       [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "RMatrix":
        return RMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, s) -> "RMatrix":
        s = rat(s)
        return RMatrix(self.rows, self.cols, [s * a for a in self.entries])

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape()} by {other.shape()}")
        if not self.cols:
            return RMatrix.zeros(self.rows, other.cols)
        product = grid_product(self.to_rows(), other.to_rows())
        return RMatrix(self.rows, other.cols, [e for row in product for e in row])

    def mul_vec(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        return (self @ RMatrix(self.cols, 1, vec)).entries

    def transpose(self) -> "RMatrix":
        return RMatrix(self.cols, self.rows,
                       [self.at(r, c) for c in range(self.cols) for r in range(self.rows)])

    def hstack(self, other: "RMatrix") -> "RMatrix":
        if self.rows != other.rows:
            raise ShapeError("row count mismatch in hstack")
        out = []
        for r in range(self.rows):
            out.extend(self.row(r))
            out.extend(other.row(r))
        return RMatrix(self.rows, self.cols + other.cols, out)

    def vstack(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.cols:
            raise ShapeError("column count mismatch in vstack")
        return RMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def shape(self) -> tuple:
        return (self.rows, self.cols)

    # -- elimination -------------------------------------------------------

    def _integer_rows(self) -> tuple:
        """Scale each row to integers; returns (rows, product of scales).
        Computed once per matrix; callers must not mutate the rows."""
        try:
            return self._ints
        except AttributeError:
            pass
        forms = [integer_form(self.row(r)) for r in range(self.rows)]
        rows, scale = [ints for ints, _ in forms], prod(q for _, q in forms)
        object.__setattr__(self, "_ints", (rows, scale))
        return rows, scale

    def rank(self) -> int:
        """Exact rank via fraction-free (Bareiss) elimination."""
        return len(_bareiss(self._integer_rows()[0], self.cols)[1])

    def det(self) -> Fraction:
        """Exact determinant by the Bareiss kernel, at every size."""
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        rows, scale = self._integer_rows()
        return Fraction(integer_det(rows), scale)

    def rref(self) -> tuple:
        """Reduced row echelon form; returns (rows, pivot column list).
        Each pivot row of the upward kernel is a multiple of its reduced
        row, so dividing by its pivot entry reduces it."""
        rows, pivots, _ = _bareiss(self._integer_rows()[0], self.cols, upward=True)
        reduced = [[Fraction(e, row[c]) for e in row] for row, c in zip(rows, pivots)]
        return reduced + [[Fraction(0)] * self.cols for _ in rows[len(pivots):]], pivots

    def nullspace(self) -> list:
        """Basis of the right kernel, as tuples of Fractions."""
        m, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "RMatrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        aug = RMatrix(n, 2 * n, [self.at(r, c) if c < n else Fraction(int(c - n == r))
                                 for r in range(n) for c in range(2 * n)])
        m, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ShapeError("matrix is singular")
        return RMatrix(n, n, [m[r][c] for r in range(n) for c in range(n, 2 * n)])

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"RMatrix({self.to_rows()!r})"

    def _same_shape(self, other: "RMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch: {self.shape()} vs {other.shape()}")


class IntegerRowMatrix(RMatrix):
    """A matrix given by its integer form: row r is `rows[r]` over the
    integer `scales[r]` > 0.  Rank and det start from these rows, and the
    Fraction entries are built on first read."""

    __slots__ = ("_scales", "_entries")

    def __init__(self, rows: list, cols: int, scales: list):
        for name, value in (("rows", len(rows)), ("cols", cols), ("_scales", scales),
                            ("_ints", (rows, prod(scales))), ("_entries", None)):
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(
                Fraction(e, s) for row, s in zip(self._ints[0], self._scales) for e in row))
        return self._entries


def _bareiss(rows: list, pivot_cols: int, upward: bool = False) -> tuple:
    """Bareiss elimination of a copy of the integer rows that skips every
    row with a zero in the pivot column; returns (rows, pivot columns,
    div).  Pivots are searched in the first `pivot_cols` columns only,
    and every row operation spans the whole row.

    `div[r]` is p_{k-1}, where k is the step row r was last brought to.
    A pivot row is caught up to the current step by `* prev // div[r]`
    and stored so; any other row takes its next step straight from step
    k, which divides by its own `div[r]` where eager Bareiss divides by
    `prev`.  A swap negates the `div` of the row it moves up instead of
    the row itself; that row is the pivot row, so its catch-up applies
    the sign, and the step then overwrites the negated `div`.  With
    `upward` the rows above each pivot are cleared too (fraction-free
    Gauss-Jordan), every pivot row counts as brought to its own step,
    and each pivot row ends as a multiple of its reduced row.  A square grid of full rank ends with its determinant as the
    last pivot.
    """
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    div = [1] * nr
    pivots = []
    prev = 1
    piv_r = 0
    for piv_c in range(pivot_cols):
        if piv_r == nr:
            break
        pr = next((r for r in range(piv_r, nr) if m[r][piv_c]), None)
        if pr is None:
            continue
        if pr != piv_r:
            m[pr], m[piv_r] = m[piv_r], m[pr]
            div[pr], div[piv_r] = div[piv_r], -div[pr]
        top = m[piv_r]
        if div[piv_r] != prev:
            top = m[piv_r] = [e * prev // div[piv_r] for e in top]
        p = top[piv_c]
        div[piv_r] = p if upward else prev
        start, clear = piv_c + 1, range(piv_r + 1, nr)
        if upward:
            start, clear = 0, chain(range(piv_r), clear)
        for r in clear:
            row = m[r]
            f = row[piv_c]
            if f:
                d = div[r]
                for c in range(start, nc):
                    row[c] = (p * row[c] - f * top[c]) // d
                row[piv_c] = 0
                div[r] = p
        prev = p
        pivots.append(piv_c)
        piv_r += 1
    return m, pivots, div


def integer_det(grid: list) -> int:
    """Determinant of a square grid of integers by the Bareiss kernel; the
    grid is not modified."""
    n = len(grid)
    rows, pivots, _ = _bareiss(grid, n)
    if len(pivots) < n:
        return 0
    return rows[-1][-1] if n else 1


def stack_rows(vectors: Sequence[Sequence]) -> RMatrix:
    """Matrix whose rows are the given equal-length vectors."""
    return RMatrix.from_rows([list(v) for v in vectors])


def grid_product(A: Sequence[Sequence], B: Sequence[Sequence]) -> list:
    """Product of two grids (lists of rows) over any commutative scalar
    (rationals, dual numbers); each sum starts from its first product, not
    from 0.  The inner dimension must be at least one."""
    inner = range(1, len(B))
    return [[sum((row[k] * B[k][c] for k in inner), row[0] * B[0][c])
             for c in range(len(B[0]))] for row in A]


def cofactor_det(grid):
    """Determinant of a square grid over any commutative ring, by cofactor
    expansion along the first row (polynomials, Laurent and dual scalars);
    the empty determinant is 1."""
    n = len(grid)
    if n <= 1:
        return grid[0][0] if n else 1
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    acc = None
    for j in range(n):
        term = grid[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in grid[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def adjugate(grid):
    """Adjugate of a square grid over any commutative ring: the inverse
    of a determinant-one matrix (rationals, dual numbers)."""
    k = range(len(grid))
    return [[(-1) ** (i + j) * cofactor_det([[grid[r][c] for c in k if c != i]
                                             for r in k if r != j]) for j in k] for i in k]
