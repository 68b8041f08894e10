"""Exact rational matrices with fraction-free elimination.

An `RMatrix` is stored as integer rows: row r is the integer list
`_nums[r]` over its positive integer scale `_scales[r]`.  Rows given as
Fractions are cleared once, by `rational.integer_form`; trusted integer
rows (documents, Jacobians, products) are taken as they are.  The
Fraction entries are built on first read and cached, and `==` and `hash`
compare a canonical form (each row divided by the gcd of its integers and
its scale), also built on first use, so a matrix that is only eliminated
never pays for either.

One Bareiss-style integer kernel, `_bareiss`, serves rank, determinant,
`rref` (and through it nullspace), `echelon_sl` and the maximal minors.
Every intermediate value is an exact minor of the scaled matrix, so
entry growth stays polynomial.  A row swap negates the row it moves up,
so every transform has determinant one; the sign rides in `div` and the
catch-up of the pivot row applies it.
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
from math import gcd, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import ShapeError
from .rational import common_scale, integer_form, rat


class RMatrix:
    """Immutable matrix over the rationals, stored as integer rows over
    positive row scales."""

    __slots__ = ("rows", "cols", "_nums", "_scales", "_ints", "_entries", "_canon")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(rat(e) for e in entries)
        if len(ent) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(ent)}")
        forms = [integer_form(ent[r * cols:(r + 1) * cols]) for r in range(rows)]
        _init(self, rows, cols, [ints for ints, _ in forms], [q for _, q in forms])
        _set_entries(self, ent)

    def __setattr__(self, *_):
        raise AttributeError("RMatrix is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild the integer rows and their scales."""
        return RMatrix.from_integer_rows, (self._nums, self.cols, self._scales)

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_integer_rows(rows: list, cols: int, scales: list) -> "RMatrix":
        """The matrix whose row r is the int list `rows[r]` (of length
        `cols`) over the int `scales[r]` > 0.  The lists are kept, not
        copied or reduced; callers must not mutate them afterwards."""
        m = object.__new__(RMatrix)
        _init(m, len(rows), cols, rows, scales)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        return RMatrix(r, c, [e for row in rows for e in row])

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix.from_integer_rows([[int(i == j) for j in range(n)] for i in range(n)],
                                         n, [1] * n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "RMatrix":
        return RMatrix.from_integer_rows([[0] * cols for _ in range(rows)], cols, [1] * rows)

    # -- access ----------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """Row-major Fraction entries, built on first read."""
        try:
            return self._entries
        except AttributeError:
            pass
        ent = tuple(Fraction(e, s) if s != 1 else Fraction(e)
                    for row, s in zip(self._nums, self._scales) for e in row)
        _set_entries(self, ent)
        return ent

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(r)) for r in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(map(any, self._nums))

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
        return RMatrix.from_integer_rows([[-e for e in row] for row in self._nums],
                                         self.cols, self._scales)

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        """Integer rows times integer rows: `other` is put over the lcm L of
        its scales, and row r of the product is over L times scale r."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape()} by {other.shape()}")
        if not self.cols:
            return RMatrix.zeros(self.rows, other.cols)
        grid, common = common_scale(other._nums, other._scales)
        return RMatrix.from_integer_rows(grid_product(self._nums, grid), other.cols,
                                         [s * common for s in self._scales])

    def mul_vec(self, vec: Sequence) -> tuple:
        """The product with a column vector, as a tuple of Fractions."""
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        ints, q = integer_form([rat(v) for v in vec])
        return tuple(Fraction(sum(map(mul, row, ints)), s * q)
                     for row, s in zip(self._nums, self._scales))

    def vstack(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.cols:
            raise ShapeError("column count mismatch in vstack")
        return RMatrix.from_integer_rows(self._nums + other._nums, self.cols,
                                         self._scales + other._scales)

    def shape(self) -> tuple:
        return (self.rows, self.cols)

    # -- elimination -------------------------------------------------------

    def _integer_rows(self) -> tuple:
        """(integer rows, product of the row scales), the pair built once;
        callers must not mutate the rows."""
        try:
            return self._ints
        except AttributeError:
            pass
        ints = (self._nums, prod(self._scales))
        _set_ints(self, ints)
        return ints

    def rank(self) -> int:
        """Exact rank via fraction-free (Bareiss) elimination."""
        return len(_bareiss(self._nums, self.cols)[1])

    def det(self) -> Fraction:
        """Exact determinant by the Bareiss kernel, at every size."""
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        return Fraction(integer_det(self._nums), prod(self._scales))

    def rref(self) -> tuple:
        """Reduced row echelon form; returns (rows, pivot column list).
        Each pivot row of the upward kernel is a multiple of its reduced
        row, so dividing by its pivot entry reduces it."""
        rows, pivots, _ = _bareiss(self._nums, self.cols, upward=True)
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

    # -- comparison ---------------------------------------------------------

    def _canonical(self) -> tuple:
        """Each row as (integers, scale) divided by their gcd: equal
        matrices of one shape have equal forms.  Built once."""
        try:
            return self._canon
        except AttributeError:
            pass
        canon = []
        for row, s in zip(self._nums, self._scales):
            g = gcd(*row, s)
            canon.append((tuple(row), s) if g == 1 else (tuple(e // g for e in row), s // g))
        canon = tuple(canon)
        _set_canon(self, canon)
        return canon

    def __eq__(self, other) -> bool:
        return (isinstance(other, RMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._canonical() == other._canonical())

    def __hash__(self):
        return hash((self.rows, self.cols, self._canonical()))

    def __repr__(self):
        return f"RMatrix({self.to_rows()!r})"

    def _same_shape(self, other: "RMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch: {self.shape()} vs {other.shape()}")


_set_rows = RMatrix.rows.__set__
_set_cols = RMatrix.cols.__set__
_set_nums = RMatrix._nums.__set__
_set_scales = RMatrix._scales.__set__
_set_entries = RMatrix._entries.__set__
_set_ints = RMatrix._ints.__set__
_set_canon = RMatrix._canon.__set__


def _init(m: RMatrix, rows: int, cols: int, nums: list, scales: list) -> None:
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_nums(m, nums)
    _set_scales(m, scales)


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
    and each pivot row ends as a multiple of its reduced row.  A square
    grid of full rank ends with its determinant as the last pivot.
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
