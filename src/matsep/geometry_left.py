"""Geometry of the left determinant-one action on l x n matrices.

Stability is full rank, the nullcone is the rank-deficient locus, and a
nullcone pair lies in the closure of the action graph only if stacking
the two matrices keeps the rank at most l.  For l = 2 and l = 3 that
necessary condition is also sufficient, and this module constructs the
explicit one-parameter witness curves: a determinant-one Laurent matrix
g(t) and a matrix curve A(t) with g(t) A(t) converging to the target
pair as t -> 0.  All curve identities are checked in exact Laurent
arithmetic, so "the limit exists" is the absence of negative exponents.
Each curve is a sum of t^e times constant integer grids, and each constant
factor enters as an integer grid over one scale, its inverse as the
integer adjugate (its determinant is one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional, Tuple

from .errors import PreconditionError, ShapeError
from .invariants import LeftMatrix
from .laurent import LaurentMatrix
from .matrix import RMatrix, _bareiss, adjugate, grid_product
from .rational import common_scale
from .separation import GroupElementL


@dataclass(frozen=True)
class CurveWitness:
    """One-parameter family certifying graph-closure membership.

    Invariants: det(g_curve) = 1 identically, g_curve * a_curve equals
    a2_curve identically, and both matrix curves have limits at t -> 0.
    """

    g_curve: LaurentMatrix
    a_curve: LaurentMatrix
    a2_curve: LaurentMatrix

    def verify(self) -> bool:
        g = self.g_curve
        if g.integer_det() != {0: g.scale ** g.rows}:
            return False
        if (g @ self.a_curve) != self.a2_curve:
            return False
        return self.a_curve.has_limit_at_zero() and self.a2_curve.has_limit_at_zero()

    def limits(self) -> Tuple[LeftMatrix, LeftMatrix]:
        return (LeftMatrix(self.a_curve.limit_at_zero()),
                LeftMatrix(self.a2_curve.limit_at_zero()))


def is_stable_left(A: LeftMatrix) -> bool:
    """Stable exactly when the matrix has full row rank."""
    return A.matrix.rank() == A.l


def nullcone_member_left(A: LeftMatrix) -> bool:
    """All maximal minors vanish, i.e. the rank drops below l."""
    return A.matrix.rank() < A.l


def stack(A: LeftMatrix, A2: LeftMatrix) -> RMatrix:
    """Vertical concatenation into a 2l x n matrix."""
    if (A.l, A.n) != (A2.l, A2.n):
        raise ShapeError("stacked matrices must have the same shape")
    return A.matrix.vstack(A2.matrix)


def graph_rank_left(A: LeftMatrix, A2: LeftMatrix) -> int:
    """Rank of the stacked 2l x n matrix of a nullcone pair."""
    if not (nullcone_member_left(A) and nullcone_member_left(A2)):
        raise PreconditionError("not nullcone pair: a component has full rank")
    return stack(A, A2).rank()


def graph_necessary(A: LeftMatrix, A2: LeftMatrix) -> bool:
    """Necessary condition for a nullcone pair to lie in the graph closure:
    the stacked rank is at most l.

    False rules membership out; True is also sufficient for l <= 3.
    """
    return graph_rank_left(A, A2) <= A.l


def graph_member_l23(A: LeftMatrix, A2: LeftMatrix) -> bool:
    """Exact graph-closure membership test for l = 2 or l = 3."""
    if A.l not in (2, 3):
        raise PreconditionError("exact test available only for l = 2 or l = 3")
    return graph_necessary(A, A2)


def _stacked_rows(*matrices) -> Tuple[list, int]:
    """The matrices' rows, stacked, as integer rows over one scale."""
    return common_scale([row for m in matrices for row in m._nums],
                        [s for m in matrices for s in m._scales])


def _echelon_rows(A: LeftMatrix) -> tuple:
    """(rows, scale, pivots) of the forward Bareiss kernel on [L A | L I],
    L one scale of A's rows, with pivots in A's columns only; the rows
    over scale are the Gaussian rows [R | g]."""
    grid, scale = _stacked_rows(A.matrix)
    grid = [row + [scale * (c == r) for c in range(A.l)] for r, row in enumerate(grid)]
    rows, pivots, div = _bareiss(grid, A.n)
    q = lcm(*div)
    return [[e * (q // d) for e in row] for row, d in zip(rows, div)], q * scale, pivots


def echelon_sl(A: LeftMatrix) -> Tuple[GroupElementL, LeftMatrix]:
    """Row echelon form reached inside the determinant-one group.

    Each row swap of the kernel negates the row it moves up, so the
    accumulated transform g always has determinant one and g A = R.
    """
    rows, scale, _ = _echelon_rows(A)
    l, n = A.l, A.n
    return (GroupElementL(RMatrix.from_integer_rows([row[n:] for row in rows], l, [scale] * l)),
            LeftMatrix(RMatrix.from_integer_rows([row[:n] for row in rows], n, [scale] * l)))


def reduced_form_single(A: RMatrix) -> Tuple[int, Optional[Fraction]]:
    """Canonical orbit-closure data of a single matrix under the
    two-sided determinant-one action.

    The rank classifies everything except full-rank square matrices,
    where the determinant survives as the remaining invariant.
    """
    r = A.rank()
    if A.rows == A.cols == r:
        return r, A.det()
    return r, None


# -- witness curves ---------------------------------------------------------


def _reduced_curve(A: LeftMatrix, A2: LeftMatrix, a, b, scale, ranks) -> CurveWitness:
    """Witness curve of (A, A2) from its SL-reduced form a, b of the given
    ranks: integer rows over one scale, related as the rational rows are."""
    if A.l not in (2, 3):
        raise PreconditionError("witness curves exist only for l = 2 or l = 3")
    if (A.l, A.n) != (A2.l, A2.n):
        raise ShapeError("pair components must have the same shape")
    if max(ranks) >= A.l:
        raise PreconditionError("not nullcone pair: a component has full rank")
    if any(a[-1]) or any(b[-1]):
        raise PreconditionError("subcase requires prior SL-reduction: "
                                "bottom rows must be zero")
    if len(_bareiss(a + b, A.n)[1]) > A.l:
        raise PreconditionError("stacked rank exceeds l: not in graph closure")
    return (_curve_l2 if A.l == 2 else _curve_l3)(a, b, scale)


def witness_curve_left(A: LeftMatrix, A2: LeftMatrix) -> CurveWitness:
    """Explicit curve certifying that a nullcone pair lies in the closure.

    Inputs must be SL-reduced (zero bottom row) with stacked rank at
    most l.  For l = 2 the curve is the single shear family; for l = 3
    the construction branches on whether either side has a degenerate
    top-row span, with a row swap fixing the normalisation where needed.
    """
    rows, scale = _stacked_rows(A.matrix, A2.matrix)
    return _reduced_curve(A, A2, rows[:A.l], rows[A.l:], scale,
                          (A.matrix.rank(), A2.matrix.rank()))


def _constant(rows, scale) -> LaurentMatrix:
    return LaurentMatrix.from_grids(len(rows), len(rows), {0: list(chain(*rows))}, scale)


def _inverse(rows, scale) -> LaurentMatrix:
    """Inverse of rows / scale, of determinant one: the adjugate of rows."""
    return _constant(adjugate(rows), scale ** (len(rows) - 1))


_E = [tuple(int(i == k) for i in range(9)) for k in range(9)]   # flat 3 x 3 units
_SHEAR2 = LaurentMatrix.from_grids(2, 2, {0: (1, 0, 0, 1), -1: (0, 1, 0, 0)})
_SHEAR3 = LaurentMatrix.from_grids(3, 3, {0: (1, 0, 0, 0, 1, 0, 0, 0, 1), -1: _E[2]})
# [[1, 0, t^-2], [0, t, 0], [0, 0, t^-1]], pulling a collapsed side, and its inverse
_PULL = LaurentMatrix.from_grids(3, 3, {0: _E[0], -2: _E[2], 1: _E[4], -1: _E[8]})
_PULL_INV = LaurentMatrix.from_grids(3, 3, {0: _E[0], -1: (0, 0, -1, 0, 1, 0, 0, 0, 0), 1: _E[8]})


def _last_row_curve(rows, target, exp, scale) -> LaurentMatrix:
    """The curve (rows above the last; t^exp (target - top row)), all
    integer rows over scale; it tends to rows, whose last row is zero."""
    top, zero = rows[0], [0] * len(rows[0]) * (len(rows) - 1)
    return LaurentMatrix.from_grids(len(rows), len(top), {
        0: list(chain(*rows)), exp: zero + [w - e for e, w in zip(top, target)]}, scale)


def _curve_l2(a, b, scale) -> CurveWitness:
    a_curve = _last_row_curve(a, b[0], 1, scale)
    return CurveWitness(_SHEAR2, a_curve, _SHEAR2 @ a_curve)


def _relation(*rows) -> Optional[tuple]:
    """The first right-kernel vector of the matrix whose columns are the
    rows, so that the rows weighted by it sum to zero, or None."""
    grid = [list(c) for c in zip(*rows)]
    kernel = RMatrix.from_integer_rows(grid, len(rows), [1] * len(grid)).nullspace()
    return kernel[0] if kernel else None


def _second_row_combination(x, y) -> Tuple[list, int]:
    """Determinant-one transform, as integer rows over one scale, that
    replaces the second row of (r1; r2; 0) by x*r1 + y*r2, swapping the
    top rows first (and negating the third) when y vanishes."""
    if y:
        return _stacked_rows(RMatrix.from_rows([[1, 0, 0], [x, y, 0], [0, 0, 1 / y]]))
    return _stacked_rows(RMatrix.from_rows([[0, 1, 0], [x, 0, 0], [0, 0, -1 / x]]))


def _curve_l3(a, b, scale) -> CurveWitness:
    rel_a, rel_b = _relation(a[0], a[1]), _relation(b[0], b[1])
    if rel_a is not None or rel_b is not None:
        # one side collapses to v, the top row of m times it (r1, or r2 when
        # y vanishes): x(t) tends to the other side and _PULL(t) x(t) to (v; 0; 0)
        full, collapsed, (x, y) = (a, b, rel_b) if rel_b is not None else (b, a, rel_a)
        m, s = _second_row_combination(x, y)
        x_curve = _last_row_curve(full, collapsed[0 if y else 1], 2, scale)
        pull = _inverse(m, s) @ _PULL
        if rel_b is not None:
            return CurveWitness(pull, x_curve, pull @ x_curve)
        # first side collapses: the mirrored curve, inverted
        a_curve, g_curve = pull @ x_curve, _PULL_INV @ _constant(m, s)
        return CurveWitness(g_curve, a_curve, g_curve @ a_curve)

    # both top spans are two-dimensional; the stacked rank bound yields a
    # shared vector b = x*a1 + y*a2 = x2*a'1 + y2*a'2
    kernel = _relation(a[0], a[1], [-e for e in b[0]], [-e for e in b[1]])
    if kernel is None:
        raise PreconditionError("stacked rank exceeds l: not in graph closure")
    x, y, x2, y2 = kernel
    if (x, y) == (0, 0) or (x2, y2) == (0, 0):
        raise PreconditionError("degenerate relation: top spans not 2-dimensional")
    m1, s1 = _second_row_combination(x, y)
    m2, s2 = _second_row_combination(x2, y2)
    b_top = [e * s1 for e in b[0 if y2 else 1]]   # the top row a'1~ of m2 b
    x_curve = _last_row_curve(grid_product(m1, a), b_top, 1, s1 * scale)   # m1 a = (a1~, b, 0)
    a_curve = _inverse(m1, s1) @ x_curve
    g_curve = _inverse(m2, s2) @ _SHEAR3 @ _constant(m1, s1)
    return CurveWitness(g_curve, a_curve, g_curve @ a_curve)


def witness_curve_auto(A: LeftMatrix, A2: LeftMatrix) -> CurveWitness:
    """Witness curve for a pair that is not yet SL-reduced.

    Reduces both sides to echelon form, builds the curve there, and
    conjugates it back so the limits equal the original inputs.  Each
    side's rank is its number of echelon pivots.
    """
    (rows_a, sa, pivots_a), (rows_b, sb, pivots_b) = _echelon_rows(A), _echelon_rows(A2)
    scale = lcm(sa, sb)
    rows = [[e * (scale // s) for e in row] for part, s in ((rows_a, sa), (rows_b, sb))
            for row in part]
    l, n = A.l, A.n
    w = _reduced_curve(A, A2, [row[:n] for row in rows[:l]], [row[:n] for row in rows[l:]],
                       scale, (len(pivots_a), len(pivots_b)))
    ga, gb_inv = [row[n:] for row in rows[:l]], _inverse([row[n:] for row in rows[l:]], scale)
    return CurveWitness(gb_inv @ w.g_curve @ _constant(ga, scale),
                        _inverse(ga, scale) @ w.a_curve, gb_inv @ w.a2_curve)
