"""Geometry of the left determinant-one action on l x n matrices.

Stability is full rank, the nullcone is the rank-deficient locus, and a
nullcone pair lies in the closure of the action graph only if stacking
the two matrices keeps the rank at most l.  For l = 2 and l = 3 that
necessary condition is also sufficient, and this module constructs the
explicit one-parameter witness curves: a determinant-one Laurent matrix
g(t) and a matrix curve A(t) with g(t) A(t) converging to the target
pair as t -> 0.  All curve identities are checked in exact Laurent
arithmetic, so "the limit exists" is the absence of negative exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Tuple

from .errors import PreconditionError, ShapeError
from .invariants import LeftMatrix
from .laurent import LaurentMatrix, LaurentPoly
from .matrix import RMatrix, _bareiss, stack_rows
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
        if self.g_curve.det() != LaurentPoly.const(1):
            return False
        if (self.g_curve @ self.a_curve) != self.a2_curve:
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


def graph_necessary(A: LeftMatrix, A2: LeftMatrix) -> bool:
    """Necessary condition for a nullcone pair to lie in the graph closure.

    False rules membership out; True is also sufficient for l <= 3.
    """
    if not (nullcone_member_left(A) and nullcone_member_left(A2)):
        raise PreconditionError("not nullcone pair: a component has full rank")
    return stack(A, A2).rank() <= A.l


def graph_member_l23(A: LeftMatrix, A2: LeftMatrix) -> bool:
    """Exact graph-closure membership test for l = 2 or l = 3."""
    if A.l not in (2, 3):
        raise PreconditionError("exact test available only for l = 2 or l = 3")
    return graph_necessary(A, A2)


def echelon_sl(A: LeftMatrix) -> Tuple[GroupElementL, LeftMatrix]:
    """Row echelon form reached inside the determinant-one group.

    The forward Bareiss kernel runs on [L A | L I], L the lcm of A's
    denominators, with pivots in A's columns only.  Each row swap negates
    the row it moves up, so the accumulated transform always has
    determinant one; row r over div[r] L is the Gaussian row of [R | g].
    """
    l, n = A.l, A.n
    scale = lcm(*(e.denominator for e in A.matrix.entries))
    grid = [[e.numerator * (scale // e.denominator) for e in A.matrix.row(r)]
            + [scale * (c == r) for c in range(l)] for r in range(l)]
    rows, _, div = _bareiss(grid, n)
    reduced = [[Fraction(e, d * scale) for e in row] for row, d in zip(rows, div)]
    return (GroupElementL(RMatrix(l, l, [e for row in reduced for e in row[n:]])),
            LeftMatrix(RMatrix(l, n, [e for row in reduced for e in row[:n]])))


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


def _require_curve_inputs(A: LeftMatrix, A2: LeftMatrix):
    if A.l not in (2, 3):
        raise PreconditionError("witness curves exist only for l = 2 or l = 3")
    if (A.l, A.n) != (A2.l, A2.n):
        raise ShapeError("pair components must have the same shape")
    if not (nullcone_member_left(A) and nullcone_member_left(A2)):
        raise PreconditionError("not nullcone pair: a component has full rank")
    if any(e != 0 for e in A.matrix.row(A.l - 1)) or \
       any(e != 0 for e in A2.matrix.row(A2.l - 1)):
        raise PreconditionError("subcase requires prior SL-reduction: "
                                "bottom rows must be zero")
    if stack(A, A2).rank() > A.l:
        raise PreconditionError("stacked rank exceeds l: not in graph closure")


def witness_curve_left(A: LeftMatrix, A2: LeftMatrix) -> CurveWitness:
    """Explicit curve certifying that a nullcone pair lies in the closure.

    Inputs must be SL-reduced (zero bottom row) with stacked rank at
    most l.  For l = 2 the curve is the single shear family; for l = 3
    the construction branches on whether either side has a degenerate
    top-row span, with a row swap fixing the normalisation where needed.
    """
    _require_curve_inputs(A, A2)
    if A.l == 2:
        return _curve_l2(A, A2)
    return _curve_l3(A, A2)


def _curve_l2(A: LeftMatrix, A2: LeftMatrix) -> CurveWitness:
    a = A.matrix.row(0)
    a2 = A2.matrix.row(0)
    zero = LaurentPoly({})
    a_curve = LaurentMatrix.from_rows([
        [LaurentPoly.const(x) for x in a],
        [LaurentPoly.t_power(1, y - x) for x, y in zip(a, a2)]])
    g_curve = LaurentMatrix.from_rows([
        [LaurentPoly.const(1), LaurentPoly.t_power(-1)],
        [zero, LaurentPoly.const(1)]])
    return CurveWitness(g_curve, a_curve, g_curve @ a_curve)


def _row_relation(r1, r2) -> Optional[Tuple[Fraction, Fraction]]:
    """Nonzero (x, y) with x*r1 + y*r2 = 0, or None when independent."""
    kernel = stack_rows([r1, r2]).transpose().nullspace()
    if not kernel:
        return None
    x, y = kernel[0]
    return x, y


_SWAP3 = RMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])


def _second_row_combination(coeffs) -> RMatrix:
    """Determinant-one transform replacing the second row of (r1; r2; 0)
    by x*r1 + y*r2, swapping the top rows first when y vanishes."""
    x, y = coeffs
    if y == 0:
        swap = _SWAP3
        x, y = y, x
    else:
        swap = RMatrix.identity(3)
    elim = RMatrix.from_rows([[1, 0, 0], [x, y, 0], [0, 0, 1 / y]])
    return elim @ swap


def _degenerate_curve(full: LeftMatrix, collapsed_row) -> Tuple[LaurentMatrix, LaurentMatrix]:
    """Curve pulling (r1; r2; 0) towards (v; 0; 0) along the graph.

    Returns (x(t), g(t)) with g(t) x(t) -> (v; 0; 0) and x(t) -> full.
    """
    r1 = full.matrix.row(0)
    r2 = full.matrix.row(1)
    v = collapsed_row
    zero = LaurentPoly({})
    x_curve = LaurentMatrix.from_rows([
        [LaurentPoly.const(e) for e in r1],
        [LaurentPoly.const(e) for e in r2],
        [LaurentPoly.t_power(2, w - e) for e, w in zip(r1, v)]])
    g_curve = LaurentMatrix.from_rows([
        [LaurentPoly.const(1), zero, LaurentPoly.t_power(-2)],
        [zero, LaurentPoly.t_power(1), zero],
        [zero, zero, LaurentPoly.t_power(-1)]])
    return x_curve, g_curve


def _curve_l3(A: LeftMatrix, A2: LeftMatrix) -> CurveWitness:
    rel_a = _row_relation(A.matrix.row(0), A.matrix.row(1))
    rel_b = _row_relation(A2.matrix.row(0), A2.matrix.row(1))

    if rel_b is not None:
        # second side collapses to a single row
        m2 = _second_row_combination(rel_b)
        v2 = (m2 @ A2.matrix).row(0)
        x_curve, g_inner = _degenerate_curve(A, v2)
        m2_inv = LaurentMatrix.from_rmatrix(m2.inverse())
        g_curve = m2_inv @ g_inner
        return CurveWitness(g_curve, x_curve, g_curve @ x_curve)

    if rel_a is not None:
        # first side collapses: build the mirrored curve and invert it
        m1 = _second_row_combination(rel_a)
        v1 = (m1 @ A.matrix).row(0)
        x_curve, g_inner = _degenerate_curve(A2, v1)
        zero = LaurentPoly({})
        g_inner_inv = LaurentMatrix.from_rows([
            [LaurentPoly.const(1), zero, LaurentPoly.t_power(-1, -1)],
            [zero, LaurentPoly.t_power(-1), zero],
            [zero, zero, LaurentPoly.t_power(1)]])
        m1_inv = LaurentMatrix.from_rmatrix(m1.inverse())
        a_curve = m1_inv @ g_inner @ x_curve
        g_curve = g_inner_inv @ LaurentMatrix.from_rmatrix(m1)
        return CurveWitness(g_curve, a_curve, g_curve @ a_curve)

    # both top spans are two-dimensional; the stacked rank bound yields a
    # shared vector b = x*a1 + y*a2 = x2*a'1 + y2*a'2
    cols = stack_rows([A.matrix.row(0), A.matrix.row(1),
                       tuple(-e for e in A2.matrix.row(0)),
                       tuple(-e for e in A2.matrix.row(1))]).transpose()
    kernel = cols.nullspace()
    if not kernel:
        raise PreconditionError("stacked rank exceeds l: not in graph closure")
    x, y, x2, y2 = kernel[0]
    if (x, y) == (0, 0) or (x2, y2) == (0, 0):
        raise PreconditionError("degenerate relation: top spans not 2-dimensional")
    m1 = _second_row_combination((x, y))
    m2 = _second_row_combination((x2, y2))
    red_a = m1 @ A.matrix    # rows (a1~, b, 0)
    red_b = m2 @ A2.matrix   # rows (a'1~, b, 0)
    zero = LaurentPoly({})
    a_top = red_a.row(0)
    b_top = red_b.row(0)
    x_curve = LaurentMatrix.from_rows([
        [LaurentPoly.const(e) for e in a_top],
        [LaurentPoly.const(e) for e in red_a.row(1)],
        [LaurentPoly.t_power(1, w - e) for e, w in zip(a_top, b_top)]])
    g_inner = LaurentMatrix.from_rows([
        [LaurentPoly.const(1), zero, LaurentPoly.t_power(-1)],
        [zero, LaurentPoly.const(1), zero],
        [zero, zero, LaurentPoly.const(1)]])
    m1_inv = LaurentMatrix.from_rmatrix(m1.inverse())
    m2_inv = LaurentMatrix.from_rmatrix(m2.inverse())
    a_curve = m1_inv @ x_curve
    g_curve = m2_inv @ g_inner @ LaurentMatrix.from_rmatrix(m1)
    return CurveWitness(g_curve, a_curve, g_curve @ a_curve)


def witness_curve_auto(A: LeftMatrix, A2: LeftMatrix) -> CurveWitness:
    """Witness curve for a pair that is not yet SL-reduced.

    Reduces both sides to echelon form, builds the curve there, and
    conjugates it back so the limits equal the original inputs.
    """
    ga, ra = echelon_sl(A)
    gb, rb = echelon_sl(A2)
    w = witness_curve_left(ra, rb)
    ga_inv = LaurentMatrix.from_rmatrix(ga.g.inverse())
    gb_inv = LaurentMatrix.from_rmatrix(gb.g.inverse())
    a_curve = ga_inv @ w.a_curve
    a2_curve = gb_inv @ w.a2_curve
    g_curve = gb_inv @ w.g_curve @ LaurentMatrix.from_rmatrix(ga.g)
    return CurveWitness(g_curve, a_curve, a2_curve)
