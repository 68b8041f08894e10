"""Group actions and separation decisions.

Two points are separated when some generating invariant evaluates
differently at them; since the generators generate the whole invariant
ring, this decides whether any invariant separates.  Witnesses name the
first differing generator in the frozen canonical order, so outcomes are
deterministic and reproducible.  Equality is exact rational equality;
there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from operator import mul
from typing import Optional, Tuple

from .errors import PreconditionError, ShapeError
from .invariants import (LeftMatrix, MatrixTupleLR, _full_rank_form, _minor_numerators,
                         generator_blocks)
from .matrix import RMatrix, adjugate, integer_det

# `separated_left` compares at most this many maximal minors per side when
# it walks them for a witness, about 0.1 s for a 12 x 40 pair with Python
# 3.11 on a shared VM, and refuses a pair that agrees on all of them.
MAX_COMPARED_MINORS = 20_000


@dataclass(frozen=True)
class GroupElementLR:
    """A pair of determinant-one 2x2 matrices."""

    g1: RMatrix
    g2: RMatrix

    def __post_init__(self):
        for g in (self.g1, self.g2):
            if g.shape() != (2, 2):
                raise ShapeError("group element factors must be 2x2")
            if g.det() != 1:
                raise PreconditionError("group element factors must have determinant 1")

    @staticmethod
    def identity() -> "GroupElementLR":
        return GroupElementLR(RMatrix.identity(2), RMatrix.identity(2))

    def inverse(self) -> "GroupElementLR":
        return GroupElementLR(*(RMatrix.from_rows(adjugate(g.to_rows()))
                                for g in (self.g1, self.g2)))


@dataclass(frozen=True)
class GroupElementL:
    """A determinant-one l x l matrix."""

    g: RMatrix

    def __post_init__(self):
        if self.g.rows != self.g.cols:
            raise ShapeError("group element must be square")
        if self.g.det() != 1:
            raise PreconditionError("group element must have determinant 1")


@dataclass(frozen=True)
class SeparationReport:
    separated: bool
    witness: Optional[Tuple[str, Tuple[int, ...]]] = None
    values: Optional[Tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.separated != (self.witness is not None):
            raise ValueError("witness present exactly when separated")


def act_lr(g: GroupElementLR, A: MatrixTupleLR) -> MatrixTupleLR:
    """Componentwise g1 * A_i * g2^{-1}."""
    g2_inv = RMatrix.from_rows(adjugate(g.g2.to_rows()))
    return MatrixTupleLR(tuple(g.g1 @ m @ g2_inv for m in A.matrices))


def act_left(g: GroupElementL, A: LeftMatrix) -> LeftMatrix:
    return LeftMatrix(g.g @ A.matrix)


def star(h: RMatrix, A: MatrixTupleLR) -> MatrixTupleLR:
    """Commuting coordinate action: each entry vector transformed by h."""
    n = A.n
    if h.shape() != (n, n):
        raise ShapeError(f"expected an {n}x{n} matrix")
    if h.rank() < n:
        raise PreconditionError("star action requires an invertible matrix")
    new = {(r, c): h.mul_vec(A.entry_vector(r, c)) for r in range(2) for c in range(2)}
    mats = tuple(RMatrix(2, 2, [new[(0, 0)][k], new[(0, 1)][k],
                                new[(1, 0)][k], new[(1, 1)][k]])
                 for k in range(n))
    return MatrixTupleLR(mats)


def separated_lr(A: MatrixTupleLR, A2: MatrixTupleLR) -> SeparationReport:
    """Decide separation by the generator blocks in canonical order: the
    first block that differs decides, and later blocks are never computed.
    Values x / p and y / q are compared as x q and y p, and Fractions are
    built only for the witness."""
    if A.n != A2.n:
        raise ShapeError("tuples must have the same length")
    for (kind, arity, xs, ps), (_, _, ys, qs) in zip(generator_blocks(A), generator_blocks(A2)):
        left, right = list(map(mul, xs, qs)), list(map(mul, ys, ps))
        if left != right:
            i = next(i for i, (u, v) in enumerate(zip(left, right)) if u != v)
            label = next(islice(combinations(range(1, A.n + 1), arity), i, None))
            return SeparationReport(True, (kind, label),
                                    (Fraction(xs[i], ps[i]), Fraction(ys[i], qs[i])))
    return SeparationReport(False)


def separated_left(A: LeftMatrix, A2: LeftMatrix) -> SeparationReport:
    """Decide separation of two left-action points by maximal minors, from
    one elimination per side: both sides below rank l agree (every minor
    is 0); one side of rank l is separated from the other at its first
    nonzero minor, on its pivot columns, the lexicographically first
    basis; two sides of rank l with one row space (one reduced row
    echelon form) have proportional minors, so they agree exactly when
    det(A_P) = det(A2_P) on the pivot columns P, and otherwise differ
    first at P.  Only two sides of rank l with different row spaces walk
    the minors in canonical order, computed lazily, to the first that
    differs; a walk that finds none among the first MAX_COMPARED_MINORS
    is refused with PreconditionError.  Values x / p and y / q are
    compared as x q and y p, and Fractions are built only for the
    witness."""
    if (A.l, A.n) != (A2.l, A2.n):
        raise ShapeError("matrices must have the same shape")
    l, n = A.l, A.n
    if n < l:
        return SeparationReport(False)
    (rows, p), (rows2, q) = A.matrix._integer_rows(), A2.matrix._integer_rows()
    if n == l:
        return _left_verdict(range(l), integer_det(rows), p, integer_det(rows2), q)
    form, form2 = _full_rank_form(rows, n), _full_rank_form(rows2, n)
    if form is None or form2 is None:
        if form is form2:
            return SeparationReport(False)
        pivots, _, d = form or form2
        return _left_verdict(pivots, d if form else 0, p, d if form2 else 0, q)
    (pivots, g, d), (_, g2, d2) = form, form2
    if [e * d2 for row in g for e in row] == [e * d for row in g2 for e in row]:
        return _left_verdict(pivots, d, p, d2, q)
    walk = zip(combinations(range(n), l), _minor_numerators(form, n),
               _minor_numerators(form2, n))
    for cols, x, y in islice(walk, MAX_COMPARED_MINORS):
        if x * q != y * p:
            return _left_verdict(cols, x, p, y, q)
    count = comb(n, l)
    if count > MAX_COMPARED_MINORS:
        raise PreconditionError(
            f"a {l} x {n} left pair agrees on the first {MAX_COMPARED_MINORS} of its {count} "
            "maximal minors per side, the limit of compared values")
    raise AssertionError("different row spaces of rank l have different minors")


def _left_verdict(cols, x, p, y, q) -> SeparationReport:
    """The report for minors x / p and y / q on the 0-based columns cols."""
    if x * q == y * p:
        return SeparationReport(False)
    return SeparationReport(True, ("minor", tuple(c + 1 for c in cols)),
                            (Fraction(x, p), Fraction(y, q)))
