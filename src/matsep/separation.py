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
from operator import mul
from typing import Optional, Tuple

from .errors import PreconditionError, ShapeError
from .invariants import (LeftMatrix, MatrixTupleLR, generator_blocks,
                         minor_column_sets, minors_left)
from .matrix import RMatrix, adjugate


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
    """Decide separation of two left-action points by maximal minors."""
    if (A.l, A.n) != (A2.l, A2.n):
        raise ShapeError("matrices must have the same shape")
    ma, mb = minors_left(A), minors_left(A2)
    for cols, x, y in zip(minor_column_sets(A.l, A.n), ma, mb):
        if x != y:
            return SeparationReport(True, ("minor", cols), (x, y))
    return SeparationReport(False)
