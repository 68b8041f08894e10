"""Exact Laurent polynomials in one parameter t, and matrices of them.

Witness curves are represented with these so that "the limit at t -> 0
exists" is a syntactic check (no negative exponents) and curve identities
are literal equalities of coefficient maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Sequence

from .errors import PreconditionError, ShapeError
from .matrix import RMatrix, cofactor_det
from .rational import rat


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, Fraction]):
        clean = {}
        for e, c in terms.items():
            c = rat(c)
            if c != 0:
                clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(value) -> "LaurentPoly":
        return LaurentPoly({0: rat(value)})

    @staticmethod
    def t_power(exp: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({exp: rat(coeff)})

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.const(other)

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        out: Dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly(out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        return min(self.terms, default=0)

    def has_limit_at_zero(self) -> bool:
        return self.min_exp() >= 0

    def limit_at_zero(self) -> Fraction:
        if not self.has_limit_at_zero():
            raise PreconditionError("limit at t -> 0 does not exist")
        return self.terms.get(0, Fraction(0))

    def evaluate(self, t) -> Fraction:
        t = rat(t)
        if t == 0:
            raise PreconditionError("Laurent polynomial evaluated at t = 0")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * t**e if e >= 0 else c / t**(-e)
        return total

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})t^{e}" for e, c in sorted(self.terms.items()))


class LaurentMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[LaurentPoly]):
        ent = tuple(e if isinstance(e, LaurentPoly) else LaurentPoly.const(e)
                    for e in entries)
        if len(ent) != rows * cols:
            raise ShapeError("entry count mismatch")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *_):
        raise AttributeError("LaurentMatrix is immutable")

    @staticmethod
    def from_rmatrix(m: RMatrix) -> "LaurentMatrix":
        return LaurentMatrix(m.rows, m.cols, [LaurentPoly.const(e) for e in m.entries])

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LaurentMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return LaurentMatrix(r, c, [e for row in rows for e in row])

    def at(self, r: int, c: int) -> LaurentPoly:
        return self.entries[r * self.cols + c]

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ShapeError("Laurent matrix product shape mismatch")
        out = []
        for r in range(self.rows):
            for c in range(other.cols):
                acc = LaurentPoly({})
                for k in range(self.cols):
                    acc = acc + self.at(r, k) * other.at(k, c)
                out.append(acc)
        return LaurentMatrix(self.rows, other.cols, out)

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch")
        return LaurentMatrix(self.rows, self.cols,
                             [a - b for a, b in zip(self.entries, other.entries)])

    def det(self) -> LaurentPoly:
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        return cofactor_det([[self.at(r, c) for c in range(self.cols)]
                            for r in range(self.rows)])

    def has_limit_at_zero(self) -> bool:
        return all(e.has_limit_at_zero() for e in self.entries)

    def limit_at_zero(self) -> RMatrix:
        return RMatrix(self.rows, self.cols, [e.limit_at_zero() for e in self.entries])

    def evaluate(self, t) -> RMatrix:
        return RMatrix(self.rows, self.cols, [e.evaluate(t) for e in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = [[repr(self.at(r, c)) for c in range(self.cols)] for r in range(self.rows)]
        return f"LaurentMatrix({rows!r})"
