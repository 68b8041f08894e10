"""Exact Laurent polynomials in one parameter t, matrices of them, and the
term-map core they share with SparsePoly.

A polynomial maps exponents to nonzero Fractions, so equality is literal
equality of term maps, and "the limit of a witness curve at t -> 0
exists" is the absence of negative exponents.  A sum or product collects
its terms in one dict and drops cancelled terms once at the end; a matrix
product does so once per entry, skipping zero entries.  Results are
wrapped unvalidated (``_wrap``); only the public constructors validate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add
from typing import Dict, Iterable, Sequence

from .errors import PreconditionError, ShapeError
from .matrix import RMatrix, cofactor_det
from .rational import rat


def _collect(acc: dict, terms) -> dict:
    """Sum (exponent, coefficient) pairs into the term map acc; cancelled
    terms are dropped once, at the end."""
    get = acc.get
    for e, c in terms:
        s = get(e)
        acc[e] = c if s is None else s + c
    return {e: c for e, c in acc.items() if c}


def _products(a: dict, b: dict, add_exp=add):
    return ((add_exp(e1, e2), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())


class TermPoly:
    """Immutable polynomial stored as {exponent: nonzero Fraction}.

    A subclass fixes how exponents add (``_add_exp``), turns scalars into
    constants (``_coerce``) and wraps a trusted term map (``_wrap``).
    """

    __slots__ = ("terms",)
    _add_exp = add

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set_terms(self, pairs):
        """Public constructors only: sum validated (exponent, coefficient)
        pairs and drop zeros."""
        object.__setattr__(self, "terms", _collect({}, pairs))

    def _ring(self):
        """What, besides the terms, two equal polynomials share."""
        return None

    def __add__(self, other):
        return self._wrap(_collect(dict(self.terms), self._coerce(other).terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        negated = ((e, -c) for e, c in self._coerce(other).terms.items())
        return self._wrap(_collect(dict(self.terms), negated))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return self._wrap(_collect({}, _products(self.terms, o.terms, self._add_exp)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._ring() == other._ring() and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def _exponent(e) -> int:
    if isinstance(e, (int, Fraction)) and e.denominator == 1:
        return int(e)
    raise ValueError(f"Laurent exponents must be integers, got {e!r}")


class LaurentPoly(TermPoly):
    __slots__ = ()

    def __init__(self, terms: Dict[int, Fraction]):
        self._set_terms((_exponent(e), rat(c)) for e, c in terms.items())

    @staticmethod
    def _wrap(terms: Dict[int, Fraction]) -> "LaurentPoly":
        p = object.__new__(LaurentPoly)
        object.__setattr__(p, "terms", terms)
        return p

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
        k, m = self.cols, other.cols
        left = [p.terms for p in self.entries]
        columns = [[p.terms for p in other.entries[c::m]] for c in range(m)]
        out = []
        for r in range(self.rows):
            row = left[r * k:(r + 1) * k]
            for column in columns:
                terms = chain.from_iterable(
                    _products(a, b) for a, b in zip(row, column) if a and b)
                out.append(LaurentPoly._wrap(_collect({}, terms)))
        return LaurentMatrix(self.rows, m, out)

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = [[repr(self.at(r, c)) for c in range(self.cols)] for r in range(self.rows)]
        return f"LaurentMatrix({rows!r})"
