"""Exact Laurent polynomials in one parameter t, matrices of them, and the
term-map core they share with SparsePoly.

A polynomial maps exponents to nonzero Fractions, so equality is literal
equality of term maps.  A sum or product collects its terms in one dict
and drops cancelled terms once at the end.  A matrix is one positive
integer scale and one integer grid per exponent, so its product is one
integer grid product per pair of exponents, normalised once.  Results are
wrapped unvalidated; only the public constructors validate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, mul
from typing import Dict, Iterable, Sequence

from .errors import PreconditionError, ShapeError
from .matrix import RMatrix, cofactor_det
from .rational import integer_form, rat


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

    def __reduce__(self):
        return LaurentPoly, (self.terms,)

    @staticmethod
    def const(value) -> "LaurentPoly":
        return LaurentPoly({0: rat(value)})

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.const(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})t^{e}" for e, c in sorted(self.terms.items()))


class LaurentMatrix:
    """Immutable matrix sum_e t^e grids[e] / scale, each grid a flat row-major
    tuple of ints, kept in the normal form of `from_grids` (the validating
    constructor is `__new__`, so that it can return that form): equal matrices
    store equal data.  Fractions are built only where entries are read."""

    __slots__ = ("rows", "cols", "scale", "grids")

    def __new__(cls, rows: int, cols: int, entries: Iterable[LaurentPoly]):
        ent = [e if isinstance(e, LaurentPoly) else LaurentPoly.const(e) for e in entries]
        if len(ent) != rows * cols:
            raise ShapeError("entry count mismatch")
        terms = [(i, e, c) for i, p in enumerate(ent) for e, c in p.terms.items()]
        ints, scale = integer_form([c for _, _, c in terms])
        grids = {}
        for (i, e, _), x in zip(terms, ints):
            grids.setdefault(e, [0] * len(ent))[i] = x
        return LaurentMatrix.from_grids(rows, cols, grids, scale)

    def __setattr__(self, *_):
        raise AttributeError("LaurentMatrix is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild the stored grids and scale."""
        return LaurentMatrix.from_grids, (self.rows, self.cols, self.grids, self.scale)

    @staticmethod
    def from_grids(rows: int, cols: int, grids: Dict[int, Sequence[int]],
                   scale: int = 1) -> "LaurentMatrix":
        """sum_e t^e grids[e] / scale from flat row-major integer grids and
        scale > 0 (not validated), normalised: zero grids are dropped and
        gcd(scale, every entry) is divided out."""
        grids = {e: g for e, g in grids.items() if any(g)}
        d = gcd(scale, *chain.from_iterable(grids.values()))
        grids = {e: tuple([x // d for x in g] if d > 1 else g) for e, g in grids.items()}
        m = object.__new__(LaurentMatrix)
        for name, value in zip(LaurentMatrix.__slots__, (rows, cols, scale // d, grids)):
            object.__setattr__(m, name, value)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LaurentMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return LaurentMatrix(r, c, [e for row in rows for e in row])

    def at(self, r: int, c: int) -> LaurentPoly:
        i = r * self.cols + c
        return LaurentPoly._wrap({e: Fraction(g[i], self.scale)
                                  for e, g in self.grids.items() if g[i]})

    @property
    def entries(self) -> tuple:
        return tuple(self.at(r, c) for r in range(self.rows) for c in range(self.cols))

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ShapeError("Laurent matrix product shape mismatch")
        k, m = self.cols, other.cols
        columns = [(e, [g[c::m] for c in range(m)]) for e, g in other.grids.items()]
        acc = {}
        for e1, a in self.grids.items():
            rows = [a[r:r + k] for r in range(0, len(a), k)]
            for e2, cols in columns:
                grid = [sum(map(mul, row, col)) for row in rows for col in cols]
                s = acc.get(e1 + e2)
                acc[e1 + e2] = grid if s is None else list(map(add, s, grid))
        return LaurentMatrix.from_grids(self.rows, m, acc, self.scale * other.scale)

    def integer_det(self) -> Dict[int, int]:
        """Term map of det(sum_e t^e grids[e]), in integers; the
        determinant of the matrix is this over scale ** rows."""
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        polys = [LaurentPoly._wrap({e: g[i] for e, g in self.grids.items() if g[i]})
                 for i in range(n * n)]
        return cofactor_det([polys[r:r + n] for r in range(0, n * n, n)]).terms if n else {0: 1}

    def det(self) -> LaurentPoly:
        scale = self.scale ** self.rows
        return LaurentPoly._wrap({e: Fraction(c, scale) for e, c in self.integer_det().items()})

    def has_limit_at_zero(self) -> bool:
        return min(self.grids, default=0) >= 0

    def limit_at_zero(self) -> RMatrix:
        if not self.has_limit_at_zero():
            raise PreconditionError("limit at t -> 0 does not exist")
        grid = self.grids.get(0, [0] * (self.rows * self.cols))
        c = self.cols
        return RMatrix.from_integer_rows([list(grid[r * c:(r + 1) * c]) for r in range(self.rows)],
                                         c, [self.scale] * self.rows)

    def evaluate(self, t) -> RMatrix:
        t = rat(t)
        if t == 0:
            raise PreconditionError("Laurent polynomial evaluated at t = 0")
        return RMatrix(self.rows, self.cols, [
            sum((g[i] * t ** e for e, g in self.grids.items()), Fraction(0)) / self.scale
            for i in range(self.rows * self.cols)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.scale == other.scale
                and self.grids == other.grids)

    def __hash__(self):
        return hash((self.rows, self.cols, self.scale, frozenset(self.grids.items())))

    def __repr__(self):
        rows = [[repr(self.at(r, c)) for c in range(self.cols)] for r in range(self.rows)]
        return f"LaurentMatrix({rows!r})"
