"""Forward-mode dual numbers over exact rationals, kept as integers.

A DualScalar carries a value and one exact partial derivative per active
parameter; arithmetic applies the product and chain rules, so Jacobians
of rational maps come out exact.

Everything is stored over one shared positive integer denominator q: an
integer value numerator n and a sparse dict from parameter index to its
nonzero integer partial numerator.  `+` and `-` bring both operands to
the lcm of their denominators (equal denominators skip the gcd), `*`
multiplies numerators and denominators, and `/` applies the quotient
rule (u'v - uv') / v^2 to the numerators over the positive denominator
q_u n_v^2.  No operator builds a Fraction or reduces a partial, so the
forms are not canonical: equality cross-multiplies, and the hash is
taken of the form divided by its content.  `.value` and `.partials`
read as reduced Fractions, the partials as the dense tuple.

A Jacobian row is then an integer vector over one denominator, so
`jacobian_of` hands the partial numerators to `RMatrix.from_integer_rows`
as the row's integer form; rank and det start from it, and the Fraction
entries are built only if someone reads them.  The guards and the seeds
read each point coordinate once, an int as it is and anything else
through `rat`, so an integer point builds no Fraction at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from .errors import ChartSingularityError, ShapeError
from .matrix import RMatrix
from .rational import integer_form, rat

_EMPTY: dict = {}


class DualScalar:
    __slots__ = ("nparams", "_n", "_d", "_q")

    def __init__(self, value, partials: Sequence[Fraction]):
        (n, *dense), q = integer_form([rat(value), *map(rat, partials)])
        _set_nparams(self, len(dense))
        _set_n(self, n)
        _set_d(self, {i: p for i, p in enumerate(dense) if p})
        _set_q(self, q)

    def __setattr__(self, *_):
        raise AttributeError("DualScalar is immutable")

    @property
    def value(self) -> Fraction:
        return Fraction(self._n, self._q)

    @property
    def partials(self) -> tuple:
        """Dense tuple of partials, explicit zeros included."""
        d, q = self._d, self._q
        return tuple(Fraction(d.get(i, 0), q) for i in range(self.nparams))

    @staticmethod
    def constant(value, nparams: int) -> "DualScalar":
        value = rat(value)
        return _make(nparams, value.numerator, _EMPTY, value.denominator)

    @staticmethod
    def variable(value, index: int, nparams: int) -> "DualScalar":
        value = rat(value)
        q = value.denominator
        return _make(nparams, value.numerator, {index: q} if 0 <= index < nparams else _EMPTY, q)

    def __add__(self, other) -> "DualScalar":
        return _sum(self, *_parts(other, self.nparams), 1)

    __radd__ = __add__

    def __neg__(self) -> "DualScalar":
        return _make(self.nparams, -self._n, {i: -p for i, p in self._d.items()}, self._q)

    def __sub__(self, other) -> "DualScalar":
        return _sum(self, *_parts(other, self.nparams), -1)

    def __rsub__(self, other) -> "DualScalar":
        return -self + other

    def __mul__(self, other) -> "DualScalar":
        vn, vd, vq = _parts(other, self.nparams)
        un = self._n
        # (uv)' = u' v + u v'
        return _make(self.nparams, un * vn, _merge(self._d, vd, vn, un), self._q * vq)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DualScalar":
        return _quotient(self.nparams, self._n, self._d, self._q, *_parts(other, self.nparams))

    def __rtruediv__(self, other) -> "DualScalar":
        return _quotient(self.nparams, *_parts(other, self.nparams), self._n, self._d, self._q)

    def __eq__(self, other) -> bool:
        if isinstance(other, DualScalar):
            d, e = self._d, other._d
            a, b = other._q, self._q
            return (self.nparams == other.nparams and d.keys() == e.keys()
                    and self._n * a == other._n * b
                    and all(p * a == e[i] * b for i, p in d.items()))
        if isinstance(other, (int, Fraction)):
            return not self._d and self._n * other.denominator == other.numerator * self._q
        return NotImplemented

    def __hash__(self):
        g = gcd(self._q, self._n, *self._d.values())
        return hash((self._n // g, self._q // g, self.nparams,
                     frozenset((i, p // g) for i, p in self._d.items())))

    def __repr__(self):
        return f"DualScalar({self.value}, {list(self.partials)})"


_set_nparams = DualScalar.nparams.__set__
_set_n = DualScalar._n.__set__
_set_d = DualScalar._d.__set__
_set_q = DualScalar._q.__set__


def _make(nparams: int, n: int, d: dict, q: int) -> DualScalar:
    """The dual (n + sum d[i] e_i) / q, for q > 0 and d free of zeros.
    The dict is never mutated afterwards, so duals may share it."""
    out = object.__new__(DualScalar)
    _set_nparams(out, nparams)
    _set_n(out, n)
    _set_d(out, d)
    _set_q(out, q)
    return out


def _parts(x, nparams: int) -> tuple:
    """(value numerator, partial numerators, denominator) of a dual or a
    rational constant."""
    if isinstance(x, DualScalar):
        if x.nparams != nparams:
            raise ShapeError("dual numbers with different parameter counts")
        return x._n, x._d, x._q
    if type(x) is int:
        return x, _EMPTY, 1
    x = rat(x)
    return x.numerator, _EMPTY, x.denominator


def _sum(u: DualScalar, vn: int, vd: dict, vq: int, sign: int) -> DualScalar:
    """u + sign * v, over the lcm of the two denominators."""
    uq = u._q
    if uq == vq:
        return _make(u.nparams, u._n + sign * vn, _merge(u._d, vd, 1, sign), uq)
    g = gcd(uq, vq)
    a, b = vq // g, sign * (uq // g)
    return _make(u.nparams, u._n * a + vn * b, _merge(u._d, vd, a, b), uq * a)


def _quotient(nparams, un, ud, uq, vn, vd, vq) -> DualScalar:
    """u / v by (u'v - uv') / v^2 over the positive denominator uq vn^2."""
    if not vn:
        raise ZeroDivisionError("dual division by a scalar with zero value")
    return _make(nparams, un * vn * vq, _merge(ud, vd, vn * vq, -un * vq), uq * vn * vn)


def _scaled(d: dict, c: int) -> dict:
    """c * d, dropping everything when c is zero."""
    if c == 1:
        return d
    if not c:
        return _EMPTY
    return {i: p * c for i, p in d.items()}


def _merge(d: dict, e: dict, a: int, b: int) -> dict:
    """a * d + b * e, dropping partials that cancel."""
    if not e or not b:
        return _scaled(d, a)
    if not d or not a:
        return _scaled(e, b)
    out = dict(d) if a == 1 else {i: p * a for i, p in d.items()}
    for i, p in e.items():
        s = out.get(i, 0) + p * b
        if s:
            out[i] = s
        else:
            del out[i]
    return out


def _seeded(point: Sequence) -> tuple:
    """The point with each coordinate read once, an int as it is and
    anything else by `rat`, and its duals x_i + e_i over x_i's denominator."""
    pt = [x if type(x) is int else rat(x) for x in point]
    k = len(pt)
    return pt, [_make(k, x.numerator, {i: x.denominator}, x.denominator) for i, x in enumerate(pt)]


def seed_point(point: Sequence) -> list:
    """Duals for a parameter vector, one independent direction each."""
    return _seeded(point)[1]


def jacobian_of(evaluator: Callable, point: Sequence,
                guards: Sequence[Callable] = ()) -> RMatrix:
    """Exact Jacobian of a rational map at a rational point.

    Row r is output r's partial numerators over its denominator, so rank
    and det skip the row scaling.  Raises ChartSingularityError if any
    chart denominator vanishes there.
    """
    pt, seeds = _seeded(point)
    for guard in guards:
        if guard(pt) == 0:
            raise ChartSingularityError("chart denominator vanishes at the point")
    k = len(pt)
    rows, scales = [], []
    for out in evaluator(seeds):
        row = [0] * k
        if isinstance(out, DualScalar):
            for i, p in out._d.items():
                row[i] = p
            scales.append(out._q)
        else:
            scales.append(1)
        rows.append(row)
    return RMatrix.from_integer_rows(rows, k, scales)
