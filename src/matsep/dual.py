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

A dual is the record (n, d, q, nparams), a tuple subclass with no slots
of its own, so an operator unpacks each operand once and builds its
result in one constructor call.  It is a number, not a sequence to
compare: it equals no tuple, and ordering it raises TypeError.

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
from operator import itemgetter
from typing import Callable, Sequence

from .errors import ChartSingularityError, ShapeError
from .matrix import RMatrix
from .rational import integer_form, rat

_EMPTY: dict = {}
_MIXED = "dual numbers with different parameter counts"
_new = tuple.__new__


class DualScalar(tuple):
    """(n + sum d[i] e_i) / q in `nparams` parameters, stored as the tuple
    (n, d, q, nparams), q > 0 and d free of zeros.  The dict is never
    mutated afterwards, so duals may share it."""

    __slots__ = ()

    def __new__(cls, value, partials: Sequence[Fraction]):
        (n, *dense), q = integer_form([rat(value), *map(rat, partials)])
        return _new(cls, (n, {i: p for i, p in enumerate(dense) if p}, q, len(dense)))

    nparams = property(itemgetter(3))

    @property
    def value(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def partials(self) -> tuple:
        """Dense tuple of partials, explicit zeros included."""
        _, d, q, k = self
        return tuple(Fraction(d.get(i, 0), q) for i in range(k))

    @staticmethod
    def constant(value, nparams: int) -> "DualScalar":
        value = rat(value)
        return _new(DualScalar, (value.numerator, _EMPTY, value.denominator, nparams))

    @staticmethod
    def variable(value, index: int, nparams: int) -> "DualScalar":
        n, q = rat(value).as_integer_ratio()
        return _new(DualScalar, (n, {index: q} if 0 <= index < nparams else _EMPTY, q, nparams))

    def __add__(self, other, sign: int = 1) -> "DualScalar":
        un, ud, uq, k = self
        vn, vd, vq, kv = other if type(other) is DualScalar else _fields(other, k)
        if kv != k:
            raise ShapeError(_MIXED)
        if uq == vq:
            return _new(DualScalar, (un + sign * vn, _merge(ud, vd, 1, sign), uq, k))
        g = gcd(uq, vq)
        a, b = vq // g, sign * (uq // g)
        return _new(DualScalar, (un * a + vn * b, _merge(ud, vd, a, b), uq * a, k))

    __radd__ = __add__

    def __neg__(self) -> "DualScalar":
        n, d, q, k = self
        return _new(DualScalar, (-n, {i: -p for i, p in d.items()}, q, k))

    def __sub__(self, other) -> "DualScalar":
        return _add(self, other, -1)

    def __rsub__(self, other) -> "DualScalar":
        return -self + other

    def __mul__(self, other) -> "DualScalar":
        un, ud, uq, k = self
        vn, vd, vq, kv = other if type(other) is DualScalar else _fields(other, k)
        if kv != k:
            raise ShapeError(_MIXED)
        # (uv)' = u' v + u v'
        return _new(DualScalar, (un * vn, _merge(ud, vd, vn, un), uq * vq, k))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DualScalar":
        return _quotient(self, _fields(other, self[3]))

    def __rtruediv__(self, other) -> "DualScalar":
        return _quotient(_fields(other, self[3]), self)

    def __eq__(self, other) -> bool:
        if isinstance(other, DualScalar):
            un, ud, uq, k = self
            vn, vd, vq, kv = other
            return (k == kv and ud.keys() == vd.keys() and un * vq == vn * uq
                    and all(p * vq == vd[i] * uq for i, p in ud.items()))
        if isinstance(other, (int, Fraction)):
            return not self[1] and self[0] * other.denominator == other.numerator * self[2]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def _unordered(self, other):
        raise TypeError("dual numbers are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    del _unordered

    def __hash__(self):
        n, d, q, k = self
        g = gcd(q, n, *d.values())
        return hash((n // g, q // g, k, frozenset((i, p // g) for i, p in d.items())))

    def __repr__(self):
        return f"DualScalar({self.value}, {list(self.partials)})"

    def __reduce__(self):
        """Copies and pickles rebuild the stored fields as they are."""
        return _new, (DualScalar, tuple(self))


_add = DualScalar.__add__


def _fields(x, nparams: int) -> tuple:
    """The stored fields (n, d, q, nparams) of a dual or a rational constant."""
    if isinstance(x, DualScalar):
        if x[3] != nparams:
            raise ShapeError(_MIXED)
        return x
    if type(x) is int:
        return x, _EMPTY, 1, nparams
    x = rat(x)
    return x.numerator, _EMPTY, x.denominator, nparams


def _quotient(u: tuple, v: tuple) -> DualScalar:
    """u / v by (u'v - uv') / v^2 over the positive denominator uq vn^2."""
    (un, ud, uq, k), (vn, vd, vq, _) = u, v
    if not vn:
        raise ZeroDivisionError("dual division by a scalar with zero value")
    return _new(DualScalar, (un * vn * vq, _merge(ud, vd, vn * vq, -un * vq), uq * vn * vn, k))


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
    return pt, [_new(DualScalar, (x.numerator, {i: x.denominator}, x.denominator, k))
                for i, x in enumerate(pt)]


def seed_point(point: Sequence) -> list:
    """Duals for a parameter vector, one independent direction each."""
    return _seeded(point)[1]


def integer_rows(outputs, nparams: int) -> tuple:
    """(values, rows, scales) of a map's outputs, each a dual in `nparams`
    parameters or a constant, read in one pass: output r's value
    numerator (a constant as it is) and its row of partial numerators,
    both over scales[r].  A polynomial map at an integer point has every
    scale 1, so its values are its integer values."""
    values, rows, scales = [], [], []
    for out in outputs:
        row, q = [0] * nparams, 1
        if type(out) is DualScalar:
            out, d, q, _ = out
            for i, p in d.items():
                row[i] = p
        values.append(out)
        rows.append(row)
        scales.append(q)
    return values, rows, scales


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
    _, rows, scales = integer_rows(evaluator(seeds), len(pt))
    return RMatrix.from_integer_rows(rows, len(pt), scales)
