"""Forward-mode dual numbers over exact rationals.

A DualScalar carries a value and one exact partial derivative per active
parameter; arithmetic applies the product and chain rules with Fraction
coefficients, so Jacobians of rational maps come out exact.

The partials are stored sparsely: a dict from parameter index to its
nonzero Fraction, plus the parameter count.  Each output of a
parameterization depends on only a few parameters, so `+`, `-`, `*` and
`/` touch only the indices present (a sum merges, the product rule
scales and merges, the quotient rule runs on the union) and a partial
that cancels to zero is dropped.  `.partials` still reads as the dense
tuple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import ChartSingularityError, ShapeError
from .matrix import RMatrix
from .rational import rat

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DualScalar:
    __slots__ = ("value", "nparams", "_d")

    def __init__(self, value, partials: Sequence[Fraction]):
        dense = [rat(p) for p in partials]
        _set_value(self, rat(value))
        _set_nparams(self, len(dense))
        _set_d(self, {i: p for i, p in enumerate(dense) if p})

    def __setattr__(self, *_):
        raise AttributeError("DualScalar is immutable")

    @property
    def partials(self) -> tuple:
        """Dense tuple of partials, explicit zeros included."""
        d = self._d
        return tuple(d.get(i, _ZERO) for i in range(self.nparams))

    @staticmethod
    def constant(value, nparams: int) -> "DualScalar":
        return _make(rat(value), nparams, {})

    @staticmethod
    def variable(value, index: int, nparams: int) -> "DualScalar":
        d = {index: _ONE} if 0 <= index < nparams else {}
        return _make(rat(value), nparams, d)

    def __add__(self, other) -> "DualScalar":
        if not isinstance(other, DualScalar):
            return _make(self.value + rat(other), self.nparams, self._d)
        _same_count(self, other)
        return _make(self.value + other.value, self.nparams,
                     _merge(self._d, other._d, _ONE))

    __radd__ = __add__

    def __neg__(self) -> "DualScalar":
        return _make(-self.value, self.nparams, {i: -p for i, p in self._d.items()})

    def __sub__(self, other) -> "DualScalar":
        if not isinstance(other, DualScalar):
            return _make(self.value - rat(other), self.nparams, self._d)
        _same_count(self, other)
        return _make(self.value - other.value, self.nparams,
                     _merge(self._d, other._d, -_ONE))

    def __rsub__(self, other) -> "DualScalar":
        return -self + other

    def __mul__(self, other) -> "DualScalar":
        if not isinstance(other, DualScalar):
            c = rat(other)
            return _make(self.value * c, self.nparams, _scaled(self._d, c))
        _same_count(self, other)
        # (uv)' = u' v + u v'
        return _make(self.value * other.value, self.nparams,
                     _merge(_scaled(self._d, other.value), other._d, self.value))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DualScalar":
        if not isinstance(other, DualScalar):
            c = rat(other)
            if c == 0:
                raise ZeroDivisionError("dual division by a scalar with zero value")
            inv = 1 / c
            return _make(self.value * inv, self.nparams, _scaled(self._d, inv))
        _same_count(self, other)
        if other.value == 0:
            raise ZeroDivisionError("dual division by a scalar with zero value")
        # (u/v)' = (u' - q v') / v with q = u/v
        inv = 1 / other.value
        q = self.value * inv
        return _make(q, self.nparams,
                     _scaled(_merge(self._d, other._d, -q), inv))

    def __rtruediv__(self, other) -> "DualScalar":
        if self.value == 0:
            raise ZeroDivisionError("dual division by a scalar with zero value")
        # (c/v)' = -q v' / v with q = c/v
        inv = 1 / self.value
        q = rat(other) * inv
        return _make(q, self.nparams, _scaled(self._d, -q * inv))

    def __pow__(self, k: int) -> "DualScalar":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = DualScalar.constant(1, self.nparams)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, DualScalar):
            return (self.value == other.value and self.nparams == other.nparams
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return self.value == other and not self._d
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.nparams, frozenset(self._d.items())))

    def __repr__(self):
        return f"DualScalar({self.value}, {list(self.partials)})"


_set_value = DualScalar.value.__set__
_set_nparams = DualScalar.nparams.__set__
_set_d = DualScalar._d.__set__


def _make(value: Fraction, nparams: int, d: dict) -> DualScalar:
    """Build a dual from a Fraction value and a zero-free partials dict,
    skipping coercion.  The dict is never mutated afterwards, so duals
    may share it."""
    out = object.__new__(DualScalar)
    _set_value(out, value)
    _set_nparams(out, nparams)
    _set_d(out, d)
    return out


def _same_count(a: DualScalar, b: DualScalar) -> None:
    if a.nparams != b.nparams:
        raise ShapeError("dual numbers with different parameter counts")


def _scaled(d: dict, c) -> dict:
    """c * d, dropping everything when c is zero."""
    if c == 0:
        return {}
    if c == 1:
        return d
    return {i: p * c for i, p in d.items()}


def _merge(d: dict, e: dict, c) -> dict:
    """d + c * e, dropping partials that cancel."""
    if not e or c == 0:
        return d
    e = _scaled(e, c)
    if not d:
        return e
    out = dict(d)
    for i, p in e.items():
        s = out.get(i)
        if s is None:
            out[i] = p
        else:
            s += p
            if s:
                out[i] = s
            else:
                del out[i]
    return out


def seed_point(point: Sequence) -> list:
    """Duals for a parameter vector, one independent direction each."""
    pt = [rat(x) for x in point]
    k = len(pt)
    return [DualScalar.variable(v, i, k) for i, v in enumerate(pt)]


def jacobian_of(evaluator: Callable, point: Sequence,
                guards: Sequence[Callable] = ()) -> RMatrix:
    """Exact Jacobian of a rational map at a rational point.

    Raises ChartSingularityError if any chart denominator vanishes there.
    """
    pt = [rat(x) for x in point]
    for guard in guards:
        if guard(pt) == 0:
            raise ChartSingularityError("chart denominator vanishes at the point")
    k = len(pt)
    outputs = evaluator(seed_point(pt))
    entries = [_ZERO] * (len(outputs) * k)
    for r, out in enumerate(outputs):
        if isinstance(out, DualScalar):
            base = r * k
            for i, p in out._d.items():
                entries[base + i] = p
    return RMatrix(len(outputs), k, entries)
