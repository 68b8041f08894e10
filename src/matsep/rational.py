"""Exact rational scalars.

The base field everywhere is the rationals, represented by
:class:`fractions.Fraction`, which already guarantees lowest terms and a
positive denominator.  Decision procedures run on rational inputs; rank,
gcd and vanishing tests over the rationals answer the same question over
any field extension, so results transfer verbatim to the complex numbers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(0*[1-9]\d*))?$", re.ASCII)


def rat(x) -> Fraction:
    """Coerce an int, Fraction or strict rational string to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q', q nonzero; decimal and float notation is rejected."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, den = m.groups()
    return Fraction(int(num)) if den is None else Fraction(int(num), int(den))


def integer_form(values) -> tuple:
    """(ints, scale) of a sequence of Fractions or ints: scale is the lcm
    of their denominators and value i is ints[i] / scale, ints a list.
    The one place where denominators are cleared."""
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
