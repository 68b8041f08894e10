"""Exact rational scalars.

The base field everywhere is the rationals, represented by
:class:`fractions.Fraction`, which already guarantees lowest terms and a
positive denominator.  Decision procedures run on rational inputs; rank,
gcd and vanishing tests over the rationals answer the same question over
any field extension, so results transfer verbatim to the complex numbers.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import floordiv, mul

from .errors import PreconditionError

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
    (p,), (q,) = literal_parts([text])
    return Fraction(p, q)


def literal_parts(values: list) -> tuple:
    """(numerators, denominators) in lowest terms, denominators positive,
    of a list of entries, each an int (not a bool) or a 'p' or 'p/q'
    literal: ASCII digits, an optional sign on p, q nonzero, surrounding
    whitespace stripped.  Read in one pass, in list order: raises
    ValueError at the first entry that is neither, or whose digits int()
    refuses."""
    nums, dens = [], []
    for v in values:
        if isinstance(v, str):
            m = _RATIONAL_RE.match(v.strip())
            if m is None:
                raise ValueError(f"not an exact rational literal: {v!r}")
            num, den = m.groups()
            if den is None:
                nums.append(int(num))
                dens.append(1)
                continue
            p, q = int(num), int(den)
            g = gcd(p, q)
            nums.append(p // g)
            dens.append(q // g)
        elif isinstance(v, int) and not isinstance(v, bool):
            nums.append(v)
            dens.append(1)
        else:
            raise ValueError(f"entries must be integers or 'p/q' strings, got {v!r}")
    return nums, dens


def integer_form(values) -> tuple:
    """(ints, scale) of a sequence of Fractions or ints: scale is the lcm
    of their denominators and value i is ints[i] / scale, ints a list.
    With `ratio_rows` and `common_scale`, the one place where
    denominators are cleared."""
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def ratio_rows(nums: list, dens: list, count: int, width: int) -> tuple:
    """(rows, scales) of the values nums[i] / dens[i], dens[i] > 0, cut
    into `count` rows of `width`: row r is the int list rows[r] over
    scales[r], the lcm of its denominators (integer_form row by row)."""
    if not width:
        return [[] for _ in range(count)], [1] * count
    if max(dens, default=1) == 1:
        scales, ints = [1] * count, nums
    else:
        scales = list(map(lcm, *[dens[k::width] for k in range(width)]))
        per_entry = chain.from_iterable(zip(*[scales] * width))
        ints = list(map(mul, nums, map(floordiv, per_entry, dens)))
    return list(map(list, zip(*[iter(ints)] * width))), scales


def common_scale(rows: list, scales: list) -> tuple:
    """Integer rows, row r over scales[r] > 0, put over one scale: (rows,
    scale), scale the lcm of the scales."""
    scale = lcm(*scales)
    return [[e * (scale // s) for e in row] for row, s in zip(rows, scales)], scale


def format_rational(x: Fraction) -> str:
    """'p' or 'p/q'.  A part longer than the interpreter's int-to-str
    digit limit cannot be written: PreconditionError naming the limit."""
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise PreconditionError(f"a value has more than {sys.get_int_max_str_digits()} digits, "
                                "the interpreter's int-to-str digit limit") from None
