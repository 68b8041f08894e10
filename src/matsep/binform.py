"""Binary forms and their greatest common divisor over the rationals.

A binary form of degree d is a homogeneous polynomial q(u, v) stored by
the coefficient of u^i v^(d-i) at index i.  A family of forms shares a
projective root over the complex numbers exactly when its gcd has
positive degree; the root [1:0] at infinity corresponds to all leading
coefficients vanishing and is tracked separately from the dehomogenised
univariate gcd.  The gcd runs Euclid over the integers: coefficient
lists cleared of denominators, primitive pseudo-remainders, and Fractions
only for the monic result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple

from .rational import integer_form, rat


@dataclass(frozen=True)
class BinaryForm:
    degree: int
    coefficients: Tuple[Fraction, ...]  # index = exponent of the first variable

    def __post_init__(self):
        coeffs = tuple(rat(c) for c in self.coefficients)
        if len(coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def evaluate(self, u, v):
        u, v = rat(u), rat(v)
        return sum((c * u**i * v**(self.degree - i)
                    for i, c in enumerate(self.coefficients)), Fraction(0))

    @staticmethod
    def zero() -> "BinaryForm":
        return BinaryForm(0, (Fraction(0),))


def _strip(p: list) -> list:
    """Drop trailing zero coefficients in place."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive_remainder(a: List[int], b: List[int]) -> List[int]:
    """The primitive part of a mod b over the integers, [] when b divides
    a: each step multiplies the running remainder by b's leading
    coefficient, so no division is taken until the content is removed."""
    r = list(a)
    while len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [x * b[-1] for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= top * y
        _strip(r)
    content = gcd(*r)
    return [x // content for x in r]


def _vanishes_at(coeffs: Sequence[int], u: int, v: int) -> bool:
    """Whether the form with these integer coefficients vanishes at (u, v)."""
    d = len(coeffs) - 1
    return not sum(c * u**i * v**(d - i) for i, c in enumerate(coeffs))


def gcd_of_integer_forms(forms: Sequence[Sequence[int]]) -> BinaryForm:
    """binary_form_gcd of forms given by integer coefficients, index i the
    exponent of u and the degree one less than the length.

    Euclid runs on the dehomogenised integer polynomials with primitive
    pseudo-remainders, so every intermediate is an integer list of
    bounded content; only the monic result is built from Fractions.
    """
    nonzero = [f for f in forms if any(f)]
    if not nonzero:
        return BinaryForm.zero()
    finite = [_strip(list(f)) for f in nonzero]
    # multiplicity of the common root at infinity: each form contributes
    # degree minus dehomogenised degree
    inf_mult = min(len(f) - len(p) for f, p in zip(nonzero, finite))
    g = finite[0]
    k = 1
    while k < len(finite) and len(g) > 2:
        h = finite[k]
        while h:
            g, h = h, _primitive_remainder(g, h)
        k += 1
    # one finite root -g0/g1 left: each remaining form keeps it or kills it
    if len(g) == 2 and not all(_vanishes_at(f, -g[0], g[1]) for f in nonzero[k:]):
        g = [1]
    coeffs = [Fraction(c, g[-1]) for c in g] + [Fraction(0)] * inf_mult
    return BinaryForm(len(coeffs) - 1, tuple(coeffs))


def binary_form_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Gcd of binary forms; positive degree iff a common complex root exists.

    The gcd is monic (its highest nonzero coefficient is 1), so it does not
    depend on how each form is scaled: each form is cleared of
    denominators and handed to gcd_of_integer_forms.  An all-zero family
    yields the zero form, which callers must treat as "everything
    vanishes" (every direction is a common root).
    """
    return gcd_of_integer_forms([integer_form(f.coefficients)[0] for f in forms])


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """All rational roots of a polynomial of degree at most two, ascending,
    a double root once: the linear root, or the quadratic formula when the
    discriminant of the integer-scaled coefficients is a perfect square.
    Raises ValueError above degree two."""
    p = _strip(list(coeffs))
    if len(p) > 3:
        raise ValueError("rational roots need a degree of at most two")
    if len(p) < 2:
        return []
    if len(p) == 2:
        return [-p[0] / p[1]]
    c, b, a = integer_form(p)[0]
    disc = b * b - 4 * a * c
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return []
    return sorted({Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)})


ProjectivePoint = Tuple[Fraction, Fraction]


def rational_projective_roots(form: BinaryForm) -> Optional[List[ProjectivePoint]]:
    """Rational projective roots [u:v], normalised to (1,0) or (x,1).

    Returns None for the zero form (every point is a root); the point at
    infinity, when present, is listed first, then finite roots ascending.
    A form whose dehomogenised degree exceeds two raises ValueError.
    """
    if form.is_zero:
        return None
    roots: List[ProjectivePoint] = []
    if form.coefficients[form.degree] == 0:
        roots.append((Fraction(1), Fraction(0)))
    for x in _rational_roots(list(form.coefficients)):
        roots.append((x, Fraction(1)))
    return roots
