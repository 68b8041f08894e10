"""Binary forms and their greatest common divisor over the rationals.

A binary form of degree d is a homogeneous polynomial q(u, v) stored by
the coefficient of u^i v^(d-i) at index i.  A family of forms shares a
projective root over the complex numbers exactly when its gcd has
positive degree; the root [1:0] at infinity corresponds to all leading
coefficients vanishing and is tracked separately from the dehomogenised
univariate gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
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


def _strip(p: List[Fraction]) -> List[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: List[Fraction], den: List[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and _strip(num):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        _strip(num)
    return q, num


def _poly_gcd(p: List[Fraction], q: List[Fraction]) -> List[Fraction]:
    """Monic gcd of univariate rational polynomials (Euclid)."""
    a, b = _strip(list(p)), _strip(list(q))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, _strip(r)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def _dehomogenize(form: BinaryForm) -> List[Fraction]:
    """q(x, 1) as a coefficient list; drops the power of v at infinity."""
    return _strip(list(form.coefficients))


def _vanishes_at(form: BinaryForm, u: int, v: int) -> bool:
    """Whether q(u, v) = 0 at integers u, v, in integer arithmetic."""
    d = form.degree
    return not sum(c * u**i * v**(d - i)
                   for i, c in enumerate(integer_form(form.coefficients)[0]))


def binary_form_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Gcd of binary forms; positive degree iff a common complex root exists.

    The gcd is monic (its highest nonzero coefficient is 1), so it does not
    depend on how each form is scaled.  An all-zero family yields the zero
    form, which callers must treat as "everything vanishes" (every
    direction is a common root).
    """
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        return BinaryForm.zero()
    # multiplicity of the common root at infinity: each form contributes
    # degree minus dehomogenised degree
    inf_mult = min(f.degree - (len(_dehomogenize(f)) - 1) for f in nonzero)
    g: List[Fraction] = _dehomogenize(nonzero[0])
    k = 1
    while k < len(nonzero) and len(g) > 2:
        g = _poly_gcd(g, _dehomogenize(nonzero[k]))
        k += 1
    if len(g) == 2:
        # one finite root left: each remaining form keeps it or kills it
        root = -g[0] / g[1]
        if not all(_vanishes_at(h, root.numerator, root.denominator) for h in nonzero[k:]):
            g = [Fraction(1)]
    lead = g[-1]
    coeffs = [c / lead for c in g] + [Fraction(0)] * inf_mult
    return BinaryForm(len(coeffs) - 1, tuple(coeffs))


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
