"""Sparse multivariate polynomials over the rationals.

Terms are stored as a map from exponent vectors to nonzero coefficients,
so equality of two polynomials is literal equality of term maps.  This is
the identity oracle: two expressions are the same polynomial if and only
if their expanded canonical forms coincide, no numerics involved.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Sequence, Tuple

from .errors import ShapeError
from .laurent import TermPoly
from .matrix import cofactor_det
from .rational import rat

Exponents = Tuple[int, ...]


def _add_exponents(e1: Exponents, e2: Exponents) -> Exponents:
    return tuple(map(add, e1, e2))


class SparsePoly(TermPoly):
    __slots__ = ("variables",)
    _add_exp = staticmethod(_add_exponents)

    def __init__(self, variables: Sequence[str], terms: Dict[Exponents, Fraction]):
        object.__setattr__(self, "variables", tuple(variables))
        if any(len(exps) != len(self.variables) for exps in terms):
            raise ShapeError("exponent vector length mismatch")
        self._set_terms((tuple(e), rat(c)) for e, c in terms.items())

    def _wrap(self, terms: Dict[Exponents, Fraction]) -> "SparsePoly":
        p = object.__new__(SparsePoly)
        object.__setattr__(p, "variables", self.variables)
        object.__setattr__(p, "terms", terms)
        return p

    def _ring(self):
        return self.variables

    def __reduce__(self):
        return SparsePoly, (self.variables, self.terms)

    # -- construction ---------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "SparsePoly":
        return SparsePoly(variables, {})

    @staticmethod
    def const(variables: Sequence[str], value) -> "SparsePoly":
        return SparsePoly(variables, {(0,) * len(variables): rat(value)})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "SparsePoly":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(int(j == i) for j in range(len(variables)))
        return SparsePoly(variables, {exps: Fraction(1)})

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.variables != self.variables:
                raise ShapeError("polynomials over different variable lists")
            return other
        return SparsePoly.const(self.variables, other)

    def __pow__(self, k: int) -> "SparsePoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = SparsePoly.const(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- queries ------------------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in graded lexicographic order (the canonical ordering)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def coefficient_of(self, assignment: Dict[str, int]) -> "SparsePoly":
        """Coefficient of prod(var^exp), as a polynomial in the other variables.

        Keeps the full variable list; the extracted variables appear with
        exponent zero in the result.
        """
        idx = {self.variables.index(v): e for v, e in assignment.items()}
        # distinct terms keep distinct exponents here, so nothing collects
        return self._wrap({tuple(0 if i in idx else x for i, x in enumerate(exps)): c
                           for exps, c in self.terms.items()
                           if all(exps[i] == e for i, e in idx.items())})

    def derivative(self, name: str) -> "SparsePoly":
        i = self.variables.index(name)
        return self._wrap({tuple(x - int(j == i) for j, x in enumerate(exps)): c * exps[i]
                           for exps, c in self.terms.items() if exps[i] > 0})

    def evaluate(self, values: Dict[str, object]):
        """Evaluate with any scalars supporting ring arithmetic.

        Works for Fractions and for dual numbers, which is how symbolic
        derivatives are cross-checked against forward-mode ones.
        """
        vals = [values[v] for v in self.variables]
        acc = None
        for exps, c in self.sorted_terms():
            term = c
            for v, e in zip(vals, exps):
                for _ in range(e):
                    term = term * v
            acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip(self.variables, exps) if e]
            body = "*".join(factors)
            if body:
                parts.append(f"{c}*{body}" if c != 1 else body)
            else:
                parts.append(str(c))
        return " + ".join(parts)


def poly_expand_det(grid: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    """Exact symbolic determinant by cofactor expansion, size up to six."""
    n = len(grid)
    if n == 0:
        raise ShapeError("empty determinant")
    if n > 6:
        raise ShapeError("symbolic determinant limited to size six")
    if any(len(row) != n for row in grid):
        raise ShapeError("non-square grid")
    return cofactor_det([list(row) for row in grid])
