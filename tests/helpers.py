"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: brackets
and quadrilinear invariants are recomputed through symbolic expansion
(and xi also through inclusion-exclusion over block determinants),
common roots through resultants, rational roots through the rational
root theorem, the det and pairing blocks, nullcone membership, the
direction gcd and the maximal minors through Fraction loops over the
single-value functions, left separation through every minor of both
sides compared in canonical order, derivatives through symbolic
differentiation, document entries through one regex-checked Fraction
per entry,
Jacobians through dense and through sparse Fraction dual numbers,
ranks and determinants through eager Bareiss elimination, reduced and
determinant-one echelon forms through Fraction elimination loops, Laurent
arithmetic through one re-validated polynomial per addition and Laurent
matrices through Fraction term maps per entry, the
gcd of binary forms through Euclid on every form, and dimension
certificates through every trial of the budget, so agreement is
evidence rather than tautology.  The CLI parser is compared with one
that declares every subcommand's arguments.
"""

import argparse
import io
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import chain, combinations
from math import gcd
from random import Random

from matsep import (BinaryForm, InputError, LaurentPoly, LeftMatrix, MatrixTupleLR,
                    PreconditionError, RMatrix, SeparationReport, ShapeError, SparsePoly,
                    GroupElementL, GroupElementLR, binary_form_gcd, bracket, det_inv,
                    poly_expand_det, rat)
from matsep.certify import (CERTIFIED, FAILED, LOWER_BOUND_ONLY, CertificationError,
                            DimensionCertificate, _sample_point, jacobian)
from matsep.cli import _COMMANDS, main
from matsep.laurent import _collect, _products
from matsep.matrix import cofactor_det
from matsep.geometry_lr import direction_forms


def rand_fraction(rng: Random, lo=-9, hi=9, denominators=(1, 1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(denominators))


def rand_matrix(rng: Random, rows: int, cols: int, lo=-9, hi=9) -> RMatrix:
    return RMatrix(rows, cols, [rand_fraction(rng, lo, hi) for _ in range(rows * cols)])


def rand_tuple(rng: Random, n: int, lo=-9, hi=9) -> MatrixTupleLR:
    return MatrixTupleLR(tuple(rand_matrix(rng, 2, 2, lo, hi) for _ in range(n)))


def rand_upper_tuple(rng: Random, n: int, lo=-9, hi=9) -> MatrixTupleLR:
    mats = []
    for _ in range(n):
        a, b, d = (rand_fraction(rng, lo, hi) for _ in range(3))
        mats.append(RMatrix(2, 2, [a, b, Fraction(0), d]))
    return MatrixTupleLR(tuple(mats))


def rand_sl2(rng: Random, shears=3) -> RMatrix:
    """Random determinant-one matrix built from elementary shears."""
    g = RMatrix.identity(2)
    for _ in range(shears):
        x = Fraction(rng.randint(-4, 4))
        if rng.random() < 0.5:
            g = g @ RMatrix.from_rows([[1, x], [0, 1]])
        else:
            g = g @ RMatrix.from_rows([[1, 0], [x, 1]])
    return g


def rand_group_lr(rng: Random) -> GroupElementLR:
    return GroupElementLR(rand_sl2(rng), rand_sl2(rng))


def rand_sl(rng: Random, l: int, shears=4) -> RMatrix:
    """Random determinant-one l x l matrix from elementary row shears."""
    g = RMatrix.identity(l)
    for _ in range(shears):
        i = rng.randrange(l)
        j = rng.randrange(l)
        if i == j:
            continue
        x = Fraction(rng.randint(-3, 3))
        shear = RMatrix.from_rows(
            [[Fraction(int(r == c)) + (x if (r, c) == (i, j) else 0)
              for c in range(l)] for r in range(l)])
        g = g @ shear
    return g


def rand_group_left(rng: Random, l: int) -> GroupElementL:
    return GroupElementL(rand_sl(rng, l))


def rand_left(rng: Random, l: int, n: int, lo=-9, hi=9) -> LeftMatrix:
    return LeftMatrix(rand_matrix(rng, l, n, lo, hi))


def rand_left_nullcone(rng: Random, l: int, n: int) -> LeftMatrix:
    """Random rank-deficient l x n matrix (last row in the span above)."""
    rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(l - 1)]
    coeffs = [rand_fraction(rng, -3, 3) for _ in range(l - 1)]
    last = [sum((c * row[i] for c, row in zip(coeffs, rows)), Fraction(0))
            for i in range(n)]
    return LeftMatrix(RMatrix.from_rows(rows + [last]))


# -- matrix shapes by Fraction entries ------------------------------------------


def scaled(m: RMatrix, s) -> RMatrix:
    """s times m, one Fraction product per entry."""
    return RMatrix(m.rows, m.cols, [rat(s) * e for e in m.entries])


def hstack(a: RMatrix, b: RMatrix) -> RMatrix:
    """[a | b], row by row."""
    assert a.rows == b.rows
    return RMatrix.from_rows([list(a.row(r)) + list(b.row(r)) for r in range(a.rows)])


def transpose(m: RMatrix) -> RMatrix:
    return RMatrix(m.cols, m.rows, [m.at(r, c) for c in range(m.cols) for r in range(m.rows)])


def inverse(m: RMatrix) -> RMatrix:
    """The inverse, read off the rref of [m | I]; ShapeError if m is
    singular or not square."""
    n = m.rows
    if m.cols != n:
        raise ShapeError("inverse of a non-square matrix")
    reduced, pivots = hstack(m, RMatrix.identity(n)).rref()
    if pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    return RMatrix(n, n, [e for row in reduced for e in row[n:]])


# -- nullcone samples for the 2x2 family --------------------------------------


def rand_nullcone_row_pattern(rng: Random, n: int) -> MatrixTupleLR:
    a = [rand_fraction(rng) for _ in range(n)]
    b = [rand_fraction(rng) for _ in range(n)]
    lam = rand_fraction(rng, -4, 4)
    return MatrixTupleLR(tuple(RMatrix(2, 2, [a[i], b[i], lam * a[i], lam * b[i]])
                               for i in range(n)))


def rand_nullcone_col_pattern(rng: Random, n: int) -> MatrixTupleLR:
    a = [rand_fraction(rng) for _ in range(n)]
    c = [rand_fraction(rng) for _ in range(n)]
    lam = rand_fraction(rng, -4, 4)
    return MatrixTupleLR(tuple(RMatrix(2, 2, [a[i], lam * a[i], c[i], lam * c[i]])
                               for i in range(n)))


def rand_nullcone_triangular(rng: Random, n: int) -> MatrixTupleLR:
    """Conjugated upper-triangular nullcone tuple (a row or d row zero)."""
    from matsep import act_lr
    mats = []
    kill_d = rng.random() < 0.5
    for _ in range(n):
        a = Fraction(0) if not kill_d else rand_fraction(rng)
        d = Fraction(0) if kill_d else rand_fraction(rng)
        mats.append(RMatrix(2, 2, [a, rand_fraction(rng), Fraction(0), d]))
    return act_lr(rand_group_lr(rng), MatrixTupleLR(tuple(mats)))


# -- symbolic oracles ----------------------------------------------------------


def bracket_oracle(X: RMatrix, Y: RMatrix) -> Fraction:
    """Tr(X)Tr(Y) - Tr(XY) via full symbolic expansion, then substitution."""
    vs = tuple(f"{m}{i}" for m in "xy" for i in range(4))
    xe = [SparsePoly.var(vs, f"x{i}") for i in range(4)]
    ye = [SparsePoly.var(vs, f"y{i}") for i in range(4)]
    tr_x = xe[0] + xe[3]
    tr_y = ye[0] + ye[3]
    tr_xy = xe[0] * ye[0] + xe[1] * ye[2] + xe[2] * ye[1] + xe[3] * ye[3]
    sym = tr_x * tr_y - tr_xy
    values = {f"x{i}": X.entries[i] for i in range(4)}
    values.update({f"y{i}": Y.entries[i] for i in range(4)})
    return sym.evaluate(values)


def xi_oracle(A: MatrixTupleLR, i: int, j: int, k: int, l: int) -> Fraction:
    """Coefficient extraction by full symbolic expansion in the four
    block weights, independent of the inclusion-exclusion route."""
    vs = ("ei", "ej", "ek", "el")
    e = [SparsePoly.var(vs, v) for v in vs]
    mats = [A.matrices[m - 1] for m in (i, j, k, l)]
    grid = [[None] * 4 for _ in range(4)]
    for br in range(2):
        for bc in range(2):
            block = mats[2 * br + bc]
            weight = e[2 * br + bc]
            for r in range(2):
                for c in range(2):
                    grid[2 * br + r][2 * bc + c] = weight * block.at(r, c)
    det = poly_expand_det(grid)
    coeff = det.coefficient_of({"ei": 1, "ej": 1, "ek": 1, "el": 1})
    const = coeff.terms.get((0, 0, 0, 0), Fraction(0))
    return const


def _doubled_block(A: MatrixTupleLR, idx, weights) -> RMatrix:
    """4x4 matrix [[w0*A_i, w1*A_j], [w2*A_k, w3*A_l]] (0-based idx)."""
    mats = [scaled(A.matrices[m], w) for m, w in zip(idx, weights)]
    return hstack(mats[0], mats[1]).vstack(hstack(mats[2], mats[3]))


def xi_inclusion_exclusion(A: MatrixTupleLR, i: int, j: int, k: int, l: int) -> Fraction:
    """Multilinear coefficient of the doubled block determinant, extracted
    by inclusion-exclusion over the sixteen 0/1 weightings of the four
    blocks: sum over S of (-1)^(4-|S|) det(weight 1 on S, 0 elsewhere)."""
    idx = (i - 1, j - 1, k - 1, l - 1)
    total = Fraction(0)
    for mask in range(16):
        weights = tuple((mask >> b) & 1 for b in range(4))
        term = _doubled_block(A, idx, weights).det()
        total += term if (4 - sum(weights)) % 2 == 0 else -term
    return total


def sylvester_resultant_quadratics(f, g) -> Fraction:
    """Homogeneous resultant of two degree-two binary forms.

    Vanishes exactly when the forms share a projective root, including
    the root at infinity when both leading coefficients vanish.
    """
    c0, c1, c2 = f.coefficients
    d0, d1, d2 = g.coefficients
    z = Fraction(0)
    return RMatrix.from_rows([
        [c2, c1, c0, z],
        [z, c2, c1, c0],
        [d2, d1, d0, z],
        [z, d2, d1, d0]]).det()


def rational_roots_by_trial_division(coeffs) -> list:
    """All rational roots of a univariate polynomial (coefficient i of x^i),
    ascending, by the rational root theorem: every divisor of the constant
    term over every divisor of the leading coefficient, found by trial
    division in time O(sqrt(coefficient))."""
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if len(p) <= 1:
        return []
    roots = set()
    while p[0] == 0:
        roots.add(Fraction(0))
        p = p[1:]
    if len(p) > 1:
        mult = 1
        for c in p:
            mult = mult * c.denominator // gcd(mult, c.denominator)
        ip = [int(c * mult) for c in p]
        for num in _divisors(abs(ip[0])):
            for den in _divisors(abs(ip[-1])):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if sum((c * cand**i for i, c in enumerate(ip)), Fraction(0)) == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out += [d, n // d] if d != n // d else [d]
        d += 1
    return sorted(out)


# -- dense dual numbers --------------------------------------------------------


class DenseDual:
    """Forward-mode dual number with one stored partial per parameter,
    zeros included: the plain product and quotient rules over Fractions,
    with no sparsity, as an oracle for the sparse DualScalar."""

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        object.__setattr__(self, "value", Fraction(value))
        object.__setattr__(self, "partials", tuple(Fraction(p) for p in partials))

    def __setattr__(self, *_):
        raise AttributeError("DenseDual is immutable")

    def _coerce(self, other) -> "DenseDual":
        if isinstance(other, DenseDual):
            if len(other.partials) != len(self.partials):
                raise ShapeError("dual numbers with different parameter counts")
            return other
        return DenseDual(other, (0,) * len(self.partials))

    def __add__(self, other) -> "DenseDual":
        o = self._coerce(other)
        return DenseDual(self.value + o.value,
                         tuple(a + b for a, b in zip(self.partials, o.partials)))

    __radd__ = __add__

    def __neg__(self) -> "DenseDual":
        return DenseDual(-self.value, tuple(-p for p in self.partials))

    def __sub__(self, other) -> "DenseDual":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "DenseDual":
        return self._coerce(other) - self

    def __mul__(self, other) -> "DenseDual":
        o = self._coerce(other)
        return DenseDual(self.value * o.value,
                         tuple(a * o.value + self.value * b
                               for a, b in zip(self.partials, o.partials)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DenseDual":
        o = self._coerce(other)
        if o.value == 0:
            raise ZeroDivisionError("dual division by a scalar with zero value")
        inv = 1 / o.value
        return DenseDual(self.value * inv,
                         tuple((a * o.value - self.value * b) * inv * inv
                               for a, b in zip(self.partials, o.partials)))

    def __rtruediv__(self, other) -> "DenseDual":
        return self._coerce(other) / self


def dense_jacobian(evaluator, point) -> RMatrix:
    """Jacobian of a rational map at a point, through dense duals."""
    pt = [Fraction(x) for x in point]
    k = len(pt)
    seeds = [DenseDual(v, [int(i == j) for j in range(k)]) for i, v in enumerate(pt)]
    rows = [list(out.partials) if isinstance(out, DenseDual) else [0] * k
            for out in evaluator(seeds)]
    return RMatrix(len(rows), k, [e for row in rows for e in row])


class SparseFractionDual:
    """Forward-mode dual number with its nonzero partials in a dict of
    Fractions: the product and quotient rules on the indices present, each
    value and partial a reduced Fraction, as a second oracle for the
    integer DualScalar."""

    __slots__ = ("value", "nparams", "d")

    def __init__(self, value, nparams, d=()):
        self.value, self.nparams, self.d = Fraction(value), nparams, dict(d)

    @property
    def partials(self) -> tuple:
        return tuple(self.d.get(i, Fraction(0)) for i in range(self.nparams))

    def _coerce(self, other) -> "SparseFractionDual":
        if isinstance(other, SparseFractionDual):
            if other.nparams != self.nparams:
                raise ShapeError("dual numbers with different parameter counts")
            return other
        return SparseFractionDual(other, self.nparams)

    def __add__(self, other) -> "SparseFractionDual":
        o = self._coerce(other)
        return SparseFractionDual(self.value + o.value, self.nparams,
                                  _sparse_merge(self.d, o.d, 1))

    __radd__ = __add__

    def __neg__(self) -> "SparseFractionDual":
        return SparseFractionDual(-self.value, self.nparams, _sparse_scaled(self.d, -1))

    def __sub__(self, other) -> "SparseFractionDual":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "SparseFractionDual":
        return self._coerce(other) - self

    def __mul__(self, other) -> "SparseFractionDual":
        o = self._coerce(other)
        return SparseFractionDual(self.value * o.value, self.nparams, _sparse_merge(
            _sparse_scaled(self.d, o.value), o.d, self.value))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SparseFractionDual":
        o = self._coerce(other)
        if o.value == 0:
            raise ZeroDivisionError("dual division by a scalar with zero value")
        # (u/v)' = (u' - q v') / v with q = u/v
        q = self.value / o.value
        return SparseFractionDual(q, self.nparams, _sparse_scaled(
            _sparse_merge(self.d, o.d, -q), 1 / o.value))

    def __rtruediv__(self, other) -> "SparseFractionDual":
        return self._coerce(other) / self


def _sparse_scaled(d: dict, c) -> dict:
    return {i: p * c for i, p in d.items()} if c else {}


def _sparse_merge(d: dict, e: dict, c) -> dict:
    """d + c * e, dropping partials that cancel."""
    out = dict(d)
    for i, p in e.items():
        s = out.get(i, 0) + c * p
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def sparse_fraction_jacobian(evaluator, point) -> RMatrix:
    """Jacobian of a rational map at a point, through sparse Fraction duals."""
    pt = [Fraction(x) for x in point]
    k = len(pt)
    rows = [list(out.partials) if isinstance(out, SparseFractionDual) else [0] * k
            for out in evaluator([SparseFractionDual(v, k, {i: 1}) for i, v in enumerate(pt)])]
    return RMatrix(len(rows), k, [e for row in rows for e in row])


# -- dimension certificates from every trial --------------------------------------


def certify_all_trials(param, claimed: int, trials: int = 5, seed: int = 0):
    """`certify_dimension` as it ran before it stopped at the rank bound:
    every trial of the budget is drawn, ranked and checked against the
    claim."""
    if trials < 1:
        raise PreconditionError("at least one trial is required")
    best, witness = -1, None
    group = set(param.group_coords)
    for trial in range(trials):
        rng = Random(seed * 1_000_003 + trial)
        point = _sample_point(param, rng)
        at = [0 if i in group else x for i, x in enumerate(point)]
        jac = param.orbit.identity_jacobian(at) if param.orbit else jacobian(param, at)
        rank = jac.rank()
        if rank > claimed:
            raise CertificationError(
                f"{param.name}: rank {rank} exceeds claimed dimension {claimed}; "
                "the parameterization does not land in the claimed component")
        if rank > best:
            best, witness = rank, tuple(map(Fraction, point))
    verdict = CERTIFIED if best == claimed else LOWER_BOUND_ONLY if best > 0 else FAILED
    return DimensionCertificate(param.name, claimed, best, trials, witness, verdict)


# -- document entries one Fraction at a time ------------------------------------

_LITERAL = re.compile(r"^([+-]?\d+)(?:/(0*[1-9]\d*))?$", re.ASCII)


def entry_by_fraction(value) -> Fraction:
    """A document entry as one Fraction: an int (not a bool), or a 'p' or
    'p/q' string with ASCII digits and q nonzero, padding stripped; any
    other value raises the InputError the CLI reports with exit 2."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        m = _LITERAL.match(value.strip())
        if m is None:
            raise InputError(f"not an exact rational literal: {value!r}")
        try:
            num, den = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:
            raise InputError(f"a string entry has a part of more than "
                             f"{sys.get_int_max_str_digits()} digits, "
                             "the interpreter's int-to-str digit limit") from None
        return Fraction(num, den)
    raise InputError(f"entries must be integers or 'p/q' strings, got {value!r}")


def grid_by_fractions(rows) -> list:
    """A document's rows of entries as rows of Fractions, in reading order."""
    return [[entry_by_fraction(e) for e in row] for row in rows]


def left_rows_by_fractions(data, l: int, n: int) -> list:
    """The rows of a left-matrix operand, each row's shape checked just
    before its entries are read."""
    if not isinstance(data, list) or len(data) != l:
        raise InputError(f"expected {l} rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"expected rows of length {n}")
        rows.append([entry_by_fraction(e) for e in row])
    return rows


def matrices2_by_fractions(data, n: int) -> list:
    """The 2x2 grids of an lr operand, each grid's shape checked just
    before its entries are read."""
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"expected {n} matrices")
    grids = []
    for m in data:
        if (not isinstance(m, list) or len(m) != 2
                or any(not isinstance(r, list) or len(r) != 2 for r in m)):
            raise InputError("a 2x2 matrix must be a list of two rows of two entries")
        grids.append(grid_by_fractions(m))
    return grids


# -- Fraction loops behind the integer-form blocks -----------------------------


def det_block_by_fractions(A: MatrixTupleLR) -> tuple:
    """The det block as one det_inv call per index."""
    return tuple(det_inv(A, i) for i in range(1, A.n + 1))


def bracket_block_by_fractions(A: MatrixTupleLR) -> tuple:
    """The pairing block as one bracket call per index pair."""
    return tuple(bracket(A, i, j) for i, j in combinations(range(1, A.n + 1), 2))


def nullcone_member_by_fractions(A: MatrixTupleLR) -> bool:
    """All dets, then all pairings vanish, one Fraction value at a time."""
    n = A.n
    if any(det_inv(A, i) != 0 for i in range(1, n + 1)):
        return False
    return all(bracket(A, i, j) == 0 for i, j in combinations(range(1, n + 1), 2))


def direction_gcd_by_fractions(A: MatrixTupleLR):
    """The gcd of the direction forms built from the Fraction entries."""
    return binary_form_gcd(direction_forms(A))


def minors_left_by_fractions(A: LeftMatrix) -> tuple:
    """Every maximal minor as the determinant of a Fraction submatrix."""
    l, n = A.l, A.n
    if n < l:
        return ()
    return tuple(RMatrix(l, l, [A.matrix.at(r, c) for r in range(l) for c in cols]).det()
                 for cols in combinations(range(n), l))


def separated_left_eager(A: LeftMatrix, B: LeftMatrix) -> SeparationReport:
    """Every maximal minor of both sides, as Fraction submatrix
    determinants, compared in canonical order."""
    for cols, x, y in zip(combinations(range(1, A.n + 1), A.l),
                          minors_left_by_fractions(A), minors_left_by_fractions(B)):
        if x != y:
            return SeparationReport(True, ("minor", cols), (x, y))
    return SeparationReport(False)


# -- eager Bareiss elimination -------------------------------------------------


def integer_rows_by_fraction_products(m: RMatrix) -> tuple:
    """Reference row scaling: lcm of the row's denominators, then one
    Fraction product per entry; returns (rows, product of the scales)."""
    rows, scale = [], Fraction(1)
    for r in range(m.rows):
        row = m.row(r)
        mult = 1
        for e in row:
            mult = mult * e.denominator // gcd(mult, e.denominator)
        scale *= mult
        rows.append([int(e * mult) for e in row])
    return rows, scale


def bareiss_rank(matrix: RMatrix) -> int:
    """Exact rank by eager Bareiss elimination: every step rewrites every
    remaining row, whether or not it has a zero in the pivot column."""
    m, _ = integer_rows_by_fraction_products(matrix)
    nr, nc = matrix.rows, matrix.cols
    prev = 1
    piv_r = 0
    for piv_c in range(nc):
        if piv_r == nr:
            break
        pr = next((r for r in range(piv_r, nr) if m[r][piv_c] != 0), None)
        if pr is None:
            continue
        if pr != piv_r:
            m[pr], m[piv_r] = m[piv_r], m[pr]
        p = m[piv_r][piv_c]
        for r in range(piv_r + 1, nr):
            factor = m[r][piv_c]
            for c in range(piv_c + 1, nc):
                m[r][c] = (p * m[r][c] - factor * m[piv_r][c]) // prev
            m[r][piv_c] = 0
        prev = p
        piv_r += 1
    return piv_r


def bareiss_det(matrix: RMatrix) -> Fraction:
    """Exact determinant by eager Bareiss elimination, at every size."""
    if matrix.rows != matrix.cols:
        raise ShapeError("determinant of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return Fraction(1)
    m, scale = integer_rows_by_fraction_products(matrix)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pr = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != k:
            m[pr], m[k] = m[k], m[pr]
            sign = -sign
        p = m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k]
            for c in range(k + 1, n):
                m[r][c] = (p * m[r][c] - factor * m[k][c]) // prev
            m[r][k] = 0
        prev = p
    return sign * m[n - 1][n - 1] / scale


# -- Fraction elimination loops -------------------------------------------------


def rref_by_fractions(matrix: RMatrix) -> tuple:
    """Reduced row echelon form by Fraction Gauss-Jordan elimination;
    returns (rows, pivot column list)."""
    m = matrix.to_rows()
    nr, nc = matrix.rows, matrix.cols
    pivots = []
    piv_r = 0
    for piv_c in range(nc):
        if piv_r == nr:
            break
        pr = next((r for r in range(piv_r, nr) if m[r][piv_c] != 0), None)
        if pr is None:
            continue
        m[pr], m[piv_r] = m[piv_r], m[pr]
        p = m[piv_r][piv_c]
        m[piv_r] = [e / p for e in m[piv_r]]
        for r in range(nr):
            if r != piv_r and m[r][piv_c] != 0:
                f = m[r][piv_c]
                m[r] = [e - f * q for e, q in zip(m[r], m[piv_r])]
        pivots.append(piv_c)
        piv_r += 1
    return m, pivots


def echelon_sl_by_fractions(A: LeftMatrix) -> tuple:
    """Row echelon form inside the determinant-one group by Fraction
    Gaussian elimination: each row swap negates the row it moves up;
    returns (GroupElementL, LeftMatrix) like `echelon_sl`."""
    l, n = A.l, A.n
    m = A.matrix.to_rows()
    g = RMatrix.identity(l).to_rows()
    piv_r = 0
    for piv_c in range(n):
        if piv_r == l:
            break
        pr = next((r for r in range(piv_r, l) if m[r][piv_c] != 0), None)
        if pr is None:
            continue
        if pr != piv_r:
            m[pr], m[piv_r] = m[piv_r], [-e for e in m[pr]]
            g[pr], g[piv_r] = g[piv_r], [-e for e in g[pr]]
        p = m[piv_r][piv_c]
        for r in range(piv_r + 1, l):
            if m[r][piv_c] == 0:
                continue
            f = m[r][piv_c] / p
            m[r] = [e - f * q for e, q in zip(m[r], m[piv_r])]
            g[r] = [e - f * q for e, q in zip(g[r], g[piv_r])]
        piv_r += 1
    return GroupElementL(RMatrix.from_rows(g)), LeftMatrix(RMatrix.from_rows(m))


# -- Laurent arithmetic, one polynomial per addition ---------------------------


class LaurentPolyByAdditions:
    """Laurent polynomial whose every sum, difference and product is a new
    polynomial built through the validating constructor, as `LaurentPoly`
    computed before it shared one term-map core with `SparsePoly`."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for e, c in terms.items():
            c = rat(c)
            if c != 0:
                clean[int(e)] = c
        self.terms = clean

    def _coerce(self, other):
        if isinstance(other, LaurentPolyByAdditions):
            return other
        return LaurentPolyByAdditions({0: rat(other)})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPolyByAdditions(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolyByAdditions({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPolyByAdditions(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, LaurentPolyByAdditions):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def laurent_matmul_by_additions(a, b):
    """Product of two grids of LaurentPolyByAdditions, one new polynomial
    per accumulation step."""
    out = []
    for row in a:
        out_row = []
        for c in range(len(b[0])):
            acc = LaurentPolyByAdditions({})
            for k in range(len(b)):
                acc = acc + row[k] * b[k][c]
            out_row.append(acc)
        out.append(out_row)
    return out


class LaurentMatrixByFractions:
    """Matrix of `LaurentPoly` entries with Fraction coefficients, each
    entry of a product collected in its own term map, as `LaurentMatrix`
    computed before it stored one integer grid per exponent over one
    scale."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        ent = tuple(e if isinstance(e, LaurentPoly) else LaurentPoly.const(e) for e in entries)
        if len(ent) != rows * cols:
            raise ShapeError("entry count mismatch")
        self.rows, self.cols, self.entries = rows, cols, ent

    @staticmethod
    def from_rows(rows):
        return LaurentMatrixByFractions(len(rows), len(rows[0]) if rows else 0,
                                        [e for row in rows for e in row])

    def at(self, r, c):
        return self.entries[r * self.cols + c]

    def __matmul__(self, other):
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
        return LaurentMatrixByFractions(self.rows, m, out)

    def det(self):
        return cofactor_det([[self.at(r, c) for c in range(self.cols)]
                             for r in range(self.rows)])

    def has_limit_at_zero(self):
        return all(min(p.terms, default=0) >= 0 for p in self.entries)

    def limit_at_zero(self):
        if not self.has_limit_at_zero():
            raise PreconditionError("limit at t -> 0 does not exist")
        return RMatrix(self.rows, self.cols, [p.terms.get(0, Fraction(0)) for p in self.entries])

    def evaluate(self, t):
        t = rat(t)
        return RMatrix(self.rows, self.cols, [
            sum((c * t ** e for e, c in p.terms.items()), Fraction(0)) for p in self.entries])

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrixByFractions) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))


# -- binary forms -----------------------------------------------------------------


def _strip(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _dehomogenize(form: BinaryForm) -> list:
    """q(x, 1) as a Fraction coefficient list; drops the power of v at infinity."""
    return _strip(list(form.coefficients))


def _poly_divmod(num: list, den: list):
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


def _poly_gcd(p: list, q: list) -> list:
    """Monic gcd of univariate Fraction polynomials (Euclid)."""
    a, b = _strip(list(p)), _strip(list(q))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, _strip(r)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def binary_form_gcd_by_euclid(forms) -> BinaryForm:
    """Gcd of binary forms by a Fraction Euclid step against every form,
    also once the running gcd is linear."""
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        return BinaryForm.zero()
    inf_mult = min(f.degree - (len(_dehomogenize(f)) - 1) for f in nonzero)
    g = _dehomogenize(nonzero[0])
    for f in nonzero[1:]:
        g = _poly_gcd(g, _dehomogenize(f))
        if len(g) == 1 and inf_mult == 0:
            break
    lead = g[-1]
    coeffs = [c / lead for c in g] + [Fraction(0)] * inf_mult
    return BinaryForm(len(coeffs) - 1, tuple(coeffs))


def full_parser() -> argparse.ArgumentParser:
    """The CLI parser with the arguments of every subcommand declared,
    whichever the command line names."""
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="matsep", formatter_class=formatter,
        description="Exact decision procedures for matrix semi-invariants. "
                    "Row/column labels follow the explicit diagonal "
                    "proportionality patterns; the upper-pair correspondence "
                    "maps the row pattern onto column-proportional nullcone "
                    "tuples and vice versa.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, formatter_class=formatter)
        if isinstance(command.action, dict):
            p.add_argument("file", help="input document (JSON with exact rationals)")
        p.add_argument("--format", choices=("structured", "text"), default="structured")
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    return parser


def run_main(argv) -> dict:
    """Exit code, stdout and stderr of one CLI call; argparse's own exits
    (help, usage errors) are caught and reported like returns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
