"""Generating semi-invariants and the counting formulas attached to them.

Two actions are covered.  For n-tuples of 2x2 matrices acted on by a pair
of determinant-one groups (left and right multiplication), the generating
invariants are the determinants det(A_i), the pairings

    <A_i|A_j> = Tr(A_i)Tr(A_j) - Tr(A_i A_j),   i < j,

and the quadrilinear invariants xi(A_i,A_j,A_k,A_l) defined as the
coefficient of e_i e_j e_k e_l in the determinant of the doubled block
matrix [[e_i A_i, e_j A_j], [e_k A_k, e_l A_l]].  With A, B, C, D for
A_i, A_j, A_k, A_l, X_r for row r of X and w(u, v) = u_0 v_1 - u_1 v_0,

    xi = - w(A_0,C_0) w(B_1,D_1) + w(A_0,C_1) w(B_1,D_0)
         + w(A_1,C_0) w(B_0,D_1) - w(A_1,C_1) w(B_0,D_0).

Every block reads one integer form of the tuple, computed once from the
matrices' integer rows and kept on it: matrix i is ints[i] / q_i, with
q_i the lcm of its row scales.  Each value is one integer numerator over
a product of the q's, and a Fraction is built only for a value that is
reported: det(A_i) is x0 x3 - x1 x2 over q_i^2, the pairing is the
polarized determinant x0 y3 + x3 y0 - x1 y2 - x2 y1 over q_i q_j
(X = ints[i], Y = ints[j]), and since the wedge block [w(A_r, C_s)]
depends on the pair (i, k) only, all xi are read off one table of C(n,2)
integer wedge blocks, over q_i q_j q_k q_l.  For l x n matrices under
left determinant-one multiplication the generators are the maximal
minors, each an integer minor of the matrix's integer rows over the
product of the row scales, all read off one fraction-free Gauss-Jordan
pass by Sylvester's identity (`minors_left`).

Generator vectors are reported in a frozen canonical order (determinants,
then pairings in lexicographic index order, then quadrilinear terms in
lexicographic order) so separation witnesses are reproducible.  Blocks
are computed on demand, so a separation decision stops at the first
block that differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm
from operator import mul
from typing import Sequence, Tuple

from .errors import PreconditionError, ShapeError
from .matrix import RMatrix, _bareiss, integer_det


@dataclass(frozen=True)
class MatrixTupleLR:
    """An n-tuple of 2x2 rational matrices."""

    matrices: Tuple[RMatrix, ...]

    def __post_init__(self):
        if not self.matrices:
            raise ShapeError("tuple must contain at least one matrix")
        for m in self.matrices:
            if m.shape() != (2, 2):
                raise ShapeError("every component must be 2x2")

    @property
    def n(self) -> int:
        return len(self.matrices)

    @staticmethod
    def from_entries(entries: Sequence[Sequence]) -> "MatrixTupleLR":
        """Build from per-matrix entry quadruples (a, b, c, d)."""
        return MatrixTupleLR(tuple(RMatrix(2, 2, e) for e in entries))

    def entry_vector(self, r: int, c: int) -> Tuple[Fraction, ...]:
        """The length-n vector of (r, c) entries across the tuple."""
        return tuple(m.at(r, c) for m in self.matrices)

    def is_upper(self) -> bool:
        return not any(m._nums[1][0] for m in self.matrices)

    @cached_property
    def integer_form(self) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
        """(ints, scale), computed once per tuple from the matrices' integer
        rows: scale[i] is the lcm q_i of matrix i's two row scales (the lcm
        of its denominators when its rows are in lowest terms, as parsed
        and Fraction-built rows are) and ints[i] its row-major entries
        times q_i."""
        ints, scale = [], []
        for m in self.matrices:
            (x0, x1), (x2, x3) = m._nums
            s0, s1 = m._scales
            if s0 != s1:
                q = lcm(s0, s1)
                x0, x1, x2, x3 = x0 * (q // s0), x1 * (q // s0), x2 * (q // s1), x3 * (q // s1)
                s0 = q
            ints.append((x0, x1, x2, x3))
            scale.append(s0)
        return tuple(ints), tuple(scale)


@dataclass(frozen=True)
class LeftMatrix:
    """An l x n rational matrix, l >= 2, for the left action."""

    matrix: RMatrix

    def __post_init__(self):
        if self.matrix.rows < 2:
            raise ShapeError("left action needs at least two rows")

    @property
    def l(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LeftMatrix":
        return LeftMatrix(RMatrix.from_rows(rows))


@dataclass(frozen=True)
class GeneratorVector:
    """All generating invariants of a tuple, in canonical order."""

    n: int
    dets: Tuple[Fraction, ...]
    brackets: Tuple[Fraction, ...]
    xis: Tuple[Fraction, ...]

    def __post_init__(self):
        n = self.n
        if (len(self.dets), len(self.brackets), len(self.xis)) != \
                (n, comb(n, 2), comb(n, 4)):
            raise ShapeError("generator block lengths do not match n")

    def __len__(self) -> int:
        return len(self.dets) + len(self.brackets) + len(self.xis)

    def labeled(self):
        """Yield ((kind, 1-based index tuple), value) in canonical order."""
        for i, v in enumerate(self.dets, start=1):
            yield ("det", (i,)), v
        for (i, j), v in zip(combinations(range(1, self.n + 1), 2), self.brackets):
            yield ("bracket", (i, j)), v
        for idx, v in zip(combinations(range(1, self.n + 1), 4), self.xis):
            yield ("xi", idx), v


def det_inv(A: MatrixTupleLR, i: int) -> Fraction:
    """det(A_i), 1-based index."""
    if not 1 <= i <= A.n:
        raise PreconditionError(f"index {i} out of range 1..{A.n}")
    return A.matrices[i - 1].det()


def bracket(A: MatrixTupleLR, i: int, j: int) -> Fraction:
    """Tr(A_i)Tr(A_j) - Tr(A_i A_j) for 1 <= i < j <= n."""
    if not (1 <= i < j <= A.n):
        raise PreconditionError(f"need 1 <= i < j <= {A.n}, got ({i}, {j})")
    X, Y = A.matrices[i - 1], A.matrices[j - 1]
    tr_x = X.at(0, 0) + X.at(1, 1)
    tr_y = Y.at(0, 0) + Y.at(1, 1)
    tr_xy = (X.at(0, 0) * Y.at(0, 0) + X.at(0, 1) * Y.at(1, 0)
             + X.at(1, 0) * Y.at(0, 1) + X.at(1, 1) * Y.at(1, 1))
    return tr_x * tr_y - tr_xy


def _wedges(X: Sequence, Y: Sequence) -> Tuple:
    """(w(X_0,Y_0), w(X_0,Y_1), w(X_1,Y_0), w(X_1,Y_1)), row-major X and Y."""
    x0, x1, x2, x3 = X
    y0, y1, y2, y3 = Y
    return (x0 * y1 - x1 * y0, x0 * y3 - x1 * y2,
            x2 * y1 - x3 * y0, x2 * y3 - x3 * y2)


def _xi_from_wedges(ac: Tuple, bd: Tuple):
    return -ac[0] * bd[3] + ac[1] * bd[2] + ac[2] * bd[1] - ac[3] * bd[0]


def xi(A: MatrixTupleLR, i: int, j: int, k: int, l: int) -> Fraction:
    """Multilinear coefficient of the doubled 2x2 block determinant."""
    if not (1 <= i < j < k < l <= A.n):
        raise PreconditionError("indices must satisfy 1 <= i < j < k < l <= n")
    m = A.matrices
    return _xi_from_wedges(_wedges(m[i - 1].entries, m[k - 1].entries),
                           _wedges(m[j - 1].entries, m[l - 1].entries))


def _det_block(A: MatrixTupleLR) -> tuple:
    """(numerators, denominators) of all det(A_i): x0 x3 - x1 x2 over q_i^2."""
    ints, scale = A.integer_form
    return ([x0 * x3 - x1 * x2 for x0, x1, x2, x3 in ints], [q * q for q in scale])


def _bracket_block(A: MatrixTupleLR) -> tuple:
    """(numerators, denominators) of all pairings in canonical order:
    Tr(X)Tr(Y) - Tr(XY) is the polarized determinant
    x0 y3 + x3 y0 - x1 y2 - x2 y1, over q_i q_j."""
    ints, scale = A.integer_form
    return ([x0 * y3 + x3 * y0 - x1 * y2 - x2 * y1
             for (x0, x1, x2, x3), (y0, y1, y2, y3) in combinations(ints, 2)],
            [p * q for p, q in combinations(scale, 2)])


def _xi_block(A: MatrixTupleLR) -> tuple:
    """(numerators, denominators) of all xi in canonical order, each over
    q_i q_j q_k q_l."""
    ints, scale = A.integer_form
    table = {(a, c): _wedges(ints[a], ints[c]) for a, c in combinations(range(A.n), 2)}
    return ([_xi_from_wedges(table[a, c], table[b, d])
             for a, b, c, d in combinations(range(A.n), 4)],
            [p * q * r * s for p, q, r, s in combinations(scale, 4)])


def generator_blocks(A: MatrixTupleLR):
    """Yield (kind, arity, numerators, denominators) for the det, pairing
    and xi blocks in canonical order, each computed only when it is asked
    for; value i of a block is numerators[i] / denominators[i], the
    denominators positive."""
    yield "det", 1, *_det_block(A)
    yield "bracket", 2, *_bracket_block(A)
    yield "xi", 4, *_xi_block(A)


def generators_lr(A: MatrixTupleLR) -> GeneratorVector:
    """All generating invariants in the frozen canonical order."""
    return GeneratorVector(A.n, *(tuple(map(Fraction, nums, dens))
                                  for _, _, nums, dens in generator_blocks(A)))


def _full_rank_form(rows: list, n: int):
    """One fraction-free Gauss-Jordan pass over the integer rows of an
    l x n matrix, l < n: (pivot columns P, g, d), with d = det(A_P) and
    g = d times the reduced row echelon form, or None when the rank is
    below l.  g is the integer matrix adj(A_P) A; a pivot row ends as its
    pivot entry times its reduced row, whatever step it was last brought
    to, so it is rescaled by its own pivot entry, not by a step's."""
    red, pivots, _ = _bareiss(rows, n, upward=True)
    if len(pivots) < len(rows):
        return None
    d = red[-1][pivots[-1]]
    return pivots, [[e * d // row[c] for e in row] for row, c in zip(red, pivots)], d


def _minor_numerators(form, n: int):
    """Yield det(A_S) for every l-column set S in lexicographic order, from
    the `_full_rank_form` (P, g, d) of the integer rows A, each computed
    when the iteration reaches it, by Sylvester's identity (see
    `minors_left`).  `block(I, J)` is det(g[I, J]) / d^(k-1), k = |J| (d
    for k = 0), by Laplace expansion along the first row of I; blocks of
    size three or more are kept, so each is expanded once.  The sets
    sharing their first l - 1 columns Q come in one run, and expanding
    along the last column c, the run's blocks share their cofactors, the
    blocks of the sets Q + p_i: with c free, a minor is one dot product of
    column c of g with them, over d; with c = p_i, it is one of them.
    Every block has size at most min(l, n - l)."""
    pivots, g, d = form
    l = len(pivots)
    row_of = [None] * n
    for i, c in enumerate(pivots):
        row_of[c] = i
    columns = list(zip(*g))
    memo = {}

    def block(I, J):
        k = len(J)
        if k < 3:
            if k == 2:
                (i, r), (a, b) = I, J
                return (g[i][a] * g[r][b] - g[i][b] * g[r][a]) // d
            return g[I[0]][J[0]] if k else d
        key = I + J
        value = memo.get(key)
        if value is None:
            top, rest, acc = g[I[0]], I[1:], 0
            for t, c in enumerate(J):
                if top[c]:
                    term = top[c] * block(rest, J[:t] + J[t + 1:])
                    acc = acc - term if t & 1 else acc + term
            value = memo[key] = acc // d
        return value

    for Q in combinations(range(n - 1), l - 1):
        at = [t for t, c in enumerate(Q) if row_of[c] is None]
        J = tuple(Q[t] for t in at)
        I = tuple(i for i, c in enumerate(pivots) if c not in Q)
        base = sum(I) + sum(at)
        cof, u = [0] * l, [0] * l
        for t, i in enumerate(I):
            cof[i] = block(I[:t] + I[t + 1:], J)
            u[i] = -cof[i] if (t + len(J)) & 1 else cof[i]
        free_odd = (base + l - 1) & 1
        for c in range(Q[-1] + 1, n):
            i = row_of[c]
            if i is None:
                value = sum(map(mul, u, columns[c])) // d
                yield -value if free_odd else value
            else:
                yield -cof[i] if (base - i) & 1 else cof[i]


def minors_left(A: LeftMatrix) -> Tuple[Fraction, ...]:
    """All maximal minors, column subsets in lexicographic order, each an
    integer minor of the matrix's integer rows A over the product of the
    row scales.  Empty when n < l: the invariant ring is trivial there.

    n = l is the one determinant.  For n > l one fraction-free
    Gauss-Jordan pass gives the pivot columns P, d = det(A_P) and
    g = adj(A_P) A, which is d times the reduced row echelon form; every
    minor is 0 below rank l.  Sylvester's identity then gives each minor:
    with I the rows of g whose pivot column is not in S and J = S minus
    P, both increasing, and k = |J| = |I|,

        det(A_S) = (-1)^(sum of I + sum of the positions of J in S)
                   * det(g[I, J]) / d^(k-1),

    since det(A_S) = d det(A_P^-1 A_S), where the pivot columns in S are
    unit columns, and the sign is that of the Laplace expansion along
    them.  The division is exact because the quotient is det(A_S), an
    integer minor of A.  `_minor_numerators` divides by d once per
    expansion step, and each step's quotient is a smaller block over its
    own power of d, which is again plus or minus an integer minor of A.
    """
    l, n = A.l, A.n
    if n < l:
        return ()
    rows, scale = A.matrix._integer_rows()
    if n == l:
        return (Fraction(integer_det(rows), scale),)
    form = _full_rank_form(rows, n)
    if form is None:
        return (Fraction(0),) * comb(n, l)
    return tuple(Fraction(x, scale) for x in _minor_numerators(form, n))


def minor_column_sets(l: int, n: int) -> Tuple[Tuple[int, ...], ...]:
    """1-based column index sets matching the order of minors_left."""
    if n < l:
        return ()
    return tuple(tuple(c + 1 for c in cols) for cols in combinations(range(n), l))


def generator_count_lr(n: int) -> int:
    """Size of the generating set: (n^4 - 6n^3 + 23n^2 + 6n) / 24."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    num = n**4 - 6 * n**3 + 23 * n**2 + 6 * n
    assert num % 24 == 0
    count = num // 24
    assert count == n + comb(n, 2) + comb(n, 4)
    return count


def invariant_dim_lr(n: int) -> int:
    """Krull dimension of the invariant ring of the two-sided action."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if n == 1:
        return 1
    if n == 2:
        return 3
    return 4 * n - 6


def invariant_dim_left(l: int, n: int) -> int:
    """Krull dimension l*n - l^2 + 1 of the left action, 0 for n < l."""
    if l < 2:
        raise PreconditionError("l must be at least 2")
    if n < l:
        return 0
    return l * n - l * l + 1


def lower_bound_lr(n: int) -> int:
    """Minimum size of any separating set for the two-sided action.

    The closed form 5n - 9 dips below the Krull dimension for small n,
    and the dimension is always a valid lower bound, so take the max.
    """
    return max(invariant_dim_lr(n), 5 * n - 9)


def lower_bound_left(l: int, n: int) -> int:
    """Minimum separating-set size for the left action, n >= l >= 2."""
    if l < 2:
        raise PreconditionError("l must be at least 2")
    if n < l:
        raise PreconditionError("need n >= l")
    return max(invariant_dim_left(l, n), (2 * l - 2) * n - 2 * (l * l - l))
