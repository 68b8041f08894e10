"""Geometry of the two-sided action on tuples of 2x2 matrices.

Covers the stability test (simultaneous triangularizability), nullcone
membership by degree-two invariants, the correspondence between
non-separated upper-triangular pairs and nullcone points with two free
vectors, membership in the two nullcone components (row-proportional and
column-proportional), the diagonal-proportionality patterns cut out by
that correspondence, and the stacked-row rank criteria for membership in
the closure of the action graph.

Labeling convention: ``in_cr``/``in_cc`` test the explicit patterns

    row pattern:     d = lam * d'  and  a' = lam * a,
    column pattern:  d = lam * a'  and  d' = lam * a,

both taken up to projective proportionality so the sets are closed.  The
correspondence map sends row-pattern pairs onto column-proportional
nullcone tuples and column-pattern pairs onto row-proportional ones; the
identity tests in the certification module pin this down.

Classification runs in integers.  An upper pair's rows (a, b, d) are
its integer form's entries; a non-upper pair's upper representatives
have theirs read off the tuple's integer form through an integer
direction and the integer rows of its triangularizer, so no
representative is built as matrices.  The pattern tests join vectors of
both sides, so both sides are put over one scale per column before any
proportionality is tested; the stacked ranks of `classify` and `graph`
and the repacked tuple of `phi` read the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import FrozenSet, List, Optional, Tuple

from .binform import BinaryForm, gcd_of_integer_forms, rational_projective_roots
from .errors import PreconditionError, ShapeError
from .invariants import MatrixTupleLR, generator_blocks
from .matrix import RMatrix, _bareiss, adjugate, stack_rows
from .rational import integer_form
from .separation import GroupElementLR, separated_lr

ProjectivePoint = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class UpperPair:
    """A pair of upper-triangular tuples of the same length."""

    first: MatrixTupleLR
    second: MatrixTupleLR

    def __post_init__(self):
        if self.first.n != self.second.n:
            raise ShapeError("pair components must have the same length")
        if not (self.first.is_upper() and self.second.is_upper()):
            raise ShapeError("both components must be upper-triangular")

    @property
    def n(self) -> int:
        return self.first.n

    def rows(self) -> tuple:
        """The entry vectors (a, b, d, a', b', d') across the pair, named
        after the generic pair, in the row order of _upper_pair_rows."""
        return tuple(t.entry_vector(r, c) for t in (self.first, self.second)
                     for r, c in ((0, 0), (0, 1), (1, 1)))


@dataclass(frozen=True)
class PhiImage:
    """A nullcone candidate plus the two free upper-right vectors."""

    B: MatrixTupleLR
    b: Tuple[Fraction, ...]
    b2: Tuple[Fraction, ...]

    def __post_init__(self):
        if not (self.B.n == len(self.b) == len(self.b2)):
            raise ShapeError("vector lengths must match the tuple length")


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    triangularizer: Optional[GroupElementLR] = None
    common_direction: Optional[ProjectivePoint] = None


def direction_forms(A: MatrixTupleLR) -> List[BinaryForm]:
    """Quadratic forms q_ij(v) = det[A_i v | A_j v], one per index pair.

    A common projective root of all q_ij is exactly a direction v whose
    images A_1 v, ..., A_n v span at most a line.
    """
    return [BinaryForm(2, c) for c in _pair_forms(m.entries for m in A.matrices)]


def _pair_forms(quads) -> list:
    """Coefficients (v^2, uv, u^2) of the direction forms of matrices given
    by row-major entry quadruples."""
    forms = []
    for (a_i, b_i, c_i, d_i), (a_j, b_j, c_j, d_j) in combinations(quads, 2):
        # det[(a_i v1 + b_i v2, c_i v1 + d_i v2) | (same for j)]
        c_uu = a_i * c_j - a_j * c_i
        c_uv = a_i * d_j + b_i * c_j - a_j * d_i - b_j * c_i
        c_vv = b_i * d_j - b_j * d_i
        forms.append((c_vv, c_uv, c_uu))
    return forms


def _direction_gcd(A: MatrixTupleLR) -> BinaryForm:
    """The monic gcd of the direction forms, taken over the integer form:
    each form is scaled by q_i q_j, which leaves the monic gcd unchanged,
    and its integer coefficients go to the gcd as they are."""
    return gcd_of_integer_forms(_pair_forms(A.integer_form[0]))


def common_directions(A: MatrixTupleLR) -> Optional[List[ProjectivePoint]]:
    """Rational directions v with dim span{A_i v} <= 1.

    Returns None when every direction works (a single matrix, or all the
    pairwise forms vanish identically); otherwise the list may be empty
    (either stable or only irrational common roots) or carry the rational
    common roots.
    """
    return rational_projective_roots(_direction_gcd(A))


def _triangularizer(ints, v1, v2) -> tuple:
    """(images, r0, r1, f, h, e): the triangularizer for the direction
    (v1, v2) of the matrices given by row-major quadruples `ints`.  The
    images are A_i v; the left factor's rows are r0 and r1 / f, the second
    annihilating the first nonzero image (p0, p1), the identity when every
    image is zero; the right factor's inverse has first column v and
    second column h / e, (0, 1/v1) or (-1/v2, 0)."""
    images = [(x0 * v1 + x1 * v2, x2 * v1 + x3 * v2) for x0, x1, x2, x3 in ints]
    p0, p1 = next((im for im in images if im != (0, 0)), (1, 0))
    r0, r1, f = ((1, 0), (-p1, p0), p0) if p0 else ((0, -1), (1, 0), 1)
    h, e = ((0, 1), v1) if v1 else ((-1, 0), v2)
    return images, r0, r1, f, h, e


def triangularizer_for_direction(A: MatrixTupleLR, v: ProjectivePoint) -> GroupElementLR:
    """Determinant-one pair sending A into upper-triangular form.

    The direction v becomes the first column of the inverse right factor;
    a covector annihilating the common image line becomes the second row
    of the left factor.  Both are read off the integer form, whose
    matrix i is A_i times q_i > 0, which leaves every image's line as it is.
    """
    v1, v2 = Fraction(v[0]), Fraction(v[1])
    if v1 == 0 and v2 == 0:
        raise PreconditionError("direction must be nonzero")
    _, r0, (r10, r11), f, (h0, h1), e = _triangularizer(A.integer_form[0], v1, v2)
    g1 = RMatrix(2, 2, [*r0, Fraction(r10, f), Fraction(r11, f)])
    h = [[v1, Fraction(h0, e)], [v2, Fraction(h1, e)]]
    return GroupElementLR(g1, RMatrix.from_rows(adjugate(h)))


def is_stable_lr(A: MatrixTupleLR) -> StabilityReport:
    """Stability test for the two-sided action.

    A tuple is non-stable exactly when some nonzero direction v has all
    images A_i v inside a single line, i.e. when the pairwise quadratic
    forms share a projective root.  With a rational common root the
    report carries an explicit triangularizer; with only irrational
    roots it reports non-stable without a witness.
    """
    gcd = _direction_gcd(A)
    roots = rational_projective_roots(gcd)
    if roots == []:
        return StabilityReport(gcd.degree == 0)
    v = (Fraction(1), Fraction(0)) if roots is None else roots[0]
    return StabilityReport(False, triangularizer_for_direction(A, v), v)


def nullcone_member_lr(A: MatrixTupleLR) -> bool:
    """True iff all invariants vanish; degree at most two suffices."""
    return not any(v for _, _, nums, _ in islice(generator_blocks(A), 2) for v in nums)


def phi(p: UpperPair) -> PhiImage:
    """Repack an upper pair's diagonals into a single tuple, built from
    the pair's integer rows.

    The pair is non-separated exactly when the repacked tuple lies in
    the nullcone; the upper-right vectors are carried along unchanged.
    """
    (a, b, d, a2, b2, d2), scales = _upper_pair_rows(p)
    B = MatrixTupleLR(tuple(RMatrix.from_integer_rows([[-x, x2], [-y2, y]], 2, [s, s])
                            for x, y, x2, y2, s in zip(a, d, a2, d2, scales)))
    return PhiImage(B, tuple(map(Fraction, b, scales)), tuple(map(Fraction, b2, scales)))


def phi_inverse(img: PhiImage) -> UpperPair:
    """Unique upper pair with the given diagonal data and b-vectors."""
    first = []
    second = []
    for m, b, b2 in zip(img.B.matrices, img.b, img.b2):
        neg_a, a2, neg_d2, d = m.entries
        first.append(RMatrix(2, 2, [-neg_a, b, Fraction(0), d]))
        second.append(RMatrix(2, 2, [a2, b2, Fraction(0), -neg_d2]))
    return UpperPair(MatrixTupleLR(tuple(first)), MatrixTupleLR(tuple(second)))


def _proportional(xs, ys) -> bool:
    """Whether two equal-length rows (ints or Fractions) span at most a
    line: every column (x, y) is parallel to the first nonzero one."""
    pivot = next(((x, y) for x, y in zip(xs, ys) if x or y), None)
    if pivot is None:
        return True
    px, py = pivot
    return all(x * py == y * px for x, y in zip(xs, ys))


def in_dr(B: MatrixTupleLR) -> bool:
    """Row-proportional nullcone component.

    The 2 x 2n array stacking (a-entries, b-entries) over (c-entries,
    d-entries) has rank at most one: all matrices share a common column
    factor, equivalently a common left null covector.
    """
    top = B.entry_vector(0, 0) + B.entry_vector(0, 1)
    bottom = B.entry_vector(1, 0) + B.entry_vector(1, 1)
    return _proportional(top, bottom) and nullcone_member_lr(B)


def in_dc(B: MatrixTupleLR) -> bool:
    """Column-proportional nullcone component (common right null vector)."""
    left = B.entry_vector(0, 0) + B.entry_vector(1, 0)
    right = B.entry_vector(0, 1) + B.entry_vector(1, 1)
    return _proportional(left, right) and nullcone_member_lr(B)


GAMMA = "GAMMA"
CR = "CR"
CC = "CC"


def _patterns(a, _b, d, a2, _b2, d2) -> set:
    """The pattern flags of an upper pair's rows (a, b, d, a', b', d'),
    given as Fractions or as integers over one scale per column shared by
    both sides: CR when (d', a) and (d, a') are proportional, CC when
    (a', a) and (d, d') are."""
    return {flag for flag, (xs, ys) in ((CR, (d2 + a, d + a2)), (CC, (a2 + a, d + d2)))
            if _proportional(xs, ys)}


def _upper_pair_rows(p: UpperPair) -> tuple:
    """(rows, scales): the rows (a, b, d, a', b', d') of an upper pair
    over one scale per column, read off the two integer forms (see
    _joint_rows); column i is over scales[i] = q_i q'_i."""
    sides = []
    for A in (p.first, p.second):
        ints, scale = A.integer_form
        sides.append(([x[0] for x in ints], [x[1] for x in ints], [x[3] for x in ints], scale))
    return _joint_rows(*sides), [q * r for q, r in zip(sides[0][3], sides[1][3])]


def in_cr(p: UpperPair) -> bool:
    """Row pattern: (d, a') proportional to (d', a), and non-separated."""
    return not separated_lr(p.first, p.second).separated and CR in _patterns(*p.rows())


def in_cc(p: UpperPair) -> bool:
    """Column pattern: (d, d') proportional to (a', a), and non-separated."""
    return not separated_lr(p.first, p.second).separated and CC in _patterns(*p.rows())


def m_matrix(p: UpperPair) -> RMatrix:
    """6 x n stack of the rows a, b, d, a', b', d'."""
    return stack_rows(list(p.rows()))


def m_r(p: UpperPair) -> RMatrix:
    """4 x n stack (a, b, b', d') attached to row-pattern pairs."""
    a, b, _, _, b2, d2 = p.rows()
    return stack_rows([a, b, b2, d2])


def m_c(p: UpperPair) -> RMatrix:
    """4 x n stack (a, b, b', a') attached to column-pattern pairs."""
    a, b, _, a2, b2, _ = p.rows()
    return stack_rows([a, b, b2, a2])


def _require_non_separated(A: MatrixTupleLR, A2: MatrixTupleLR):
    if separated_lr(A, A2).separated:
        raise PreconditionError("not in separating variety: the pair is separated")


def graph_rank_upper(p: UpperPair) -> int:
    """Rank of the six stacked rows of a non-separated upper pair, taken
    on their integer rows (a positive scale per column keeps the rank)."""
    _require_non_separated(p.first, p.second)
    return len(_bareiss(_upper_pair_rows(p)[0], p.n)[1])


def graph_member_upper(p: UpperPair) -> bool:
    """Graph-closure membership for a non-separated upper pair.

    Holds exactly when the six stacked rows span at most three
    dimensions.
    """
    return graph_rank_upper(p) <= 3


def classify_pair(p: UpperPair) -> FrozenSet[str]:
    """Component membership flags for a non-separated upper pair.

    GAMMA marks graph-closure membership (stacked rank at most three);
    CR and CC mark the row and column patterns.  Every non-separated
    upper pair carries at least one flag, since the nullcone splits into
    its row- and column-proportional components.
    """
    _require_non_separated(p.first, p.second)
    rows = _upper_pair_rows(p)[0]
    flags = _patterns(*rows)
    if len(_bareiss(rows, p.n)[1]) <= 3:
        flags.add(GAMMA)
    return frozenset(flags)


_FALLBACK_DIRECTIONS = ((Fraction(1), Fraction(0)),
                        (Fraction(0), Fraction(1)),
                        (Fraction(1), Fraction(1)))


def _upper_rows(A: MatrixTupleLR, v: ProjectivePoint) -> tuple:
    """Rows (a, b, d, scale) of the upper representative
    act_lr(triangularizer_for_direction(A, v), A), read off A's integer
    form with v scaled to integers (which moves the representative by a
    diagonal determinant-one factor and changes no flag).  Entry i of a,
    b and d is an integer over scale[i] = q_i e f, where e is the
    denominator of the right factor's second column and f of the left
    factor's second row.
    """
    ints, scale = A.integer_form
    images, (r00, r01), (r10, r11), f, (h0, h1), e = _triangularizer(
        ints, *integer_form(v)[0])
    a, b, d = [], [], []
    for (x0, x1, x2, x3), (y0, y1) in zip(ints, images):
        z0, z1 = x0 * h0 + x1 * h1, x2 * h0 + x3 * h1
        a.append((r00 * y0 + r01 * y1) * e * f)
        b.append((r00 * z0 + r01 * z1) * f)
        d.append(r10 * z0 + r11 * z1)
    return a, b, d, [q * e * f for q in scale]


def _joint_rows(first: tuple, second: tuple) -> list:
    """Rows (a, b, d, a', b', d') of two representatives over one scale per
    column: each side's rows times the other side's column scales.  The
    pattern tests join vectors of both sides, so a scale per side would
    change their answer."""
    *rows1, scale1 = first
    *rows2, scale2 = second
    return ([[x * s for x, s in zip(row, scale2)] for row in rows1]
            + [[x * s for x, s in zip(row, scale1)] for row in rows2])


def classify_pair_any(A: MatrixTupleLR, A2: MatrixTupleLR) -> FrozenSet[str]:
    """Component flags for an arbitrary non-separated pair.

    Stable non-separated pairs share a closed orbit, so they sit on the
    graph itself.  Non-stable pairs are reduced to upper-triangular
    representatives, one per rational common direction on each side, and
    the pattern flags are unioned over representatives (pattern
    membership only depends on the direction choice up to the triangular
    stabiliser).  GAMMA is exact for any representative, so it is decided
    once, on the first; when a side admits every direction, the
    enumeration falls back to three canonical directions and CR/CC are a
    sound but possibly incomplete under-approximation.  Sides with only
    irrational directions are rejected.  Separation is checked once, for
    the input pair: the representatives are translates of it, and the
    action preserves every invariant exactly.  The representatives are
    never built as matrices: their rows are read off the integer forms
    (_upper_rows) and tested as integers, the stacked rank by the Bareiss
    kernel and the patterns by cross-multiplication.
    """
    _require_non_separated(A, A2)

    gcds = _direction_gcd(A), _direction_gcd(A2)
    stable_a, stable_b = (not g.is_zero and g.degree == 0 for g in gcds)
    if stable_a or stable_b:
        if not (stable_a and stable_b):
            raise PreconditionError("non-separated pair with mixed stability")
        return frozenset({GAMMA})

    dirs_a, dirs_b = map(rational_projective_roots, gcds)
    if dirs_a == []:
        raise PreconditionError("first tuple has no rational triangularizing direction")
    if dirs_b == []:
        raise PreconditionError("second tuple has no rational triangularizing direction")
    cand_a = _FALLBACK_DIRECTIONS if dirs_a is None else tuple(dirs_a)
    cand_b = _FALLBACK_DIRECTIONS if dirs_b is None else tuple(dirs_b)

    reps_b = [_upper_rows(A2, v) for v in cand_b]
    joint = [_joint_rows(_upper_rows(A, v), ub) for v in cand_a for ub in reps_b]
    flags = {GAMMA} if len(_bareiss(joint[0], A.n)[1]) <= 3 else set()
    for rows in joint:
        flags |= _patterns(*rows)
    return frozenset(flags)
