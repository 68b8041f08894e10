"""The integer form of a tuple against the Fraction loops it replaced.

Every two-sided block, nullcone membership and the direction gcd read
one (ints, scale) pair per tuple, and the maximal minors read the
integer rows of the left matrix.  Each is compared with the Fraction
oracles in helpers.py and with the single-value det_inv, bracket and
xi, on inputs with large coprime denominators and zero matrices.
`rational.integer_form`, the one helper that clears denominators, is
checked against its (ints, scale) contract directly.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from hypothesis import given, settings, strategies as st

from matsep import (LeftMatrix, MatrixTupleLR, RMatrix, generators_lr,
                    minors_left, nullcone_member_lr, xi)
from matsep.geometry_lr import _direction_gcd
from matsep.rational import integer_form
from helpers import (bracket_block_by_fractions, det_block_by_fractions,
                     direction_gcd_by_fractions, minors_left_by_fractions,
                     nullcone_member_by_fractions)

# pairwise coprime, up to a 61-bit Mersenne prime
DENOMINATORS = (1, 2, 3, 7, 1009, 65537, 999983, 2**61 - 1)


@st.composite
def rationals(draw, digits=12):
    bound = 10**digits
    return Fraction(draw(st.integers(-bound, bound)), draw(st.sampled_from(DENOMINATORS)))


@st.composite
def tuples(draw):
    """Random entries, or a shape whose dets, pairings or direction gcd
    vanish: rank one (all dets 0), a common row factor (the nullcone) or
    upper triangular (a common direction); any matrix may be zero."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("random", "rank-one", "row-factor", "upper")))
    lam = draw(rationals(3))
    mats = []
    for _ in range(n):
        a, b, c, d = (draw(rationals()) for _ in range(4))
        if draw(st.integers(0, 4)) == 4:
            a = b = c = d = Fraction(0)
        if shape == "rank-one":     # rows a (b, d) and c (b, d)
            a, b, c, d = a * b, a * d, c * b, c * d
        elif shape == "row-factor":
            c, d = lam * a, lam * b
        elif shape == "upper":
            c = Fraction(0)
        mats.append(RMatrix(2, 2, [a, b, c, d]))
    return MatrixTupleLR(tuple(mats))


@settings(max_examples=150)
@given(tuples())
def test_blocks_nullcone_and_direction_gcd_match_fraction_oracles(A):
    gv = generators_lr(A)
    assert gv.dets == det_block_by_fractions(A)
    assert gv.brackets == bracket_block_by_fractions(A)
    assert gv.xis == tuple(xi(A, *idx) for idx in combinations(range(1, A.n + 1), 4))
    assert all(type(v) is Fraction for v in gv.dets + gv.brackets + gv.xis)
    assert nullcone_member_lr(A) == nullcone_member_by_fractions(A)
    assert _direction_gcd(A) == direction_gcd_by_fractions(A)


@settings(max_examples=200)
@given(st.lists(st.one_of(st.integers(-10**12, 10**12),
                          st.fractions(max_denominator=10**6),
                          st.just(Fraction(0)), st.just(0)), max_size=12))
def test_rational_integer_form_clears_denominators(values):
    ints, scale = integer_form(values)
    assert type(ints) is list and len(ints) == len(values)
    assert all(type(n) is int for n in ints)
    assert type(scale) is int and scale == lcm(*(v.denominator for v in values))
    assert all(Fraction(n, scale) == v for n, v in zip(ints, values))


@settings(max_examples=60)
@given(tuples())
def test_integer_form_is_scaled_entries(A):
    ints, scale = A.integer_form
    assert A.integer_form is A.integer_form
    for m, x, q in zip(A.matrices, ints, scale):
        assert q == lcm(*(e.denominator for e in m.entries))
        assert all(type(v) is int for v in x)
        assert list(x) == [e * q for e in m.entries]


@st.composite
def left_matrices(draw):
    l = draw(st.integers(2, 4))
    n = draw(st.integers(l - 1, 6))
    entries = [draw(rationals(8)) for _ in range(l * n)]
    for c in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for r in range(l):
            entries[r * n + c] = Fraction(0)
    return LeftMatrix(RMatrix(l, n, entries))


@settings(max_examples=100)
@given(left_matrices())
def test_minors_left_match_fraction_submatrix_dets(A):
    assert minors_left(A) == minors_left_by_fractions(A)
