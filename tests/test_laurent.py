"""Laurent and sparse polynomial arithmetic on the shared term-map core,
and Laurent matrices on integer grids, against two oracles in helpers.py:
one re-validated polynomial per addition, and Fraction term maps per
matrix entry.

Coefficients come from a small set so that sums and products cancel
often, plus Fractions with denominators up to 10^6; exponents run
negative; zero polynomials, zero matrices and 1 x k and k x 1 matrices
are drawn on purpose.  Every coefficient a polynomial stores must be a
nonzero Fraction (an int would reach limit_at_zero and the JSON report),
and every matrix must store ints in normal form over a positive scale.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from matsep import LaurentMatrix, LaurentPoly, PreconditionError, RMatrix, SparsePoly
from matsep.matrix import cofactor_det
from helpers import (LaurentMatrixByFractions, LaurentPolyByAdditions,
                     laurent_matmul_by_additions)

COEFFS = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
          Fraction(1, 3), Fraction(1), Fraction(2))
WIDE = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))

term_maps = st.one_of(
    st.just({}),
    st.dictionaries(st.integers(-3, 3), st.sampled_from(COEFFS), max_size=4),
    st.dictionaries(st.integers(-3, 3), st.sampled_from(COEFFS) | WIDE, max_size=3))
dims = st.sampled_from((1, 1, 2, 3))


def assert_clean(p):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values()), p.terms


def assert_normal(m):
    """Positive int scale, int entries, no zero grid, no common factor."""
    assert type(m.scale) is int and m.scale > 0
    entries = []
    for e, g in m.grids.items():
        assert type(e) is int and type(g) is tuple and len(g) == m.rows * m.cols
        assert all(type(x) is int for x in g) and any(g)
        entries.extend(g)
    assert gcd(m.scale, *entries) == 1


def grid(draw, rows, cols):
    if draw(st.integers(0, 9)) == 0:
        return [[{} for _ in range(cols)] for _ in range(rows)]
    return [[draw(term_maps) for _ in range(cols)] for _ in range(rows)]


def laurent(rows):
    return LaurentMatrix.from_rows([[LaurentPoly(t) for t in row] for row in rows])


def by_fractions(rows):
    return LaurentMatrixByFractions.from_rows([[LaurentPoly(t) for t in row] for row in rows])


def oracle(rows):
    return [[LaurentPolyByAdditions(t) for t in row] for row in rows]


def assert_matches(m, want):
    """m holds the entries of the LaurentMatrixByFractions want."""
    assert_normal(m)
    assert (m.rows, m.cols) == (want.rows, want.cols)
    for r in range(m.rows):
        for c in range(m.cols):
            got = m.at(r, c)
            assert_clean(got)
            assert got.terms == want.at(r, c).terms
    assert m.entries == want.entries
    assert m == LaurentMatrix(want.rows, want.cols, want.entries)


@settings(max_examples=200)
@given(term_maps, term_maps, st.sampled_from((0, 1, -1, 2, Fraction(1, 2))))
def test_polynomial_ring_operations_match_oracle(a, b, scalar):
    p, q = LaurentPoly(a), LaurentPoly(b)
    op, oq = LaurentPolyByAdditions(a), LaurentPolyByAdditions(b)
    for got, want in ((p + q, op + oq), (p - q, op - oq), (p * q, op * oq), (-p, -op),
                      (p + scalar, op + scalar), (scalar - p, scalar - op),
                      (scalar * q, scalar * oq), (p * p - q * q, op * op - oq * oq)):
        assert_clean(got)
        assert got.terms == want.terms
        assert hash(got) == hash(want)
    assert (p == q) == (op == oq)
    assert (p == scalar) == (op == scalar)
    assert (p - p).is_zero() and (p - p) == 0
    vars_t = ("t",)
    sp = SparsePoly(vars_t, {(e,): c for e, c in a.items()})
    sq = SparsePoly(vars_t, {(e,): c for e, c in b.items()})
    for got, want in ((sp + sq, op + oq), (sp - sq, op - oq), (sp * sq, op * oq)):
        assert_clean(got)
        assert {e: c for (e,), c in got.terms.items()} == want.terms


@settings(max_examples=150)
@given(st.data(), dims, dims, dims)
def test_matrix_product_matches_oracle(data, rows, inner, cols):
    a = grid(data.draw, rows, inner)
    b = grid(data.draw, inner, cols)
    product = laurent(a) @ laurent(b)
    want = by_fractions(a) @ by_fractions(b)
    assert_matches(product, want)
    additions = laurent_matmul_by_additions(oracle(a), oracle(b))
    assert [[p.terms for p in row] for row in additions] == \
        [[want.at(r, c).terms for c in range(cols)] for r in range(rows)]
    assert product == LaurentMatrix.from_rows([[LaurentPoly(w.terms) for w in row]
                                               for row in additions])


@settings(max_examples=100)
@given(st.data(), st.sampled_from((1, 2, 3)))
def test_det_matches_oracle(data, n):
    rows = grid(data.draw, n, n)
    m = laurent(rows)
    got = m.det()
    want = cofactor_det(oracle(rows))
    assert_clean(got)
    assert got.terms == want.terms == by_fractions(rows).det().terms
    assert (got == LaurentPoly.const(1)) == (want == 1)
    assert all(type(c) is int for c in m.integer_det().values())
    assert {e: Fraction(c, m.scale ** n) for e, c in m.integer_det().items()} == got.terms


@settings(max_examples=150)
@given(st.data(), dims, dims)
def test_limits_equality_and_hash_match_oracle(data, rows, cols):
    a = grid(data.draw, rows, cols)
    b = a if data.draw(st.booleans()) else grid(data.draw, rows, cols)
    m, m2 = laurent(a), laurent(b)
    want, want2 = by_fractions(a), by_fractions(b)
    assert_matches(m, want)
    assert (m == m2) == (want == want2)
    if m == m2:
        assert hash(m) == hash(m2)
    assert m.has_limit_at_zero() == want.has_limit_at_zero()
    if want.has_limit_at_zero():
        assert m.limit_at_zero() == want.limit_at_zero()
    else:
        with pytest.raises(PreconditionError):
            m.limit_at_zero()
    for t in (1, -2, Fraction(1, 3), Fraction(-7, 10**6)):
        assert m.evaluate(t) == want.evaluate(t)


@settings(max_examples=100)
@given(st.data(), dims, dims, st.integers(1, 10**6), st.integers(-3, 3))
def test_integer_grids_are_normalised_on_entry(data, rows, cols, factor, exp):
    flat = [data.draw(st.integers(-10**6, 10**6)) for _ in range(rows * cols)]
    scale = data.draw(st.integers(1, 10**6))
    m = LaurentMatrix.from_grids(rows, cols, {exp: [x * factor for x in flat],
                                              exp + 1: [0] * (rows * cols)}, scale * factor)
    assert_normal(m)
    assert m == LaurentMatrix.from_grids(rows, cols, {exp: flat}, scale)
    assert m == LaurentMatrix(rows, cols, [LaurentPoly({exp: Fraction(x, scale)})
                                           for x in flat])


def test_zero_and_one_by_k_matrices():
    zero = LaurentMatrix.from_rows([[0, 0, 0]])
    assert (zero.scale, zero.grids) == (1, {})
    assert zero.limit_at_zero() == RMatrix.zeros(1, 3)
    column = LaurentMatrix.from_rows([[LaurentPoly({-1: Fraction(1, 2)})], [3], [0]])
    assert_normal(column)
    assert (column.scale, column.grids) == (2, {-1: (1, 0, 0), 0: (0, 6, 0)})
    assert not column.has_limit_at_zero()
    assert (zero @ column) == LaurentMatrix.from_rows([[0]])
    outer = column @ LaurentMatrix.from_rows([[1, Fraction(1, 10**6)]])
    assert_matches(outer, by_fractions([[{-1: Fraction(1, 2)}], [{0: 3}], [{}]])
                   @ by_fractions([[{0: 1}, {0: Fraction(1, 10**6)}]]))


def test_trusted_results_skip_validation_but_constructor_validates():
    p = LaurentPoly({-1: 2, 0: Fraction(0), 3: "1/2"})
    assert p.terms == {-1: Fraction(2), 3: Fraction(1, 2)}
    assert_clean(p)
    assert_clean(p * 3 + 1)
    assert (p - p).terms == {}
    assert LaurentPoly({-1: 2}) * LaurentPoly({1: Fraction(1, 2)}) == 1


def test_hypothesis_profile_is_reproducible():
    current = settings()
    assert current.derandomize and current.database is None and current.deadline is None


@pytest.mark.parametrize("exp", [Fraction(1, 2), 2.7, 2.0, "1", None])
def test_non_integral_exponents_are_refused(exp):
    # truncating 1/2 to 0 or 2.7 to 2 would silently change the polynomial
    with pytest.raises(ValueError):
        LaurentPoly({exp: 1})


def test_integral_fraction_exponents_become_ints():
    p = LaurentPoly({Fraction(4, 2): 3, -1: 1, Fraction(-6, 3): 5})
    assert p.terms == {2: 3, -1: 1, -2: 5}
    assert all(type(e) is int for e in p.terms)
