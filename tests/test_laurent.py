"""Laurent and sparse polynomial arithmetic on the shared term-map core,
against the one-polynomial-per-addition oracle in helpers.py.

Coefficients come from a small set so that sums and products cancel
often; exponents run negative; zero polynomials and 1 x k and k x 1
matrices are drawn on purpose.  Every stored coefficient must be a
nonzero Fraction: an int would reach limit_at_zero and the JSON report.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matsep import LaurentMatrix, LaurentPoly, SparsePoly
from matsep.matrix import cofactor_det
from helpers import LaurentPolyByAdditions, laurent_matmul_by_additions

COEFFS = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
          Fraction(1, 3), Fraction(1), Fraction(2))

term_maps = st.one_of(
    st.just({}),
    st.dictionaries(st.integers(-3, 3), st.sampled_from(COEFFS), max_size=4))
dims = st.sampled_from((1, 1, 2, 3))


def assert_clean(p):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values()), p.terms


def grid(draw, rows, cols):
    return [[draw(term_maps) for _ in range(cols)] for _ in range(rows)]


def laurent(rows):
    return LaurentMatrix.from_rows([[LaurentPoly(t) for t in row] for row in rows])


def oracle(rows):
    return [[LaurentPolyByAdditions(t) for t in row] for row in rows]


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
    want = laurent_matmul_by_additions(oracle(a), oracle(b))
    assert (product.rows, product.cols) == (rows, cols)
    for r in range(rows):
        for c in range(cols):
            got = product.at(r, c)
            assert_clean(got)
            assert got.terms == want[r][c].terms
            assert hash(got) == hash(want[r][c])
    assert product == LaurentMatrix.from_rows([[LaurentPoly(w.terms) for w in row]
                                               for row in want])


@settings(max_examples=100)
@given(st.data(), st.sampled_from((1, 2, 3)))
def test_det_matches_oracle(data, n):
    rows = grid(data.draw, n, n)
    got = laurent(rows).det()
    want = cofactor_det(oracle(rows))
    assert_clean(got)
    assert got.terms == want.terms
    assert (got == LaurentPoly.const(1)) == (want == 1)


def test_trusted_results_skip_validation_but_constructor_validates():
    p = LaurentPoly({-1: 2, 0: Fraction(0), 3: "1/2"})
    assert p.terms == {-1: Fraction(2), 3: Fraction(1, 2)}
    assert_clean(p)
    assert_clean(p * 3 + 1)
    assert (p - p).terms == {}
    assert LaurentPoly.t_power(-1, 2) * LaurentPoly.t_power(1, Fraction(1, 2)) == 1


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
