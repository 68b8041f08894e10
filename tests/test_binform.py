from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from matsep import BinaryForm, binary_form_gcd, rational_projective_roots
from helpers import (binary_form_gcd_by_euclid, rational_roots_by_trial_division,
                     sylvester_resultant_quadratics)


def form(*coeffs):
    return BinaryForm(len(coeffs) - 1, tuple(Fraction(c) for c in coeffs))


def test_gcd_no_common_root():
    # u^2 and v^2
    g = binary_form_gcd([form(0, 0, 1), form(1, 0, 0)])
    assert g.degree == 0 and not g.is_zero


def test_gcd_shared_factor():
    # uv and u^2 share u
    g = binary_form_gcd([form(0, 1, 0), form(0, 0, 1)])
    assert g.degree == 1
    assert g.coefficients == (Fraction(0), Fraction(1))


def test_gcd_mixed_degrees():
    # u^2 - v^2 and u - v share u - v; frozen from the univariate oracle:
    # gcd(x^2 - 1, x - 1) = x - 1, no root at infinity
    g = binary_form_gcd([form(-1, 0, 1), form(-1, 1)])
    assert g.degree == 1
    assert g.coefficients == (Fraction(-1), Fraction(1))


def test_gcd_all_zero_is_flagged():
    g = binary_form_gcd([form(0, 0, 0), form(0)])
    assert g.is_zero


@pytest.mark.parametrize("forms", [
    [form(4, -6, 2)],                        # one form: 2(u - v)(u - 2v)
    [form(0, 0, 0), form(-3, 6, 0)],         # one nonzero form, root at infinity
    [form(0, 6, 9), form(0, 2, 0)],          # common root [0:1]
    [form(6, -5, 1), form(-4, 2)],           # shared u - 2v
    [form(1, 0, 1), form(0, 0, 7)],          # coprime
    [form(-7, 0, 0), form(3, 11, 0), form(5, 0, 0)],
])
def test_gcd_is_monic_and_ignores_scaling(forms):
    g = binary_form_gcd(forms)
    assert [c for c in g.coefficients if c != 0][-1] == 1
    rng = Random(len(forms))
    for _ in range(5):
        scaled = [BinaryForm(f.degree, tuple(c * s for c in f.coefficients))
                  for f in forms
                  for s in [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**9),
                                     rng.randint(1, 10**6))]]
        assert binary_form_gcd(scaled) == g


def test_root_at_infinity():
    # both leading coefficients vanish: common root [1:0]
    g = binary_form_gcd([form(1, 2, 0), form(3, 5, 0)])
    assert g.degree >= 1
    roots = rational_projective_roots(g)
    assert (Fraction(1), Fraction(0)) in roots


def test_rational_projective_roots_finite():
    # (u - 2v)(u + 3v): roots [2:1] and [-3:1]
    g = form(-6, 1, 1)
    roots = rational_projective_roots(g)
    assert roots == [(Fraction(-3), Fraction(1)), (Fraction(2), Fraction(1))]


def test_irrational_roots_not_listed():
    # u^2 - 2v^2 has no rational projective roots
    assert rational_projective_roots(form(-2, 0, 1)) == []


def test_gcd_positive_degree_iff_resultant_vanishes():
    rng = Random(303)
    checked = 0
    while checked < 200:
        f = form(*(rng.randint(-5, 5) for _ in range(3)))
        g = form(*(rng.randint(-5, 5) for _ in range(3)))
        if f.is_zero or g.is_zero:
            continue
        res = sylvester_resultant_quadratics(f, g)
        gcd = binary_form_gcd([f, g])
        assert (gcd.degree > 0) == (res == 0), (f, g, res, gcd)
        checked += 1
    # force some common-root cases, including at infinity
    for _ in range(50):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        c, d = rng.randint(1, 5), rng.randint(-5, 5)
        # both divisible by (c*u + (a - unused)v)? build products explicitly
        shared = (a, c)  # root u = -a/c... represented by factor (c u + a v)
        f = _times_linear(shared, (b, 1))
        g = _times_linear(shared, (d, 1))
        assert sylvester_resultant_quadratics(f, g) == 0
        assert binary_form_gcd([f, g]).degree > 0


def _times_linear(p, q):
    """(p1 v + p2 u)(q1 v + q2 u) as a degree-two form."""
    (p1, p2), (q1, q2) = p, q
    return BinaryForm(2, (Fraction(p1 * q1), Fraction(p1 * q2 + p2 * q1),
                          Fraction(p2 * q2)))


def _finite_roots(f):
    return [x for x, v in rational_projective_roots(f) if v == 1]


def test_double_and_zero_roots_listed_once():
    # (u - 3v)^2 / 4, u^2 and u(2u + 5v)
    assert rational_projective_roots(form(Fraction(9, 4), Fraction(-3, 2), Fraction(1, 4))) \
        == [(Fraction(3), Fraction(1))]
    assert rational_projective_roots(form(0, 0, 7)) == [(Fraction(0), Fraction(1))]
    assert _finite_roots(form(0, 5, 2)) == [Fraction(-5, 2), Fraction(0)]
    # v (u - v): the root at infinity first, then the finite root
    assert rational_projective_roots(form(-1, 1, 0)) == [
        (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]


def test_roots_of_12_digit_factored_forms():
    """(p1 u - q1 v)(p2 u - q2 v) with six-digit p, q: coefficients of up to
    twelve digits, roots q1/p1 and q2/p2 known from the construction."""
    rng = Random(311)
    for _ in range(200):
        p1, p2 = (rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) for _ in "pp")
        q1, q2 = (rng.randint(-10 ** 6, 10 ** 6) for _ in "qq")
        f = form(q1 * q2, -(p1 * q2 + p2 * q1), p1 * p2)
        assert _finite_roots(f) == sorted({Fraction(q1, p1), Fraction(q2, p2)})
        assert _finite_roots(form(-q1, p1)) == [Fraction(q1, p1)]


def test_degree_above_two_is_rejected():
    with pytest.raises(ValueError):
        rational_projective_roots(form(-1, 0, 0, 1))
    # a cubic form with a root at infinity dehomogenises to degree two
    assert _finite_roots(form(-4, 0, 1, 0)) == [Fraction(-2), Fraction(2)]


@st.composite
def _small_end_forms(draw):
    """Linear and quadratic forms whose outer coefficients stay below 10^6,
    so the trial-division oracle finishes, and whose middle coefficient has
    up to twelve digits; half of them are products of small linear factors,
    so rational, double and zero roots come up often."""
    if draw(st.booleans()):
        factor = st.tuples(st.integers(-999, 999), st.integers(-999, 999))
        (a, b), (c, d) = draw(factor), draw(factor)
        coeffs = [a * c, a * d + b * c, b * d]
        if draw(st.booleans()):
            coeffs = [a, b]
    else:
        outer = st.integers(-10 ** 6, 10 ** 6)
        coeffs = [draw(outer), draw(st.integers(-10 ** 12, 10 ** 12)), draw(outer)]
    den = draw(st.sampled_from((1, 1, 2, 3, 7)))
    return [Fraction(c, den) for c in coeffs]


@settings(max_examples=120)
@given(_small_end_forms())
def test_roots_match_trial_division_oracle(coeffs):
    f = BinaryForm(len(coeffs) - 1, tuple(coeffs))
    if f.is_zero:
        assert rational_projective_roots(f) is None
        return
    assert _finite_roots(f) == rational_roots_by_trial_division(coeffs)


# -- the root test once the running gcd is linear, against Euclid -----------------


def times(*factors):
    """Product of forms given as coefficient tuples (index = power of u)."""
    out = (Fraction(1),)
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = tuple(prod)
    return BinaryForm(len(out) - 1, out)


U_MINUS_2V, U_PLUS_V, U_MINUS_5V, V = (-2, 1), (1, 1), (-5, 1), (1, 0)


@pytest.mark.parametrize("forms,degree", [
    # shared u - 2v until the last form, which kills the root
    ([times(U_MINUS_2V, U_PLUS_V), times(U_MINUS_2V, U_MINUS_5V),
      times(U_MINUS_2V, (3, 7)), times(U_MINUS_5V, U_MINUS_5V)], 0),
    # every form keeps the root of u - 2v, with fractional coefficients
    ([times(U_MINUS_2V, U_PLUS_V), times(U_MINUS_2V, (Fraction(1, 3), 7)),
      times((Fraction(-2, 9), Fraction(1, 9)), U_MINUS_5V)], 1),
    # root at infinity (every form divisible by v) plus a shared finite root
    ([times(V, U_MINUS_2V), times(V, (4, -2)), times(V, V, U_MINUS_2V)], 2),
    # root at infinity survives when a late form kills the finite root
    ([times(V, U_MINUS_2V), times(V, U_MINUS_2V), times(V, U_PLUS_V)], 1),
    # all forms proportional: the gcd is the monic form itself
    ([times(U_MINUS_2V, U_PLUS_V), times((Fraction(-3, 2), 0), U_MINUS_2V, U_PLUS_V),
      times((5, 0), U_MINUS_2V, U_PLUS_V)], 2),
    ([times(V, U_MINUS_2V), times((-7, 0), V, U_MINUS_2V)], 2),
    # the first form is linear after dehomogenising; a constant form follows
    ([times(U_MINUS_2V), BinaryForm(0, (Fraction(3),))], 0),
    ([times(U_MINUS_2V), times(V, V, U_MINUS_2V), BinaryForm.zero()], 1),
])
def test_gcd_matches_euclid_oracle(forms, degree):
    g = binary_form_gcd(forms)
    assert g == binary_form_gcd_by_euclid(forms)
    assert g.degree == degree


@st.composite
def _families(draw):
    """Forms of degree at most three built from a few shared factors, so
    that common finite roots and roots at infinity both come up."""
    linear = st.sampled_from((U_MINUS_2V, U_PLUS_V, U_MINUS_5V, V, (3, -2), (0, 1)))
    scale = st.sampled_from((1, -1, Fraction(2, 3), 7))
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        factors = draw(st.lists(linear, min_size=1, max_size=3))
        forms.append(times((draw(scale),), *factors))
    return forms


@settings(max_examples=150)
@given(_families())
def test_gcd_families_match_euclid_oracle(forms):
    assert binary_form_gcd(forms) == binary_form_gcd_by_euclid(forms)


PRIMES_36 = (68719476731, 68719476719, 68719476713, 68719476671, 34359738421, 34359738451)


@st.composite
def _wide_families(draw):
    """Forms of degree at most five sharing a few linear factors, among them
    roots p/q with 36-bit primes p and q and the root at infinity, each
    scaled by a wide Fraction; zero forms of every degree come up too."""
    prime = st.sampled_from(PRIMES_36)
    linear = st.one_of(st.builds(lambda p, q: (-p, q), prime, prime),
                       st.sampled_from((V, U_MINUS_2V, U_PLUS_V, (0, 1))))
    scale = st.builds(Fraction, st.integers(1, 10 ** 9) | st.integers(-10 ** 9, -1),
                      st.integers(1, 10 ** 9))
    shared = draw(st.lists(linear, max_size=2))
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        pick = draw(st.integers(0, 5))
        if pick == 0:
            degree = draw(st.integers(0, 3))
            forms.append(BinaryForm(degree, (Fraction(0),) * (degree + 1)))
        else:
            extra = draw(st.lists(linear, max_size=3 if pick == 1 else 1))
            forms.append(times((draw(scale),), *(shared if pick > 1 else []), *extra))
    return forms


@settings(max_examples=200)
@given(_wide_families())
def test_integer_gcd_matches_euclid_oracle_on_wide_roots(forms):
    g = binary_form_gcd(forms)
    assert g == binary_form_gcd_by_euclid(forms)
    assert all(type(c) is Fraction for c in g.coefficients)


def test_integer_gcd_keeps_a_36_bit_prime_root():
    p, q = PRIMES_36[:2]
    root = (-p, q)
    forms = [times((Fraction(3, 7),), root, U_PLUS_V), times((Fraction(-5, 2),), root, V),
             times(root, root), BinaryForm.zero()]
    assert binary_form_gcd(forms) == BinaryForm(1, (Fraction(-p, q), Fraction(1)))
    assert rational_projective_roots(binary_form_gcd(forms)) == [(Fraction(p, q), Fraction(1))]
