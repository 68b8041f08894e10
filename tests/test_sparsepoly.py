from fractions import Fraction
from random import Random

import pytest

from matsep import ShapeError, SparsePoly, poly_expand_det


VS = ("x", "y")


def _x():
    return SparsePoly.var(VS, "x")


def _y():
    return SparsePoly.var(VS, "y")


def test_arithmetic_and_canonical_form():
    x, y = _x(), _y()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert x * 0 == SparsePoly.zero(VS)
    # no zero coefficients are ever stored
    assert all(c != 0 for c in (p + y * y).terms.values())


def test_power():
    x, y = _x(), _y()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x + y) ** 0 == SparsePoly.const(VS, 1)


def test_equality_is_syntactic_on_canonical_form():
    x, y = _x(), _y()
    assert x + y - y == x
    assert x != y
    assert SparsePoly.const(VS, Fraction(1, 2)) * 2 == 1


def test_variable_lists_are_part_of_equality():
    other = SparsePoly.var(("x", "z"), "x")
    assert _x().terms == other.terms
    assert _x() != other
    assert SparsePoly.zero(VS) != SparsePoly.zero(("x",))
    with pytest.raises(ShapeError):
        _x() + other


def test_expand_det_examples():
    x, y = _x(), _y()
    zero = SparsePoly.zero(VS)
    assert poly_expand_det([[x, zero], [zero, y]]) == x * y
    assert poly_expand_det([[x, y], [y, x]]) == x * x - y * y


def test_expand_det_size_limit():
    x = _x()
    with pytest.raises(ShapeError):
        poly_expand_det([[x] * 7 for _ in range(7)])


def test_expand_det_matches_leibniz_on_random():
    rng = Random(7)
    vs = tuple(f"m{r}{c}" for r in range(3) for c in range(3))
    grid = [[SparsePoly.var(vs, f"m{r}{c}") for c in range(3)] for r in range(3)]
    det = poly_expand_det(grid)
    # Sarrus expansion assembled independently
    m = {(r, c): grid[r][c] for r in range(3) for c in range(3)}
    sarrus = (m[0, 0] * m[1, 1] * m[2, 2] + m[0, 1] * m[1, 2] * m[2, 0]
              + m[0, 2] * m[1, 0] * m[2, 1] - m[0, 2] * m[1, 1] * m[2, 0]
              - m[0, 0] * m[1, 2] * m[2, 1] - m[0, 1] * m[1, 0] * m[2, 2])
    assert det == sarrus
    for _ in range(20):
        values = {v: Fraction(rng.randint(-5, 5)) for v in vs}
        assert det.evaluate(values) == sarrus.evaluate(values)


def test_coefficient_extraction():
    vs = ("x", "y", "z")
    x = SparsePoly.var(vs, "x")
    y = SparsePoly.var(vs, "y")
    z = SparsePoly.var(vs, "z")
    p = 3 * x * x * y + 2 * x * y + z * x * y
    cxy = p.coefficient_of({"x": 1, "y": 1})
    assert cxy == 2 + z


def test_derivative():
    x, y = _x(), _y()
    p = x ** 3 * y + 2 * x
    assert p.derivative("x") == 3 * x * x * y + 2
    assert p.derivative("y") == x ** 3


def test_evaluate_exact():
    x, y = _x(), _y()
    p = (x + y) ** 3
    vals = {"x": Fraction(1, 3), "y": Fraction(2, 3)}
    assert p.evaluate(vals) == 1
