from fractions import Fraction
from math import gcd
from random import Random

import pytest

from matsep import RMatrix, ShapeError, stack_rows
from matsep.matrix import cofactor_det
from helpers import rand_fraction, rand_matrix


def test_rank_examples():
    assert RMatrix.zeros(3, 3).rank() == 0
    assert RMatrix.identity(2).rank() == 2
    assert RMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_det_examples():
    assert RMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
    for l in (2, 3, 4, 5):
        assert RMatrix.identity(l).det() == 1
    assert RMatrix.from_rows([[0, 1], [1, 0]]).det() == -1


def test_det_rejects_non_square():
    with pytest.raises(ShapeError):
        RMatrix.zeros(2, 3).det()


def test_rank_equals_transpose_rank():
    rng = Random(101)
    for _ in range(1000):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        assert m.rank() == m.transpose().rank()


def test_det_multiplicative():
    rng = Random(102)
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b = rand_matrix(rng, n, n), rand_matrix(rng, n, n)
        assert (a @ b).det() == a.det() * b.det()


def test_field_axioms_random():
    rng = Random(103)
    for _ in range(500):
        a, b, c = (rand_fraction(rng, -99, 99, (1, 2, 3, 7, 11)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1


def test_inverse_and_nullspace():
    rng = Random(104)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        if m.rank() == n:
            assert m @ m.inverse() == RMatrix.identity(n)
        else:
            basis = m.nullspace()
            assert basis
            for v in basis:
                assert all(x == 0 for x in m.mul_vec(v))


def test_nullspace_dimension():
    rng = Random(105)
    for _ in range(100):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        assert len(m.nullspace()) == c - m.rank()


def test_det_matches_cofactor_oracle():
    def cofactor_det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * cofactor_det(minor)
            total += -term if j % 2 else term
        return total

    rng = Random(106)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        assert m.det() == cofactor_det(m.to_rows())


def test_rank_with_large_fractions():
    m = RMatrix.from_rows([
        [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)],
        [Fraction(2, 7), Fraction(4, 7), Fraction(6, 7)],
        [Fraction(0), Fraction(1, 3), Fraction(5, 3)]])
    assert m.rank() == 2


def test_stack_rows():
    m = stack_rows([(1, 2, 3), (4, 5, 6)])
    assert m.shape() == (2, 3)
    assert m.at(1, 2) == 6


def _wide_fraction_matrix(rng: Random, rows: int, cols: int, special=0.15) -> RMatrix:
    """Entries with denominators up to 10**6; each row is zero, or a rational
    combination of earlier rows, with probability `special` each."""
    out = []
    for r in range(rows):
        roll = rng.random()
        if roll < special:
            out.append([Fraction(0)] * cols)
        elif roll < 2 * special and out:
            a, b = rng.choice(out), rng.choice(out)
            s, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 10 ** 6)) for _ in "st")
            out.append([s * x + t * y for x, y in zip(a, b)])
        else:
            out.append([Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                 rng.choice((1, rng.randint(1, 10 ** 6))))
                        for _ in range(cols)])
    return RMatrix.from_rows(out)


def _integer_rows_by_fraction_products(m: RMatrix) -> tuple:
    """Reference row scaling: lcm of the row's denominators, then one
    Fraction product per entry."""
    rows, scale = [], Fraction(1)
    for r in range(m.rows):
        row = m.row(r)
        mult = 1
        for e in row:
            mult = mult * e.denominator // gcd(mult, e.denominator)
        scale *= mult
        rows.append([int(e * mult) for e in row])
    return rows, scale


def test_integer_rows_match_fraction_products():
    rng = Random(107)
    shapes = [(1, k) for k in range(1, 7)] + [(k, 1) for k in range(1, 7)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(200)]
    for r, c in shapes:
        m = _wide_fraction_matrix(rng, r, c)
        rows, scale = m._integer_rows()
        ref_rows, ref_scale = _integer_rows_by_fraction_products(m)
        assert rows == ref_rows
        assert scale == ref_scale
        assert all(type(e) is int for row in rows for e in row)
        assert m.rank() == len(m.rref()[1])
    assert RMatrix.zeros(3, 2)._integer_rows() == ([[0, 0]] * 3, 1)


def test_det_of_wide_fractions_matches_cofactor_det():
    rng = Random(108)
    for n in (4, 5):
        for _ in range(30):
            m = _wide_fraction_matrix(rng, n, n, special=0.03)
            assert m.det() == cofactor_det(m.to_rows())
