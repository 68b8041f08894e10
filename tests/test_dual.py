from fractions import Fraction
from random import Random

import pytest

from matsep import (ChartSingularityError, DualScalar, RMatrix, ShapeError,
                    SparsePoly, builtin_claims, builtin_parameterization,
                    jacobian, jacobian_of)
from helpers import DenseDual, dense_jacobian, rand_fraction


def test_product_rule():
    u = DualScalar(Fraction(3), (Fraction(1), Fraction(0)))
    v = DualScalar(Fraction(5), (Fraction(0), Fraction(1)))
    w = u * v
    assert w.value == 15
    assert w.partials == (Fraction(5), Fraction(3))


def test_quotient_rule_exact():
    u = DualScalar(Fraction(1, 2), (Fraction(1),))
    v = DualScalar(Fraction(3), (Fraction(2),))
    q = u / v
    # (u/v)' = (u'v - uv') / v^2 = (3 - 1) / 9
    assert q.value == Fraction(1, 6)
    assert q.partials == (Fraction(2, 9),)


def test_jacobian_of_linear_map_is_the_matrix():
    m = RMatrix.from_rows([[1, 2, 3], [4, 5, 6]])

    def linear(ps):
        return [sum((m.at(r, c) * ps[c] for c in range(3)),
                    DualScalar.constant(0, len(ps[0].partials)))
                for r in range(2)]

    for point in ([0, 0, 0], [1, -2, 7], [Fraction(1, 3), 5, -1]):
        assert jacobian_of(linear, point) == m


def test_jacobian_hand_example():
    def f(ps):
        s, t = ps
        return [s * t, s + t]

    j = jacobian_of(f, [1, 1])
    assert j == RMatrix.from_rows([[1, 1], [1, 1]])


def test_chart_guard_triggers():
    def f(ps):
        return [1 / ps[0]]

    with pytest.raises(ChartSingularityError):
        jacobian_of(f, [0], guards=(lambda pt: pt[0],))


def test_dual_jacobian_matches_symbolic_derivative():
    rng = Random(202)
    for _ in range(100):
        k = rng.randint(1, 3)
        vs = tuple(f"x{i}" for i in range(k))
        polys = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) for _ in range(k))
                terms[exps] = terms.get(exps, Fraction(0)) + rand_fraction(rng, -4, 4)
            polys.append(SparsePoly(vs, terms))
        point = [rand_fraction(rng, -4, 4) for _ in range(k)]

        def evaluator(ps, polys=polys, vs=vs):
            env = dict(zip(vs, ps))
            return [p.evaluate(env) for p in polys]

        jac = jacobian_of(evaluator, point)
        env = dict(zip(vs, point))
        for r, p in enumerate(polys):
            for c, v in enumerate(vs):
                assert jac.at(r, c) == p.derivative(v).evaluate(env)


def test_partials_are_dense_with_explicit_zeros():
    x = DualScalar.variable(3, 1, 4)
    assert x.partials == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert DualScalar.constant(5, 3).partials == (Fraction(0),) * 3
    built = DualScalar(2, (0, Fraction(1, 2), 0))
    assert built.partials == (Fraction(0), Fraction(1, 2), Fraction(0))
    assert all(type(p) is Fraction for p in (x * x).partials)


def test_self_difference_is_zero():
    rng = Random(205)
    ps = [DualScalar.variable(rand_fraction(rng), i, 3) for i in range(3)]
    x = ps[0] * ps[1] / (ps[2] + 100) - 7
    diff = x - x
    assert diff == 0
    assert diff == DualScalar.constant(0, 3)
    assert diff.partials == (Fraction(0),) * 3


def test_equal_duals_built_differently_hash_equal():
    s, t = DualScalar.variable(2, 0, 2), DualScalar.variable(3, 1, 2)
    via_ops = (s + t) * (s - t) + t * t
    direct = DualScalar(Fraction(4), (Fraction(4), Fraction(0)))
    assert via_ops == s * s == direct
    assert hash(via_ops) == hash(s * s) == hash(direct)
    assert len({via_ops, s * s, direct}) == 1


def test_dual_is_immutable():
    x = DualScalar.variable(1, 0, 2)
    for name in ("value", "partials", "nparams", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)


def test_mixed_parameter_counts_raise():
    x, y = DualScalar.variable(1, 0, 2), DualScalar.variable(1, 0, 3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(ShapeError):
            op()


def test_division_by_zero_value_raises():
    x = DualScalar.variable(2, 0, 2)
    zero = DualScalar.variable(0, 1, 2)
    for op in (lambda: x / zero, lambda: 1 / zero, lambda: x / 0,
               lambda: x / (x - 2)):
        with pytest.raises(ZeroDivisionError):
            op()


def test_int_constants_keep_arithmetic_exact():
    x = DualScalar.variable(1, 0, 2)
    dx = DenseDual(1, [1, 0])
    for op in (lambda a: a / 2, lambda a: 3 / a, lambda a: a * 2,
               lambda a: a + 1, lambda a: 1 - a):
        got, want = op(x), op(dx)
        assert got.value == want.value and got.partials == want.partials
        assert all(type(p) is Fraction for p in (got.value, *got.partials))
    assert (x / 2).value == Fraction(1, 2)


def test_random_expressions_match_dense_oracle():
    """Every operator, with constants on either side, against dense duals."""
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
           lambda a, b: a / b]
    rng = Random(207)
    for _ in range(300):
        k = rng.randint(1, 4)
        point = [rand_fraction(rng, -5, 5) for _ in range(k)]
        sparse = [DualScalar.variable(v, i, k) for i, v in enumerate(point)]
        dense = [DenseDual(v, [int(i == j) for j in range(k)])
                 for i, v in enumerate(point)]
        for _ in range(8):
            op = rng.choice(ops)
            i, j = rng.randrange(len(sparse)), rng.randrange(len(sparse))
            c = rng.choice([rand_fraction(rng, -3, 3), rng.randint(-3, 3)])
            pairs = [(sparse[i], sparse[j], dense[i], dense[j]),
                     (sparse[i], c, dense[i], c), (c, sparse[j], c, dense[j])]
            s_left, s_right, d_left, d_right = rng.choice(pairs)
            try:
                want = op(d_left, d_right)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(s_left, s_right)
                continue
            got = op(s_left, s_right)
            assert got.value == want.value and got.partials == want.partials
            assert all(type(p) is Fraction for p in (got.value, *got.partials))
            sparse.append(got)
            dense.append(want)
        neg = -sparse[-1]
        assert neg.partials == tuple(-p for p in dense[-1].partials)


def _oracle_points(param, rng, count=3):
    """Seeded rational points off every chart singularity."""
    points = []
    while len(points) < count:
        point = [rand_fraction(rng, -20, 20) for _ in range(param.param_count)]
        if all(guard(point) != 0 for guard in param.chart_guards):
            points.append(point)
    return points


@pytest.mark.parametrize("l,n", [(None, 4), (None, 5), (None, 6),
                                 (2, 4), (3, 5), (4, 6)])
def test_builtin_jacobians_match_dense_oracle(l, n):
    rng = Random(206 + 10 * n + (l or 0))
    for row in builtin_claims(n, l):
        param = builtin_parameterization(row.name, n, l)
        for point in _oracle_points(param, rng):
            assert jacobian(param, point) == dense_jacobian(param.evaluator, point)
