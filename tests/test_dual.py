from fractions import Fraction
from math import prod
from random import Random

import pytest

from matsep import (ChartSingularityError, DualScalar, RMatrix, ShapeError,
                    SparsePoly, builtin_claims, builtin_parameterization,
                    jacobian, jacobian_of)
from matsep.dual import seed_point
from helpers import (DenseDual, SparseFractionDual, bareiss_det, bareiss_rank,
                     dense_jacobian, rand_fraction, sparse_fraction_jacobian)


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
    """Every operator, with int or Fraction constants on either side and
    division by duals with negative values, against dense duals and sparse
    Fraction duals; each result also equals, and hashes like, the dual
    built directly from the oracle's Fractions."""
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
           lambda a, b: a / b, lambda a, b: a / -b, lambda a, b: a / (b - 10)]
    rng = Random(207)
    negative_divisors = 0
    for _ in range(300):
        k = rng.randint(1, 4)
        point = [rand_fraction(rng, -5, 5) for _ in range(k)]
        duals = [seed_point(point), [DenseDual(v, [int(i == j) for j in range(k)])
                                     for i, v in enumerate(point)],
                 [SparseFractionDual(v, k, {i: 1}) for i, v in enumerate(point)]]
        for _ in range(8):
            o = rng.randrange(len(ops))
            op = ops[o]
            i, j = rng.randrange(len(duals[0])), rng.randrange(len(duals[0]))
            c = rng.choice([rand_fraction(rng, -3, 3), rng.randint(-3, 3)])
            side = rng.randrange(3)
            args = [((d[i], d[j]), (d[i], c), (c, d[j]))[side] for d in duals]
            try:
                want = op(*args[1])
            except ZeroDivisionError:
                for a in (args[0], args[2]):
                    with pytest.raises(ZeroDivisionError):
                        op(*a)
                continue
            got, other = op(*args[0]), op(*args[2])
            assert got.value == want.value == other.value
            assert got.partials == want.partials == other.partials
            assert all(type(p) is Fraction for p in (got.value, *got.partials))
            direct = DualScalar(want.value, want.partials)
            assert got == direct and hash(got) == hash(direct)
            divisor = args[1][1]
            if o >= 3 and isinstance(divisor, DenseDual):
                negative_divisors += (divisor, -divisor, divisor - 10)[o - 3].value < 0
            for d, r in zip(duals, (got, want, other)):
                d.append(r)
        neg = -duals[0][-1]
        assert neg.partials == tuple(-p for p in duals[1][-1].partials)
    assert negative_divisors > 100


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


# -- the integer representation ------------------------------------------------


_OPS = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
        lambda a, b: a / b, lambda a, b: a / -b, lambda a, b: a / (b - 10)]


def _random_program(rng: Random, k: int, steps: int) -> list:
    """Steps (op, i, j, constant, swap): value i op (value j, or the int or
    Fraction constant), with the operands swapped when `swap` is set."""
    return [(rng.randrange(len(_OPS)), rng.randrange(k + s), rng.randrange(k + s),
             rng.choice([None, None, rand_fraction(rng, -3, 3), rng.randint(-3, 3)]),
             rng.random() < 0.5)
            for s in range(steps)]


def _run(program, params) -> list:
    vals = list(params)
    for op, i, j, c, swap in program:
        a, b = vals[i], (vals[j] if c is None else c)
        vals.append(_OPS[op](*((b, a) if swap else (a, b))))
    return vals


def test_non_canonical_equal_forms_compare_and_hash_equal():
    x = DualScalar.variable(Fraction(5, 2), 0, 3)
    y = DualScalar.variable(-7, 1, 3)
    forms = [x * 3 / 3, x / 2 * 2, (x * y) / y, x + Fraction(1, 3) - Fraction(1, 3),
             -(x / -1), (x * 6) / DualScalar.constant(6, 3), 2 * x - x]
    for f in forms:
        assert f == x and x == f
        assert hash(f) == hash(x)
    assert len(set(forms + [x])) == 1
    # the stored denominators differ although the duals are equal
    assert len({f._q for f in forms}) > 1
    assert (x * 3 / 3) != x + 1 and (x * 3 / 3) != y
    one = (x - x + 3) / 3
    assert one == 1 and one == Fraction(1) and one != Fraction(1, 2)
    assert hash(one) == hash(DualScalar.constant(1, 3))


def test_value_and_partials_are_reduced_fractions():
    x = DualScalar.variable(Fraction(3, 4), 0, 2)
    y = DualScalar.variable(6, 1, 2)
    z = x * 6 / 4 * y / y
    assert z._q % 2 == 0 and z._q > 8
    assert z.value == Fraction(9, 8)
    assert (z.value.numerator, z.value.denominator) == (9, 8)
    assert z.partials == (Fraction(3, 2), Fraction(0))
    assert [(p.numerator, p.denominator) for p in z.partials] == [(3, 2), (0, 1)]
    assert all(type(p) is Fraction for p in (z.value, *z.partials))


@pytest.mark.parametrize("l,n", [(None, 4), (None, 5), (3, 5), (4, 6)])
def test_jacobian_integer_rows_are_scaled_oracle_rows(l, n):
    """row_r = entries_r * s_r with s_r > 0 and scale = prod s_r, against the
    dense oracle's entries; rank against eager Bareiss of the oracle."""
    rng = Random(520 + 10 * n + (l or 0))
    for row in builtin_claims(n, l):
        param = builtin_parameterization(row.name, n, l)
        for point in _oracle_points(param, rng, count=1):
            jac = jacobian(param, point)
            oracle = dense_jacobian(param.evaluator, point)
            rows, scale = jac._integer_rows()
            scales = jac._scales
            assert all(type(s) is int and s > 0 for s in scales)
            assert scale == prod(scales)
            for r in range(oracle.rows):
                assert all(type(e) is int for e in rows[r])
                assert rows[r] == [e * scales[r] for e in oracle.row(r)]
            assert jac == oracle == sparse_fraction_jacobian(param.evaluator, point)
            assert jac.rank() == bareiss_rank(oracle)
            assert jac._integer_rows() is jac._integer_rows()


def test_square_jacobians_det_and_rank_match_oracles():
    """Random rational maps from k parameters to k outputs, some of them
    constant, so that zero rows and rank deficiency come up."""
    rng = Random(530)
    checked = singular = 0
    while checked < 120:
        k = rng.randint(1, 6)
        program = _random_program(rng, k, 10)
        picks = [rng.randrange(k + 10) for _ in range(k)]
        constant = rng.random() < 0.2

        def evaluator(ps, program=program, picks=picks, constant=constant):
            vals = _run(program, ps)
            outs = [vals[i] for i in picks]
            return outs[:-1] + [Fraction(2)] if constant else outs
        point = [rand_fraction(rng, -6, 6) for _ in range(k)]
        try:
            oracle = dense_jacobian(evaluator, point)
        except ZeroDivisionError:
            continue
        jac = jacobian_of(evaluator, point)
        assert jac == oracle
        assert jac.det() == bareiss_det(oracle)
        assert jac.rank() == bareiss_rank(oracle)
        checked += 1
        singular += jac.det() == 0
    assert 0 < singular < checked


_FRACTION_ARITHMETIC = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                        "__neg__", "__pow__", "__eq__")


@pytest.mark.parametrize("l,n", [(None, 5), (4, 6)])
def test_builtin_evaluators_build_no_fraction(l, n):
    """With Fraction construction and arithmetic disabled, every builtin
    evaluator still runs on integer duals."""
    rng = Random(540 + n)
    params = [builtin_parameterization(row.name, n, l) for row in builtin_claims(n, l)]
    seeded = [seed_point(_oracle_points(param, rng, count=1)[0]) for param in params]

    def forbidden(*_, **__):
        raise AssertionError("Fraction used inside dual arithmetic")
    saved = {name: Fraction.__dict__[name] for name in _FRACTION_ARITHMETIC}
    try:
        for name in _FRACTION_ARITHMETIC:
            setattr(Fraction, name, staticmethod(forbidden) if name == "__new__" else forbidden)
        outputs = [param.evaluator(seeds) for param, seeds in zip(params, seeded)]
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)
    for param, seeds, outs in zip(params, seeded, outputs):
        point = [s.value for s in seeds]
        got = [list(o.partials) if isinstance(o, DualScalar) else [0] * len(point)
               for o in outs]
        assert got == dense_jacobian(param.evaluator, point).to_rows()


def _int_point(param, rng):
    """A seeded int point off every chart singularity."""
    while True:
        point = [rng.randint(-20, 20) for _ in range(param.param_count)]
        if all(guard(point) != 0 for guard in param.chart_guards):
            return point


def test_point_forms_give_one_jacobian():
    """An integer point given as ints, Fractions or rational strings, and a
    fractional point given as Fractions or strings, each seed the same
    integer rows and scales."""
    rng = Random(545)
    for l, n in ((None, 4), (3, 5)):
        for row in builtin_claims(n, l):
            param = builtin_parameterization(row.name, n, l)
            point = _int_point(param, rng)
            fractional = _oracle_points(param, rng, count=1)[0]
            for forms in ((point, [Fraction(x) for x in point], [str(x) for x in point]),
                          (fractional, [str(x) for x in fractional])):
                first, *rest = [jacobian(param, form) for form in forms]
                for jac in rest:
                    assert jac._integer_rows() == first._integer_rows(), row.name
                    assert jac._scales == first._scales, row.name
    x, y = seed_point(["3", "-7/2"])
    assert (x.value, y.value, y.partials) == (3, Fraction(-7, 2), (0, 1))


@pytest.mark.parametrize("l,n", [(None, 5), (4, 6)])
def test_integer_points_seed_no_fraction(l, n):
    """With Fraction construction and arithmetic disabled, `jacobian_of`
    on an all-int point, chart guards included, builds no Fraction; its
    rows are those of the same point given as Fractions."""
    rng = Random(550 + n)
    params = [builtin_parameterization(row.name, n, l) for row in builtin_claims(n, l)]
    points = [_int_point(param, rng) for param in params]

    def forbidden(*_, **__):
        raise AssertionError("Fraction built while seeding an integer point")
    saved = {name: Fraction.__dict__[name] for name in _FRACTION_ARITHMETIC}
    try:
        for name in _FRACTION_ARITHMETIC:
            setattr(Fraction, name, staticmethod(forbidden) if name == "__new__" else forbidden)
        jacs = [jacobian_of(param.evaluator, point, param.chart_guards)
                for param, point in zip(params, points)]
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)
    for param, point, jac in zip(params, points, jacs):
        oracle = jacobian(param, [Fraction(x) for x in point])
        assert jac._integer_rows() == oracle._integer_rows(), param.name
        assert jac._scales == oracle._scales, param.name
