"""The rank bounds of the builtin claims, proven rather than sampled.

Every builtin parameterization declares its claimed dimension as its
`rank_bound`, and `certify_dimension` stops its trials at that rank.  A
claim with as many parameters as its claimed dimension needs no proof.
Each of the other five gets params - claim polynomial vector fields K(p)
with J(p).K(p) = 0 as an exact `SparsePoly` identity, J(p) the Jacobian
at the chart identity of the parameter point p, and rank K = params -
claim at one integer point; then rank J(p) <= claim at every p (the
argument is in the `certify` module docstring).

J is built here from the base map and the chart tangents, independently
of the trial matrix that certify assembles, and checked against
`jacobian` (the dual-number Jacobian through the real charts) at an
integer point.

A field is a list of chart coordinates set to 1 and of terms (target,
sign, factors, source): target[i] moves by sign * prod(factors) *
source[i].  A target or source names a vector of base parameters or a
scalar, through the claim's layout.  Chart coordinates count from the
first chart, in steps of 3 per 2x2 chart: left on A (0), right on A (3),
left on A' (6), right on A' (9); within a chart, 0 is the tangent
E00 - E11 and 1 is E01, so these are the Borel directions.
"""

from math import prod
from random import Random

import pytest

from matsep import RMatrix, SparsePoly, builtin_claims, builtin_parameterization, jacobian

from helpers import bareiss_rank

# the chart tangents at the identity, in chart-coordinate order
_TANGENTS = (((1, 0), (0, -1)), ((0, 1), (0, 0)), ((0, 0), (1, 0)))

# A = [[a, b], [0, lam d']], A' = [[lam a, b'], [0, d']]
_ROW_PATTERN = [
    ([1], [("b", -1, ("lam",), "d2")]),
    ([4], [("b", 1, (), "a")]),
    ([7], [("b2", -1, (), "d2")]),
    ([10], [("b2", 1, ("lam",), "a")]),
    ([0], [("a", -1, (), "a"), ("b", -1, (), "b"), ("lam", 1, (), "lam")]),
    ([3], [("a", 1, (), "a"), ("b", -1, (), "b"), ("lam", -1, (), "lam")]),
    ([6], [("b2", -1, (), "b2"), ("d2", 1, (), "d2"), ("lam", -1, (), "lam")]),
    ([9], [("b2", -1, (), "b2"), ("d2", -1, (), "d2"), ("lam", 1, (), "lam")]),
]

# A = [[a, b], [0, lam a']], A' = [[a', b'], [0, lam a]]
_COLUMN_PATTERN = [
    ([1], [("b", -1, ("lam",), "a2")]),
    ([4], [("b", 1, (), "a")]),
    ([7], [("b2", -1, ("lam",), "a")]),
    ([10], [("b2", 1, (), "a2")]),
    ([0], [("a", -1, (), "a"), ("b", -1, (), "b"), ("lam", 1, (), "lam")]),
    ([3], [("a", 1, (), "a"), ("b", -1, (), "b"), ("lam", -1, (), "lam")]),
    ([6], [("a2", -1, (), "a2"), ("b2", -1, (), "b2"), ("lam", 1, (), "lam")]),
    ([9], [("a2", 1, (), "a2"), ("b2", -1, (), "b2"), ("lam", -1, (), "lam")]),
]

# A = [[a, b], [0, mu lam a]], A' = [[lam a, b'], [0, mu a]]
_DOUBLE_PATTERN = [
    ([1], [("b", -1, ("lam", "mu"), "a")]),
    ([4], [("b", 1, (), "a")]),
    ([7], [("b2", -1, ("mu",), "a")]),
    ([10], [("b2", 1, ("lam",), "a")]),
    ([0], [("a", -1, (), "a"), ("b", -1, (), "b"), ("lam", 1, (), "lam"), ("mu", 1, (), "mu")]),
    ([3], [("a", 1, (), "a"), ("b", -1, (), "b"), ("lam", -1, (), "lam"),
           ("mu", -1, (), "mu")]),
    ([6], [("b2", -1, (), "b2"), ("lam", -1, (), "lam"), ("mu", 1, (), "mu")]),
    ([9], [("b2", -1, (), "b2"), ("lam", 1, (), "lam"), ("mu", -1, (), "mu")]),
]

# (a, b, b', d') = c (u0, u1, u2): u -> G u, c -> c G^-1, for G = 1 + E_ij
_CHANGE_OF_BASIS = [([], [(f"u{i}", 1, (), f"u{j}"), (f"col{j}", -1, (), f"col{i}")])
                    for i in range(3) for j in range(3)]


def _layout(name, n):
    """Parameter indices of each named vector or scalar, and the first
    chart coordinate (None for no charts)."""
    if name in ("gamma-cr", "gamma-sat-cr"):
        c = 3 * n
        out = {f"u{i}": range(i * n, (i + 1) * n) for i in range(3)}
        out.update({f"col{j}": range(c + j, c + 12, 3) for j in range(3)})
        out.update({v: range(c + 3 * k, c + 3 * k + 3) for k, v in enumerate(("a", "b", "b2", "d2"))})
        out["lam"] = [c + 12]
        return out, (c + 13 if name == "gamma-sat-cr" else None)
    if name == "sat-cr-cc":
        out = {v: range(k * n, (k + 1) * n) for k, v in enumerate(("a", "b", "b2"))}
        out.update(lam=[3 * n], mu=[3 * n + 1])
        return out, 3 * n + 2
    vectors = ("a", "b", "b2", "d2") if name == "sat-cr" else ("a", "a2", "b", "b2")
    out = {v: range(k * n, (k + 1) * n) for k, v in enumerate(vectors)}
    out["lam"] = [4 * n]
    return out, 4 * n + 1


_FIELDS = {"sat-cr": _ROW_PATTERN, "sat-cc": _COLUMN_PATTERN, "sat-cr-cc": _DOUBLE_PATTERN,
           "gamma-cr": _CHANGE_OF_BASIS, "gamma-sat-cr": _CHANGE_OF_BASIS + _ROW_PATTERN}
_SIZES = range(4, 8)


def _symbols(count):
    names = tuple(f"p{i}" for i in range(count))
    return names, [SparsePoly.var(names, v) for v in names]


def _kernel_fields(name, n, syms):
    layout, charts = _layout(name, n)
    zero = SparsePoly.zero(syms[0].variables)
    fields = []
    for coords, terms in _FIELDS[name]:
        k = [zero] * len(syms)
        for coord in coords:
            k[charts + coord] = k[charts + coord] + 1
        for target, sign, factors, source in terms:
            scale = prod((syms[layout[f][0]] for f in factors), start=sign)
            for t, s in zip(layout[target], layout[source], strict=True):
                k[t] = k[t] + scale * syms[s]
        fields.append(k)
    return fields


def _poly(x, names):
    return x if isinstance(x, SparsePoly) else SparsePoly.const(names, x)


def _symbolic_jacobian(param, names, syms):
    """J(p) at chart coordinates 0, one row per output: the base map's
    derivatives, then T.M for a left chart tangent T and -M.T for a right
    one, M the output's matrix."""
    if param.orbit is None:
        outputs = [_poly(x, names) for x in param.evaluator(syms)]
        return [[out.derivative(v) for v in names] for out in outputs]
    base = len(names) - len(param.group_coords)
    zero, rows = SparsePoly.zero(names), []
    mats_of = param.orbit.base(syms)
    for src, left, right in param.orbit.blocks:
        for m in mats_of[src]:
            m = [[_poly(x, names) for x in row] for row in m]
            for i in range(2):
                for j in range(2):
                    row = [m[i][j].derivative(v) for v in names[:base]]
                    row += [zero] * (len(names) - base)
                    for t, tan in enumerate(_TANGENTS):
                        if left is not None:
                            row[left + t] = sum((tan[i][k] * m[k][j] for k in range(2)), zero)
                        if right is not None:
                            row[right + t] = -sum((m[i][k] * tan[k][j] for k in range(2)), zero)
                    rows.append(row)
    return rows


def _case(name, n):
    param = builtin_parameterization(name, n)
    names, syms = _symbols(param.param_count)
    return param, names, syms


_CASES = [(name, n) for name in _FIELDS for n in _SIZES]


@pytest.mark.parametrize("name,n", _CASES, ids=[f"{name}-{n}" for name, n in _CASES])
def test_kernel_fields_bound_the_rank_by_the_claim(name, n):
    """J(p).K(p) = 0 identically for params - claim fields, independent at
    an integer point: so rank J(p) <= claim everywhere."""
    param, names, syms = _case(name, n)
    claimed = {row.name: row.claimed for row in builtin_claims(n)}[name]
    fields = _kernel_fields(name, n, syms)
    assert len(fields) == param.param_count - claimed == param.param_count - param.rank_bound
    jac = _symbolic_jacobian(param, names, syms)
    assert len(jac) == param.output_count
    zero = SparsePoly.zero(names)
    for f, field in enumerate(fields):
        for r, row in enumerate(jac):
            assert sum((x * k for x, k in zip(row, field) if not (x.is_zero() or k.is_zero())),
                       zero).is_zero(), (name, n, f, r)
    rng = Random(2026 + n)
    point = dict(zip(names, (rng.randint(-20, 20) for _ in names)))
    values = [[int(k.evaluate(point)) for k in field] for field in fields]
    assert bareiss_rank(RMatrix.from_rows(values)) == len(fields)


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_the_symbolic_jacobian_is_the_chart_jacobian_at_the_identity(name):
    """J read at an integer point, chart coordinates 0, is `jacobian` there,
    differentiated through the real charts."""
    n = 4
    param, names, syms = _case(name, n)
    rng = Random(7)
    group = set(param.group_coords)
    point = [0 if i in group else rng.randint(-20, 20) for i in range(param.param_count)]
    values = dict(zip(names, point))
    sym = [[x.evaluate(values) for x in row] for row in _symbolic_jacobian(param, names, syms)]
    assert jacobian(param, point).to_rows() == sym


_ALL_SIZES = [(None, n) for n in _SIZES] + [(2, 4), (3, 3), (3, 5), (4, 6), (4, 8), (5, 7)]


@pytest.mark.parametrize("l,n", _ALL_SIZES)
def test_every_other_builtin_has_as_many_parameters_as_its_claim(l, n):
    """Each builtin declares its claim as its rank bound; the claims the
    fields above do not cover have no more parameters than that."""
    for row in builtin_claims(n, l):
        param = builtin_parameterization(row.name, n, l)
        assert param.rank_bound == row.claimed, row.name
        if row.name not in _FIELDS:
            assert param.param_count == row.claimed, row.name
        else:
            assert param.param_count > row.claimed, row.name
