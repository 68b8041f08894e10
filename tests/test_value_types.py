"""Every exported value type survives copy, deepcopy and pickle: each
round trip gives an equal value of the same type that computes as the
original does."""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import matsep
from matsep import (BinaryForm, ClaimRow, CurveWitness, DimensionCertificate, DualScalar,
                    GeneratorVector, GroupElementL, GroupElementLR, LaurentMatrix,
                    LaurentPoly, LeftMatrix, MatrixTupleLR, Parameterization, PhiImage,
                    RMatrix, SeparationReport, SparsePoly, StabilityReport, UpperPair,
                    act_left, builtin_claims, certify_dimension, generators_lr,
                    is_stable_lr, phi, separated_lr, stack, witness_curve_auto)

from helpers import (rand_fraction, rand_group_left, rand_group_lr, rand_left,
                     rand_left_nullcone, rand_matrix, rand_nullcone_row_pattern, rand_tuple,
                     rand_upper_tuple)


def _dual(rng):
    """A dual built by arithmetic, so its stored form is not reduced."""
    k = rng.randint(1, 4)
    x = DualScalar(rand_fraction(rng), [rand_fraction(rng) for _ in range(k)])
    y = DualScalar.variable(rand_fraction(rng), rng.randrange(k), k) * 3 + rand_fraction(rng)
    return x * y / (y * y + 1) if rng.random() < 0.5 else x - y


def _laurent(rng):
    return LaurentPoly({rng.randint(-3, 3): rand_fraction(rng) for _ in range(rng.randint(0, 4))})


def _sparse(rng):
    names = ("x", "y", "z")
    return SparsePoly(names, {tuple(rng.randint(0, 3) for _ in names): rand_fraction(rng)
                              for _ in range(rng.randint(0, 4))})


def _curve(rng):
    n = rng.randint(2, 4)
    a = rand_left_nullcone(rng, 2, n)
    b = act_left(rand_group_left(rng, 2), a) if rng.random() < 0.5 else rand_left_nullcone(rng, 2, n)
    return witness_curve_auto(a, b) if stack(a, b).rank() <= 2 else witness_curve_auto(a, a)


def _certificate(rng):
    p = Parameterization("linear", 2, 3, lambda ps: [2 * ps[0] + ps[1], 3 * ps[1], ps[0]])
    return certify_dimension(p, rng.randint(2, 3), trials=2, seed=rng.randint(0, 99))


_BUILDERS = {
    Fraction: rand_fraction,
    BinaryForm: lambda rng: BinaryForm(2, [rand_fraction(rng) for _ in range(3)]),
    DualScalar: _dual,
    RMatrix: lambda rng: rand_matrix(rng, rng.randint(0, 3), rng.randint(1, 3)),
    LaurentPoly: _laurent,
    LaurentMatrix: lambda rng: LaurentMatrix(2, 2, [_laurent(rng) for _ in range(4)]),
    SparsePoly: _sparse,
    MatrixTupleLR: lambda rng: rand_tuple(rng, rng.randint(1, 4)),
    LeftMatrix: lambda rng: rand_left(rng, 2, rng.randint(2, 4)),
    GeneratorVector: lambda rng: generators_lr(rand_tuple(rng, rng.randint(1, 5))),
    GroupElementLR: rand_group_lr,
    GroupElementL: lambda rng: rand_group_left(rng, rng.randint(2, 4)),
    SeparationReport: lambda rng: separated_lr(rand_tuple(rng, 4), rand_tuple(rng, 4)),
    StabilityReport: lambda rng: is_stable_lr(rand_nullcone_row_pattern(rng, 3)),
    UpperPair: lambda rng: UpperPair(rand_upper_tuple(rng, 3), rand_upper_tuple(rng, 3)),
    PhiImage: lambda rng: phi(UpperPair(rand_upper_tuple(rng, 3), rand_upper_tuple(rng, 3))),
    CurveWitness: _curve,
    ClaimRow: lambda rng: rng.choice(builtin_claims(rng.randint(4, 6))),
    DimensionCertificate: _certificate,
}

# a Parameterization holds its evaluator and guards, functions that
# copies share and that pickle only by their module-level name
_NOT_VALUES = {Parameterization}


def test_every_exported_value_type_is_covered():
    exported = {obj for obj in vars(matsep).values()
                if isinstance(obj, type) and not issubclass(obj, Exception)}
    assert exported - _NOT_VALUES == set(_BUILDERS)


def _round_trips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@settings(max_examples=200)
@given(st.sampled_from(sorted(_BUILDERS, key=lambda t: t.__name__)), st.integers(0, 10**6))
def test_copies_and_pickles_are_equal_values(kind, seed):
    value = _BUILDERS[kind](Random(seed))
    assert type(value) is kind
    for other in _round_trips(value):
        assert type(other) is kind
        assert other == value and hash(other) == hash(value)


@pytest.mark.parametrize("make,use", [
    (_dual, lambda d: (d * d + 2, d.partials)),
    (lambda rng: rand_matrix(rng, 3, 3), lambda m: (m.rank(), m.det(), m @ m)),
    (_laurent, lambda p: p * p - 1),
    (lambda rng: LaurentMatrix(2, 2, [_laurent(rng) for _ in range(4)]),
     lambda m: (m @ m, m.det())),
    (_sparse, lambda p: (p * p).derivative("x")),
    (lambda rng: rand_tuple(rng, 4), lambda t: (generators_lr(t), t.integer_form)),
], ids=["dual", "rmatrix", "laurent-poly", "laurent-matrix", "sparse-poly", "tuple"])
def test_copies_compute_as_the_original(make, use):
    for seed in range(20):
        value = make(Random(seed))
        for other in _round_trips(value):
            assert use(other) == use(value)
