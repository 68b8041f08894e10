from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import pytest

from matsep import (MatrixTupleLR, LeftMatrix, PreconditionError, RMatrix,
                    bracket, det_inv, generator_count_lr, generators_lr,
                    invariant_dim_left, invariant_dim_lr, lower_bound_left,
                    lower_bound_lr, minors_left, xi)
from helpers import (bracket_oracle, rand_fraction, rand_tuple, rand_upper_tuple,
                     scaled, xi_inclusion_exclusion, xi_oracle)


def test_det_inv_examples():
    A = MatrixTupleLR.from_entries([[1, 2, 3, 4], [0, 0, 0, 0], [1, 0, 0, 1]])
    assert det_inv(A, 1) == -2
    assert det_inv(A, 2) == 0
    assert det_inv(A, 3) == 1
    with pytest.raises(PreconditionError):
        det_inv(A, 4)


def test_bracket_examples_against_oracle():
    X = RMatrix.from_rows([[1, 2], [3, 4]])
    Y = RMatrix.from_rows([[0, 1], [1, 0]])
    A = MatrixTupleLR((X, Y))
    # frozen value computed with the symbolic oracle: 5*0 - 5
    assert bracket_oracle(X, Y) == -5
    assert bracket(A, 1, 2) == -5

    Z = RMatrix.zeros(2, 2)
    assert bracket(MatrixTupleLR((X, Z)), 1, 2) == 0

    I = RMatrix.identity(2)
    assert bracket_oracle(I, I) == 2
    assert bracket(MatrixTupleLR((I, I)), 1, 2) == 2


def test_bracket_matches_oracle_random():
    rng = Random(404)
    for _ in range(100):
        A = rand_tuple(rng, 2)
        assert bracket(A, 1, 2) == bracket_oracle(A.matrices[0], A.matrices[1])


def test_xi_vanishes_with_zero_component():
    rng = Random(405)
    A = rand_tuple(rng, 4)
    mats = list(A.matrices)
    mats[1] = RMatrix.zeros(2, 2)
    assert xi(MatrixTupleLR(tuple(mats)), 1, 2, 3, 4) == 0


def test_xi_upper_triangular_all_ones():
    # closed form -(a_i a_l d_j d_k + a_j a_k d_i d_l) = -2 at a = d = 1;
    # the value is re-derived by the symbolic extraction oracle
    A = MatrixTupleLR.from_entries(
        [[1, 5, 0, 1], [1, -3, 0, 1], [1, 0, 0, 1], [1, 7, 0, 1]])
    assert xi_oracle(A, 1, 2, 3, 4) == -2
    assert xi(A, 1, 2, 3, 4) == -2


def test_xi_matches_oracle_random():
    rng = Random(406)
    for _ in range(60):
        A = rand_tuple(rng, 4, -4, 4)
        assert xi(A, 1, 2, 3, 4) == xi_oracle(A, 1, 2, 3, 4)


def test_xi_and_xi_block_match_both_oracles():
    # denominators 1, 2 and 3, so the integer scaling of xi_block is exercised
    rng = Random(411)
    for n in range(4, 8):
        for _ in range(6):
            A = MatrixTupleLR(tuple(
                RMatrix(2, 2, [rand_fraction(rng, denominators=(1, 2, 3))
                               for _ in range(4)]) for _ in range(n)))
            block = generators_lr(A).xis
            for idx, value in zip(combinations(range(1, n + 1), 4), block):
                expected = xi_inclusion_exclusion(A, *idx)
                assert xi(A, *idx) == expected
                assert value == expected
            quads = list(combinations(range(1, n + 1), 4))
            for idx in rng.sample(quads, min(2, len(quads))):
                assert xi(A, *idx) == xi_oracle(A, *idx)


def test_xi_closed_form_on_upper_tuples():
    rng = Random(407)
    for _ in range(500):
        A = rand_upper_tuple(rng, 4)
        a = A.entry_vector(0, 0)
        d = A.entry_vector(1, 1)
        closed = -(a[0] * a[3] * d[1] * d[2] + a[1] * a[2] * d[0] * d[3])
        assert xi(A, 1, 2, 3, 4) == closed


def test_xi_index_validation():
    rng = Random(408)
    A = rand_tuple(rng, 5)
    with pytest.raises(PreconditionError):
        xi(A, 1, 2, 4, 4)
    with pytest.raises(PreconditionError):
        xi(A, 2, 1, 3, 4)


def test_generators_lengths():
    rng = Random(409)
    assert len(generators_lr(rand_tuple(rng, 1))) == 1
    assert len(generators_lr(rand_tuple(rng, 4))) == 11
    assert len(generators_lr(rand_tuple(rng, 5))) == 20


def test_minors_left_examples():
    A = LeftMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert minors_left(A) == (1, 1, -1)
    # rank deficiency kills every minor
    B = LeftMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert all(v == 0 for v in minors_left(B))
    # square case: the single determinant
    C = LeftMatrix.from_rows([[1, 2], [3, 4]])
    assert minors_left(C) == (-2,)
    # trivial ring below l
    D = LeftMatrix.from_rows([[1], [2], [3]])
    assert minors_left(D) == ()


def test_generator_count_closed_form():
    assert generator_count_lr(4) == 11
    assert generator_count_lr(6) == 36
    assert generator_count_lr(2) == 3
    for n in range(1, 51):
        assert generator_count_lr(n) == n + comb(n, 2) + comb(n, 4)


def test_invariant_dims():
    assert invariant_dim_lr(1) == 1
    assert invariant_dim_lr(2) == 3
    assert invariant_dim_lr(5) == 14
    assert invariant_dim_left(3, 5) == 7
    assert invariant_dim_left(4, 3) == 0
    assert invariant_dim_left(2, 2) == 1


def test_lower_bounds():
    assert lower_bound_lr(4) == 11
    assert lower_bound_lr(6) == 21
    assert lower_bound_lr(2) == 3
    assert lower_bound_left(3, 7) == 16
    assert lower_bound_left(2, 5) == 7
    assert lower_bound_left(4, 6) == 12
    with pytest.raises(PreconditionError):
        lower_bound_left(3, 2)


def test_degree_homogeneity_under_scaling():
    rng = Random(410)
    for _ in range(50):
        n = rng.randint(4, 6)
        A = rand_tuple(rng, n)
        t = rand_fraction(rng, -5, 5)
        if t == 0:
            continue
        i = rng.randint(1, n)
        mats = list(A.matrices)
        mats[i - 1] = scaled(mats[i - 1], t)
        B = MatrixTupleLR(tuple(mats))
        ga, gb = generators_lr(A), generators_lr(B)
        for (label, va), (_, vb) in zip(ga.labeled(), gb.labeled()):
            kind, idx = label
            if i not in idx:
                assert vb == va
            elif kind == "det":
                assert vb == t * t * va
            else:
                assert vb == t * va
