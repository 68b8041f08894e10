from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from matsep import (GroupElementLR, LeftMatrix, MatrixTupleLR,
                    PreconditionError, RMatrix, SeparationReport, ShapeError,
                    act_left, act_lr, generators_lr, minors_left,
                    separated_left, separated_lr, star)
from helpers import (inverse, rand_group_left, rand_group_lr, rand_left, rand_matrix,
                     rand_sl2, rand_tuple, transpose)


def test_act_identity_and_group_law():
    rng = Random(505)
    A = rand_tuple(rng, 3)
    e = GroupElementLR.identity()
    assert act_lr(e, A) == A
    g = rand_group_lr(rng)
    assert act_lr(g, act_lr(g.inverse(), A)) == A


def test_act_preserves_generators():
    rng = Random(506)
    for _ in range(50):
        n = rng.randint(1, 5)
        A = rand_tuple(rng, n)
        g = rand_group_lr(rng)
        assert generators_lr(act_lr(g, A)) == generators_lr(A)


def test_group_element_validation():
    with pytest.raises(PreconditionError):
        GroupElementLR(RMatrix.from_rows([[2, 0], [0, 1]]), RMatrix.identity(2))


def test_star_identity_and_inverse():
    rng = Random(507)
    A = rand_tuple(rng, 4)
    assert star(RMatrix.identity(4), A) == A
    h = rand_matrix(rng, 4, 4)
    while h.rank() < 4:
        h = rand_matrix(rng, 4, 4)
    assert star(h, star(inverse(h), A)) == A


def test_star_permutation_permutes_tuple():
    rng = Random(508)
    A = rand_tuple(rng, 3)
    # h e_k = e_{sigma(k)}: entry vectors get permuted, so component k of
    # the image is component with h[k][m] = 1, i.e. sigma^{-1}(k)
    h = RMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    B = star(h, A)
    assert B.matrices[0] == A.matrices[1]
    assert B.matrices[1] == A.matrices[2]
    assert B.matrices[2] == A.matrices[0]


def test_star_rejects_singular():
    rng = Random(509)
    A = rand_tuple(rng, 2)
    with pytest.raises(PreconditionError):
        star(RMatrix.from_rows([[1, 1], [1, 1]]), A)


def test_separated_translate_is_not_separated():
    rng = Random(510)
    for _ in range(20):
        A = rand_tuple(rng, rng.randint(1, 5))
        g = rand_group_lr(rng)
        rep = separated_lr(A, act_lr(g, A))
        assert not rep.separated and rep.witness is None


def test_separated_single_matrix_by_determinant():
    A = MatrixTupleLR.from_entries([[1, 5, 0, 2]])
    B = MatrixTupleLR.from_entries([[3, 7, 0, 4]])
    rep = separated_lr(A, B)
    assert rep.separated
    assert rep.witness == ("det", (1,))
    assert rep.values == (Fraction(2), Fraction(12))


def test_separated_nullcone_pairs_never():
    # strictly upper-triangular tuples: every invariant vanishes
    A = MatrixTupleLR.from_entries([[0, 3, 0, 0], [0, -1, 0, 0]])
    B = MatrixTupleLR.from_entries([[0, 7, 0, 0], [0, 2, 0, 0]])
    assert not separated_lr(A, B).separated


def test_separated_shape_mismatch():
    rng = Random(511)
    with pytest.raises(ShapeError):
        separated_lr(rand_tuple(rng, 2), rand_tuple(rng, 3))


def test_separation_symmetric():
    rng = Random(512)
    for _ in range(50):
        n = rng.randint(1, 4)
        A, B = rand_tuple(rng, n), rand_tuple(rng, n)
        assert separated_lr(A, B).separated == separated_lr(B, A).separated


def test_translates_pairwise_non_separated():
    rng = Random(513)
    A = rand_tuple(rng, 4)
    g, h = rand_group_lr(rng), rand_group_lr(rng)
    B = act_lr(g, A)
    C = act_lr(h, B)
    for x, y in ((A, B), (A, C), (B, C)):
        assert not separated_lr(x, y).separated


def test_separated_left_examples():
    A = LeftMatrix.from_rows([[1, 0], [0, 1]])
    B = LeftMatrix.from_rows([[2, 0], [0, 1]])
    rep = separated_left(A, B)
    assert rep.separated
    assert rep.witness == ("minor", (1, 2))
    assert rep.values == (Fraction(1), Fraction(2))

    rng = Random(514)
    for _ in range(20):
        l = rng.randint(2, 4)
        n = rng.randint(l, l + 3)
        M = rand_left(rng, l, n)
        g = rand_group_left(rng, l)
        assert not separated_left(M, act_left(g, M)).separated
        assert minors_left(act_left(g, M)) == minors_left(M)


def test_separated_left_rank_deficient_pairs():
    A = LeftMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    B = LeftMatrix.from_rows([[0, 1, 5], [0, 2, 10]])
    assert not separated_left(A, B).separated


def _separated_eager(A, B):
    """Reference: compare the full generator vectors in canonical order."""
    for (label, x), (_, y) in zip(generators_lr(A).labeled(), generators_lr(B).labeled()):
        if x != y:
            return SeparationReport(True, label, (x, y))
    return SeparationReport(False)


def _transpose(A):
    return MatrixTupleLR(tuple(transpose(m) for m in A.matrices))


def _componentwise_translate(rng, A):
    """Each component moved by its own group element: dets are kept."""
    return MatrixTupleLR(tuple(rand_sl2(rng) @ m @ rand_sl2(rng) for m in A.matrices))


def test_lazy_separation_matches_eager_comparison():
    rng = Random(515)
    first_kinds = Counter()
    for trial in range(160):
        n = rng.randint(4, 6)
        A = rand_tuple(rng, n)
        pick = trial % 4
        if pick == 0:
            B = act_lr(rand_group_lr(rng), A)
        elif pick == 1:
            B = rand_tuple(rng, n)
        elif pick == 2:
            B = _componentwise_translate(rng, A)
        else:
            # transposition keeps every det and every pairing
            B = act_lr(rand_group_lr(rng), _transpose(A))
        rep = separated_lr(A, B)
        assert rep == _separated_eager(A, B)
        first_kinds[rep.witness[0] if rep.separated else None] += 1
    assert first_kinds[None] == 40
    assert min(first_kinds["det"], first_kinds["bracket"], first_kinds["xi"]) >= 30
