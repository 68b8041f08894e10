from fractions import Fraction
from random import Random

import pytest

from matsep import (LaurentPoly, LeftMatrix, PreconditionError, RMatrix,
                    act_left, echelon_sl, graph_member_l23, graph_necessary,
                    is_stable_left, minors_left, nullcone_member_left,
                    reduced_form_single, stack, witness_curve_auto,
                    witness_curve_left)
from helpers import (rand_fraction, rand_group_left, rand_left,
                     rand_left_nullcone, rand_matrix)


def test_stability_examples():
    assert is_stable_left(LeftMatrix.from_rows([[1, 0, 5], [0, 1, 7]]))
    assert not is_stable_left(LeftMatrix.from_rows([[1, 2, 3], [0, 0, 0]]))
    # rank l-1 input
    assert not is_stable_left(LeftMatrix.from_rows([[1, 2, 0], [2, 4, 0], [3, 6, 1]]))


def test_nullcone_examples():
    assert nullcone_member_left(LeftMatrix.from_rows([[0, 0], [0, 0]]))
    assert not nullcone_member_left(LeftMatrix.from_rows([[1, 0], [0, 1]]))
    rng = Random(707)
    for _ in range(30):
        l = rng.randint(2, 4)
        n = rng.randint(l, l + 2)
        A = rand_left(rng, l, n)
        assert nullcone_member_left(A) == all(v == 0 for v in minors_left(A))


def test_stack_examples():
    I = LeftMatrix.from_rows([[1, 0], [0, 1]])
    Z = LeftMatrix.from_rows([[0, 0], [0, 0]])
    assert stack(I, Z).rank() == 2
    assert stack(I, I).rank() == 2
    assert stack(Z, Z).rank() == 0


def test_graph_necessary():
    rng = Random(708)
    # l = 2: always true for nullcone pairs
    for _ in range(50):
        A = rand_left_nullcone(rng, 2, rng.randint(2, 5))
        B = rand_left_nullcone(rng, 2, A.n)
        assert graph_necessary(A, B)
        assert graph_member_l23(A, B)
    # identical pair
    A = rand_left_nullcone(rng, 3, 5)
    assert graph_necessary(A, A)
    # full-rank input rejected
    with pytest.raises(PreconditionError):
        graph_necessary(LeftMatrix.from_rows([[1, 0], [0, 1]]),
                        LeftMatrix.from_rows([[0, 0], [0, 0]]))


def test_graph_necessary_fails_for_generic_rank3_pairs_l4():
    rng = Random(709)
    found_false = 0
    for _ in range(50):
        n = 6
        A = rand_left_nullcone(rng, 4, n)
        B = rand_left_nullcone(rng, 4, n)
        if stack(A, B).rank() == 6:
            assert not graph_necessary(A, B)
            found_false += 1
    assert found_false >= 10


def test_graph_member_l23_rank_gap():
    # two rank-2 l=3 matrices stacking to rank 4
    A = LeftMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    B = LeftMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert not graph_member_l23(A, B)
    # shared 3-dimensional row space
    C = LeftMatrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0]])
    D = LeftMatrix.from_rows([[1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert stack(C, D).rank() <= 3
    assert graph_member_l23(C, D)
    with pytest.raises(PreconditionError):
        graph_member_l23(rand_left_nullcone(Random(1), 4, 5),
                         rand_left_nullcone(Random(2), 4, 5))


def test_echelon_sl():
    rng = Random(710)
    for _ in range(100):
        l = rng.randint(2, 4)
        n = rng.randint(1, l + 3)
        A = rand_left(rng, l, n)
        g, R = echelon_sl(A)
        assert g.g.det() == 1
        assert act_left(g, A) == R
        # echelon: pivots strictly to the right, zero rows at the bottom
        last_pivot = -1
        for r in range(l):
            row = R.matrix.row(r)
            pivot = next((c for c, e in enumerate(row) if e != 0), None)
            if pivot is None:
                assert all(all(e == 0 for e in R.matrix.row(r2))
                           for r2 in range(r, l))
                break
            assert pivot > last_pivot
            last_pivot = pivot
        assert minors_left(R) == minors_left(A)


def test_echelon_already_reduced():
    A = LeftMatrix.from_rows([[1, 2, 3], [0, 4, 5]])
    g, R = echelon_sl(A)
    assert g.g == RMatrix.identity(2)
    assert R == A


def test_echelon_sl_negates_each_row_it_moves_up():
    """Two swaps: row 1 moves up for column 0, then the updated row 2 for
    column 1; each moved-up row is negated, the one moved down is not."""
    A = LeftMatrix.from_rows([[0, 0, 3, 1], [2, 1, 1, 0], [3, 1, 0, 2]])
    g, R = echelon_sl(A)
    h = Fraction(1, 2)
    assert g.g == RMatrix.from_rows([[0, -1, 0], [0, 3 * h, -1], [1, 0, 0]])
    assert R == LeftMatrix.from_rows([[-2, -1, -1, 0], [0, h, 3 * h, -2], [0, 0, 3, 1]])


def test_reduced_form_single():
    # determinant-one scaling pairs identify diag(1,4) with diag(2,2)
    a = reduced_form_single(RMatrix.from_rows([[1, 0], [0, 4]]))
    b = reduced_form_single(RMatrix.from_rows([[2, 0], [0, 2]]))
    assert a == b == (2, Fraction(4))
    assert reduced_form_single(RMatrix.from_rows([[1, 2], [2, 4]])) == (1, None)
    assert reduced_form_single(RMatrix.zeros(3, 3)) == (0, None)
    assert reduced_form_single(RMatrix.from_rows([[1, 0, 0], [0, 1, 0]])) == (2, None)


# -- witness curves ------------------------------------------------------------


def _check_witness(w, A, B, t_values=(1, 2, Fraction(1, 3), -5)):
    assert w.verify()
    la, lb = w.limits()
    assert la == A and lb == B
    for t in t_values:
        at = LeftMatrix(w.a_curve.evaluate(t))
        bt = LeftMatrix(w.a2_curve.evaluate(t))
        assert minors_left(at) == minors_left(bt)


def test_curve_l2_explicit():
    A = LeftMatrix.from_rows([[1, 0], [0, 0]])
    B = LeftMatrix.from_rows([[0, 1], [0, 0]])
    w = witness_curve_left(A, B)
    _check_witness(w, A, B)


def test_curve_l2_constant_pair():
    A = LeftMatrix.from_rows([[3, 5, 7], [0, 0, 0]])
    w = witness_curve_left(A, A)
    _check_witness(w, A, A)


def test_curve_l2_random():
    rng = Random(711)
    for _ in range(100):
        n = rng.randint(1, 5)
        A = LeftMatrix(RMatrix.from_rows(
            [[rand_fraction(rng) for _ in range(n)], [Fraction(0)] * n]))
        B = LeftMatrix(RMatrix.from_rows(
            [[rand_fraction(rng) for _ in range(n)], [Fraction(0)] * n]))
        _check_witness(witness_curve_left(A, B), A, B)


def _random_l3_admissible(rng, n):
    """Echelon-reduced nullcone pair with stacked rank at most three."""
    span = [[rand_fraction(rng) for _ in range(n)] for _ in range(3)]

    def combo(vecs, k):
        rows = []
        for _ in range(k):
            cs = [rand_fraction(rng, -3, 3) for _ in vecs]
            rows.append([sum((c * v[i] for c, v in zip(cs, vecs)), Fraction(0))
                         for i in range(n)])
        return rows

    shape = rng.randrange(4)
    if shape == 0:  # generic: both sides 2-dimensional inside the span
        a_rows = combo(span[:2], 2)
        sub = combo(span, 2)
        b_rows = combo(sub, 2)
    elif shape == 1:  # first side degenerate
        a_rows = combo(span[:1], 2)
        b_rows = combo(span[:2], 2)
    elif shape == 2:  # second side degenerate
        a_rows = combo(span[:2], 2)
        b_rows = combo(span[:1], 2)
    else:  # zero side
        a_rows = [[Fraction(0)] * n, [Fraction(0)] * n]
        b_rows = combo(span[:2], 2)
    A = LeftMatrix(RMatrix.from_rows(a_rows + [[Fraction(0)] * n]))
    B = LeftMatrix(RMatrix.from_rows(b_rows + [[Fraction(0)] * n]))
    _, A = echelon_sl(A)
    _, B = echelon_sl(B)
    return A, B


def test_curve_l3_random():
    rng = Random(712)
    for _ in range(100):
        n = rng.randint(2, 5)
        A, B = _random_l3_admissible(rng, n)
        assert stack(A, B).rank() <= 3
        _check_witness(witness_curve_left(A, B), A, B)


def test_curve_requires_reduction():
    A = LeftMatrix.from_rows([[0, 0], [1, 0]])
    B = LeftMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError):
        witness_curve_left(A, B)


def test_curve_rejects_rank_violation():
    A = LeftMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    B = LeftMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    with pytest.raises(PreconditionError):
        witness_curve_left(A, B)


def test_curve_auto_handles_unreduced_pairs():
    rng = Random(713)
    for _ in range(30):
        l = rng.choice((2, 3))
        n = rng.randint(l, l + 2)
        if l == 2:
            A = rand_left_nullcone(rng, 2, n)
            B = rand_left_nullcone(rng, 2, n)
        else:
            A0, B0 = _random_l3_admissible(rng, n)
            A = act_left(rand_group_left(rng, 3), A0)
            B = act_left(rand_group_left(rng, 3), B0)
        if stack(A, B).rank() > l:
            continue
        w = witness_curve_auto(A, B)
        _check_witness(w, A, B)


def test_graph_member_invariance():
    rng = Random(714)
    for _ in range(50):
        l = rng.choice((2, 3))
        n = rng.randint(l, l + 3)
        A = rand_left_nullcone(rng, l, n)
        B = rand_left_nullcone(rng, l, n)
        base = graph_member_l23(A, B)
        gA = act_left(rand_group_left(rng, l), A)
        gB = act_left(rand_group_left(rng, l), B)
        assert graph_member_l23(gA, gB) == base
        h = rand_matrix(rng, n, n)
        while h.rank() < n:
            h = rand_matrix(rng, n, n)
        assert graph_member_l23(LeftMatrix(A.matrix @ h),
                                LeftMatrix(B.matrix @ h)) == base
