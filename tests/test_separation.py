from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from matsep import (GroupElementLR, LeftMatrix, MatrixTupleLR,
                    PreconditionError, RMatrix, SeparationReport, ShapeError,
                    act_left, act_lr, generators_lr, minor_column_sets, minors_left,
                    separated_left, separated_lr, star)
from matsep import invariants, matrix, separation
from helpers import (bareiss_rank, inverse, minors_left_by_fractions, rand_fraction,
                     rand_group_left, rand_group_lr, rand_left, rand_left_nullcone,
                     rand_matrix, rand_sl, rand_sl2, rand_tuple, scaled,
                     separated_left_eager, transpose)


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


# -- left separation from one elimination per side -------------------------------

_COLUMN_KINDS = ("generic", "zero", "repeated", "late pivots")
_LEFT_PAIR_KINDS = ("orbit", "scaled orbit", "one deficient", "both deficient",
                    "last minor", "random")


def _left_rows(rng, l, n, columns):
    """l x n Fraction rows, about a third of the entries 0, so rows meet
    zeros in pivot columns; `columns` adds zero columns, a repeated
    column, or n - l + 1 first columns on one line, which puts every pivot
    but one past those columns."""
    rows = [[Fraction(0) if rng.random() < 0.3 else rand_fraction(rng) for _ in range(n)]
            for _ in range(l)]
    if columns == "zero":
        for c in rng.sample(range(n), rng.randint(1, max(1, n - l))):
            for row in rows:
                row[c] = Fraction(0)
    elif columns == "repeated":
        src, dst = rng.sample(range(n), 2)
        k = rand_fraction(rng, -3, 3)
        for row in rows:
            row[dst] = k * row[src]
    elif columns == "late pivots":
        _on_one_line(rng, rows, n - l + 1)
    return rows


def _on_one_line(rng, rows, count, multiples=(0, 1, -2, Fraction(1, 2))):
    """Make the first `count` columns multiples of one nonzero column w;
    returns w."""
    w = [rand_fraction(rng) or Fraction(1) for _ in rows]
    for c in range(count):
        k = rng.choice(multiples)
        for row, x in zip(rows, w):
            row[c] = k * x
    return w


def _deficient(rng, rows):
    """The rows with the last one replaced by a combination of the others."""
    coeffs = [rand_fraction(rng, -3, 3) for _ in rows[:-1]]
    last = [sum((k * row[c] for k, row in zip(coeffs, rows)), Fraction(0))
            for c in range(len(rows[0]))]
    return rows[:-1] + [last]


def _left_pair(rng, l, n, columns, kind):
    """(A, B) of one kind: B in A's orbit, or in it times a determinant-2
    row scaling; one or both sides below rank l; B with only its last
    column moved, by the vector that A's first n - l columns are
    multiples of, so only the last minor changes; or B at random."""
    rows = _left_rows(rng, l, n, columns)
    g = rand_sl(rng, l)
    if kind == "last minor":
        w = _on_one_line(rng, rows, n - l, (1, -2, Fraction(1, 2)))
        second = [row[:-1] + [row[-1] + x] for row, x in zip(rows, w)]
    elif kind == "random":
        second = _left_rows(rng, l, n, columns)
    else:
        if kind == "both deficient":
            rows = _deficient(rng, rows)
        source = _deficient(rng, rows) if kind.endswith("deficient") else rows
        second = (g @ RMatrix.from_rows(source)).to_rows()
        if kind == "scaled orbit":
            second[0] = [2 * x for x in second[0]]
    return LeftMatrix.from_rows(rows), LeftMatrix.from_rows(second)


def _assert_left_pair_matches_oracles(A, B):
    assert minors_left(A) == minors_left_by_fractions(A)
    assert minors_left(B) == minors_left_by_fractions(B)
    rep = separated_left(A, B)
    assert rep == separated_left_eager(A, B)
    return rep


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_left_minors_and_separation_match_the_eager_oracles(l):
    """Every pair kind on every column kind, at n = l, l + 1 and l + 3,
    each way round: the minors match Fraction submatrix determinants and
    the verdict and witness match comparing every minor in order."""
    rng = Random(600 + l)
    verdicts = Counter()
    for n in (l, l + 1, l + 3):
        for columns in _COLUMN_KINDS:
            for kind in _LEFT_PAIR_KINDS:
                A, B = _left_pair(rng, l, n, columns, kind)
                for first, second in ((A, B), (B, A)):
                    rep = _assert_left_pair_matches_oracles(first, second)
                    verdicts[kind, rep.separated] += 1
                    if kind == "last minor" and rep.separated:
                        assert rep.witness == ("minor", tuple(range(n - l + 1, n + 1)))
    for kind in ("orbit", "both deficient"):
        assert verdicts[kind, True] == 0
    for kind in ("scaled orbit", "one deficient", "last minor", "random"):
        assert verdicts[kind, True] >= 8


@settings(max_examples=150, deadline=None)
@given(l=st.integers(2, 5), extra=st.integers(0, 4), columns=st.sampled_from(_COLUMN_KINDS),
       kind=st.sampled_from(_LEFT_PAIR_KINDS), rng=st.randoms(use_true_random=False))
def test_left_minors_and_separation_match_the_eager_oracles_on_drawn_pairs(
        l, extra, columns, kind, rng):
    _assert_left_pair_matches_oracles(*_left_pair(rng, l, l + extra, columns, kind))


def test_left_separation_walks_the_minors_only_for_two_row_spaces_of_rank_l(monkeypatch):
    """With no minor to compare (MAX_COMPARED_MINORS = 0), `separated_left`
    refuses exactly the pairs whose sides have rank l < n and whose
    stacked rank is above l, the pairs it walks, and decides every other
    pair as before.  A walked pair is decided while the limit reaches its
    first differing minor and refused when it stops one short."""
    rng = Random(620)
    walked = Counter()
    for l in (2, 3, 4):
        for n in (l, l + 2):
            for kind in _LEFT_PAIR_KINDS:
                A, B = _left_pair(rng, l, n, "generic", kind)
                monkeypatch.setattr(separation, "MAX_COMPARED_MINORS", 20_000)
                rep = separated_left(A, B)
                ranks = bareiss_rank(A.matrix), bareiss_rank(B.matrix)
                scan = n > l and ranks == (l, l) and bareiss_rank(A.matrix.vstack(B.matrix)) > l
                walked[scan] += 1
                monkeypatch.setattr(separation, "MAX_COMPARED_MINORS", 0)
                if not scan:
                    assert separated_left(A, B) == rep
                    continue
                first = minor_column_sets(l, n).index(rep.witness[1])
                for limit in (0, first):
                    monkeypatch.setattr(separation, "MAX_COMPARED_MINORS", limit)
                    with pytest.raises(PreconditionError, match=(
                            f"^a {l} x {n} left pair agrees on the first {limit} of its "
                            f"{comb(n, l)} maximal minors per side")):
                        separated_left(A, B)
                monkeypatch.setattr(separation, "MAX_COMPARED_MINORS", first + 1)
                assert separated_left(A, B) == rep
    assert min(walked.values()) >= 5


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The calls of the elimination kernel, through every module that
    holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    real = matrix._bareiss
    for module in (matrix, invariants):
        monkeypatch.setattr(module, "_bareiss", counted)
    return calls


@pytest.mark.parametrize("l,n", [(3, 6), (5, 20), (8, 40), (12, 40), (12, 12)])
def test_left_separation_makes_two_eliminations_at_any_size(bareiss_calls, l, n):
    """An orbit pair, a scaled orbit pair and a pair with one side below
    rank l are decided from one elimination per side, whatever C(n, l)."""
    rng = Random(630 + n)
    A = rand_left(rng, l, n)
    B = act_left(rand_group_left(rng, l), A)
    C = LeftMatrix(scaled(B.matrix, 2))
    D = LeftMatrix.from_rows(_deficient(rng, B.matrix.to_rows()))
    for second, separated in ((B, False), (C, True), (D, True)):
        bareiss_calls.clear()
        assert separated_left(A, second).separated == separated
        assert len(bareiss_calls) == 2


@pytest.mark.parametrize("l,n", [(2, 3), (3, 7), (5, 9), (4, 12), (6, 6)])
def test_minors_left_makes_one_elimination(bareiss_calls, l, n):
    rng = Random(640 + n)
    for A in (rand_left(rng, l, n), rand_left_nullcone(rng, l, n)):
        bareiss_calls.clear()
        assert len(minors_left(A)) == comb(n, l)
        assert len(bareiss_calls) == 1
