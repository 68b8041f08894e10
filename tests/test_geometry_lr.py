from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from matsep import (GroupElementLR, MatrixTupleLR, PhiImage, PreconditionError, RMatrix,
                    UpperPair, act_lr, classify_pair, classify_pair_any,
                    common_directions, graph_member_upper, in_cc, in_cr, in_dc,
                    in_dr, is_stable_lr, m_c, m_matrix, m_r, nullcone_member_lr,
                    phi, phi_inverse, separated_lr, stack_rows)
from matsep.cli import _classify
from matsep.geometry_lr import CC, CR, GAMMA, _upper_rows, triangularizer_for_direction
from helpers import (rand_fraction, rand_group_lr, rand_nullcone_col_pattern,
                     rand_nullcone_row_pattern, rand_nullcone_triangular,
                     rand_tuple, rand_upper_tuple)


# -- stability ----------------------------------------------------------------


def test_single_matrix_always_non_stable():
    rng = Random(606)
    for _ in range(20):
        A = rand_tuple(rng, 1)
        rep = is_stable_lr(A)
        assert not rep.stable
        assert rep.triangularizer is not None
        assert act_lr(rep.triangularizer, A).is_upper()


def test_explicit_stable_triple():
    A = MatrixTupleLR.from_entries([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    rep = is_stable_lr(A)
    assert rep.stable
    assert rep.triangularizer is None


def test_upper_tuple_reports_identity_triangularizer():
    rng = Random(607)
    A = rand_upper_tuple(rng, 3)
    rep = is_stable_lr(A)
    assert not rep.stable
    assert rep.triangularizer.g1 == RMatrix.identity(2)
    assert rep.triangularizer.g2 == RMatrix.identity(2)
    assert rep.common_direction == (Fraction(1), Fraction(0))


def test_translates_of_upper_are_non_stable_with_witness():
    rng = Random(608)
    for _ in range(100):
        n = rng.randint(2, 5)
        A = act_lr(rand_group_lr(rng), rand_upper_tuple(rng, n))
        rep = is_stable_lr(A)
        assert not rep.stable
        assert rep.triangularizer is not None
        assert act_lr(rep.triangularizer, A).is_upper()


def test_non_stable_direction_spans_at_most_a_line():
    rng = Random(609)
    for _ in range(100):
        n = rng.randint(2, 4)
        A = act_lr(rand_group_lr(rng), rand_upper_tuple(rng, n))
        rep = is_stable_lr(A)
        v = rep.common_direction
        images = [m.mul_vec(v) for m in A.matrices]
        assert stack_rows(images).rank() <= 1


_SMALL_ENTRIES = st.integers(-2, 2) | st.fractions(-3, 3, max_denominator=3)


@settings(max_examples=300)
@given(st.lists(st.lists(_SMALL_ENTRIES, min_size=4, max_size=4), min_size=1, max_size=4),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any), st.booleans())
def test_upper_rows_read_the_triangularized_tuple(quads, v, along_v):
    """For an integer direction v, the integer rows of classify are the
    entries a, b and d of the tuple moved by stability's triangularizer,
    whether v is a common direction (then the tuple is upper) or not; the
    small entries reach a zero first image and all-zero images."""
    if along_v:   # every image on the line of the first matrix's image
        quads = [[k * x for x in quads[0]] for k in (1, -2, 0, 3)[:len(quads)]]
    A = MatrixTupleLR.from_entries(quads)
    a, b, d, scale = _upper_rows(A, v)
    moved = act_lr(triangularizer_for_direction(A, v), A).matrices
    assert [(Fraction(x, q), Fraction(y, q), Fraction(z, q))
            for x, y, z, q in zip(a, b, d, scale)] == [
        (m.at(0, 0), m.at(0, 1), m.at(1, 1)) for m in moved]
    if along_v:
        assert all(m.at(1, 0) == 0 for m in moved)


def test_irrational_common_direction_reported_without_witness():
    # q(v) = det[A1 v | A2 v] = -(v1^2 + 2 v2^2): a conjugate pair of
    # complex common directions, none rational
    A = MatrixTupleLR.from_entries([[0, 2, 1, 0], [1, 0, 0, -1]])
    rep = is_stable_lr(A)
    assert not rep.stable
    assert rep.common_direction is None
    assert rep.triangularizer is None


def test_generic_tuples_are_stable():
    rng = Random(610)
    stable_seen = 0
    for _ in range(50):
        A = rand_tuple(rng, rng.randint(3, 5))
        rep = is_stable_lr(A)
        if rep.stable:
            stable_seen += 1
    assert stable_seen >= 45  # non-stable tuples form a thin subset


# -- nullcone -----------------------------------------------------------------


def test_nullcone_examples():
    zero = MatrixTupleLR.from_entries([[0, 0, 0, 0], [0, 0, 0, 0]])
    assert nullcone_member_lr(zero)
    strict_upper = MatrixTupleLR.from_entries([[0, 5, 0, 0], [0, -2, 0, 0]])
    assert nullcone_member_lr(strict_upper)
    with_det = MatrixTupleLR.from_entries([[1, 0, 0, 1], [0, 5, 0, 0]])
    assert not nullcone_member_lr(with_det)


# -- the upper-pair correspondence --------------------------------------------


def test_phi_explicit_example():
    p = UpperPair(MatrixTupleLR.from_entries([[1, 5, 0, 2]]),
                  MatrixTupleLR.from_entries([[3, 7, 0, 4]]))
    img = phi(p)
    assert img.B.matrices[0] == RMatrix.from_rows([[-1, 3], [-4, 2]])
    assert img.B.matrices[0].det() == 10
    assert separated_lr(p.first, p.second).separated
    assert not nullcone_member_lr(img.B)


def test_phi_of_equal_diagonal_pair_is_nullcone():
    rng = Random(611)
    A = rand_upper_tuple(rng, 3)
    p = UpperPair(A, A)
    img = phi(p)
    assert nullcone_member_lr(img.B)
    for m in img.B.matrices:
        assert m.rank() <= 1


def test_phi_zero_pair():
    z = MatrixTupleLR.from_entries([[0, 0, 0, 0]])
    img = phi(UpperPair(z, z))
    assert all(m.is_zero() for m in img.B.matrices)


def test_phi_inverse_roundtrip():
    rng = Random(612)
    for _ in range(50):
        n = rng.randint(1, 5)
        p = UpperPair(rand_upper_tuple(rng, n), rand_upper_tuple(rng, n))
        assert phi_inverse(phi(p)) == p


def test_phi_equivalence_both_directions():
    rng = Random(613)
    non_sep = sep = 0
    for trial in range(500):
        n = rng.randint(1, 5)
        if trial % 2 == 0:
            # construct a nullcone point and pull it back: never separated
            B = (rand_nullcone_row_pattern(rng, n) if trial % 4 == 0
                 else rand_nullcone_col_pattern(rng, n))
            img = PhiImage(B, tuple(rand_fraction(rng) for _ in range(n)),
                           tuple(rand_fraction(rng) for _ in range(n)))
            p = phi_inverse(img)
        else:
            p = UpperPair(rand_upper_tuple(rng, n), rand_upper_tuple(rng, n))
        in_nullcone = nullcone_member_lr(phi(p).B)
        separated = separated_lr(p.first, p.second).separated
        assert in_nullcone == (not separated)
        non_sep += not separated
        sep += separated
    assert non_sep >= 200 and sep >= 150  # both directions exercised


# -- nullcone components -------------------------------------------------------


def test_component_examples():
    zero = MatrixTupleLR.from_entries([[0, 0, 0, 0], [0, 0, 0, 0]])
    assert in_dr(zero) and in_dc(zero)
    rng = Random(614)
    B = rand_nullcone_row_pattern(rng, 3)
    assert in_dr(B)
    C = rand_nullcone_col_pattern(rng, 3)
    assert in_dc(C)
    # a full-rank tuple is in neither
    full = MatrixTupleLR.from_entries([[1, 0, 0, 1], [0, 1, 1, 0]])
    assert not in_dr(full) and not in_dc(full)


def test_nullcone_cover_by_components():
    rng = Random(615)
    for trial in range(500):
        n = rng.randint(1, 5)
        pick = trial % 3
        if pick == 0:
            B = rand_nullcone_row_pattern(rng, n)
        elif pick == 1:
            B = rand_nullcone_col_pattern(rng, n)
        else:
            B = rand_nullcone_triangular(rng, n)
        assert nullcone_member_lr(B)
        assert in_dr(B) or in_dc(B)


def test_correspondence_crosses_row_and_column_labels():
    """Row-pattern pairs map onto column-proportional nullcone tuples and
    column-pattern pairs onto row-proportional ones."""
    rng = Random(616)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = [rand_fraction(rng) for _ in range(n)]
        b = [rand_fraction(rng) for _ in range(n)]
        b2 = [rand_fraction(rng) for _ in range(n)]
        d2 = [rand_fraction(rng) for _ in range(n)]
        lam = rand_fraction(rng, -4, 4)
        row_pair = UpperPair(
            MatrixTupleLR.from_entries(
                [[a[i], b[i], 0, lam * d2[i]] for i in range(n)]),
            MatrixTupleLR.from_entries(
                [[lam * a[i], b2[i], 0, d2[i]] for i in range(n)]))
        assert in_cr(row_pair)
        assert in_dc(phi(row_pair).B)
        col_pair = UpperPair(
            MatrixTupleLR.from_entries(
                [[a[i], b[i], 0, lam * d2[i]] for i in range(n)]),
            MatrixTupleLR.from_entries(
                [[d2[i], b2[i], 0, lam * a[i]] for i in range(n)]))
        assert in_cc(col_pair)
        assert in_dr(phi(col_pair).B)


def test_pattern_membership_implies_non_separation():
    rng = Random(617)
    for _ in range(100):
        n = rng.randint(1, 4)
        p = UpperPair(rand_upper_tuple(rng, n), rand_upper_tuple(rng, n))
        if in_cr(p) or in_cc(p):
            assert not separated_lr(p.first, p.second).separated


def test_independent_diagonals_not_in_patterns():
    p = UpperPair(
        MatrixTupleLR.from_entries([[1, 0, 0, 5], [0, 1, 0, 7]]),
        MatrixTupleLR.from_entries([[1, 2, 0, 5], [0, 3, 0, 7]]))
    # diagonals: d = (5,7), a = (1,0); d' = (5,7), a' = (1,0): pattern with
    # lam = 1 holds here, so perturb the second diagonal instead
    q = UpperPair(
        MatrixTupleLR.from_entries([[0, 1, 0, 3], [0, 1, 0, 0]]),
        MatrixTupleLR.from_entries([[0, 1, 0, 0], [0, 1, 0, 5]]))
    assert not separated_lr(q.first, q.second).separated
    assert not in_cr(q)


# -- rank criteria -------------------------------------------------------------


def test_m_matrix_shapes_and_zero():
    rng = Random(618)
    n = 4
    p = UpperPair(rand_upper_tuple(rng, n), rand_upper_tuple(rng, n))
    assert m_matrix(p).shape() == (6, n)
    assert m_r(p).shape() == (4, n)
    assert m_c(p).shape() == (4, n)
    z = MatrixTupleLR.from_entries([[0, 0, 0, 0]] * n)
    assert m_matrix(UpperPair(z, z)).rank() == 0


def test_m_matrix_rank_reduces_to_second_block():
    rng = Random(630)
    n = 4
    zero = MatrixTupleLR.from_entries([[0, 0, 0, 0]] * n)
    second = rand_upper_tuple(rng, n)
    p = UpperPair(zero, second)
    block = stack_rows(list(p.rows()[3:]))
    assert m_matrix(p).rank() == block.rank()


def test_graph_member_requires_non_separated():
    p = UpperPair(MatrixTupleLR.from_entries([[1, 0, 0, 2]]),
                  MatrixTupleLR.from_entries([[1, 0, 0, 3]]))
    with pytest.raises(PreconditionError):
        graph_member_upper(p)


def test_diagonal_pair_in_graph_closure():
    rng = Random(619)
    A = rand_upper_tuple(rng, 5)
    p = UpperPair(A, A)
    assert graph_member_upper(p)


def test_translate_pairs_rank_at_most_three():
    rng = Random(620)
    for _ in range(100):
        n = rng.randint(4, 6)
        A = rand_upper_tuple(rng, n)
        g = rand_group_lr(rng)
        B = act_lr(g, A)
        rep = is_stable_lr(B)
        assert not rep.stable and rep.triangularizer is not None
        p = UpperPair(A, act_lr(rep.triangularizer, B))
        assert not separated_lr(p.first, p.second).separated
        assert m_matrix(p).rank() <= 3
        assert graph_member_upper(p)


def _row_pattern_pair(a, b, b2, d2, lam):
    n = len(a)
    first = MatrixTupleLR.from_entries(
        [[a[i], b[i], 0, lam * d2[i]] for i in range(n)])
    second = MatrixTupleLR.from_entries(
        [[lam * a[i], b2[i], 0, d2[i]] for i in range(n)])
    return UpperPair(first, second)


def test_independent_vector_pattern_pairs_escape_graph():
    # four independent defining vectors: stacked rank 4, not in closure
    one = Fraction(1)
    zero = Fraction(0)
    e = lambda k, n=4: tuple(one if i == k else zero for i in range(n))
    p = _row_pattern_pair(e(0), e(1), e(2), e(3), Fraction(1))
    assert in_cr(p)
    assert m_r(p).rank() == 4
    assert not graph_member_upper(p)
    assert classify_pair(p) == frozenset({CR})


def test_small_n_always_in_graph_closure():
    rng = Random(621)
    for _ in range(200):
        n = rng.randint(1, 3)
        p = UpperPair(rand_upper_tuple(rng, n), rand_upper_tuple(rng, n))
        if not separated_lr(p.first, p.second).separated:
            assert graph_member_upper(p)


def test_double_pattern_pairs_classify_with_gamma():
    rng = Random(622)
    for _ in range(100):
        n = rng.randint(4, 6)
        a = [rand_fraction(rng) for _ in range(n)]
        b = [rand_fraction(rng) for _ in range(n)]
        b2 = [rand_fraction(rng) for _ in range(n)]
        lam, mu = rand_fraction(rng, -4, 4), rand_fraction(rng, -4, 4)
        first = MatrixTupleLR.from_entries(
            [[a[i], b[i], 0, mu * lam * a[i]] for i in range(n)])
        second = MatrixTupleLR.from_entries(
            [[lam * a[i], b2[i], 0, mu * a[i]] for i in range(n)])
        p = UpperPair(first, second)
        flags = classify_pair(p)
        assert GAMMA in flags
        assert CR in flags and CC in flags


def test_classification_always_carries_a_flag():
    rng = Random(623)
    checked = 0
    for trial in range(300):
        n = rng.randint(1, 5)
        pick = trial % 3
        if pick == 0:
            B = rand_nullcone_row_pattern(rng, n)
        elif pick == 1:
            B = rand_nullcone_col_pattern(rng, n)
        else:
            B = rand_nullcone_triangular(rng, n)
        img = PhiImage(B, tuple(rand_fraction(rng) for _ in range(n)),
                       tuple(rand_fraction(rng) for _ in range(n)))
        p = phi_inverse(img)
        flags = classify_pair(p)
        assert flags
        assert CR in flags or CC in flags
        checked += 1
    assert checked == 300


def test_classify_pair_any_on_translates():
    rng = Random(624)
    for _ in range(30):
        n = rng.randint(4, 5)
        A = act_lr(rand_group_lr(rng), rand_upper_tuple(rng, n))
        g = rand_group_lr(rng)
        B = act_lr(g, A)
        flags = classify_pair_any(A, B)
        assert GAMMA in flags


def test_classify_pair_any_rejects_separated():
    rng = Random(625)
    A = rand_tuple(rng, 3)
    B = rand_tuple(rng, 3)
    if separated_lr(A, B).separated:
        with pytest.raises(PreconditionError):
            classify_pair_any(A, B)


def test_classify_pair_any_stable_pairs_are_graph():
    rng = Random(626)
    A = MatrixTupleLR.from_entries([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    g = rand_group_lr(rng)
    assert classify_pair_any(A, act_lr(g, A)) == frozenset({GAMMA})


def test_classify_pair_any_recovers_pattern_after_translation():
    # translate both sides of a pattern pair independently: the saturated
    # membership flags must survive, and GAMMA must match the original
    rng = Random(627)
    for _ in range(25):
        n = rng.randint(4, 5)
        a = [rand_fraction(rng) for _ in range(n)]
        b = [rand_fraction(rng) for _ in range(n)]
        b2 = [rand_fraction(rng) for _ in range(n)]
        d2 = [rand_fraction(rng) for _ in range(n)]
        lam = rand_fraction(rng, -4, 4)
        p = _row_pattern_pair(a, b, b2, d2, lam)
        base_flags = classify_pair(p)
        assert CR in base_flags
        first = act_lr(rand_group_lr(rng), p.first)
        second = act_lr(rand_group_lr(rng), p.second)
        flags = classify_pair_any(first, second)
        assert CR in flags
        assert (GAMMA in flags) == (GAMMA in base_flags)


def _flags_one_by_one(p):
    """Reference: each public predicate on its own, each checking separation."""
    tests = ((GAMMA, graph_member_upper), (CR, in_cr), (CC, in_cc))
    return frozenset(flag for flag, member in tests if member(p))


def _flags_any_one_by_one(A, B):
    """Reference for classify_pair_any: representatives per common direction,
    each classified by the public predicates one by one."""
    if is_stable_lr(A).stable:
        return frozenset({GAMMA})
    fallback = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                (Fraction(1), Fraction(1)))
    reps = []
    for X in (A, B):
        dirs = common_directions(X)
        reps.append([act_lr(triangularizer_for_direction(X, v), X)
                     for v in (fallback if dirs is None else dirs)])
    return frozenset().union(*(_flags_one_by_one(UpperPair(ua, ub))
                               for ua in reps[0] for ub in reps[1]))


def _random_non_separated_upper_pair(rng, trial):
    n = rng.randint(1, 6)
    pick = trial % 4
    if pick == 3:
        A = rand_upper_tuple(rng, n)
        B = act_lr(rand_group_lr(rng), A)
        return UpperPair(A, act_lr(is_stable_lr(B).triangularizer, B))
    B = (rand_nullcone_row_pattern, rand_nullcone_col_pattern,
         rand_nullcone_triangular)[pick](rng, n)
    return phi_inverse(PhiImage(B, tuple(rand_fraction(rng) for _ in range(n)),
                                tuple(rand_fraction(rng) for _ in range(n))))


def test_classify_matches_predicates_one_by_one():
    rng = Random(631)
    for trial in range(120):
        p = _random_non_separated_upper_pair(rng, trial)
        assert classify_pair(p) == _flags_one_by_one(p)
        if trial % 3 == 0:
            A = act_lr(rand_group_lr(rng), p.first)
            B = act_lr(rand_group_lr(rng), p.second)
            assert classify_pair_any(A, B) == _flags_any_one_by_one(A, B)
    for _ in range(100):
        n = rng.randint(1, 4)
        p = UpperPair(rand_upper_tuple(rng, n), rand_upper_tuple(rng, n))
        if separated_lr(p.first, p.second).separated:
            with pytest.raises(PreconditionError):
                classify_pair(p)
            assert not in_cr(p) and not in_cc(p)
        else:
            assert classify_pair(p) == _flags_one_by_one(p)


# -- classify_pair_any on integer rows, against the representatives ---------------

_WIDE = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 5, 7, 2 ** 31 - 1)))


@st.composite
def _sl2(draw):
    """A determinant-one 2 x 2 matrix: a product of shears and diagonal
    scalings with Fraction parameters."""
    g = RMatrix.identity(2)
    for kind, t in draw(st.lists(st.tuples(st.sampled_from("uld"), _WIDE), max_size=4)):
        if kind == "u":
            g = g @ RMatrix.from_rows([[1, t], [0, 1]])
        elif kind == "l":
            g = g @ RMatrix.from_rows([[1, 0], [t, 1]])
        elif t:
            g = g @ RMatrix.from_rows([[t, 0], [0, 1 / t]])
    return g


@st.composite
def _translated_non_separated_pairs(draw):
    """A non-separated upper pair of one of four kinds, each side then moved
    by its own group element.  Row and column patterns come from a
    row- or column-proportional B = phi(pair), the triangular kind from a
    conjugated upper nullcone B, and the orbit kind pairs an upper tuple
    with a translate of itself.  Tying y or b to x, or a zero lam, makes a
    side admit every direction, so the fallback directions come up."""
    n = draw(st.integers(1, 5))
    vec = st.lists(_WIDE, min_size=n, max_size=n)
    x = draw(vec)

    def tied():
        return [draw(_WIDE) * e for e in x] if draw(st.booleans()) else draw(vec)

    lam = draw(st.sampled_from((Fraction(0), Fraction(1)))) * draw(_WIDE)
    kind = draw(st.sampled_from(("row", "col", "triangular", "orbit")))
    if kind == "orbit":
        d = [Fraction(0)] * n if lam == 0 else tied()
        A = MatrixTupleLR(tuple(RMatrix(2, 2, [xi, bi, 0, di])
                                for xi, bi, di in zip(x, tied(), d)))
        first, second = A, act_lr(GroupElementLR(draw(_sl2()), draw(_sl2())), A)
    else:
        y = tied()
        if kind == "row":
            B = [[xi, yi, lam * xi, lam * yi] for xi, yi in zip(x, y)]
        elif kind == "col":
            B = [[xi, lam * xi, yi, lam * yi] for xi, yi in zip(x, y)]
        else:
            U = MatrixTupleLR(tuple(RMatrix(2, 2, [xi, yi, 0, 0] if lam else [0, yi, 0, xi])
                                    for xi, yi in zip(x, y)))
            B = [m.entries for m in act_lr(GroupElementLR(draw(_sl2()), draw(_sl2())),
                                           U).matrices]
        B = MatrixTupleLR(tuple(RMatrix(2, 2, e) for e in B))
        p = phi_inverse(PhiImage(B, tuple(tied()), tuple(tied())))
        first, second = p.first, p.second
    return (act_lr(GroupElementLR(draw(_sl2()), draw(_sl2())), first),
            act_lr(GroupElementLR(draw(_sl2()), draw(_sl2())), second))


@settings(max_examples=150)
@given(_translated_non_separated_pairs())
def test_classify_pair_any_matches_representatives_one_by_one(pair):
    A, B = pair
    assert not separated_lr(A, B).separated
    flags = classify_pair_any(A, B)
    assert flags == _flags_any_one_by_one(A, B)
    assert flags


@settings(max_examples=60)
@given(_translated_non_separated_pairs(), st.booleans(), _sl2(), _sl2(), _sl2(), _sl2())
def test_classify_does_not_depend_on_how_the_pair_is_written(pair, upper, g1, g2, h1, h2):
    """`classify` gives a pair, written upper or not, the flags it gives
    the pair with each side moved by its own SL2 x SL2 element.  Sides that
    admit every direction (they take the fallback directions) and sides
    with no rational direction are left out."""
    A, B = pair
    dirs = [common_directions(X) for X in pair]
    assume(all(dirs))
    if upper:
        A, B = (act_lr(triangularizer_for_direction(X, d[0]), X) for X, d in zip(pair, dirs))
    flags = _classify(A, B)
    assert flags["upper_input"] == (A.is_upper() and B.is_upper())
    moved = act_lr(GroupElementLR(g1, g2), A), act_lr(GroupElementLR(h1, h2), B)
    assert _classify(*moved)["flags"] == flags["flags"]


def test_classify_pair_any_builds_no_representative(monkeypatch):
    # the representatives' rows come from the integer forms: with the
    # matrix route unavailable the flags are still the representatives'
    import matsep.geometry_lr as geometry_lr
    rng = Random(640)
    pairs = []
    for trial in range(24):
        p = _random_non_separated_upper_pair(rng, trial)
        pairs.append((act_lr(rand_group_lr(rng), p.first), act_lr(rand_group_lr(rng), p.second)))
    x = [Fraction(2, 3), Fraction(-5), Fraction(1, 7)]
    flat = MatrixTupleLR(tuple(RMatrix(2, 2, [e, 3 * e, 0, -e]) for e in x))
    pairs.append((act_lr(rand_group_lr(rng), flat), act_lr(rand_group_lr(rng), flat)))
    assert common_directions(pairs[-1][0]) is None
    expected = [_flags_any_one_by_one(A, B) for A, B in pairs]

    def refuse(*_):
        raise AssertionError("a representative was built as matrices")
    monkeypatch.setattr(geometry_lr, "act_lr", refuse, raising=False)
    monkeypatch.setattr(geometry_lr, "triangularizer_for_direction", refuse)
    assert [classify_pair_any(A, B) for A, B in pairs] == expected
