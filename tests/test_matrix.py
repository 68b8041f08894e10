from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from matsep import LeftMatrix, RMatrix, ShapeError, echelon_sl, stack_rows
from matsep.matrix import adjugate, cofactor_det, integer_det
from helpers import (bareiss_det, bareiss_rank, echelon_sl_by_fractions, hstack,
                     integer_rows_by_fraction_products, inverse, rand_fraction, rand_matrix,
                     rand_sl, rref_by_fractions, scaled, transpose)


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
        assert m.rank() == transpose(m).rank()


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
            assert m @ inverse(m) == RMatrix.identity(n)
        else:
            basis = m.nullspace()
            assert basis
            for v in basis:
                assert all(x == 0 for x in m.mul_vec(v))


@pytest.mark.parametrize("x", [1, -3, Fraction(2, 7), 0])
def test_adjugate_of_a_one_by_one_grid_is_one(x):
    # the empty determinant is 1, so the 1 x 1 adjugate is [[1]] for any entry
    assert cofactor_det([]) == 1
    assert adjugate([[x]]) == [[1]]


def test_adjugate_inverts_determinant_one_matrices():
    rng = Random(105)
    for l in (1, 2, 2, 3, 3):
        for _ in range(40):
            g = rand_sl(rng, l, shears=6)
            assert g.det() == 1
            assert RMatrix.from_rows(adjugate(g.to_rows())) == inverse(g)
            grid = [[int(e * 6) for e in row] for row in g.to_rows()]  # g = grid / 6
            assert scaled(RMatrix.from_rows(adjugate(grid)), Fraction(1, 6 ** (l - 1))) \
                == inverse(g)


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


def test_integer_rows_match_fraction_products():
    rng = Random(107)
    shapes = [(1, k) for k in range(1, 7)] + [(k, 1) for k in range(1, 7)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(200)]
    for r, c in shapes:
        m = _wide_fraction_matrix(rng, r, c)
        rows, scale = m._integer_rows()
        ref_rows, ref_scale = integer_rows_by_fraction_products(m)
        assert rows == ref_rows
        assert scale == ref_scale
        assert all(type(e) is int for row in rows for e in row)
        assert m.rank() == len(m.rref()[1])
    assert RMatrix.zeros(3, 2)._integer_rows() == ([[0, 0]] * 3, 1)


def test_det_of_wide_fractions_matches_cofactor_det():
    rng = Random(108)
    for n in (1, 2, 3, 4, 5):
        for _ in range(30):
            m = _wide_fraction_matrix(rng, n, n, special=0.03)
            assert m.det() == cofactor_det(m.to_rows())


# -- the skipping elimination kernel against eager Bareiss ----------------------


def _assert_kernel_matches_oracles(m: RMatrix, cofactor_up_to=6):
    rank = m.rank()
    assert rank == bareiss_rank(m)
    rref = m.rref()
    assert rref == rref_by_fractions(m)
    assert rank == len(rref[1])
    if m.rows == m.cols:
        det = m.det()
        assert det == bareiss_det(m)
        assert (det != 0) == (rank == m.rows)
        if 0 < m.rows <= cofactor_up_to:
            assert det == cofactor_det(m.to_rows())


def _sparse_entry(rng: Random, density: float, big=False) -> Fraction:
    """Zero with probability 1 - density; `big` draws 40-digit numerators
    over denominators up to 10**6."""
    if rng.random() >= density:
        return Fraction(0)
    if big:
        return Fraction(rng.choice((-1, 1)) * rng.randint(10 ** 39, 10 ** 40),
                        rng.randint(1, 10 ** 6))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3, 7)))


def _sparse_matrix(rng: Random, rows: int, cols: int, density: float, big=False) -> RMatrix:
    """Sparse matrix; a row and a column are zeroed a quarter of the time each."""
    grid = [[_sparse_entry(rng, density, big) for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.25:
        grid[rng.randrange(rows)] = [Fraction(0)] * cols
    if cols and rng.random() < 0.25:
        c = rng.randrange(cols)
        for row in grid:
            row[c] = Fraction(0)
    return RMatrix(rows, cols, [e for row in grid for e in row])


def _staircase_rows(rng: Random, leads, cols: int, density=0.6, big=False) -> list:
    """Row i is zero before column leads[i], nonzero there, sparse after."""
    return [[Fraction(0)] * lead + [_sparse_entry(rng, 1.0, big)]
            + [_sparse_entry(rng, density, big) for _ in range(cols - lead - 1)]
            for lead in leads]


def test_kernel_matches_oracles_on_sparse_matrices():
    rng = Random(109)
    for density in (0.05, 0.1, 0.2, 0.4, 0.6):
        for _ in range(40):
            r, c = rng.randint(1, 9), rng.randint(1, 9)
            _assert_kernel_matches_oracles(_sparse_matrix(rng, r, c, density))
        for n in range(4, 8):
            _assert_kernel_matches_oracles(_sparse_matrix(rng, n, n, density))


def test_kernel_on_empty_and_thin_shapes():
    rng = Random(110)
    for k in range(5):
        assert RMatrix(0, k, []).rank() == 0
        assert RMatrix(k, 0, []).rank() == 0
    assert RMatrix(0, 0, []).det() == 1
    assert RMatrix(0, 0, []).rref() == ([], [])
    assert inverse(RMatrix(0, 0, [])) == RMatrix(0, 0, [])
    for k in range(1, 8):
        for density in (0.0, 0.3, 1.0):
            _assert_kernel_matches_oracles(_sparse_matrix(rng, 1, k, density))
            _assert_kernel_matches_oracles(_sparse_matrix(rng, k, 1, density))


def test_kernel_on_matrices_built_rank_deficient():
    rng = Random(111)
    for _ in range(60):
        cols = rng.randint(3, 10)
        target = rng.randint(0, min(4, cols))
        leads = sorted(rng.sample(range(cols), target))
        basis = _staircase_rows(rng, leads, cols, density=rng.choice((0.1, 0.3, 0.6)))
        rows = list(basis)
        for _ in range(rng.randint(0, 5)):
            coeffs = [_sparse_entry(rng, 0.5) for _ in basis]
            rows.append([sum((a * row[j] for a, row in zip(coeffs, basis)), Fraction(0))
                         for j in range(cols)])
        rng.shuffle(rows)
        m = RMatrix(len(rows), cols, [e for row in rows for e in row])
        assert m.rank() == target
        _assert_kernel_matches_oracles(m)


def test_kernel_catches_up_rows_skipped_on_a_staircase():
    """Rows whose first nonzero sits several pivot columns to the right are
    skipped for several steps, then caught up as a pivot or as an updated
    row; 40-digit numerators make a wrong catch-up factor visible."""
    rng = Random(112)
    for big in (False, True):
        for _ in range(25):
            cols = rng.randint(5, 10)
            leads = sorted(rng.choice((0, 0, 0, 1, 3, 4, 6)) % cols
                           for _ in range(rng.randint(4, 9)))
            rows = _staircase_rows(rng, leads, cols, big=big)
            rng.shuffle(rows)
            m = RMatrix(len(rows), cols, [e for row in rows for e in row])
            _assert_kernel_matches_oracles(m, cofactor_up_to=7)
            _assert_kernel_matches_oracles(transpose(m), cofactor_up_to=7)


def test_kernel_with_40_digit_numerators():
    rng = Random(113)
    for density in (0.1, 0.3, 0.6):
        for _ in range(15):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            _assert_kernel_matches_oracles(_sparse_matrix(rng, r, c, density, big=True))
        for n in range(4, 7):
            _assert_kernel_matches_oracles(_sparse_matrix(rng, n, n, density, big=True))


def _permutation_sign(perm) -> int:
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_det_sign_when_rows_are_swapped_past_skipped_rows():
    """Rows of an upper-triangular matrix in shuffled order: the pivot of
    column k sits below rows skipped since earlier steps, and the det is
    the sign of the shuffle times the diagonal product."""
    rng = Random(114)
    for n in range(4, 8):
        for big in (False, True):
            for _ in range(8):
                upper = _staircase_rows(rng, range(n), n, density=rng.choice((0.2, 0.6)),
                                        big=big)
                perm = list(range(n))
                rng.shuffle(perm)
                m = RMatrix.from_rows([upper[perm[i]] for i in range(n)])
                diagonal = Fraction(1)
                for k in range(n):
                    diagonal *= upper[k][k]
                assert m.det() == _permutation_sign(perm) * diagonal
                _assert_kernel_matches_oracles(m, cofactor_up_to=7)


def test_integer_det_sign_comes_from_negating_swaps():
    transposition = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    four_cycle = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    for grid in (transposition, four_cycle):
        assert integer_det(grid) == -1
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1


@st.composite
def _sparse_integer_matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(-20, 20).filter(bool) if draw(st.booleans()) else st.integers(-3, 3)
    ents = draw(st.lists(st.one_of(st.just(0), entry), min_size=rows * cols,
                         max_size=rows * cols))
    return RMatrix(rows, cols, ents)


@settings(max_examples=150)
@given(_sparse_integer_matrices())
def test_kernel_property_against_oracles(m):
    assert m.rank() == bareiss_rank(m)
    if m.rows == m.cols:
        assert m.det() == (cofactor_det(m.to_rows()) if m.rows else 1)


@st.composite
def _rational_matrices(draw):
    """Shapes 0..6 by 0..6, square half the time, with fractional entries;
    a column may be zeroed and a row may be a combination of two others."""
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 6))
    size = rows * cols
    nums = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)),
                         min_size=size, max_size=size))
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3, 7)), min_size=size, max_size=size))
    entries = [Fraction(a, b) for a, b in zip(nums, dens)]
    grid = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
    if cols and draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in grid:
            row[zero] = Fraction(0)
    if rows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(rows)))[:3]
        s, t = (Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2)))) for _ in "st")
        grid[k] = [s * a + t * b for a, b in zip(grid[i], grid[j])]
    return RMatrix(rows, cols, [e for row in grid for e in row])


@settings(max_examples=200)
@given(_rational_matrices())
@example(RMatrix(0, 0, []))
@example(RMatrix(3, 0, []))
@example(RMatrix(0, 4, []))
def test_elimination_property_against_fraction_loops(m):
    reduced, pivots = rref_by_fractions(m)
    assert m.rref() == (reduced, pivots)
    kernel = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(m.cols)]
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        kernel.append(tuple(v))
    assert m.nullspace() == kernel
    if m.rows == m.cols:
        n = m.rows
        aug, aug_pivots = rref_by_fractions(hstack(m, RMatrix.identity(n)))
        if aug_pivots == list(range(n)):
            assert inverse(m) == RMatrix(n, n, [e for row in aug for e in row[n:]])
        else:
            with pytest.raises(ShapeError):
                inverse(m)
    if m.rows >= 2:
        g, R = echelon_sl(LeftMatrix(m))
        g_ref, R_ref = echelon_sl_by_fractions(LeftMatrix(m))
        assert g.g.entries == g_ref.g.entries
        assert R.matrix.entries == R_ref.matrix.entries


@st.composite
def _fraction_grids(draw):
    """A grid of Fractions, 0..4 by 0..4, and for each row a multiplier
    k >= 1 that puts it over k times its least common denominator."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=30).map(
        lambda f: f.limit_denominator(30)), st.integers(-10**20, 10**20).map(Fraction))
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return grid, [draw(st.sampled_from((1, 1, 2, 6, 35))) for _ in range(rows)]


def _over_scales(grid, cols, multipliers) -> RMatrix:
    """The grid as integer rows over k times each row's lcm denominator."""
    rows, scales = [], []
    for row, k in zip(grid, multipliers):
        scale = k * lcm(*(e.denominator for e in row))
        rows.append([int(e * scale) for e in row])
        scales.append(scale)
    return RMatrix.from_integer_rows(rows, cols, scales)


@settings(max_examples=200)
@given(_fraction_grids(), _fraction_grids())
@example(([[Fraction(1), Fraction(2)]], [2]), ([[Fraction(1), Fraction(2)]], [1]))
def test_rmatrix_reads_back_and_compares_like_its_fraction_tuple(first, second):
    """Built from Fractions or from integer rows over any row scales, a
    matrix reads back its entries, and == and hash follow the Fraction
    tuple: [2, 4]/2 equals [1, 2]/1."""
    (grid, mult), (grid2, mult2) = first, second
    cols, cols2 = (len(g[0]) if g else 0 for g in (grid, grid2))
    oracle = (len(grid), cols, tuple(e for row in grid for e in row))
    oracle2 = (len(grid2), cols2, tuple(e for row in grid2 for e in row))
    a = RMatrix(len(grid), cols, oracle[2])
    b = _over_scales(grid, cols, mult)
    c = _over_scales(grid2, cols2, mult2)
    for m in (a, b):
        assert m.entries == oracle[2] and all(type(e) is Fraction for e in m.entries)
        assert m.to_rows() == grid
        assert [m.row(r) for r in range(m.rows)] == [tuple(row) for row in grid]
    assert c.entries == oracle2[2]
    assert a == b and hash(a) == hash(b)
    assert (b == c) == (oracle == oracle2)
    if oracle == oracle2:
        assert hash(b) == hash(c)
    assert (a == -a) == (not any(oracle[2])) == b.is_zero() == a.is_zero()
    assert (-b).entries == tuple(-e for e in oracle[2])
    assert b != oracle[2]
