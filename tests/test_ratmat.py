from fractions import Fraction
from math import gcd
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from confweyl import ratmat
from confweyl.ratmat import RationalMatrix, rank_of_vectors

P = (1 << 61) - 1  # a Mersenne prime: far taller than any ∇ entry

# tall entries and non-unit pivots: multiples of P, 1/P (which scales its
# row by P), and 3⁴⁰ beside 2⁴¹, whose RREF entry 2⁴¹/3⁴⁰ has height > 2⁶³
_TALL = (Fraction(P), Fraction(2 * P), Fraction(1, P), Fraction(3 ** 40), Fraction(2 ** 41))
entries = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                    st.sampled_from(_TALL))


@st.composite
def sparse_matrices(draw):
    """Dense rows (lists of Fractions) of a sparse matrix up to 8×8.

    Some rows are combinations of earlier ones, so kernels and rank drops
    are common rather than rare.
    """
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(0, 8))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(entries), draw(entries)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=4))
            rows.append([draw(entries) if j in cols else Fraction(0) for j in range(ncols)])
    return ncols, rows


def _matrix(ncols, rows):
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
    return RationalMatrix(len(rows), ncols, columns)


def _oracle_rref(ncols, rows):
    """Dense Gauss-Jordan: the nonzero rows of the RREF and their pivot columns."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _oracle_rank(ncols, rows):
    return len(_oracle_rref(ncols, rows)[1])


def _oracle_kernel(ncols, rows):
    reduced, pivots = _oracle_rref(ncols, rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for row, p in zip(reduced, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


@given(sparse_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_ranks_match_dense_oracle(matrix, data):
    ncols, rows = matrix
    a = _matrix(ncols, rows)
    assert a.rank() == _oracle_rank(ncols, rows)

    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    kept = [row for row, k in zip(rows, keep) if k]
    assert a.rank(lambda i: keep[i]) == _oracle_rank(ncols, kept)

    coords = data.draw(st.sets(st.integers(0, ncols - 1)))
    vectors = [{j: x for j, x in enumerate(row) if x} for row in rows]
    projected = [[x if j in coords else Fraction(0) for j, x in enumerate(row)] for row in rows]
    assert rank_of_vectors(vectors) == _oracle_rank(ncols, rows)
    assert rank_of_vectors(vectors, lambda j: j in coords) == _oracle_rank(ncols, projected)


# a chain of pivot rows, each reaching the next lead: taken by decreasing
# lead, each row is reduced against the one after it, and no lead is cleared
# from a row before it
_STAIRCASE = (4, [[Fraction(x) for x in row]
                  for row in ([1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1])])

# the last row taken reduces to lead 2, right of the basis's lowest lead 0,
# so lead 2 is cleared from both rows before it
_BACK_CLEARED = (3, [[Fraction(x) for x in row]
                     for row in ([1, 1, 0], [1, 0, 1], [0, 1, 1])])


@given(sparse_matrices(), st.randoms(use_true_random=False))
@example(_STAIRCASE, random.Random(0))
@example(_BACK_CLEARED, random.Random(0))
@settings(max_examples=150, deadline=None)
def test_nullspace_is_the_rref_kernel_basis(matrix, rng):
    ncols, rows = matrix
    a = _matrix(ncols, rows)
    kernel = a.nullspace()
    assert kernel == _oracle_kernel(ncols, rows)
    for vec in kernel:
        assert all(vec.values())
        assert a.matvec(vec) == {}
    assert a.rank() + len(kernel) == ncols

    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert _matrix(ncols, shuffled).nullspace() == kernel


def _pinned(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    return len(rows[0]), rows


@pytest.mark.parametrize("matrix, rank", [
    # staircase: each row is reduced forward, no lead is cleared back
    (_STAIRCASE, 3),
    # the row (0, P) vanishes mod P, yet rank_Q = 2
    (_pinned([[2, 1], [0, P]]), 2),
    # the RREF entry 2⁴¹/3⁴⁰ has height > 2⁶³
    (_pinned([[3 ** 40, 2 ** 41]]), 1),
    # 1/P: the row scales to (1, P)
    (_pinned([[Fraction(1, P), 1]]), 1),
    # (0, P, 5) reduces to (0, 0, 5) mod P, where the true RREF row is (0, 1, 5/P)
    (_pinned([[2, 1, 0], [0, P, 5]]), 2),
    # the last lead is cleared from both basis rows
    (_BACK_CLEARED, 3),
])
def test_exactness_pinned(matrix, rank):
    ncols, rows = matrix
    a = _matrix(ncols, rows)
    assert a.rank() == rank == _oracle_rank(ncols, rows)
    kernel = a.nullspace()
    assert kernel == _oracle_kernel(ncols, rows)
    for vec in kernel:
        assert a.matvec(vec) == {}


# non-unit leads, so elimination scales rows and has to divide out their gcd
_NON_UNIT = (2, -2, 3, -3, 6, -6, 3 ** 40)


@st.composite
def tall_integer_matrices(draw):
    """Dense integer rows of a matrix with more rows than columns.

    Its rank is below the row count, and most rows are combinations of
    earlier ones with non-unit coefficients.
    """
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(ncols + 1, 10))
    value = st.sampled_from(_NON_UNIT)
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 2)):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(value), draw(st.sampled_from((0,) + _NON_UNIT))
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3))
            rows.append([Fraction(draw(value)) if j in cols else Fraction(0)
                         for j in range(ncols)])
    return ncols, rows


@given(tall_integer_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_non_unit_leads_match_dense_oracle(matrix, data):
    ncols, rows = matrix
    a = _matrix(ncols, rows)
    reduced, pivots = _oracle_rref(ncols, rows)
    assert a.rank() == len(pivots) < len(rows)

    # each RREF row in lowest terms, den > 0, equal to the oracle's row
    rref = ratmat._exact_rref(a.rows())
    assert sorted(rref) == pivots
    for row, p in zip(reduced, pivots):
        nums, den = rref[p]
        assert den > 0 and gcd(den, *nums.values()) == 1
        assert {j: Fraction(v, den) for j, v in nums.items()} \
            == {j: x for j, x in enumerate(row) if x and j != p}

    # the kernel basis, in vector order and key order: each vector holds its
    # free column, then the leads in increasing column order
    want = [[(f, x) for f, x in vec.items() if f not in pivots]
            + [(p, vec[p]) for p in sorted(pivots) if p in vec]
            for vec in _oracle_kernel(ncols, rows)]
    assert [list(vec.items()) for vec in a.nullspace()] == want

    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    assert a.rank(lambda i: keep[i]) \
        == _oracle_rank(ncols, [row for row, k in zip(rows, keep) if k])
    coords = data.draw(st.sets(st.integers(0, ncols - 1)))
    vectors = [{j: x for j, x in enumerate(row) if x} for row in rows]
    projected = [[x if j in coords else Fraction(0) for j, x in enumerate(row)] for row in rows]
    assert rank_of_vectors(vectors) == len(pivots)
    assert rank_of_vectors(vectors, lambda j: j in coords) == _oracle_rank(ncols, projected)


def _stored(rows, as_int):
    """Sparse rows {col: value}; integral values become ints where ``as_int``."""
    return [{j: x.numerator if keep and x.denominator == 1 else x
             for j, x in enumerate(row) if x}
            for row, keep in zip(rows, as_int)]


@given(st.one_of(sparse_matrices(), tall_integer_matrices()), st.data())
@settings(max_examples=150, deadline=None)
def test_rank_profile_matches_submatrix_ranks(matrix, data):
    # after each batch: the rank of every row so far, and for each cut c the
    # rank of those rows on the columns left of c
    ncols, rows = matrix
    as_int = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    ends = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    ends.append(len(rows))  # repeated ends make empty batches
    cuts = [0, ncols] + data.draw(st.lists(st.integers(0, ncols), max_size=3))
    batches = [_stored(rows[start:end], as_int[start:end])
               for start, end in zip([0] + ends, ends)]
    profile = ratmat.rank_profile(batches, cuts)
    assert len(profile) == len(ends)
    for end, (rank, leads) in zip(ends, profile):
        assert rank == _oracle_rank(ncols, rows[:end])
        assert leads == [_oracle_rank(c, [row[:c] for row in rows[:end]]) for c in cuts]
    assert not any(batches)  # each batch is emptied


@pytest.mark.parametrize("batches, cuts, want", [
    # empty rows and empty batches read rank 0 at every cut
    ([[], [{}], []], [0, 3], [(0, [0, 0]), (0, [0, 0]), (0, [0, 0])]),
    # the second row reduces against lead 2 to a new lead 0, left of every cut but 0
    ([[{2: 1}], [], [{0: Fraction(1, 2), 2: 3}, {}]], [0, 1, 2, 3],
     [(1, [0, 0, 0, 1]), (1, [0, 0, 0, 1]), (2, [0, 1, 1, 2])]),
])
def test_rank_profile_pinned(batches, cuts, want):
    assert ratmat.rank_profile(batches, cuts) == want


@given(st.one_of(sparse_matrices(), tall_integer_matrices()), st.data())
@settings(max_examples=150, deadline=None)
def test_continued_elimination_equals_one_call(matrix, data):
    ncols, rows = matrix
    as_int = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    split = data.draw(st.integers(0, len(rows)))
    basis = ratmat._exact_rref(_stored(rows[:split], as_int[:split]))
    assert ratmat._exact_rref(_stored(rows[split:], as_int[split:]), basis) is basis
    assert basis == ratmat._exact_rref(_stored(rows, as_int))
