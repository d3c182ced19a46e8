from fractions import Fraction
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from confweyl.ratmat import RationalMatrix, rank_of_vectors

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


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
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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


# a chain of pivot rows, each reaching the next lead: back-substitution has to
# clear the later leads first
_STAIRCASE = (4, [[Fraction(x) for x in row]
                  for row in ([1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1])])


@given(sparse_matrices(), st.randoms(use_true_random=False))
@example(_STAIRCASE, random.Random(0))
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
