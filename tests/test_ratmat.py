from fractions import Fraction
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from confweyl import ratmat
from confweyl.ratmat import P, RationalMatrix, rank_of_vectors

# values that can send a matrix to the Fraction fallback: a multiple of P
# vanishes mod P, 1/P scales its row by P, and 3⁴⁰ beside 2⁴¹ gives an RREF
# entry too tall to lift
_UNLIFTABLE = (Fraction(P), Fraction(2 * P), Fraction(1, P), Fraction(3 ** 40), Fraction(2 ** 41))
entries = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                    st.sampled_from(_UNLIFTABLE))


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


@pytest.fixture
def routes(monkeypatch):
    """The field of every ``_rref`` call, in order: "mod P" or "Q"."""
    seen = []
    rref = ratmat._rref

    def spy(rows, subtract, normalise):
        seen.append("Q" if subtract is ratmat._subtract else "mod P")
        return rref(rows, subtract, normalise)

    monkeypatch.setattr(ratmat, "_rref", spy)
    return seen


def _pinned(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    return len(rows[0]), rows


@pytest.mark.parametrize("matrix, rank, route", [
    # staircase: certified on the modular route
    (_STAIRCASE, 3, ["mod P"]),
    # unlucky prime: the row (0, P) vanishes mod P, so rank_P = 1 < rank_Q = 2
    (_pinned([[2, 1], [0, P]]), 2, ["mod P", "Q"]),
    # reconstruction overflow: the RREF entry 2⁴¹/3⁴⁰ has height > 2³⁰
    (_pinned([[3 ** 40, 2 ** 41]]), 1, ["mod P", "Q"]),
    # 1/P: the row scales to (1, P), and no modular inverse of P is taken
    (_pinned([[Fraction(1, P), 1]]), 1, ["mod P", "Q"]),
    # rank_P = rank_Q, but (0, P, 5) reduces to (0, 0, 5) mod P: the lifted
    # RREF is wrong, and only the certificate sees it
    (_pinned([[2, 1, 0], [0, P, 5]]), 2, ["mod P", "Q"]),
])
def test_certificate_or_fallback_pinned(matrix, rank, route, routes):
    ncols, rows = matrix
    a = _matrix(ncols, rows)
    assert a.rank() == rank == _oracle_rank(ncols, rows)
    assert routes == route
    routes.clear()
    kernel = a.nullspace()
    assert kernel == _oracle_kernel(ncols, rows)
    assert routes == route
    for vec in kernel:
        assert a.matvec(vec) == {}

