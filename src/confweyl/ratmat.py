"""Sparse exact rational matrices: rank, nullspace, matrix-vector products.

Rows and columns are indexed 0..n-1 with caller-owned label lists.  ∇'s
entries arrive in ``coeffalg._exact``'s stored form (ints when integral),
and kernel vectors leave in it.  Every rank and kernel is read off the
reduced row echelon form (RREF) over Q, which ``_exact_rref`` computes by
one incremental Gauss–Jordan elimination over the integers, fraction-free
in the manner of Bareiss (Math. Comp. 1968):

1. Each row is scaled to integers by the lcm of its denominators (a row
   of ``int``s is kept), and the rows are taken by decreasing smallest column.
2. The basis maps each lead to (row, L): L > 0 is the lead value and row
   the integer row without its lead.  Every basis row is zero at every
   other lead, and primitive together with its L.
3. An incoming row is reduced once against each lead it holds,
   row ← L·row − row[lead]·basis_row (L and row[lead] divided by their gcd
   first).  A basis row vanishes at the other leads, so one pass over the
   leads clears them all, with no cascade.
4. What is left, if anything, gets its smallest column as a new lead, made
   primitive with a positive lead value.  Each basis row lies right of its
   own lead, so only a lead right of the smallest one can be held; it is
   cleared from every basis row that holds it, each made primitive again.

Integer row operations keep the row space over Q, and each new lead is the
smallest column of a vector in the space spanned so far, so the lead set is
the canonical one.  The basis row of lead l divided by L is 1 at l and 0 at
the other leads, which makes it *the* RREF row, and primitivity with L > 0
puts it in lowest terms.  So the result is exact by construction, and the
ranks and kernel vectors depend neither on row order nor on the size of
the entries.

The elimination can go on from a basis it returned, so rows may arrive in
batches.  ``rank_profile`` reads, after each batch, the rank of the rows
so far and the rank of each leading block of columns: in an RREF the
first c columns have rank equal to the number of leads left of c (the
column rank profile; Dumas, Pernet & Sultan, ISSAC 2013).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, inf, lcm


class RationalMatrix:
    """Sparse matrix stored column-major (list of dicts row -> value).

    It owns ``columns``, kept as given, not copied: callers hand over fresh
    columns and do not change them afterwards."""

    def __init__(self, nrows, ncols, columns, row_labels=None, col_labels=None):
        self.nrows = nrows
        self.ncols = ncols
        self.columns = columns
        self.row_labels = row_labels
        self.col_labels = col_labels

    def rows(self, row_filter=None):
        """Row-major copy (list of dicts col -> value), optionally filtered."""
        rows = {}
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                if row_filter is not None and not row_filter(i):
                    continue
                rows.setdefault(i, {})[j] = v
        return list(rows.values())

    def matvec(self, vec):
        """A·x for a sparse vector {col: value}; returns {row: value}."""
        out = {}
        for j, x in vec.items():
            if not x:
                continue
            for i, v in self.columns[j].items():
                s = out.get(i, 0) + v * x
                if s:
                    out[i] = s
                else:
                    del out[i]
        return out

    def rank(self, row_filter=None):
        return len(_exact_rref(self.rows(row_filter)))

    def nullspace(self):
        """Basis of ker(A) as sparse vectors {col: value} over columns.

        One vector per free column, in column order, read off the reduced
        row echelon form.  Each vector holds its free column first, then the
        leads in increasing column order, so it depends on nothing but A.
        An entry is an ``int`` when integral, else a ``Fraction``.
        """
        rref = _exact_rref(self.rows())
        basis = {f: {f: 1} for f in range(self.ncols) if f not in rref}
        # an integer row is dropped once read, not held beside its Fractions
        for lead in sorted(rref):
            nums, den = rref.pop(lead)
            for j, v in nums.items():
                basis[j][lead] = Fraction(-v, den) if v % den else -v // den
        return list(basis.values())


def rank_of_vectors(vectors, coord_filter=None):
    """Rank of a family of sparse vectors, optionally restricted to coords."""
    if coord_filter is None:
        vectors = [dict(vec) for vec in vectors]
    else:
        vectors = [{j: v for j, v in vec.items() if coord_filter(j)} for vec in vectors]
    return len(_exact_rref(vectors))


def rank_profile(batches, cuts):
    """(rank, [leads left of each cut]) after each batch of fresh sparse rows.

    One elimination takes the batches in turn, so each entry describes all
    the rows up to and including its batch; the count for a cut c is the
    rank of those rows on the columns 0..c-1.  The batches are emptied.
    """
    basis = {}
    profile = []
    for rows in batches:
        _exact_rref(rows, basis)
        leads = sorted(basis)
        profile.append((len(leads), [bisect_left(leads, c) for c in cuts]))
    return profile


def _exact_rref(rows, basis=None):
    """The RREF over Q of fresh sparse rows, as {lead: (numerators, denominator)}.

    Row ``lead`` of the RREF is 1 at the lead plus numerators/denominator,
    integers at the free columns, in lowest terms with the denominator > 0.
    The rows, empty ones allowed, are scaled to integers and reduced in
    place, and the list is emptied.  Given a ``basis`` this function
    returned, the rows are added to it in place: the result is the RREF of
    its rows and the new ones together.
    """
    for row in rows:
        _scale_to_integers(row)
    rows.sort(key=lambda row: (min(row, default=-1), len(row)))  # popped from the end
    if basis is None:
        basis = {}
    low = min(basis, default=inf)  # the smallest lead in the basis
    while rows:
        row = rows.pop()
        for lead in [j for j in row if j in basis]:
            piv, den = basis[lead]
            _combine(row, den, row.pop(lead), piv)
        if not row:
            continue
        lead = min(row)
        den = _primitive(row, row.pop(lead))
        if lead > low:  # else no basis row holds it: each lies right of its lead
            for other, (piv, d) in basis.items():
                c = piv.pop(lead, 0)
                if c:
                    basis[other] = piv, _primitive(piv, d * _combine(piv, den, c, row))
        low = min(low, lead)
        basis[lead] = row, den
    return basis


def _scale_to_integers(row):
    """Scale a sparse row in place by the lcm of its denominators; a row of
    ``int``s, as ∇'s rows arrive, is left as it is."""
    if all(type(v) is int for v in row.values()):
        return
    den = lcm(*(v.denominator for v in row.values()))
    for j, v in row.items():
        row[j] = v.numerator * (den // v.denominator)


def _combine(row, a, c, piv):
    """row ← (a·row − c·piv)/g in place for g = gcd(a, c); returns a/g.

    ``row`` and ``piv`` are integer rows, and the entries that cancel are
    dropped.  The return value is the factor ``row`` was scaled by, so a
    row standing over a lead value d stands over d·a/g afterwards.
    """
    g = gcd(a, c)
    if g != 1:
        a //= g
        c //= g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in piv.items():
        s = row.get(j, 0) - c * v
        if s:
            row[j] = s
        else:
            del row[j]
    return a


def _primitive(row, den):
    """Divide an integer row and its lead value by their gcd, the lead made > 0.

    Returns the new lead value; a lead value of 1 is left as it is.
    """
    if den == 1:
        return 1
    g = gcd(den, *row.values())
    if den < 0:
        g = -g
    if g != 1:
        for j, v in row.items():
            row[j] = v // g
    return den // g
