"""Sparse exact rational matrices: rank, nullspace, matrix-vector products.

Rows and columns are indexed 0..n-1 with caller-owned label lists.  All
arithmetic is over ``fractions.Fraction``.  Every entry point runs the one
forward elimination in ``_echelon``: plain Gaussian elimination taking rows
sparsest first, which keeps fill-in low and is plenty at the
few-hundred-row sizes the cohomology windows produce.  A rank is the number
of pivot rows; ``nullspace`` back-substitutes them to the reduced row
echelon form, which is unique, so its basis does not depend on row order.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


class RationalMatrix:
    """Sparse matrix stored column-major (list of dicts row -> value)."""

    def __init__(self, nrows, ncols, columns=None, row_labels=None, col_labels=None):
        self.nrows = nrows
        self.ncols = ncols
        self.columns = [dict(c) for c in columns] if columns is not None \
            else [{} for _ in range(ncols)]
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
                s = out.get(i, _F0) + v * x
                if s:
                    out[i] = s
                else:
                    del out[i]
        return out

    def rank(self, row_filter=None):
        return len(_echelon(self.rows(row_filter)))

    def nullspace(self):
        """Basis of ker(A) as sparse vectors {col: value} over columns.

        One vector per free column, in column order, read off the reduced
        row echelon form, so results are deterministic.
        """
        pivots = _echelon(self.rows())
        # Later leads are cleared first, so every pivot row met at one of this
        # row's columns is nonzero only at its own lead and at free columns:
        # subtracting it once clears that column for good.
        for lead in sorted(pivots, reverse=True):
            row = pivots[lead]
            for j in [j for j in row if j != lead and j in pivots]:
                _subtract(row, row[j], pivots[j])
        basis = {f: {f: _F1} for f in range(self.ncols) if f not in pivots}
        for lead, row in pivots.items():
            for j, v in row.items():
                if j != lead:
                    basis[j][lead] = -v
        return list(basis.values())


def _subtract(row, factor, piv):
    """row -= factor·piv in place, dropping the entries that cancel."""
    for j, v in piv.items():
        s = row.get(j, _F0) - factor * v
        if s:
            row[j] = s
        else:
            del row[j]


def _reduce_row(row, pivots):
    row = dict(row)
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return row
        _subtract(row, row[lead], piv)
    return row


def _echelon(rows):
    """Forward elimination of sparse rows, sparsest first.

    Returns the pivot rows as {lead: row}: each row is a fresh dict scaled
    to 1 at its lead, its smallest column, and no two rows share a lead.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        row = _reduce_row(row, pivots)
        if row:
            lead = min(row)
            inv = _F1 / row[lead]
            pivots[lead] = {j: v * inv for j, v in row.items()}
    return pivots


def rank_of_vectors(vectors, coord_filter=None):
    """Rank of a family of sparse vectors, optionally restricted to coords."""
    if coord_filter is not None:
        vectors = [{j: v for j, v in vec.items() if coord_filter(j)} for vec in vectors]
    return len(_echelon(vectors))
