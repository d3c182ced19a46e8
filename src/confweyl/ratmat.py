"""Sparse exact rational matrices: rank, nullspace, matrix-vector products.

Rows and columns are indexed 0..n-1 with caller-owned label lists.  Every
rank and kernel is read off the reduced row echelon form (RREF) over Q,
which ``_exact_rref`` computes in four steps:

1. Each row is scaled to integers by the lcm of its denominators.  The row
   space is unchanged, and no denominator is ever inverted mod P.
2. ``_rref`` reduces the rows modulo the prime ``P`` = 2⁶¹−1: plain
   Gaussian elimination taking rows sparsest first with the smallest column
   as the lead, which keeps fill-in low, then one back-substitution pass.
3. Every entry of the mod-p RREF R is lifted to a rational n/d with
   |n|, d ≤ √(P/2) by rational reconstruction (Wang 1981), one row at a time.
4. The lifted R is certified in integer arithmetic: every input row a must
   equal Σ a[lead]·R[lead] over the leads.  This is A·x = 0 for every kernel
   basis vector x.

The certificate is a proof.  rank_p ≤ rank_Q always holds, and the check
gives rowspace(A) ⊆ rowspace(R), so rank_Q ≤ |R| = rank_p.  R has 1 at each
lead and 0 at the other leads, so it is *the* RREF of A over Q.  When a lift
or the check fails (an unlucky prime, or an entry too tall to reconstruct),
the same ``_rref`` runs over ``fractions.Fraction`` instead.  The RREF is
unique, so the kernel basis does not depend on row order or on the route.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

P = (1 << 61) - 1  # a Mersenne prime
_LIFT_BOUND = isqrt(P // 2)  # 2·bound² < P, so a lift in bounds is unique

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
        return len(_exact_rref(self.rows(row_filter)))

    def nullspace(self):
        """Basis of ker(A) as sparse vectors {col: value} over columns.

        One vector per free column, in column order, read off the reduced
        row echelon form, so results are deterministic.
        """
        rref = _exact_rref(self.rows())
        basis = {f: {f: _F1} for f in range(self.ncols) if f not in rref}
        # each integer row is dropped once read, so it and its Fractions are
        # never both held for the whole RREF
        for lead in list(rref):
            nums, den = rref.pop(lead)
            for j, v in nums.items():
                basis[j][lead] = Fraction(-v, den)
        return list(basis.values())


def rank_of_vectors(vectors, coord_filter=None):
    """Rank of a family of sparse vectors, optionally restricted to coords."""
    if coord_filter is None:
        vectors = [dict(vec) for vec in vectors]
    else:
        vectors = [{j: v for j, v in vec.items() if coord_filter(j)} for vec in vectors]
    return len(_exact_rref(vectors))


def _exact_rref(rows):
    """The RREF over Q of fresh sparse rows, as {lead: (numerators, denominator)}.

    Row ``lead`` of the RREF is 1 at the lead plus numerators/denominator,
    integers at the free columns.  The rows are scaled to integers in place.
    """
    for row in rows:
        _scale_to_integers(row)
    rows.sort(key=len)
    pivots = _rref(({j: v % P for j, v in row.items() if v % P} for row in rows),
                   _subtract_mod, _normalise_mod)
    rref = {lead: (row, _lift(row)) for lead, row in pivots.items()}
    if all(den for _, den in rref.values()) and _spans(rows, rref):
        return rref
    pivots = _rref(rows, _subtract, _normalise)
    return {lead: (row, _scale_to_integers(row)) for lead, row in pivots.items()}


def _scale_to_integers(row):
    """Scale a sparse row in place by the lcm of its denominators; returns the lcm."""
    den = lcm(*(v.denominator for v in row.values()))
    for j, v in row.items():
        row[j] = v.numerator * (den // v.denominator)
    return den


def _rref(rows, subtract, normalise):
    """Reduced row echelon form of sparse rows over Q or mod P, as {lead: row}.

    Forward elimination takes the rows in the order given, which callers
    make sparsest first so that fill-in stays low; each pivot row is
    scaled to 1 at its lead, its smallest column.  Back-substitution then
    clears every other lead column.  A pivot row is kept without its lead
    entry, which is 1, so subtracting it never touches the column it clears.
    The rows are reduced in place, and ``subtract`` and ``normalise`` carry
    the field arithmetic.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                normalise(row, row.pop(lead))
                pivots[lead] = row
                break
            subtract(row, row.pop(lead), piv)
    # Later leads are cleared first, so every pivot row met at one of this
    # row's columns is nonzero only at free columns: subtracting it once
    # clears that column for good.
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for j in [j for j in row if j in pivots]:
            subtract(row, row.pop(j), pivots[j])
    return pivots


def _subtract(row, factor, piv):
    """row -= factor·piv in place over Q, dropping the entries that cancel."""
    for j, v in piv.items():
        s = row.get(j, _F0) - factor * v
        if s:
            row[j] = s
        else:
            del row[j]


def _normalise(row, lead_value):
    inv = _F1 / lead_value
    for j in row:
        row[j] *= inv


def _subtract_mod(row, factor, piv):
    """row -= factor·piv in place mod P, dropping the entries that cancel."""
    for j, v in piv.items():
        s = (row.get(j, 0) - factor * v) % P
        if s:
            row[j] = s
        else:
            del row[j]


def _normalise_mod(row, lead_value):
    inv = pow(lead_value, -1, P)
    for j in row:
        row[j] = row[j] * inv % P


def _lift(row):
    """Rational reconstruction of a mod-P row in place; returns its denominator.

    Each entry u becomes the n/d with n ≡ u·d (mod P) and |n|, d ≤ √(P/2):
    the extended Euclidean algorithm on (P, u), stopped at the first
    remainder within the bound.  The row ends up holding the numerators over
    the lcm of the d, which is returned; None when a d is out of bounds.
    """
    den = 1
    for j, u in row.items():
        r0, r1, s0, s1 = P, u, 0, 1
        while r1 > _LIFT_BOUND:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > _LIFT_BOUND:
            return None
        if s1 < 0:
            r1, s1 = -r1, -s1
        row[j] = (r1, s1)
        den = lcm(den, s1)
    for j, (n, d) in row.items():
        row[j] = n * (den // d)
    return den


def _spans(rows, rref):
    """True when every integer row a equals Σ a[lead]·R[lead] exactly."""
    for row in rows:
        leads = [lead for lead in row if lead in rref]
        den = lcm(*(rref[lead][1] for lead in leads))
        residual = {j: -v * den for j, v in row.items() if j not in rref}
        for lead in leads:
            nums, d = rref[lead]
            factor = row[lead] * (den // d)
            for j, v in nums.items():
                residual[j] = residual.get(j, 0) + factor * v
        if any(residual.values()):
            return False
    return True
