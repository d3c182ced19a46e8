"""Windowed cochain complexes over the Anick resolution and H^n reports.

Cochains of degree n assign module elements to degree-n chains; degree 0
is a single module element (the empty chain).  The total index sum of a
chain never increases along the differential or the scalar reduction, so
truncating the chain basis by sum ≤ W ("window") computes exactly what the
untruncated complex would on every retained coordinate.  The only window
artifact sits near the top: kernels may contain vectors whose defining
relations lie above W.  Dimension reports therefore project kernel and
image onto an inner window (sum ≤ W - margin) and compare with the same
numbers at W-1 to check the projected dimension has stabilized.

∇'s coordinates, its rows and columns alike, have one order: (decreasing
sum, lex, coordinate), so the highest index sum comes first
(``coordinate_labels``).  It is the order by grade, sum − degree, that
keeps exact elimination sparse (cf. Dumas, Giorgi and Pernet, ACM TOMS
2008): Q below keeps the index sum and S, T, L raise it by one, so a row
of sum s holds its Q entries in columns of sum s and the rest in columns
of sum s − 1, and each row's lead falls in its Q part.  For α ≠ 0 the
RREF of ∇⁴(M(1,1)) at W = 9 then holds 923 kernel entries against 2 279
in (sum, lex) order; with C = 0 there is no Q and nothing changes.

The report and the constructions each assemble the two matrices they
read, ∇ⁿ⁻¹ and ∇ⁿ: with the operators cached, an assembly is one cheap
per-module pass.  For the same reason as above ∇ at W-1 is the sum ≤ W-1
corner of ∇ at W, its trailing rows and columns, and a row of sum ≤ k
is zero on every column of sum > k, a leading block.  So the report
reads its numbers at W and at W-1 off one elimination per matrix, fed
the trailing rows first (``window_dims``).

The differential ∇ = reduce ∘ Δ ∘ include is canonical: processing chains
in (sum, lex) order, the scalar reduction peels
b = φ[c] - Σ_k i_k·h[c with i_k decremented] and splits b = s[c] + ∂·h[c],
and s is the unique scalar-valued representative of φ modulo the
derivation twist (Dφ)[c] = ∂φ[c] + Σ_k i_k φ[dec_k c] (``_decrements``).
Every module acts by v ∘λ eⱼ = Σᵢ (Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ) eᵢ, so on the
delta-function basis of scalar cochains

    ∇[(x,i),(y,j)] = S·δᵢⱼ + T·Eᵢⱼ + L·Bᵢⱼ + Q·Cᵢⱼ,

with S, L, Q the coefficients of 1, v(1), v(0) in δ(x) at y and
T = −Σₖ iₖ·[v(0)]δ(decₖ x) at y over the decrements of x.  The reason:
δ's coefficients hold only 1 and letters v(n)
(``anick._closed_delta_terms``), and on a constant eⱼ the letters act as
v(0)eⱼ = (E∂ + C)eⱼ, v(1)eⱼ = Beⱼ and v(n ≥ 2)eⱼ = 0.  So Δ of the basis
cochain at (y, j) is Q·E eⱼ·∂ plus constants at every x, its ∂-quotient
h[x] = Q·E eⱼ is a constant, and peeling Σₖ iₖ·h[decₖ x] leaves the
constant T·E eⱼ + (S + L·B + Q·C)eⱼ.  None of S, T, L, Q depends on the
module: ``nabla_operators`` builds them once per (degree, W), for every
module and every caller in the process, and ``assemble_matrix`` is the
per-module pass that combines them with E, B, C, with no module
arithmetic.  The entries keep ``coeffalg._exact``'s stored form, so
``ratmat`` gets integral rows as ints.  The symbolic route on cochains of
∂-polynomials (``checks.reduced_delta``) is the per-column oracle in the
tests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .anick import _closed_delta_terms, enumerate_chains
from .coeffalg import UNIT, _exact
from .modules import make_module
from .ratmat import RationalMatrix, rank_profile


@dataclass(frozen=True)
class Window:
    """Truncation by total index sum, with an inner reporting margin."""

    W: int
    margin: int = 3

    def __post_init__(self):
        if not (self.W >= self.margin >= 0):
            raise ValueError("need W >= margin >= 0")

    @property
    def inner(self):
        return self.W - self.margin

    def shrink(self):
        return Window(self.W - 1, self.margin)


# -- matrices and dimension reports ------------------------------------------------

def coordinate_labels(degree, module, window):
    """(chain, coordinate) labels in ∇'s order: (decreasing sum, lex, coordinate).

    The (sum, lex) enumeration sliced at its sum bounds and read from the
    highest sum down, with no sort.
    """
    chains = enumerate_chains(degree, window.W)
    return [(chain, j) for start, end in reversed(_sum_blocks(degree, window.W))
            for chain in chains[start:end] for j in range(module.rank)]


def _sum_blocks(degree, max_sum):
    """(start, end) of each index sum's block of ``enumerate_chains(degree,
    max_sum)``, sum 0 first: C(s+1, degree) chains have sum ≤ s."""
    ends = [comb(s + 1, degree) for s in range(max_sum + 1)]
    return list(zip([0, *ends], ends))


def _positions(degree, max_sum):
    """position[k]: where the k-th chain of ``enumerate_chains`` sits in ∇'s order."""
    blocks = _sum_blocks(degree, max_sum)
    count = blocks[-1][1]
    return [p for start, end in blocks for p in range(count - end, count - start)]


def _decrements(chain):
    """(k, iₖ, decₖ chain) for every index k whose decrement stays a chain:
    iₖ ≥ 1, and iₖ ≥ 2 unless k is the last index.  Each has sum(chain) − 1."""
    n = len(chain)
    for k in range(n):
        i = chain[k]
        if i == 0:
            continue
        dec = chain[:k] + (i - 1,) + chain[k:][1:]
        # interior indices of a chain stay >= 1
        if k < n - 1 and i - 1 < 1:
            continue
        yield k, i, dec


_V0, _V1 = (0, 0), (0, 1)  # the words v(0) and v(1)


@cache
def nabla_operators(degree, max_sum):
    """∇^degree's module-free operators S, T, L, Q at sum ≤ max_sum.

    Returns (palette, columns): the palette is a tuple of the distinct
    nonzero (S, T, L, Q), and columns[k], for the k-th degree-n chain y of
    ``enumerate_chains``, is a pair of arrays, the positions x of the
    degree-(n+1) rows where an operator is nonzero at y, increasing, and
    for each the index of its (S, T, L, Q) in the palette.  Both arrays take
    ``'I'``, four bytes wherever CPython runs, which holds any row count
    that ``MAX_CHAINS`` admits and any palette size (at most the number of
    entries).  Every call with one (degree, max_sum) returns the same
    objects, which callers read and never change; ``cache_info()`` counts
    the builds and ``cache_clear()`` drops them.

    δ is read from a table local to the build: the rows run in (sum, lex)
    order and a decrement of x has sum(x) − 1, so only the v(0) terms of
    the previous sum's rows are kept.
    """
    rows = enumerate_chains(degree + 1, max_sum)
    position = {y: k for k, y in enumerate(enumerate_chains(degree, max_sum))}
    columns = [(array("I"), array("I")) for _ in position]
    palette = {}  # (S, T, L, Q) -> its index
    level, previous, current = None, {}, {}  # chain -> {y: [v(0)]δ(chain) at y}
    for r, x in enumerate(rows):
        if sum(x) != level:
            level, previous, current = sum(x), current, {}
        delta = _closed_delta_terms(x)
        weights = {y: [terms.get(UNIT, 0), 0, terms.get(_V1, 0), terms.get(_V0, 0)]
                   for y, terms in delta.items()}  # y -> [S, T, L, Q]
        current[x] = {y: w[3] for y, w in weights.items() if w[3]}
        for _, i, dec in _decrements(x):
            for y, q in previous[dec].items():
                weights.setdefault(y, [0, 0, 0, 0])[1] -= i * q
        for y, w in weights.items():
            if any(w):
                at, entries = columns[position[y]]
                at.append(r)
                entries.append(palette.setdefault(tuple(w), len(palette)))
    return tuple(palette), tuple(columns)


def assemble_matrix(degree, module, window):
    """Matrix of ∇^degree on the delta-function basis of scalar cochains.

    Columns: degree-n chains (sum ≤ W) × module coordinates; rows: the same
    for degree n+1, both in ``coordinate_labels``' order.  Degree 0 has the
    single empty chain per coordinate.  The per-module pass over
    ``nabla_operators(degree, W)``, whose table runs in enumeration order:
    each palette entry's r×r block S·I + T·E + L·B + Q·C is computed once,
    and one pass over the entries places the blocks through the map from
    enumeration position to coordinate position (``_positions``).  Each
    column's keys come in the rows' (sum, lex) order, the order of the
    table and of the column oracle ``checks.reduced_delta``.  The entries
    keep the stored form, an ``int`` when integral.
    """
    module = make_module(module)
    rank, E, B, C = module.rank, module.E, module.B, module.C
    col_labels = coordinate_labels(degree, module, window)
    row_labels = coordinate_labels(degree + 1, module, window)
    palette, operators = nabla_operators(degree, window.W)
    first_row = [p * rank for p in _positions(degree + 1, window.W)]
    # blocks[p][j]: the nonzero (i, entry) of column j of palette entry p's block
    blocks = []
    for s, t, l, q in palette:
        block = [[] for _ in range(rank)]
        for j in range(rank):
            for i in range(rank):
                entry = t * E[i][j] + l * B[i][j] + q * C[i][j]
                if i == j:
                    entry += s
                if entry:
                    block[j].append((i, _exact(entry)))
        blocks.append(block)
    columns = [None] * len(col_labels)
    for y, (rows, entries) in zip(_positions(degree, window.W), operators):
        for j in range(rank):
            columns[y * rank + j] = {first_row[x] + i: v
                                     for x, p in zip(rows, entries) for i, v in blocks[p][j]}
    return RationalMatrix(len(row_labels), len(col_labels), columns, row_labels, col_labels)


def window_dims(n, module, window):
    """(dim proj(ker ∇ⁿ), dim proj(im ∇ⁿ⁻¹)) at W, then at W-1, of a ``FiniteModule``.

    With lo the columns of A = ∇ⁿ at sum ≤ inner and hi those above,
    dim proj(ker A) = |lo| − rank A + rank A_hi, and dim proj(im ∇ⁿ⁻¹) is
    the rank of ∇ⁿ⁻¹'s rows at sum ≤ inner.  Labels run by decreasing
    sum, and a row of sum ≤ k is zero on the columns of sum > k, so one
    elimination per matrix gives both windows:

    - A's columns of sum > k are a leading block, whose rank is the
      number of leads left of it;
    - its trailing rows, those of sum ≤ W-1, go in first: they are ∇ⁿ at
      W-1, whose numbers are read before the rows of sum W are added;
    - likewise ∇ⁿ⁻¹'s rows of sum ≤ inner-1, then those of sum inner.
    """
    W, inner, coords = window.W, window.inner, module.rank
    a_n, a_prev = assemble_matrix(n, module, window), assemble_matrix(n - 1, module, window)
    # C(k+1, d) chains of degree d have sum ≤ k, as ``enumerate_chains`` counts
    lo = [coords * comb(k + 1, n) for k in (inner - 1, inner)]  # |lo| at W-1, at W
    cuts = [a_n.ncols - k for k in lo]  # the first column (∇ⁿ⁻¹: row) of sum ≤ k
    batches = _row_batches(a_n, (a_n.nrows - coords * comb(W, n + 1), 0))
    (rank2, hi2), (rank, hi) = rank_profile(batches, cuts)
    (im2, _), (im, _) = rank_profile(_row_batches(a_prev, cuts), ())
    return (lo[1] - rank + hi[1], im), (lo[0] - rank2 + hi2[0], im2)


def cohomology_dim(n, module, window):
    """Windowed H^n dimension report with a stability check at W-1.

    dim_H = dim proj(ker ∇ⁿ) - dim proj(im ∇ⁿ⁻¹), both projected onto the
    inner window; stable means the same dim_H results at window W-1.  The
    W-1 matrices are the trailing sum ≤ W-1 corners of the ones at W, so
    ∇ⁿ and ∇ⁿ⁻¹ are each assembled once and eliminated once, and the W-1
    numbers are read midway through the same eliminations (``window_dims``).
    """
    module = make_module(module)
    if n < 1:
        raise ValueError("cohomology degree must be >= 1")
    if window.W - 1 < window.margin:
        raise ValueError("window too small for the stability re-run at W-1")
    (dim_ker, dim_im), (dim_ker2, dim_im2) = window_dims(n, module, window)
    dim_h = dim_ker - dim_im
    stable = (dim_ker2 - dim_im2) == dim_h
    # C(W+1, d) chains of degree d, the count ``enumerate_chains`` documents
    counts = {deg: comb(window.W + 1, deg) for deg in range(1, n + 2)}
    return {
        "degree": n,
        "module": module.spec,
        "W": window.W,
        "margin": window.margin,
        "dim_ker_proj": dim_ker,
        "dim_im_proj": dim_im,
        "dim_H": dim_h,
        "stable": stable,
        "chain_counts": counts,
    }


def verify_theorem_constructions(module, n, window):
    """Check the explicit cocycle-killing constructions in degree n ≥ 2.

    For every basis vector s of the window kernel of ∇ⁿ, builds the
    degree-(n-1) preimage candidate φ₁ from the determining data of s —
    for α ≠ 0 from the chains ending in 0, for α = 0 in two steps from the
    chains ending in (1,0) and in 1 — and asserts ∇ⁿ⁻¹φ₁ matches s on the
    inner window.  Returns (ok, failures); each failure names the first
    chain where the construction misses.

    Everything stays in ∇'s coordinates: the module has rank 1, so s is
    a column vector of ∇ⁿ indexed by degree-n chains, which are the rows
    of ∇ⁿ⁻¹, and φ₁ is a column vector of ∇ⁿ⁻¹.
    """
    module = make_module(module)
    if module.E != ((1,),) or module.B != ((1,),):
        raise ValueError("theorem constructions apply to the rank-1 modules M(alpha,1)")
    alpha = Fraction(module.C[0][0])
    if n < 2:
        raise ValueError("constructions start at degree 2")
    a_n, a_prev = assemble_matrix(n, module, window), assemble_matrix(n - 1, module, window)
    rows = {lab: i for i, lab in enumerate(a_prev.row_labels)}
    cols = {lab: j for j, lab in enumerate(a_prev.col_labels)}
    # chains run (≥1, …, ≥1, ≥0), so t + (0,) is a chain iff t[-1] ≥ 1
    chains = enumerate_chains(n - 1, window.W)
    sign = (-1) ** (n + 1)

    def read(vec, chain):
        return vec.get(rows.get((chain, 0)), 0)  # 0 above the window

    failures = []
    for s in a_n.nullspace():
        if alpha != 0:
            # φ₁[t] = (-1)^{n+1} s_{(t,0)} / α
            phi = {cols[(t, 0)]: sign * read(s, t + (0,)) / alpha for t in chains if t[-1]}
        else:
            # φ₁[(…,0)] = (-1)^{n+1} s_{(…,1,0)}, then φ₁[t] = (-1)^n r_{(t,1)}
            # for t ending in ≥ 1, with r = s - ∇ⁿ⁻¹ of the first step
            phi = {cols[(t, 0)]: sign * read(s, t[:-1] + (1, 0))
                   for t in chains if not t[-1]}
            r = dict(s)
            for i, val in a_prev.matvec(phi).items():
                r[i] = r.get(i, 0) - val
            for t in chains:
                if t[-1]:
                    phi[cols[(t, 0)]] = -sign * read(r, t + (1,))
        mismatch = _first_mismatch(a_prev.matvec(phi), s, a_prev.row_labels, window.inner)
        if mismatch is not None:
            failures.append(mismatch)
    return (not failures), failures


def _row_batches(matrix, starts):
    """The rows of ``matrix`` from ``starts[0]`` to the last, then from
    ``starts[1]`` up to ``starts[0]``, …, as fresh sparse rows: the trailing
    rows, those of the lowest sums, come first."""
    low = starts[-1]
    rows = [{} for _ in range(low, matrix.nrows)]
    for j, column in enumerate(matrix.columns):
        for i, v in column.items():
            if i >= low:
                rows[i - low][j] = v
    return [rows[start - low:end - low] for start, end in zip(starts, (matrix.nrows, *starts))]


def _first_mismatch(got, want, labels, inner):
    """The first label on the inner window where two vectors differ, or None.

    The indices are walked in (sum, lex) order, which for labels by
    decreasing sum and lex within a sum is (sum, index), so the first index
    that differs is the first chain that differs, and the scan stops at the
    first sum > inner.
    """
    for i in sorted(got.keys() | want.keys(), key=lambda i: (sum(labels[i][0]), i)):
        chain, _ = labels[i]
        if sum(chain) > inner:
            break
        g, w = got.get(i, 0), want.get(i, 0)
        if g != w:
            return {"chain": chain, "got": [str(g)], "want": [str(w)]}
    return None
