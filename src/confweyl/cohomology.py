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

A ``WindowComplex`` holds one module's complex at one window and
assembles each ∇ᵈ once; the report, the theorem constructions and ∇∘∇
read those matrices.  For the same reason as above ∇ at W-1 is the sum
≤ W-1 corner of ∇ at W, and a row of sum ≤ k is zero on every column of
sum > k.  So the report reads its numbers at W and at W-1 off one
elimination per matrix, fed the low rows first
(``WindowComplex.window_dims``).

The differential ∇ = reduce ∘ Δ ∘ include is canonical: processing chains
in (sum, lex) order, the scalar reduction peels
b = φ[c] - Σ_k i_k·h[c with i_k decremented] and splits b = s[c] + ∂·h[c],
and s is the unique scalar-valued representative of φ modulo the
derivation twist (Dφ)[c] = ∂φ[c] + Σ_k i_k φ[dec_k c] (``_decrements``).
``assemble_matrix`` builds every column of ∇ⁿ in one pass over the
degree-(n+1) chains with no module arithmetic.  Every module acts by
v ∘λ eⱼ = Σᵢ (Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ) eᵢ and δ's coefficients hold only 1 and
letters v(n), so on the delta-function basis the reduction's ∂-quotients
are constants read one sum down and

    ∇[(x,i),(y,j)] = S·δᵢⱼ + T·Eᵢⱼ + L·Bᵢⱼ + Q·Cᵢⱼ,

with S, L, Q the coefficients of 1, v(1), v(0) in δ(x) at y and
T = −Σₖ iₖ·[v(0)]δ(decₖ x) at y, read from ``anick._cached_delta_terms``.
The entries keep ``coeffalg._exact``'s stored form, so ``ratmat`` gets
integral rows as ints.  The symbolic route on cochains of ∂-polynomials
(``checks.reduced_delta``) is the per-column oracle in the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb

from .anick import _cached_delta_terms, enumerate_chains
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


def _decrements(chain):
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


# -- matrices and dimension reports ------------------------------------------------

def coordinate_labels(degree, module, window):
    """(chain, coordinate) labels in (sum, lex, coordinate) order."""
    labels = []
    for chain in enumerate_chains(degree, window.W):
        for j in range(module.rank):
            labels.append((chain, j))
    return labels


_V0, _V1 = (0, 0), (0, 1)  # the words v(0) and v(1)


def assemble_matrix(degree, module, window):
    """Matrix of ∇^degree on the delta-function basis of scalar cochains.

    Columns: degree-n chains (sum ≤ W) × module coordinates; rows: the same
    for degree n+1.  Degree 0 has the single empty chain per coordinate.

    One pass over the rows x, with no module arithmetic:

        ∇[(x,i),(y,j)] = S·δᵢⱼ + T·Eᵢⱼ + L·Bᵢⱼ + Q·Cᵢⱼ,

    where S, L and Q are the coefficients of 1, v(1) and v(0) in δ(x) at y
    and T = −Σₖ iₖ·[v(0)]δ(decₖ x) at y over the decrements of x.  This is
    the canonical reduction of ``checks.reduced_delta``, which stays its
    per-column oracle: δ's coefficients hold only 1 and letters v(n)
    (``anick._closed_delta_terms``), and on a constant eⱼ the letters act
    as v(0)eⱼ = (E∂ + C)eⱼ, v(1)eⱼ = Beⱼ and v(n ≥ 2)eⱼ = 0.  So Δ of the
    basis cochain at (y, j) is Q·E eⱼ·∂ plus constants at every x, its
    ∂-quotient h[x] = Q·E eⱼ is a constant, and peeling Σₖ iₖ·h[decₖ x]
    leaves the constant T·E eⱼ + (S + L·B + Q·C)eⱼ.  The entries keep the
    stored form, an ``int`` when integral.
    """
    module = make_module(module)
    rank, E, B, C = module.rank, module.E, module.B, module.C
    col_labels = coordinate_labels(degree, module, window)
    row_labels = coordinate_labels(degree + 1, module, window)
    first_col = {chain: k * rank for k, chain in enumerate(enumerate_chains(degree, window.W))}
    columns = [{} for _ in col_labels]
    for row, x in enumerate(enumerate_chains(degree + 1, window.W)):
        weights = {y: [terms.get(UNIT, 0), 0, terms.get(_V1, 0), terms.get(_V0, 0)]
                   for y, terms in _cached_delta_terms(x).items()}  # y -> [S, T, L, Q]
        for _, i, dec in _decrements(x):
            for y, terms in _cached_delta_terms(dec).items():
                q = terms.get(_V0)
                if q:
                    weights.setdefault(y, [0, 0, 0, 0])[1] -= i * q
        base = row * rank
        for y, (s, t, l, q) in weights.items():
            for j in range(rank):
                column = columns[first_col[y] + j]
                for i in range(rank):
                    entry = t * E[i][j] + l * B[i][j] + q * C[i][j]
                    if i == j:
                        entry += s
                    if entry:
                        column[base + i] = _exact(entry)
    return RationalMatrix(len(row_labels), len(col_labels), columns, row_labels, col_labels)


class WindowComplex:
    """The window complex of one module: ∇ᵈ for every degree d at sum ≤ W.

    Each ∇ᵈ is assembled once, on first use, by ``assemble_matrix``.  No
    kernel is kept, so a complex holds its matrices and nothing else.
    """

    def __init__(self, module, window):
        self.module = make_module(module)
        self.window = window
        self._nabla = {}  # degree -> ∇ᵈ

    def nabla(self, degree):
        """∇ᵈ, with (chain, coordinate) labels on both sides."""
        got = self._nabla.get(degree)
        if got is None:
            got = self._nabla[degree] = assemble_matrix(degree, self.module, self.window)
        return got

    def index(self, degree):
        """(chain, coordinate) → position in degree d: ∇ᵈ's columns, ∇ᵈ⁻¹'s rows."""
        return {lab: j for j, lab in enumerate(self.nabla(degree).col_labels)}

    def window_dims(self, n):
        """(dim proj(ker ∇ⁿ), dim proj(im ∇ⁿ⁻¹)) at W, then at W-1.

        With lo the columns of A = ∇ⁿ at sum ≤ inner and hi those above,
        dim proj(ker A) = |lo| − rank A + rank A_hi, and dim proj(im ∇ⁿ⁻¹) is
        the rank of ∇ⁿ⁻¹'s rows at sum ≤ inner.  Labels run in (sum, lex)
        order, and a row of sum ≤ k is zero on the columns of sum > k, so
        one elimination per matrix gives both windows:

        - A's columns go in by decreasing sum, which makes every "sum > k" a
          leading block, whose rank is the number of leads left of it;
        - its rows of sum ≤ W-1 go in first: they are ∇ⁿ at W-1, whose
          numbers are read before the rows of sum W are added;
        - likewise ∇ⁿ⁻¹'s rows of sum ≤ inner-1, then those of sum inner.
        """
        inner = self.window.inner
        a_n, a_prev = self.nabla(n), self.nabla(n - 1)
        # the degree-n sums: ∇ⁿ's columns and ∇ⁿ⁻¹'s rows, nondecreasing
        sums = [sum(chain) for chain, _ in a_n.col_labels]
        lo = [bisect_right(sums, k) for k in (inner - 1, inner)]  # |lo| at W-1, at W
        order = sorted(range(a_n.ncols), key=lambda j: -sums[j])  # stable: lex kept
        row_sums = [sum(chain) for chain, _ in a_n.row_labels]
        batches = _row_batches(a_n, (bisect_right(row_sums, self.window.W - 1), a_n.nrows),
                               order)
        (rank2, hi2), (rank, hi) = rank_profile(batches, [a_n.ncols - k for k in lo])
        batches = _row_batches(a_prev, lo, range(a_prev.ncols))
        (im2, _), (im, _) = rank_profile(batches, ())
        return (lo[1] - rank + hi[1], im), (lo[0] - rank2 + hi2[0], im2)

    def report(self, n):
        """The H^n dimension report of ``cohomology_dim``."""
        window = self.window
        if n < 1:
            raise ValueError("cohomology degree must be >= 1")
        if window.W - 1 < window.margin:
            raise ValueError("window too small for the stability re-run at W-1")
        (dim_ker, dim_im), (dim_ker2, dim_im2) = self.window_dims(n)
        dim_h = dim_ker - dim_im
        stable = (dim_ker2 - dim_im2) == dim_h
        # C(W+1, d) chains of degree d, the count ``enumerate_chains`` documents
        counts = {deg: comb(window.W + 1, deg) for deg in range(1, n + 2)}
        return {
            "degree": n,
            "module": self.module.spec,
            "W": window.W,
            "margin": window.margin,
            "dim_ker_proj": dim_ker,
            "dim_im_proj": dim_im,
            "dim_H": dim_h,
            "stable": stable,
            "chain_counts": counts,
        }

    def constructions(self, n):
        """The (ok, failures) verdict of ``verify_theorem_constructions``.

        Everything stays in ∇'s coordinates: the module has rank 1, so s is
        a column vector of ∇ⁿ indexed by degree-n chains, which are the rows
        of ∇ⁿ⁻¹, and φ₁ is a column vector of ∇ⁿ⁻¹.
        """
        params = self.module.params
        if self.module.rank != 1 or params.get("delta") != 1:
            raise ValueError("theorem constructions apply to the rank-1 modules M(alpha,1)")
        alpha = params["alpha"]
        if n < 2:
            raise ValueError("constructions start at degree 2")
        a_n, a_prev = self.nabla(n), self.nabla(n - 1)
        rows, cols = self.index(n), self.index(n - 1)
        # chains run (≥1, …, ≥1, ≥0), so t + (0,) is a chain iff t[-1] ≥ 1
        chains = enumerate_chains(n - 1, self.window.W)
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
            mismatch = _first_mismatch(a_prev.matvec(phi), s, a_prev.row_labels,
                                       self.window.inner)
            if mismatch is not None:
                failures.append(mismatch)
        return (not failures), failures


def cohomology_dim(n, module, window):
    """Windowed H^n dimension report with a stability check at W-1.

    dim_H = dim proj(ker ∇ⁿ) - dim proj(im ∇ⁿ⁻¹), both projected onto the
    inner window; stable means the same dim_H results at window W-1.  The
    W-1 matrices are the sum ≤ W-1 corners of the ones at W, so ∇ⁿ and
    ∇ⁿ⁻¹ are each assembled once and eliminated once, and the W-1 numbers
    are read midway through the same eliminations.
    """
    return WindowComplex(module, window).report(n)


def verify_theorem_constructions(module, n, window):
    """Check the explicit cocycle-killing constructions in degree n ≥ 2.

    For every basis vector s of the window kernel of ∇ⁿ, builds the
    degree-(n-1) preimage candidate φ₁ from the determining data of s —
    for α ≠ 0 from the chains ending in 0, for α = 0 in two steps from the
    chains ending in (1,0) and in 1 — and asserts ∇ⁿ⁻¹φ₁ matches s on the
    inner window.  Returns (ok, failures); each failure names the first
    chain where the construction misses.
    """
    return WindowComplex(module, window).constructions(n)


def _row_batches(matrix, ends, order):
    """The rows of ``matrix`` before ``ends[0]``, then from there to ``ends[1]``,
    …, as fresh sparse rows; column ``order[p]`` becomes column p."""
    top = ends[-1]
    rows = [{} for _ in range(top)]
    for p, j in enumerate(order):
        for i, v in matrix.columns[j].items():
            if i < top:
                rows[i][p] = v
    return [rows[start:end] for start, end in zip((0, *ends), ends)]


def _first_mismatch(got, want, labels, inner):
    """The first label on the inner window where two vectors differ, or None.

    Labels run in (sum, lex) order, so the first index that differs is the
    first chain that differs, and the scan stops at the first sum > inner.
    """
    for i in sorted(got.keys() | want.keys()):
        chain, _ = labels[i]
        if sum(chain) > inner:
            break
        g, w = got.get(i, 0), want.get(i, 0)
        if g != w:
            return {"chain": chain, "got": [str(g)], "want": [str(w)]}
    return None
