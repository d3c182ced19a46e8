"""Named property-check suites shared by the CLI and the test suite.

Each suite returns a dict with at least ``name``, ``passed`` and ``details``.
The rewriting checks use a deliberately naive reducer (apply one rule at a
chosen position, repeat to a fixpoint) as an oracle independent of the
closed-form engine in coeffalg.  ``oracle_is_chain`` is Anick's generic chain
definition, the reference the tests hold ``anick.is_chain`` to, and
``oracle_twist_terms`` is the Morse route to the derivation twist D, the
reference for its decrement rule in ``d_map`` (``cohomology._decrements``,
which ∇'s operators read too).
``oracle_associativity_residual`` expands a module's associativity identity
symbolically through a λ-action built from E, B, C at call time, the
reference for the matrix check ``modules._validate``.  No engine path calls
any of them.

The symbolic cochain oracle is the route that ∇ assembly collapses:
``Cochain`` and ``ScalarCochain`` valued in ``ModuleElement`` vectors of
∂-polynomials, Δ (``hochschild_delta``), D by its decrement rule
(``d_map``), the canonical scalar reduction (``reduce_cochain``,
``reduce_element``) and ∇ on one cochain (``reduced_delta``, the
per-column oracle of ``cohomology.assemble_matrix``).  A ``SymbolicModule``
wraps a ``FiniteModule``: it carries the letter action by Taylor's formula
(``act_vn``, ``act_word``, ``act_algebra``) and owns Δ's three memos, one
set per check call: δ's raw terms per chain, the coface index per
(degree, W) and the action per (coefficient, value).  Δ works by cofaces:
Δφ is read only at the chains whose δ has a target in supp φ.
``check_locality_compat`` is the λ-degree criterion for M(α,Δ).

The resolution suites (``check_delta_squared``, ``check_morse_closed``,
``check_fdg``, ``check_fg_identity``) read and accumulate the raw
{key: {word: coeff}} terms of ``anick`` (``_closed_delta_terms``,
``_bar_terms``, ``_g_terms``, ``_morse_delta_terms`` and the traversal pair
of ``_zigzag``) and never wrap them: ``AlgebraElement`` equality compares
the same dicts, so each comparison is the one the public maps would make.
``check_delta_squared`` builds the δ of each degree-(n−1) target once, in a
table local to degree n that is dropped before degree n+1.  Each resolution
suite, ``check_chain_kill``, ``check_nabla_squared`` and
``check_reduction_soundness`` raise ValueError on a bound under which they
would check nothing (at W = 0, ∇¹ has no rows; below W = 2, most soundness
trials draw a degree without chains), since an empty check reads as a pass.
``check_matching`` reads each edge's weight off d(split end) through
``anick._edge_weight`` and reports a non-invertible one as a failure.

``check_fdg`` computes f∘d once per cell within a grade.  Every cell of
g(c) has c's slot count and c's grade (Σ indices − number of letters),
because the rewriting rule v(n)v(m) → v(0)v(n+m) + n·v(n+m-1), slot splits
and slot merges all keep the grade; so chains of one (degree, sum) share
cells and no others do.  f∘d∘g(c) = Σ coeff·(f∘d)(cell) over g(c) =
Σ coeff·cell is the same composite as Σ (coeff·c₂)·f(y) over d(cell) =
Σ c₂·y, by associativity and distributivity in Λ.
"""

from __future__ import annotations

from fractions import Fraction
import itertools
import random

from .anick import (
    MatchingError,
    _bar_terms,
    _closed_delta_terms,
    _combine,
    _edge_weight,
    _g_terms,
    _morse_delta_terms,
    _zigzag,
    bar_derivation,
    cell_is_chain,
    cell_to_chain,
    enumerate_chains,
    homotopy_f,
    homotopy_g,
    matched_edge,
)
from .coeffalg import (
    UNIT,
    AlgebraElement,
    _element,
    _exact,
    derivation as lambda_derivation,
    normal_form,
)
from .cohomology import Window, _decrements, assemble_matrix
from .conformal import ConformalElement, check_associativity, lambda_product, n_product
from .modules import make_module
from .poly import Poly, D, L, M as MU, split_constant


# -- naive rewriting oracle ----------------------------------------------------------

def rewrite_positions(word):
    """Positions where v(n)v(m), n ≥ 1 occurs in a raw word."""
    return [i for i in range(len(word) - 1) if word[i] >= 1]


def rewrite_at(word, pos):
    """One rewriting step at a position: list of (int coefficient, word)."""
    n, m = word[pos], word[pos + 1]
    first = word[:pos] + (0, n + m) + word[pos + 2:]
    out = [(1, first)]
    if n:
        out.append((n, word[:pos] + (n + m - 1,) + word[pos + 2:]))
    return out


def reduce_word_strategy(word, pick):
    """Fully reduce a word with a position-picking strategy; dict word->int coeff."""
    pending = {tuple(word): 1}
    done = {}
    while pending:
        w, c = pending.popitem()
        positions = rewrite_positions(w)
        if not positions:
            done[w] = done.get(w, 0) + c
            if not done[w]:
                del done[w]
            continue
        for c2, w2 in rewrite_at(w, pick(positions)):
            key = w2
            acc = pending.get(key, 0) + c * c2
            if acc:
                pending[key] = acc
            else:
                pending.pop(key, None)
    return done


def oracle_normal_form(word, strategy="leftmost", rng=None):
    if strategy == "leftmost":
        pick = min
    elif strategy == "rightmost":
        pick = max
    elif strategy == "random":
        rng = rng or random.Random(0)
        pick = rng.choice
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    reduced = reduce_word_strategy(word, pick)
    terms = {}
    for w, c in reduced.items():
        zeros = sum(1 for x in w[:-1] if x == 0)
        if zeros != len(w) - 1:
            raise RuntimeError(f"not reduced: {w}")
        terms[(zeros, w[-1])] = c
    return AlgebraElement(terms)


def check_confluence(count=1000):
    """Random words: leftmost/rightmost/random strategies and the engine agree.

    The words are seeded, of length 1-6, with letter indices 0-8.
    """
    rng = random.Random(2024)
    failures = []
    for _ in range(count):
        length = rng.randint(1, 6)
        word = tuple(rng.randint(0, 8) for _ in range(length))
        left = oracle_normal_form(word, "leftmost")
        right = oracle_normal_form(word, "rightmost")
        anyorder = oracle_normal_form(word, "random", rng)
        engine = normal_form(word)
        if not (left == right == anyorder == engine):
            failures.append(word)
    return {"name": "confluence", "passed": not failures,
            "details": {"count": count, "failures": failures[:5]}}


# -- generic Anick chain oracle ---------------------------------------------------------

def _is_obstruction(word):
    """Leading words of the rule v(n)v(m) → v(0)v(n+m) + n·v(n+m-1): v(a)v(b), a ≥ 1."""
    return len(word) == 2 and word[0] >= 1 and word[1] >= 0


_OBSTRUCTION_MAX_LEN = 2


def _prechain_states(word, tiles):
    """Reachable (a_j, b_j) interval ends after j tiles, for j = 1..tiles."""
    t = len(word)
    levels = []
    states = set()
    for b in range(2, min(t, _OBSTRUCTION_MAX_LEN) + 1):
        if _is_obstruction(word[0:b]):
            states.add((1, b))
    levels.append(states)
    for _ in range(1, tiles):
        nxt = set()
        for (a, b) in levels[-1]:
            for a2 in range(a + 1, b + 1):
                for b2 in range(b + 1, min(t, a2 + _OBSTRUCTION_MAX_LEN - 1) + 1):
                    if _is_obstruction(word[a2 - 1:b2]):
                        nxt.add((a2, b2))
        levels.append(nxt)
    return levels


def oracle_is_chain(word, degree):
    """Whether a raw word is an Anick ``degree``-chain, by the generic definition.

    Degree -1 is the empty word, degree 0 a single letter; for degree n ≥ 1
    the word must tile by n obstructions with Anick's minimality condition
    (each b_m is the least end of any m-prechain prefix).
    """
    word = tuple(word)
    t = len(word)
    if degree == -1:
        return t == 0
    if degree == 0:
        return t == 1
    if degree < -1 or t < 2:
        return False
    levels = _prechain_states(word, degree)
    # minimal end of an m-prechain prefix, for each m
    minimal_ends = []
    for states in levels:
        if not states:
            return False
        minimal_ends.append(min(b for (_, b) in states))
    if minimal_ends[-1] != t:
        return False
    # thread a placement through the minimal ends
    current = {(a, b) for (a, b) in levels[0] if b == minimal_ends[0]}
    for m in range(1, degree):
        e = minimal_ends[m]
        nxt = set()
        for (a, b) in current:
            for a2 in range(a + 1, b + 1):
                if e > b and _is_obstruction(word[a2 - 1:e]):
                    nxt.add((a2, e))
        current = nxt
        if not current:
            return False
    return True


# -- derivation-twist oracle ------------------------------------------------------------

def oracle_twist_terms(chain):
    """The derivation twist D at one chain, by the Morse route.

    Returns {b: λ_b}, λ_b ∈ Λ, with (Dφ)(a) = ∂(φ(a)) - Σ λ_b·φ(b) for
    every cochain φ: the chain terms of ∂ₙ(gₙ(a)), where ∂ₙ acts on
    Λ-coefficients by the derivation of Λ and slot-wise on cells
    (``bar_derivation``), with every cell that is not an Anick chain
    dropped and the terms of each b combined.  This is the reference that
    criterion 4 and the tests hold the decrement rule of
    ``cohomology.d_map`` to; no engine path calls it.
    """
    acc = {}
    for cell, coeff in homotopy_g(chain).items():
        parts = [(cell, lambda_derivation(coeff))]
        parts.extend((cell2, coeff.scale(n)) for cell2, n in bar_derivation(cell).items())
        for cell2, lam in parts:
            if not lam or not cell_is_chain(cell2):
                continue
            b = cell_to_chain(cell2)
            s = acc[b] + lam if b in acc else lam
            if s:
                acc[b] = s
            else:
                del acc[b]
    return acc


# -- resolution suites ------------------------------------------------------------------

def _refuse_vacuous(suite, name, value, least):
    """Raise ValueError when ``value`` is below ``least``, the smallest bound
    at which ``suite`` checks anything: an empty check would read as a pass."""
    if value < least:
        raise ValueError(f"suite {suite!r} needs {name} >= {least}, got {value}: "
                         "a smaller bound leaves it nothing to check")


def check_delta_squared(max_degree=5, max_sum=10):
    """δ∘δ = 0 on every chain of degree 2..max_degree, on raw terms.

    The δ of each degree-(n−1) target is built once, in a table local to
    degree n and dropped before degree n+1: chains of degree n share their
    targets, and no other degree reads them.  As in ``_fd``, the table also
    maps each coefficient's frozen items to one shared copy of it, which
    keeps the degree-5 table at about a third of its unshared size.  The
    first chain it checks is [1|0], of degree 2 and sum 1.
    """
    _refuse_vacuous("delta-squared", "max_degree", max_degree, 2)
    _refuse_vacuous("delta-squared", "max_sum", max_sum, 1)
    failures = []
    for degree in range(2, max_degree + 1):
        table = {}
        for chain in enumerate_chains(degree, max_sum):
            out = {}
            for target, coeff in _closed_delta_terms(chain).items():
                delta = table.get(target)
                if delta is None:
                    delta = table[target] = {
                        t: table.setdefault(frozenset(c.items()), c)
                        for t, c in _closed_delta_terms(target).items()}
                _combine(out, coeff, delta)
            if out:
                failures.append(chain)
    return {"name": "delta-squared", "passed": not failures,
            "details": {"max_degree": max_degree, "max_sum": max_sum,
                        "failures": failures[:5]}}


def check_morse_closed(max_degree=4, max_sum=8):
    _refuse_vacuous("morse-closed", "max_degree", max_degree, 1)
    _refuse_vacuous("morse-closed", "max_sum", max_sum, 0)
    failures = []
    for degree in range(1, max_degree + 1):
        for chain in enumerate_chains(degree, max_sum):
            if _morse_delta_terms(chain) != _closed_delta_terms(chain):
                failures.append(chain)
    return {"name": "morse-closed", "passed": not failures,
            "details": {"max_degree": max_degree, "max_sum": max_sum,
                        "failures": failures[:5]}}


def _fd(cell, memo):
    """(f∘d)(cell) = Σ_y c₂·f(y) over d(cell) = Σ_y c₂·y, on raw terms,
    read through ``memo``.

    The memo maps each cell met to its value, a compact {chain: {word:
    coeff}} dict, or the shared empty tuple for 0, and each coefficient's
    frozen items to one shared copy of it: the values of one grade hold few
    distinct coefficients (24 among 2310 at degree 5, sum 10).
    """
    got = memo.get(cell)
    if got is None:
        acc = {}
        for y, c2 in _bar_terms(cell).items():
            projected = _zigzag(y)[0]
            if projected:  # split ends project to 0; skip their product
                _combine(acc, c2, projected)
        got = memo[cell] = ({key: memo.setdefault(frozenset(val.items()), val)
                             for key, val in acc.items()} if acc else ())
    return got


def _fdg(chain, memo=None):
    """f∘d∘g on one chain as raw terms, Σ coeff·(f∘d)(cell) over
    g(chain) = Σ coeff·cell.

    ``memo`` holds (f∘d)(cell) for cells already met; a fresh one is used
    when none is given.
    """
    if memo is None:
        memo = {}
    out = {}
    for cell, coeff in _g_terms(chain).items():
        fd = _fd(cell, memo)
        if fd:
            _combine(out, coeff, fd)
    return out


def check_fdg(max_degree=4, max_sum=8):
    """δ = f∘d∘g on every chain, with f∘d computed once per cell of a grade.

    Every cell of g(c) has c's slot count and c's grade (Σ indices − number
    of letters): the rewriting rule, slot splits and slot merges all keep
    it.  So cells are shared only among chains of one (degree, sum), and
    the memo of (f∘d)(cell) is dropped whenever the sum changes in
    ``enumerate_chains``' (sum, lex) order.  Σ coeff·(f∘d)(cell) is the
    same composite as Σ (coeff·c₂)·f(y), by associativity and
    distributivity in Λ.  Both sides are raw terms; ``AlgebraElement``
    equality compares the same dicts.
    """
    _refuse_vacuous("fdg", "max_degree", max_degree, 1)
    _refuse_vacuous("fdg", "max_sum", max_sum, 0)
    failures = []
    for degree in range(1, max_degree + 1):
        memo, grade_sum = {}, None
        for chain in enumerate_chains(degree, max_sum):
            if sum(chain) != grade_sum:
                memo, grade_sum = {}, sum(chain)
            if _fdg(chain, memo) != _closed_delta_terms(chain):
                failures.append(chain)
    return {"name": "fdg", "passed": not failures,
            "details": {"max_degree": max_degree, "max_sum": max_sum,
                        "failures": failures[:5]}}


def check_fg_identity(max_degree=3, max_sum=7):
    _refuse_vacuous("fg-identity", "max_degree", max_degree, 1)
    _refuse_vacuous("fg-identity", "max_sum", max_sum, 0)
    failures = []
    for degree in range(1, max_degree + 1):
        for chain in enumerate_chains(degree, max_sum):
            out = {}
            for cell, coeff in _g_terms(chain).items():
                _combine(out, coeff, _zigzag(cell)[0])
            if out != {chain: {UNIT: 1}}:
                failures.append(chain)
    return {"name": "fg-identity", "passed": not failures,
            "details": {"max_degree": max_degree, "max_sum": max_sum,
                        "failures": failures[:5]}}


def _sample_cells(max_slots=3, max_letters=4, max_index=4):
    """All bar cells with bounded slot count, letters and indices."""
    words = [(k, n) for k in range(0, max_letters) for n in range(0, max_index + 1)
             if k + 1 <= max_letters]
    cells = []
    for slots in range(1, max_slots + 1):
        for combo in itertools.product(words, repeat=slots):
            if sum(k + 1 for (k, _) in combo) <= max_letters:
                cells.append(combo)
    return cells


def check_matching():
    """Partner-of-partner involution, single-partner property and an
    invertible weight, read off d(split end), on every bar cell of at most
    3 slots and 4 letters with indices ≤ 4."""
    failures = []
    partner_of = {}
    cells = _sample_cells(3, 4, 4)
    for cell in cells:
        edge = matched_edge(cell)
        if edge is None:
            continue
        partner, direction = edge
        if matched_edge(partner) != (cell, "down" if direction == "up" else "up"):
            failures.append(cell)
            continue
        split, merged = (partner, cell) if direction == "up" else (cell, partner)
        try:
            _edge_weight(_bar_terms(split), merged)
        except MatchingError:
            failures.append(cell)
            continue
        if partner in partner_of and partner_of[partner] != cell:
            failures.append(cell)
        partner_of[partner] = cell
    return {"name": "matching", "passed": not failures,
            "details": {"cells": len(cells), "failures": failures[:5]}}


def check_chain_kill(max_degree=3, max_sum=6):
    """Non-chain cells with f = 0 keep f = 0 after slot-wise derivation.

    The first such cell is the split end [v(0)|v(0)], of 2 slots and 2
    letters: every smaller cell is a chain or a merged end, whose f is not 0.
    """
    _refuse_vacuous("chain-kill", "max_degree", max_degree, 2)
    _refuse_vacuous("chain-kill", "max_sum", max_sum, 2)
    failures = []
    for cell in _sample_cells(max_degree, max_sum, max_sum):
        if cell_is_chain(cell) or homotopy_f(cell):
            continue
        for cell2 in bar_derivation(cell):
            if homotopy_f(cell2):
                failures.append(cell)
                break
    return {"name": "chain-kill", "passed": not failures,
            "details": {"failures": failures[:5]}}


# -- conformal-algebra suites -----------------------------------------------------------

def check_conformal_axioms():
    """Sesquilinearity C2/C3 as λ-identities plus n-product reconstruction,
    on every monomial ∂ᵃvⁿ with n ≤ 6 and a ≤ 2."""
    failures = []
    mons = [ConformalElement.monomial(a, n) for n in range(1, 7) for a in range(3)]
    for a in mons:
        for b in mons:
            lam = lambda_product(a, b)
            if lambda_product(a.d_mul(), b) != -L * lam:
                failures.append(("C2", str(a), str(b)))
            if lambda_product(a, b.d_mul()) != (D + L) * lam:
                failures.append(("C3", str(a), str(b)))
            rebuilt = Poly.zero()
            fact = 1
            for n in range(0, lam.degree("l") + 1):
                if n:
                    fact *= n
                rebuilt = rebuilt + L ** n * n_product(a, b, n).poly * Fraction(1, fact)
            if rebuilt != lam:
                failures.append(("reconstruction", str(a), str(b)))
    return {"name": "conformal-axioms", "passed": not failures,
            "details": {"monomials": len(mons), "failures": failures[:5]}}


def check_conformal_associativity():
    """a∘λ(b∘μc) = (a∘λb)∘(λ+μ)c for every monomial triple ∂ᵃvⁿ with total
    v-degree ≤ 6 and each a ≤ 1."""
    failures = []
    checked = 0
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for n3 in range(1, 7 - n1 - n2):
                for a1 in range(2):
                    for a2 in range(2):
                        for a3 in range(2):
                            a = ConformalElement.monomial(a1, n1)
                            b = ConformalElement.monomial(a2, n2)
                            c = ConformalElement.monomial(a3, n3)
                            checked += 1
                            if not check_associativity(a, b, c):
                                failures.append((str(a), str(b), str(c)))
    return {"name": "conformal-associativity", "passed": not failures,
            "details": {"triples": checked, "failures": failures[:5]}}


SHIPPED_MODULES = (
    "M(alpha=0,delta=1)",
    "M(alpha=1,delta=1)",
    "M(alpha=-2,delta=1)",
    "M(alpha=1/2,delta=1)",
    "M(alpha=0,delta=0)",
    "trivial",
    "ext(alpha=0,beta=1,gamma=1)",
)


# -- symbolic cochain oracle ---------------------------------------------------------------

class ModuleElement:
    """Vector of coordinate polynomials over a fixed free module."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, rank):
        return cls((Poly.zero(),) * rank)

    @classmethod
    def constants(cls, values):
        return cls(tuple(Poly.const(v) for v in values))

    def __add__(self, other):
        return ModuleElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return ModuleElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return ModuleElement(tuple(-a for a in self.coords))

    def scale(self, q):
        return ModuleElement(tuple(a * q for a in self.coords))

    def poly_mul(self, p):
        return ModuleElement(tuple(a * p for a in self.coords))

    def is_zero(self):
        return all(a.is_zero() for a in self.coords)

    def __eq__(self, other):
        return isinstance(other, ModuleElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        names = ("u", "w", "x", "y")
        parts = []
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            name = names[i] if i < len(names) else f"e{i}"
            parts.append(f"({a}){name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ModuleElement({str(self)})"


def reduce_element(m):
    """Coordinate-wise split f = c + ∂·g; returns (constants, quotient)."""
    split = [split_constant(f) for f in m.coords]
    return tuple(c for c, _ in split), ModuleElement(g for _, g in split)


class SymbolicModule:
    """A ``FiniteModule`` (or its spec) acting on vectors of ∂-polynomials.

    Reads the module's E, B, C and owns what Δ fills: δ's raw terms per
    chain, the coface index per (degree, W) and the action of each
    coefficient on each value, so they are freed with it.
    """

    def __init__(self, module):
        self.module = make_module(module)
        self.rank, self.spec = self.module.rank, self.module.spec
        self.E, self.B, self.C = self.module.E, self.module.B, self.module.C
        # chain -> ``_closed_delta_terms(chain)``, filled by Δ
        self.delta_memo = {}
        # (degree, W) -> {y: [x, …]}, the degree-n chains x of sum ≤ W whose
        # δ has the target y, in (sum, lex) order (``_cofaces``)
        self.coface_memo = {}
        # (frozen items of x ∈ Λ, m) -> x·m, filled by Δ (``_act``)
        self.action_memo = {}

    def zero(self):
        return ModuleElement.zero(self.rank)

    def basis(self):
        return [ModuleElement(Poly.one() if i == j else Poly.zero() for i in range(self.rank))
                for j in range(self.rank)]

    def element(self, *coords):
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return ModuleElement(c if isinstance(c, Poly) else Poly.const(c) for c in coords)

    def act_vn(self, n, m):
        """Action of the letter v(n) by Taylor's formula.

        v(n)·m is n! times the λⁿ part of v ∘λ m, and v ∘λ (f eⱼ) =
        Σᵢ (Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ) f(∂+λ) eᵢ with f(∂+λ) = Σₖ f⁽ᵏ⁾(∂) λᵏ/k!, so

            v(n)·F = (E∂ + C)F⁽ⁿ⁾ + n·B·F⁽ⁿ⁻¹⁾

        (the B term is absent for n = 0): two derivatives of each coordinate
        and no shift or λ-split.  A coordinate of m that carries λ raises
        ``ValueError``: the letter acts on ∂-polynomials only.
        """
        if any(f.degree("l") > 0 for f in m.coords):
            raise ValueError("act_vn expects coordinates free of λ")
        lower = [f.derivative("d", n - 1) for f in m.coords] if n else None
        high = [f.derivative("d") for f in lower] if n else m.coords
        out = []
        for i in range(self.rank):
            acc = Poly.zero()
            for j, f in enumerate(high):
                e, c = self.E[i][j], self.C[i][j]
                if f and (e or c):
                    acc = acc + f * (D * e + c)
                if n and self.B[i][j] and lower[j]:
                    acc = acc + lower[j] * (n * self.B[i][j])
            out.append(acc)
        return ModuleElement(out)

    def act_word(self, word, m):
        """Action of a normal word; the rightmost letter acts first."""
        if word is UNIT:
            return m
        k, n = word
        m = self.act_vn(n, m)
        for _ in range(k):
            m = self.act_vn(0, m)
        return m

    def act_algebra(self, x, m):
        """Action of an element of Λ (linear over words; 1 acts as identity)."""
        out = self.zero()
        for w, c in x.terms.items():
            out = out + self.act_word(w, m).scale(c)
        return out

    def derivation(self, m):
        """∂ on the free module: multiply every coordinate by ∂."""
        return m.poly_mul(D)


def check_locality_compat(alpha, delta):
    """λ-degree criterion for M(α,Δ) to carry the locality-2 product.

    Expands (α+∂+λ+Δ(μ-λ))(α+∂+Δλ) — the value of (v ∘λ v) ∘μ u computed
    through the inner action — and checks the λ-degree stays below 2.
    """
    base = Poly.const(alpha) + D
    expr = (base + L + (MU - L) * delta) * (base + L * delta)
    return expr.degree("l") < 2


class Cochain:
    """Degree-n cochain: map degree-n chains -> module elements.

    Degree 0 uses the empty chain () as its single key.
    """

    __slots__ = ("degree", "module", "values")

    def __init__(self, degree, module, values=None):
        self.degree = degree
        self.module = module
        self.values = {}
        if values:
            for chain, el in values.items():
                if not el.is_zero():
                    self.values[chain] = el

    def value(self, chain):
        got = self.values.get(chain)
        return got if got is not None else self.module.zero()

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values)

    def is_zero(self):
        return not self.values


class ScalarCochain:
    """Canonical representative: map chains -> rank-vectors of rationals."""

    __slots__ = ("degree", "module", "values")

    def __init__(self, degree, module, values=None):
        self.degree = degree
        self.module = module
        self.values = {}
        if values:
            for chain, vec in values.items():
                vec = tuple(map(_exact, vec))
                if any(vec):
                    self.values[chain] = vec

    def value(self, chain):
        got = self.values.get(chain)
        return got if got is not None else (0,) * self.module.rank

    def include(self):
        """Embed back as a constant-valued Cochain."""
        return Cochain(self.degree, self.module,
                       {c: ModuleElement.constants(v) for c, v in self.values.items()})

    def __eq__(self, other):
        return (isinstance(other, ScalarCochain) and self.degree == other.degree
                and self.values == other.values)

    def is_zero(self):
        return not self.values


def _act(module, terms, val):
    """x·val for x ∈ Λ given by its raw terms, through the module's own
    action memo, keyed by (x's frozen items, val)."""
    key = (frozenset(terms.items()), val)
    got = module.action_memo.get(key)
    if got is None:
        got = module.action_memo[key] = module.act_algebra(_element(terms), val)
    return got


def _cofaces(module, degree, W):
    """{y: [x, …]}: the degree-``degree`` chains x of sum ≤ W whose δ has the
    target y, each list in (sum, lex) order, built once per (degree, W) from
    the module's δ memo and kept in ``coface_memo``."""
    key = (degree, W)
    index = module.coface_memo.get(key)
    if index is None:
        index = module.coface_memo[key] = {}
        memo = module.delta_memo
        for x in enumerate_chains(degree, W):
            delta = memo.get(x)
            if delta is None:
                delta = memo[x] = _closed_delta_terms(x)
            for y in delta:
                index.setdefault(y, []).append(x)
    return index


def hochschild_delta(phi, window):
    """Δⁿφ = φ ∘ δ_{n+1} on every chain of degree n+1 with sum ≤ W.

    Δφ can be nonzero only at the cofaces of supp φ, the chains whose δ has
    a target in it, so only those are visited, in (sum, lex) order; the
    other chains of the window are 0.  δ of each chain, the coface index and
    the action of each δ coefficient on each value are memoised per module
    (``SymbolicModule.delta_memo``, ``coface_memo`` and ``action_memo``).
    """
    module = phi.module
    memo = module.delta_memo
    cofaces = _cofaces(module, phi.degree + 1, window.W)
    visit = {x for y in phi.values for x in cofaces.get(y, ())}
    out = {}
    for x in sorted(visit, key=lambda x: (sum(x), x)):
        delta = memo[x]
        acc = module.zero()
        for y, terms in delta.items():
            val = phi.values.get(y)
            if val is not None:
                acc = acc + _act(module, terms, val)
        if not acc.is_zero():
            out[x] = acc
    return Cochain(phi.degree + 1, module, out)


def d_map(phi, window):
    """Derivation-twist Dⁿ on cochains, by its decrement rule.

    (Dⁿφ)[c] = ∂φ[c] + Σ_k i_k φ[dec_k c] for every chain c in the window,
    where dec_k lowers the k-th index by one and terms that leave the chains
    drop out.  Degree 0 is ∂ on M.  This is the differential-algebra Morse
    route collapsed to its terms; ``oracle_twist_terms`` keeps that route
    as the reference.

    Only φ's chains b and their increments are visited: c = inc_k b is
    always a chain, dec_k c = b, and its term has coefficient c_k = b_k + 1.
    """
    module = phi.module
    if phi.degree == 0:
        return Cochain(0, module, {(): module.derivation(phi.value(()))})
    out = {}
    for b, val in phi.values.items():
        level = sum(b)
        if level > window.W:
            continue
        out[b] = out[b] + module.derivation(val) if b in out else module.derivation(val)
        if level == window.W:
            continue
        for k, i in enumerate(b):
            c = b[:k] + (i + 1,) + b[k + 1:]
            add = val.scale(i + 1)
            out[c] = out[c] + add if c in out else add
    return Cochain(phi.degree, module, out)


def reduce_cochain(phi, window):
    """Unique (s, h) with φ - Dⁿh = s scalar-valued on the window."""
    module = phi.module
    if phi.degree == 0:
        consts, quot = reduce_element(phi.value(()))
        return (ScalarCochain(0, module, {(): consts}),
                Cochain(0, module, {(): quot}))
    svals = {}
    hvals = {}
    for c in enumerate_chains(phi.degree, window.W):
        b = phi.values.get(c, module.zero())
        for _, i, dec in _decrements(c):
            hv = hvals.get(dec)
            if hv is not None:
                b = b - hv.scale(i)
        if b.is_zero():
            continue
        consts, quot = reduce_element(b)
        if any(consts):
            svals[c] = consts
        if not quot.is_zero():
            hvals[c] = quot
    return (ScalarCochain(phi.degree, module, svals),
            Cochain(phi.degree, module, hvals))


def reduced_delta(s, window):
    """∇ⁿ: the reduced differential on canonical scalar cochains."""
    delta = hochschild_delta(s.include(), window)
    reduced, _ = reduce_cochain(delta, window)
    return reduced


# -- symbolic module-action oracle ---------------------------------------------------------

def _split_lambda(coords):
    split = [f.coeffs_in("l") for f in coords]
    out = {}
    for deg in set().union(*split):
        vec = ModuleElement(tuple(parts.get(deg, Poly.zero()) for parts in split))
        if not vec.is_zero():
            out[deg] = vec
    return out


def oracle_act_v_lambda(module, m):
    """v ∘λ m as a map λ-degree -> ModuleElement (coords may carry μ).

    Coordinates act shifted, f(∂) ↦ f(∂+λ), times the ∂λ-polynomials
    Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ built from the module's matrices.
    """
    action = [[Poly({(1, 0, 0, 0): e, (0, 0, 1, 0): b, (0, 0, 0, 0): c})
               for e, b, c in zip(*rows)] for rows in zip(module.E, module.B, module.C)]
    shifted = [f.shift("d", L) for f in m.coords]
    return _split_lambda([sum((a * f for a, f in zip(row, shifted) if a and f), Poly.zero())
                          for row in action])


def oracle_act_lambda(module, c, m):
    """c ∘λ m for any c ∈ U(2), recursively through the action of v.

    Monomials ∂^a v^k act as (-λ)^a times the k-fold action of v, where
    v^k ∘λ m = Σⱼ λ^j (v^{k-1} ∘(0) mⱼ) for v ∘λ m = Σⱼ λ^j mⱼ.
    """
    out = {}
    for a, k, coeff in c.monomials():
        part = _act_v_power(module, k, m)
        sign = (-1) ** a
        for deg, el in part.items():
            key = deg + a
            add = el.scale(sign * coeff)
            out[key] = out[key] + add if key in out else add
    return {deg: el for deg, el in out.items() if not el.is_zero()}


def _act_v_power(module, k, m):
    if k == 0:
        return {0: m}
    inner = oracle_act_v_lambda(module, m)
    if k == 1:
        return inner
    heads = {deg: _act_v_power(module, k - 1, el).get(0) for deg, el in inner.items()}
    return {deg: head for deg, head in heads.items() if head is not None and not head.is_zero()}


def oracle_associativity_residual(module, m):
    """Coordinates of v∘λ(v∘μ m) - (v∘λv)∘_{λ+μ} m, as polynomials in ∂, λ, μ.

    Every coordinate is zero exactly when associativity holds on m.
    """
    # inner action in μ: substitute λ -> μ in the split result
    inner = {deg: ModuleElement(tuple(c.subs("l", MU) for c in el.coords))
             for deg, el in oracle_act_v_lambda(module, m).items()}
    lhs = [Poly.zero()] * module.rank
    for deg, el in inner.items():
        for d2, el2 in oracle_act_v_lambda(module, el).items():
            for i in range(module.rank):
                lhs[i] = lhs[i] + el2.coords[i] * MU ** deg * L ** d2
    rhs = [Poly.zero()] * module.rank
    v = ConformalElement.gen()
    for deg, f in lambda_product(v, v).coeffs_in("l").items():
        for d2, el2 in oracle_act_lambda(module, ConformalElement(f), m).items():
            for i in range(module.rank):
                rhs[i] = rhs[i] + el2.coords[i] * (L + MU) ** d2 * L ** deg
    return [a - b for a, b in zip(lhs, rhs)]


def check_module_axioms():
    """Associativity on random elements and ∂-compatibility of the action,
    on every shipped module; the elements are seeded, of ∂-degree ≤ 4."""
    rng = random.Random(7)
    failures = []
    for spec in SHIPPED_MODULES:
        mod = SymbolicModule(spec)  # construction itself validates on the basis
        for trial in range(3):
            coords = []
            for _ in range(mod.rank):
                terms = {(rng.randint(0, 4), 0, 0, 0): rng.randint(-3, 3)
                         for _ in range(3)}
                coords.append(Poly(terms))
            m = ModuleElement(tuple(coords))
            if any(oracle_associativity_residual(mod, m)):
                failures.append((spec, "associativity", trial))
            # ∂(v(n)·m) = -n v(n-1)·m + v(n)·∂m
            for n in range(0, 6):
                lhs = mod.derivation(mod.act_vn(n, m))
                rhs = mod.act_vn(n, mod.derivation(m))
                if n:
                    rhs = rhs - mod.act_vn(n - 1, m).scale(n)
                if lhs != rhs:
                    failures.append((spec, f"derivation-compat v({n})", trial))
    return {"name": "module-axioms", "passed": not failures,
            "details": {"specs": list(SHIPPED_MODULES), "failures": failures[:5]}}


# -- cochain suites ------------------------------------------------------------------------

def check_chain_map(max_degree=3, window_sum=8, module="M(alpha=1,delta=1)"):
    """Dⁿ⁺¹∘Δⁿ = Δⁿ∘Dⁿ on monomial basis cochains ∂ᵏeⱼ, k ≤ 3, within the window."""
    mod = SymbolicModule(module)
    window = Window(window_sum, 0)
    failures = []
    for degree in range(0, max_degree + 1):
        for chain in enumerate_chains(degree, window_sum):
            for j in range(mod.rank):
                for k in range(4):
                    value = ModuleElement(
                        tuple(D ** k if i == j else Poly.zero() for i in range(mod.rank)))
                    phi = Cochain(degree, mod, {chain: value})
                    lhs = d_map(hochschild_delta(phi, window), window)
                    rhs = hochschild_delta(d_map(phi, window), window)
                    if lhs != rhs:
                        failures.append((degree, chain, j, k))
    return {"name": "chain-map", "passed": not failures,
            "details": {"max_degree": max_degree, "window": window_sum,
                        "module": module, "failures": failures[:5]}}


def check_nabla_squared(max_degree=4, window_sum=9, module="M(alpha=1,delta=1)"):
    """∇ⁿ⁺¹∘∇ⁿ = 0, exactly, on the whole window; each ∇ᵈ is assembled once."""
    _refuse_vacuous("nabla-squared", "window_sum", window_sum, 1)
    mod, window = make_module(module), Window(window_sum, 0)
    failures = []
    b = assemble_matrix(0, mod, window)
    for n in range(0, max_degree + 1):
        a, b = b, assemble_matrix(n + 1, mod, window)
        for j, image in enumerate(a.columns):
            if b.matvec(image):
                failures.append((n, a.col_labels[j]))
    return {"name": "nabla-squared", "passed": not failures,
            "details": {"max_degree": max_degree, "window": window_sum,
                        "module": module, "failures": failures[:5]}}


def check_reduction_soundness(window_sum=7, module="M(alpha=1,delta=1)", seed=11,
                              trials=25):
    """s + Dⁿh rebuilds φ on the window; reducing a D-image gives 0."""
    _refuse_vacuous("reduction-soundness", "window_sum", window_sum, 2)
    rng = random.Random(seed)
    mod = SymbolicModule(module)
    window = Window(window_sum, 0)
    failures = []
    for trial in range(trials):
        degree = rng.randint(1, 3)
        chains = enumerate_chains(degree, window_sum)
        values = {}
        for chain in rng.sample(chains, min(4, len(chains))):
            coords = tuple(
                Poly({(rng.randint(0, 3), 0, 0, 0): rng.randint(-2, 2)})
                for _ in range(mod.rank))
            el = ModuleElement(coords)
            if not el.is_zero():
                values[chain] = el
        phi = Cochain(degree, mod, values)
        s, h = reduce_cochain(phi, window)
        rebuilt_vals = {}
        included = s.include()
        dh = d_map(h, window)
        for chain in chains:
            rebuilt = included.value(chain) + dh.value(chain)
            if not rebuilt.is_zero():
                rebuilt_vals[chain] = rebuilt
        if Cochain(degree, mod, rebuilt_vals) != phi:
            failures.append((trial, "rebuild"))
        s2, _ = reduce_cochain(dh, window)
        if not s2.is_zero():
            failures.append((trial, "image-not-killed"))
    return {"name": "reduction-soundness", "passed": not failures,
            "details": {"trials": trials, "failures": failures[:5]}}


SUITES = {
    "confluence": check_confluence,
    "delta-squared": check_delta_squared,
    "morse-closed": check_morse_closed,
    "fdg": check_fdg,
    "fg-identity": check_fg_identity,
    "matching": check_matching,
    "chain-kill": check_chain_kill,
    "conformal-axioms": check_conformal_axioms,
    "conformal-associativity": check_conformal_associativity,
    "module-axioms": check_module_axioms,
    "chain-map": check_chain_map,
    "nabla-squared": check_nabla_squared,
    "reduction-soundness": check_reduction_soundness,
}


def run_suite(name, **kwargs):
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return fn(**kwargs)
