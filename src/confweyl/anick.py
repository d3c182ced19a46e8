"""Anick resolution machinery for Λ = A₊(U(2)) ⊕ k·1 via Morse matching.

Bar cells are tuples of normal words [w₁|…|wₙ] (basis of Λ ⊗ (Λ/k)^⊗n);
the empty cell () is the basis of degree 0.  Anick chains of degree n are
index tuples (i₁,…,iₙ); the obstruction set consists of the length-two
words v(a)v(b) with a ≥ 1, so the n-letter chains are exactly the tuples
with i₁,…,iₙ₋₁ ≥ 1 and iₙ ≥ 0.  ``is_chain`` is that closed form on raw
words, and the targets of δ go through it.  Anick's generic prechain tiling
survives only as the oracle ``checks.oracle_is_chain``, against which the
tests compare it.

The Morse matching pairs a cell whose maximal chain prefix covers slots
1..p+1 with the cell obtained by splitting slot p+2 as w'·w'' whenever the
prefix extended by w' is a (p+1)-chain.  It is read straight off the (k, n)
slots, with no letters rebuilt: the prefix runs over single-letter slots
(k = 0) and ends just after the first v(0); a (p+1)-chain has p+2 letters,
so w' is one letter, the v(0) that a slot with k ≥ 1 starts with; and two
slots concatenate to a normal word only when the left one ends in v(0).
The slot words are the A₁ monomials y^(k+1)tⁿ of ``coeffalg``, so a slot
product is ``coeffalg._letter_word``'s closed form, or the single
concatenated word when the left slot ends in v(0).  ``matched_edge`` gives
only the partner and the direction.  An edge's weight is, by definition,
the merged cell's coefficient in the bar differential of the split cell,
and ``_edge_weight`` reads it there; it must be a nonzero scalar (all are
±1 here), and a missing edge or a head term on it raises MatchingError.
Differentials and the homotopy maps f, g are sums of path weights in the
reversed-edge graph.  One memoized depth-first traversal, ``_zigzag``,
walks it: per cell it reads one matched edge and, at a merged end, one bar
differential of the partner, which also holds the edge's weight, and it
returns both f(cell) and the ascent into split cells that g's corrections
sum, kept as one pair in ``_f_memo`` (the matching is acyclic; the
recursion stack raises MatchingError on a cycle).  The memo keeps each
distinct coefficient and each distinct (k, n) slot once, since the pairs'
coefficients and the cells' slots take few values, and every split end
shares one empty pair.

The structure constants are integers, so the bar differential and the
closed-form δ sum each target's terms as ``int``s in a raw
{target: {word: int}} dict (``_bar_terms``, ``_closed_delta_terms``); a
target whose terms cancel is dropped, in the key order element-by-element
sums would give.  The Morse traversal keeps its Λ-coefficients in the same
raw stored form, {word: coeff} dicts multiplied by ``coeffalg._mul_into``,
and so do the resolution checks in ``checks``.  ``bar_differential``,
``anick_delta_closed``, ``homotopy_f``, ``homotopy_g`` and
``anick_delta_morse`` wrap each target's terms as an ``AlgebraElement`` once,
at return.  ``cohomology.nabla_operators`` reads δ unwrapped, and so does
the checks' Δ, through the ``delta_memo`` of its ``checks.SymbolicModule``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .coeffalg import (
    UNIT,
    _element,
    _letter_word,
    _mul_into,
    _scaled,
    parse_word,
    render_word,
)


class MatchingError(RuntimeError):
    """The matching is not a Morse matching: a matched edge had a
    non-invertible weight or a traversal met a cycle (signals a matching bug)."""


# -- Anick chains ---------------------------------------------------------------

def is_chain(word, degree):
    """Whether a raw word is an Anick ``degree``-chain.

    Degree -1 is the empty word and degree 0 a single letter; for degree
    d ≥ 1 the word has d+1 letters, the first d of them ≥ 1.  Letters are
    indices ≥ 0, so a negative one makes no chain.  This is the closed form
    of Anick's tiling by the leading words v(a)v(b), a ≥ 1
    (``checks.oracle_is_chain`` keeps the generic definition).
    """
    if isinstance(word, str):
        word = parse_word(word)
    return (len(word) == degree + 1 and (degree < 1 or min(word[:-1]) >= 1)
            and (not word or word[-1] >= 0))


#: most chains one enumeration may build (degree 7 at sum ≤ 16 needs 19448)
MAX_CHAINS = 10 ** 6


def enumerate_chains(degree, max_sum):
    """All degree-n chains (i₁,…,iₙ) with Σiⱼ ≤ max_sum, in (sum, lex) order.

    Constraints: i₁,…,iₙ₋₁ ≥ 1 and iₙ ≥ 0 (for degree 1 just i₁ ≥ 0).
    Degree 0 yields the single empty chain.  There are C(max_sum+1, n) of
    them; more than ``MAX_CHAINS`` is refused before any is built.  They are
    listed sum by sum, and within a sum the interior indices run upward
    and the last index takes what is left, which is lex order.
    """
    if degree < 0 or max_sum < 0:
        raise ValueError("need degree >= 0 and max_sum >= 0")
    count = comb(max_sum + 1, degree)
    if count > MAX_CHAINS:
        raise ValueError(f"{count} chains of degree {degree} with sum <= {max_sum}; "
                         f"the limit is {MAX_CHAINS}")
    if degree == 0:
        return [()]
    out = []

    def rec(prefix, remaining, interior):
        # ``interior`` indices ≥ 1 are still to place before the last one
        if not interior:
            out.append(prefix + (remaining,))
            return
        for i in range(1, remaining - interior + 2):
            rec(prefix + (i,), remaining - i, interior - 1)

    for total in range(max_sum + 1):
        rec((), total, degree - 1)
    return out


def chain_to_cell(chain):
    """The critical bar cell of a chain: one single-letter slot per index."""
    return tuple((0, i) for i in chain)


def cell_letters(cell):
    letters = []
    for (k, n) in cell:
        letters.extend([0] * k)
        letters.append(n)
    return tuple(letters)


def cell_is_chain(cell):
    """Whether a bar cell is a critical (chain) cell: single-letter slots
    whose concatenation is an Anick (len-1)-chain, that is, a cell whose
    chain prefix covers every slot."""
    return prefix_chain_degree(cell) == len(cell) - 1


def cell_to_chain(cell):
    if any(k for (k, _) in cell):
        raise ValueError("not a chain cell")
    return tuple(n for (_, n) in cell)


# -- bar complex -------------------------------------------------------------------

def bar_differential(cell):
    """Differential of the normalized bar complex.

    d[a₁|…|aₙ] = a₁[a₂|…|aₙ] + Σᵢ (-1)^i [a₁|…|N(aᵢaᵢ₊₁)|…|aₙ], where the
    merged slot expands linearly over the normal basis; the product of two
    normal words is their concatenation when the left one ends in v(0), and
    otherwise ``_letter_word``'s closed form, shifted by the left word's
    v(0)s as it is read.  Degree-1 cells map to a₁ times the empty
    cell (the Λ-part of B₀).  Returns a dict BarCell -> AlgebraElement, with
    integer coefficients: ``_bar_terms`` wrapped once per target.
    """
    return _wrap(_bar_terms(cell))


def _bar_terms(cell):
    """The bar differential as raw {target: {word: int}} terms.

    Each target's terms are summed as ``int``s; the head term a₁ can land on
    a merge target, so that one entry mixes the word a₁ with a scalar.
    """
    n = len(cell)
    if n == 0:
        return {}
    acc = {cell[1:]: {cell[0]: 1}}
    for i in range(n - 1):
        sign = -1 if i % 2 == 0 else 1  # (-1)^{i+1} for 1-based position i+1
        before, after = cell[:i], cell[i + 2:]
        ka, na = cell[i]
        kb, nb = cell[i + 1]
        if not na:  # v(0)^ka v(0) · v(0)^kb v(nb) is one word
            _accumulate(acc, before + ((ka + kb + 1, nb),) + after, UNIT, sign)
            continue
        for w, c in _letter_word(na, kb, nb).items():
            if ka:
                w = (w[0] + ka, w[1])
            _accumulate(acc, before + (w,) + after, UNIT, sign * c)
    return acc


def _wrap(combo):
    """{key: AlgebraElement} on raw {key: {word: coeff}} terms in stored form;
    the inner dicts are not copied."""
    return {key: _element(terms) for key, terms in combo.items()}


def _accumulate(acc, target, word, c):
    """acc[target][word] += c on {target: {word: int}}, dropping what cancels.

    A cancelled target is deleted, so one met again later is appended, in
    the same key order as summing ``AlgebraElement``s would give.
    """
    terms = acc.get(target)
    if terms is None:
        if c:
            acc[target] = {word: c}
        return
    s = terms.get(word, 0) + c
    if s:
        terms[word] = s
    elif len(terms) == 1:
        del acc[target]
    else:
        del terms[word]


def bar_derivation(cell):
    """Slot-wise derivation: Σᵢ [a₁|…|∂(aᵢ)|…|aₙ] with ∂v(n) = -n·v(n-1).

    Slots whose derivative vanishes drop out.  Returns BarCell -> int.
    """
    out = {}
    for i, (k, n) in enumerate(cell):
        if n == 0:
            continue
        target = cell[:i] + ((k, n - 1),) + cell[i + 1:]
        s = out.get(target, 0) - n
        if s:
            out[target] = s
        else:
            del out[target]
    return out


# -- Morse matching ------------------------------------------------------------------

def prefix_chain_degree(cell):
    """Largest p ≥ -1 with slots 1..p+1 concatenating to an Anick p-chain.

    Such a prefix is p+1 single-letter slots, all but the last ≥ 1; so the
    scan stops at the first slot with k ≥ 1, or just after the first v(0).
    """
    best = -1
    for k, n in cell:
        if k:
            break
        best += 1
        if not n:
            break
    return best


def _edge_weight(split_terms, merged_cell):
    """A matched edge's weight: the coefficient of the merged cell in the
    bar differential of the split cell, given as its raw ``_bar_terms``.

    Raises MatchingError when the edge is missing or its coefficient is not
    a nonzero scalar, as when the head term a₁ lands on the merged cell.
    """
    coeff = split_terms.get(merged_cell)
    if coeff is None:
        raise MatchingError("matched edge missing from the bar differential")
    if len(coeff) != 1 or UNIT not in coeff:
        raise MatchingError(f"matched edge weight {_element(coeff)} is not invertible in Λ")
    return coeff[UNIT]


def _negated_inverse(weight):
    """-1/weight, exactly: an int for the unit weights ±1, else a Fraction."""
    return -weight if weight in (1, -1) else -1 / Fraction(weight)


def matched_edge(cell):
    """Morse-matching partner of a bar cell, or None for critical cells.

    Returns (partner, direction): direction 'up' when the partner has one
    more slot (this cell is the merged end), 'down' when it has one fewer
    (this cell is the split end).  The edge's weight lives in the bar
    differential of the split end, where ``_edge_weight`` reads it.
    """
    m = len(cell)
    if m == 0:
        return None
    p = prefix_chain_degree(cell)

    # merged end: split slot p+2 as w'·w'' with prefix+w' a (p+1)-chain; the
    # prefix has p+1 letters and a (p+1)-chain p+2, so w' is the v(0) that a
    # slot with k ≥ 1 starts with, and the prefix's last letter must be ≥ 1
    if p + 2 <= m and cell[p + 1][0] and (p < 0 or cell[p][1]):
        k, n = cell[p + 1]
        return cell[:p + 1] + ((0, 0), (k - 1, n)) + cell[p + 2:], "up"

    # split end: inside the prefix only its last slot, p+1, can be v(0); a
    # cell whose slot p+1 is v(0) with a slot after it merges them into
    # v(0)^(kb+1) v(nb), which stops the prefix one slot earlier (q = p−1)
    if 0 <= p < m - 1 and cell[p] == (0, 0):
        kb, nb = cell[p + 1]
        return cell[:p] + ((kb + 1, nb),) + cell[p + 2:], "down"
    return None


# -- path-weight maps ---------------------------------------------------------------

#: cell -> (f(cell), ascent(cell)) as raw terms, filled by ``_zigzag``; it
#: also maps each coefficient's frozen items, and each (k, n) slot, to the
#: one copy of it that the pairs and the cells hold
_f_memo = {}
#: the pair of every split end, whose f and ascent are both 0; every empty
#: half of a pair is one of these two dicts
_SPLIT_END = ({}, {})


def _combine(acc, coeff, combo):
    """acc += coeff·combo on raw terms, the Λ coefficient multiplying from
    the left: ``coeff`` is a {word: coeff} dict and ``combo`` and ``acc``
    map keys to such dicts.  A key whose terms cancel is deleted."""
    for key, val in combo.items():
        terms = acc.get(key)
        if terms is None:
            terms = acc[key] = {}
        _mul_into(terms, coeff, val)
        if not terms:
            del acc[key]


def _zigzag(cell, _stack=None):
    """Both path sums out of a bar cell in the reversed-edge graph, as the
    pair (f(cell), ascent(cell)) of raw {key: {word: coeff}} terms.

    f is the projection B → A, keyed by chain: a critical cell maps to its
    chain, a split end to 0, and a merged end lifts through its partner and
    follows the remaining bar-differential edges.  The ascent, keyed by bar
    cell, sums the paths that climb from a merged end into split cells (g's
    corrections); it is 0 on critical cells and split ends, which need no
    weight.  Both halves of a merged end read one matched edge and the raw
    bar differential ``_bar_terms`` of its partner, whose coefficient on the
    cell is the edge's weight (``_edge_weight``).  The memo ``_f_memo``
    keeps the pair, with each coefficient of f and of the ascent replaced by
    the memo's one copy of its value, and every split end keeps the one pair
    ``_SPLIT_END``, whose dicts are also every other empty half.  The cell
    it is stored under, and the partner an ascent is keyed by, are rebuilt
    from the memo's one copy of each slot (``_slotted``).  Its dicts are
    shared, so callers read them and never change them, and the public maps
    wrap them as ``AlgebraElement``s at return.
    """
    cached = _f_memo.get(cell)
    if cached is not None:
        return cached
    if _stack is None:
        _stack = set()
    if cell in _stack:
        raise MatchingError(f"cycle in Morse graph traversal at {cell}")
    edge = matched_edge(cell)
    if edge is None:
        result = (_interned({cell_to_chain(cell): {UNIT: 1}}), _SPLIT_END[1])
    elif edge[1] == "down":
        result = _SPLIT_END
    else:
        partner = edge[0]
        terms = _bar_terms(partner)
        inv = _negated_inverse(_edge_weight(terms, cell))
        _stack.add(cell)
        f, ascent = {}, {_slotted(partner): {UNIT: inv}}
        for target, coeff in terms.items():
            if target == cell:
                continue
            f_target, ascent_target = _zigzag(target, _stack)
            if f_target or ascent_target:
                scaled = _scaled(coeff, inv)
                _combine(f, scaled, f_target)
                _combine(ascent, scaled, ascent_target)
        _stack.discard(cell)
        result = (_interned(f) or _SPLIT_END[0], _interned(ascent))
    _f_memo[_slotted(cell)] = result
    return result


def _slotted(cell):
    """``cell`` rebuilt from the one copy of each (k, n) slot that ``_f_memo``
    keeps: cells made afresh by the bar differential hold equal slots as
    separate tuples, and the memo's cells use few distinct slots."""
    return tuple([_f_memo.setdefault(slot, slot) for slot in cell])


def _interned(combo):
    """``combo`` with each {word: coeff} value replaced by the one copy of
    it that ``_f_memo`` keeps under its frozen items: the traversal's
    coefficients take few distinct values (11 among 8894 once the fdg and
    morse-closed suites have run at degree ≤ 5, sum ≤ 10)."""
    for key, terms in combo.items():
        combo[key] = _f_memo.setdefault(frozenset(terms.items()), terms)
    return combo


def homotopy_f(cell):
    """Projection B → A: path weights from a bar cell to critical cells.

    Returns a dict chain -> AlgebraElement, the first half of ``_zigzag``.
    """
    return _wrap(_zigzag(cell)[0])


def _g_terms(chain):
    """g(chain) as raw {cell: {word: coeff}} terms."""
    cell = chain_to_cell(chain)
    result = {cell: {UNIT: 1}}
    for target, coeff in _bar_terms(cell).items():
        _combine(result, coeff, _zigzag(target)[1])
    return result


def homotopy_g(chain):
    """Inclusion A → B: the chain's cell plus its zig-zag corrections.

    Returns a dict BarCell -> AlgebraElement.
    """
    return _wrap(_g_terms(chain))


def _morse_delta_terms(chain):
    """δ(chain) by Morse paths as raw {chain: {word: coeff}} terms."""
    result = {}
    for target, coeff in _bar_terms(chain_to_cell(chain)).items():
        _combine(result, coeff, _zigzag(target)[0])
    return result


def anick_delta_morse(chain):
    """Differential on critical cells as a sum of Morse-graph path weights."""
    return _wrap(_morse_delta_terms(chain))


def anick_delta_closed(chain):
    """Closed-form differential δₙ on a degree-n chain.

    δₙ[i₁|…|iₙ] = v(i₁)[i₂|…|iₙ]
        + Σⱼ (-1)^j iⱼ [i₁|…|iⱼ+iⱼ₊₁-1|…|iₙ]
        + Σⱼ (-1)^j v(0) [i₁|…|iⱼ+iⱼ₊₁|…|iₙ]
        + Σⱼ Σ_{k<j} (-1)^j i_k [i₁|…|i_k-1|…|iⱼ+iⱼ₊₁|…|iₙ],
    with every target that is not an Anick chain dropped (an interior index
    reaching 0).  Degree 1 maps [i] to v(i) times the empty chain.  This is
    ``_closed_delta_terms`` wrapped once per target.
    """
    return _wrap(_closed_delta_terms(chain))


def _closed_delta_terms(chain):
    """Closed-form δ as raw {target: {word: int}} terms, summed as ``int``s
    per target and word.

    Only a Σ_{k<j} target can fail to be a chain: its index i_k − 1 sits
    before the merge, so it is interior, and it is 0 exactly when i_k = 1.
    The head, the merge and the decremented merge of a chain are chains.
    """
    n = len(chain)
    if n == 0:
        return {}
    acc = {}
    _accumulate(acc, chain[1:], (0, chain[0]), 1)
    for j in range(1, n):  # merge of 1-based positions j, j+1
        sign = -1 if j % 2 else 1
        merged = chain[:j - 1] + (chain[j - 1] + chain[j],) + chain[j + 1:]
        dec_merged = chain[:j - 1] + (chain[j - 1] + chain[j] - 1,) + chain[j + 1:]
        _accumulate(acc, dec_merged, UNIT, sign * chain[j - 1])
        _accumulate(acc, merged, (0, 0), sign)  # v(0)-weighted merge
        for k in range(1, j):
            if chain[k - 1] != 1:
                dec_k = merged[:k - 1] + (merged[k - 1] - 1,) + merged[k:]
                _accumulate(acc, dec_k, UNIT, sign * chain[k - 1])
    return acc


def clear_caches():
    """Drop anick's one process-wide table, the memoized Morse traversal
    ``_f_memo``: the pair of f and the ascent of every cell ``_zigzag`` met,
    as raw terms, and the one copy of each distinct coefficient and slot the
    pairs and cells share.  Split ends share the constant ``_SPLIT_END``,
    which stays empty.
    ∇'s operators are ``cohomology.nabla_operators``'s own cache, emptied by
    its ``cache_clear()``."""
    _f_memo.clear()


# -- rendering ------------------------------------------------------------------------

def render_chain(chain):
    return "[" + "|".join(str(i) for i in chain) + "]"


def parse_chain(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("chains look like [2|1|0]")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(int(part.strip()) for part in inner.split("|"))


def render_cell(cell):
    return "[" + "|".join(render_word(w) for w in cell) + "]"


def parse_cell(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("bar cells look like [v(1)|v(0)v(2)]")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    slots = []
    for part in inner.split("|"):
        # a normal word is v(0)ᵏv(n): every letter but the last is v(0)
        letters = parse_word(part)
        if any(letters[:-1]):
            raise ValueError(f"slot {part!r} is not a normal word")
        slots.append((len(letters) - 1, letters[-1]))
    return tuple(slots)


def render_combination(combo, render_key):
    """'v(2)*[3] - v(0)*[5] - 2*[4]' style rendering, deterministic order."""
    if not combo:
        return "0"
    items = sorted(combo.items(), key=lambda kv: _combo_key(kv[0]))
    chunks = []
    for key, coeff in items:
        scalar = coeff.scalar_part()
        if scalar is not None:
            mag = abs(scalar)
            body = render_key(key) if mag == 1 else f"{mag}*{render_key(key)}"
            negative = scalar < 0
        else:
            terms = coeff.terms
            if len(terms) == 1:
                (w, c), = terms.items()
                word = render_word(w)
                core = word if abs(c) == 1 else f"{abs(c)} {word}"
                body = f"{core}*{render_key(key)}"
                negative = c < 0
            else:
                body = f"({coeff})*{render_key(key)}"
                negative = False
        if not chunks:
            chunks.append(body if not negative else f"-{body}")
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def _combo_key(key):
    if key and isinstance(key[0], tuple):  # bar cell
        return (len(key), cell_letters(key))
    return (len(key), key)
