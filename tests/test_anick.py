from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confweyl import anick, coeffalg
from confweyl.anick import (
    MatchingError,
    _SPLIT_END,
    _bar_terms,
    _combine,
    _edge_weight,
    _f_memo,
    _g_terms,
    _zigzag,
    anick_delta_closed,
    anick_delta_morse,
    bar_derivation,
    bar_differential,
    cell_is_chain,
    cell_letters,
    chain_to_cell,
    clear_caches,
    enumerate_chains,
    homotopy_f,
    homotopy_g,
    is_chain,
    matched_edge,
    parse_cell,
    parse_chain,
    prefix_chain_degree,
    render_chain,
    render_combination,
)
from confweyl.checks import (
    _fdg,
    _sample_cells,
    check_chain_kill,
    check_delta_squared,
    check_fdg,
    check_matching,
    check_morse_closed,
    oracle_is_chain,
)
from confweyl.coeffalg import UNIT, AlgebraElement


def A(k, n):
    return AlgebraElement.word(k, n)


def _elements(combo):
    """Raw {key: {word: coeff}} terms as {key: AlgebraElement}."""
    return {key: AlgebraElement(terms) for key, terms in combo.items()}


def test_is_chain_examples():
    assert is_chain("v(2)v(1)v(0)", 2)
    assert not is_chain("v(0)v(1)", 1)
    assert not is_chain("v(1)v(0)v(2)", 2)


def test_is_chain_low_degrees():
    assert is_chain((), -1)
    assert is_chain((0,), 0)
    assert is_chain((7,), 0)
    assert not is_chain((1, 2), 0)
    assert is_chain((1, 0), 1)
    assert not is_chain((1, 0), 2)


def test_is_chain_matches_closed_form():
    # every word of length ≤ 5 over v(0)..v(3): the generic tiling oracle and
    # the closed form (i₁..i_d ≥ 1, i_{d+1} ≥ 0, length d+1) both agree with is_chain
    import itertools
    for length in range(0, 6):
        for word in itertools.product(range(0, 4), repeat=length):
            for deg in range(-2, 7):
                expect = (len(word) == deg + 1
                          and all(i >= 1 for i in word[:deg]))
                assert oracle_is_chain(word, deg) == expect, (word, deg)
                assert is_chain(word, deg) == expect, (word, deg)


@given(st.lists(st.integers(0, 6), max_size=9).map(tuple), st.integers(-2, 10))
@settings(max_examples=200, deadline=None)
def test_is_chain_matches_oracle(word, degree):
    assert is_chain(word, degree) == oracle_is_chain(word, degree)


def test_cell_is_chain_matches_oracle():
    for cell in _sample_cells(3, 5, 4):
        assert cell_is_chain(cell) == oracle_is_chain(cell_letters(cell), len(cell) - 1), cell


def test_enumerate_chains_examples():
    assert enumerate_chains(2, 2) == [(1, 0), (1, 1), (2, 0)]
    assert enumerate_chains(1, 2) == [(0,), (1,), (2,)]
    assert enumerate_chains(3, 2) == [(1, 1, 0)]


def test_enumerate_chains_agrees_with_is_chain():
    import itertools
    for degree in (1, 2, 3):
        listed = set(enumerate_chains(degree, 4))
        for tup in itertools.product(range(0, 5), repeat=degree):
            member = oracle_is_chain(tup, degree - 1) and sum(tup) <= 4
            assert (tup in listed) == member, (tup, degree)
            assert is_chain(tup, degree - 1) == oracle_is_chain(tup, degree - 1)
    # the list itself is the brute-force product's chains, (sum, lex)-sorted
    for degree in range(5):
        for W in range(7):
            product = itertools.product(range(W + 1), repeat=degree)
            want = sorted((tup for tup in product
                           if sum(tup) <= W and oracle_is_chain(tup, degree - 1)),
                          key=lambda tup: (sum(tup), tup))
            assert enumerate_chains(degree, W) == want, (degree, W)


def test_bar_differential_examples():
    d = bar_differential(((0, 1), (0, 0)))
    assert d == {
        ((0, 0),): AlgebraElement.letter(1) - AlgebraElement.one(),
        ((1, 1),): AlgebraElement.scalar(-1),
    }
    assert bar_differential(((0, 5),)) == {(): AlgebraElement.letter(5)}
    # v(0)v(1)·[v(2)] - [nf(v(0)v(1)v(2))]: the merged slot expands linearly
    d2 = bar_differential(((1, 1), (0, 2)))
    assert d2 == {
        ((0, 2),): A(1, 1),
        ((2, 3),): AlgebraElement.scalar(-1),
        ((1, 2),): AlgebraElement.scalar(-1),
    }


def _bar_differential_by_letters(cell):
    """The bar differential with each slot merge rewritten letter by letter."""
    out = {}
    if cell:
        _add(out, cell[1:], AlgebraElement({cell[0]: 1}))
    for i in range(len(cell) - 1):
        merged = coeffalg.normal_form(cell_letters(cell[i:i + 2]))
        for w, c in merged.terms.items():
            _add(out, cell[:i] + (w,) + cell[i + 2:], AlgebraElement.scalar((-1) ** (i + 1) * c))
    return out


def _add(out, key, coeff):
    s = out[key] + coeff if key in out else coeff
    if s:
        out[key] = s
    else:
        del out[key]


def test_bar_differential_matches_letter_by_letter_merges():
    for cell in _sample_cells(3, 5, 4):
        assert bar_differential(cell) == _bar_differential_by_letters(cell), cell


def _int_coefficients(combo):
    return all(type(c) is int for coeff in combo.values() for c in coeff.terms.values())


def test_resolution_maps_have_int_coefficients():
    for cell in _sample_cells(3, 5, 4):
        assert _int_coefficients(bar_differential(cell)), cell
        assert _int_coefficients(homotopy_f(cell)), cell
        assert all(type(c) is int for c in bar_derivation(cell).values()), cell
    for degree in range(1, 5):
        for chain in enumerate_chains(degree, 6):
            assert _int_coefficients(anick_delta_closed(chain)), chain
            assert _int_coefficients(anick_delta_morse(chain)), chain
            assert _int_coefficients(homotopy_g(chain)), chain


def test_matched_edge_examples():
    partner, direction = matched_edge(((1, 1),))
    assert partner == ((0, 0), (0, 1)) and direction == "up"
    assert _edge_weight(_bar_terms(partner), ((1, 1),)) == -1
    assert matched_edge(((0, 2), (0, 3))) is None
    partner, direction = matched_edge(((0, 1), (1, 1)))
    assert partner == ((0, 1), (0, 0), (0, 1)) and direction == "up"
    # and the split cell points back down
    back = matched_edge(((0, 1), (0, 0), (0, 1)))
    assert back[0] == ((0, 1), (1, 1)) and back[1] == "down"


def test_matching_property_suite():
    assert check_matching()["passed"]


def test_edge_weight_refuses_a_missing_edge():
    # an edge absent from the bar differential is rejected loudly
    with pytest.raises(MatchingError, match="missing"):
        _edge_weight(_bar_terms(((0, 1), (0, 2))), ((0, 9),))


def test_edge_weight_is_a_unit_of_the_bar_differential():
    edges = 0
    for cell in _sample_cells(3, 5, 4):
        edge = matched_edge(cell)
        if edge is None:
            continue
        partner, direction = edge
        split, merged = (partner, cell) if direction == "up" else (cell, partner)
        weight = _edge_weight(_bar_terms(split), merged)
        assert weight == bar_differential(split)[merged].scalar_part(), cell
        assert weight in (1, -1) and type(weight) is int, cell
        edges += 1
    assert edges
    # the head term a₁[a₂|…] is never a scalar, so an edge onto it is refused
    with pytest.raises(MatchingError, match="not invertible"):
        _edge_weight(_bar_terms(((0, 3), (0, 0), (0, 1))), ((0, 0), (0, 1)))


def test_traversal_reads_the_weight_off_the_partners_differential(monkeypatch):
    # doubling the merged end's coefficient in d(partner) halves its f: the
    # traversal takes the weight from that differential and nowhere else
    cell = ((1, 5),)
    partner, direction = matched_edge(cell)
    assert direction == "up"
    clear_caches()
    try:
        want = {key: {w: Fraction(c, 2) for w, c in terms.items()}
                for key, terms in _zigzag(cell)[0].items()}
        assert want == {(5,): {(0, 0): Fraction(1, 2)}}
        differential = anick._bar_terms

        def doubled(split):
            terms = differential(split)
            if split == partner:
                terms[cell] = {w: 2 * c for w, c in terms[cell].items()}
            return terms

        clear_caches()
        monkeypatch.setattr(anick, "_bar_terms", doubled)
        assert _zigzag(cell)[0] == want
    finally:
        clear_caches()


def test_matching_suite_reports_a_non_invertible_weight(monkeypatch):
    # an edge whose coefficient in d(split end) is not a scalar fails the
    # suite instead of raising out of it, and on no other cell
    from confweyl import checks

    split = ((0, 1), (0, 0), (0, 1))
    merged, direction = matched_edge(split)
    assert direction == "down"
    differential = checks._bar_terms

    def spoiled(cell):
        terms = differential(cell)
        if cell == split:
            terms[merged] = {(0, 1): 1, **terms[merged]}
        return terms

    monkeypatch.setattr(checks, "_bar_terms", spoiled)
    report = check_matching()
    assert not report["passed"]
    assert set(report["details"]["failures"]) == {split, merged}


def _ascend(cell):
    # g's ascent out of a cell: the second half of the shared walk
    return _zigzag(cell)[1]


@pytest.mark.parametrize("traverse", [homotopy_f, _ascend])
def test_traversal_cycle_guard(traverse, monkeypatch):
    # two merged ends whose partners' differentials reach each other form a
    # cycle; both halves of the walk must refuse it, and under python -O
    # too, so the guard raises instead of asserting
    from confweyl import anick

    first, second = ((1, 5),), ((2, 1),)
    partners = {}
    for cell in (first, second):
        partner, kind = matched_edge(cell)
        assert kind == "up"
        partners[partner] = cell, second if cell == first else first
    assert len(partners) == 2
    differential = anick._bar_terms

    def cyclic(cell):
        # keep the matched edge, so that its weight reads as before and the
        # traversal reaches the cycle
        if cell in partners:
            merged, other = partners[cell]
            return {merged: differential(cell)[merged], other: {UNIT: 1}}
        return differential(cell)

    clear_caches()
    monkeypatch.setattr(anick, "_bar_terms", cyclic)
    try:
        with pytest.raises(MatchingError, match="cycle"):
            traverse(first)
    finally:
        clear_caches()


def test_zigzag_cycle_guard_on_seeded_stack():
    # a merged end met again on its own recursion stack is a cycle
    cell = ((1, 5),)
    assert matched_edge(cell)[1] == "up"
    clear_caches()
    with pytest.raises(MatchingError, match="cycle"):
        _zigzag(cell, {cell})


def test_traversal_reads_each_matched_edge_once(monkeypatch):
    # f and g's ascent share one walk: from cold caches the fdg and
    # morse-closed suites ask for the matched edge of each cell once
    from collections import Counter

    from confweyl import anick

    calls = Counter()
    edge_of = anick.matched_edge

    def counted(cell):
        calls[cell] += 1
        return edge_of(cell)

    clear_caches()
    monkeypatch.setattr(anick, "matched_edge", counted)
    try:
        assert check_fdg(max_degree=4, max_sum=8)["passed"]
        assert check_morse_closed(max_degree=4, max_sum=8)["passed"]
    finally:
        clear_caches()
    assert calls and set(calls.values()) == {1}


def _items(combo):
    """A map's items in order, each coefficient as its terms in order with
    their storage types."""
    return [(key, [(w, type(c), c) for w, c in val.terms.items()])
            for key, val in combo.items()]


def _morse_maps(chains, f_first, cold=True):
    """f on the cells of each d(chain cell), g and δ by Morse paths, with
    their items in order, inner terms and types included; from cold caches
    unless ``cold`` is false, f or g filling the memo first."""
    def f():
        return [_items(homotopy_f(y))
                for chain in chains for y in bar_differential(chain_to_cell(chain))]

    def g():
        return [_items(homotopy_g(chain)) for chain in chains]

    if cold:
        clear_caches()
    if f_first:
        f_values = f()
        g_values = g()
    else:
        g_values = g()
        f_values = f()
    return f_values, g_values, [_items(anick_delta_morse(chain)) for chain in chains]


def test_morse_maps_do_not_depend_on_the_order_they_fill_the_memo():
    chains = [chain for degree in range(1, 4) for chain in enumerate_chains(degree, 6)]
    try:
        assert _morse_maps(chains, f_first=True) == _morse_maps(chains, f_first=False)
    finally:
        clear_caches()


def _memo_pairs():
    """The memo's cell → (f, ascent) entries: a cell is a tuple of (k, n)
    slots, and the memo also keys coefficients by frozen items and slots by
    themselves."""
    return {cell: pair for cell, pair in _f_memo.items()
            if type(cell) is tuple and all(type(slot) is tuple for slot in cell)}


def test_memo_keeps_one_copy_of_each_coefficient_and_one_split_end_pair():
    # after the fdg and morse-closed suites fill the memo from cold caches,
    # equal coefficients of f and of the ascent are one object, every split
    # end holds the same pair, and the maps read through those copies give
    # what a cold run gives in either fill order
    chains = [chain for degree in range(1, 5) for chain in enumerate_chains(degree, 8)]
    clear_caches()
    try:
        assert check_fdg(max_degree=4, max_sum=8)["passed"]
        assert check_morse_closed(max_degree=4, max_sum=8)["passed"]
        pairs = _memo_pairs()
        coeffs = [terms for pair in pairs.values() for half in pair for terms in half.values()]
        assert len(coeffs) > len({id(terms) for terms in coeffs}) \
            == len({frozenset(terms.items()) for terms in coeffs})
        edges = {cell: matched_edge(cell) for cell in pairs}
        split = [pairs[cell] for cell, edge in edges.items() if edge and edge[1] == "down"]
        assert split and split[0] == ({}, {}) and all(pair is split[0] for pair in split)
        warm = _morse_maps(chains, f_first=True, cold=False)
        assert warm == _morse_maps(chains, f_first=True) == _morse_maps(chains, f_first=False)
    finally:
        clear_caches()


def test_memo_cells_hold_one_copy_of_each_slot():
    # the cells the memo is keyed by and those its ascents are keyed by hold
    # one tuple per distinct (k, n) slot, and every empty half of a pair is
    # one of the split end's two dicts
    clear_caches()
    try:
        assert check_morse_closed(max_degree=4, max_sum=8)["passed"]
        pairs = _memo_pairs()
        slots = [slot for cell, (_, ascent) in pairs.items()
                 for key in (cell, *ascent) for slot in key]
        assert len(slots) > len({id(slot) for slot in slots}) == len(set(slots))
        empty = [half for pair in pairs.values() for half in pair if not half]
        assert empty and all(half is _SPLIT_END[0] or half is _SPLIT_END[1] for half in empty)
    finally:
        clear_caches()


def test_clear_caches_drops_every_table():
    # anick's one table is the traversal memo; ∇'s operators are
    # cohomology's, cleared by their own cache_clear() and not by anick
    from confweyl.cohomology import Window, assemble_matrix, nabla_operators

    homotopy_g((2, 1, 1))
    homotopy_f(((1, 5),))
    assemble_matrix(2, "M(alpha=1,delta=1)", Window(4, 0))
    assert _f_memo and nabla_operators.cache_info().currsize
    clear_caches()
    assert not _f_memo and nabla_operators.cache_info().currsize
    nabla_operators.cache_clear()
    assert not nabla_operators.cache_info().currsize


def test_critical_cells_are_exactly_chain_cells():
    for cell in _sample_cells(3, 4, 3):
        assert (matched_edge(cell) is None) == cell_is_chain(cell)


def test_delta_reference_values():
    assert anick_delta_morse((2, 3)) == {
        (3,): AlgebraElement.letter(2),
        (5,): -AlgebraElement.letter(0),
        (4,): AlgebraElement.scalar(-2),
    }
    assert anick_delta_morse((1, 0)) == {
        (0,): AlgebraElement.letter(1) - AlgebraElement.one(),
        (1,): -AlgebraElement.letter(0),
    }
    assert anick_delta_morse((1, 1, 0)) == {
        (1, 0): AlgebraElement.letter(1),
        (2, 0): -AlgebraElement.letter(0),
        (1, 1): AlgebraElement.letter(0),
    }
    for chain in [(2, 3), (1, 0), (1, 1, 0)]:
        assert anick_delta_closed(chain) == anick_delta_morse(chain)


def test_delta_degree_one():
    assert anick_delta_closed((4,)) == {(): AlgebraElement.letter(4)}
    assert anick_delta_morse((0,)) == {(): AlgebraElement.letter(0)}


chains_23 = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(0, 5)),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
)


@given(chains_23)
@settings(max_examples=60, deadline=None)
def test_morse_equals_closed(chain):
    assert anick_delta_morse(chain) == anick_delta_closed(chain)


def _delta_of_combination(combo):
    """δ of Σ coeff·chain, each coefficient multiplied as an AlgebraElement:
    the reference for the raw δ table in ``check_delta_squared``."""
    out = {}
    for chain, coeff in combo.items():
        for target, c2 in anick_delta_closed(chain).items():
            _add(out, target, coeff * c2)
    return out


@given(chains_23)
@settings(max_examples=40, deadline=None)
def test_delta_squared_zero(chain):
    assert _delta_of_combination(anick_delta_closed(chain)) == {}


def _delta_closed_by_elements(chain):
    """δₙ with each term added as an AlgebraElement, target by target: the
    reference for the int accumulation in ``anick_delta_closed``."""
    n = len(chain)
    if n == 0:
        return {}
    result = {}

    def add(target, coeff):
        if not is_chain(target, len(target) - 1):
            return
        prev = result.get(target)
        s = prev + coeff if prev is not None else coeff
        if s.is_zero():
            result.pop(target, None)
        else:
            result[target] = s

    add(chain[1:], AlgebraElement.letter(chain[0]))
    for j in range(1, n):
        sign = -1 if j % 2 else 1
        merged = chain[:j - 1] + (chain[j - 1] + chain[j],) + chain[j + 1:]
        dec_merged = chain[:j - 1] + (chain[j - 1] + chain[j] - 1,) + chain[j + 1:]
        add(dec_merged, AlgebraElement.scalar(sign * chain[j - 1]))
        add(merged, AlgebraElement({(0, 0): sign}))
        for k in range(1, j):
            dec_k = merged[:k - 1] + (merged[k - 1] - 1,) + merged[k:]
            add(dec_k, AlgebraElement.scalar(sign * chain[k - 1]))
    return result


def test_delta_closed_matches_element_accumulation():
    for degree in range(1, 7):
        for chain in enumerate_chains(degree, 10):
            got = anick_delta_closed(chain)
            want = _delta_closed_by_elements(chain)
            assert list(got.items()) == list(want.items()), chain
            assert _int_coefficients(got), chain


def _closed_delta_terms_testing_every_target(chain):
    """Raw closed-form δ that puts every target through ``is_chain``: the
    reference for ``_closed_delta_terms``, which tests only the Σ_{k<j}
    decrements."""
    n = len(chain)
    if n == 0:
        return {}
    acc = {}

    def add(target, word, c):
        if is_chain(target, len(target) - 1):
            anick._accumulate(acc, target, word, c)

    add(chain[1:], (0, chain[0]), 1)
    for j in range(1, n):
        sign = -1 if j % 2 else 1
        merged = chain[:j - 1] + (chain[j - 1] + chain[j],) + chain[j + 1:]
        dec_merged = chain[:j - 1] + (chain[j - 1] + chain[j] - 1,) + chain[j + 1:]
        add(dec_merged, UNIT, sign * chain[j - 1])
        add(merged, (0, 0), sign)
        for k in range(1, j):
            dec_k = merged[:k - 1] + (merged[k - 1] - 1,) + merged[k:]
            add(dec_k, UNIT, sign * chain[k - 1])
    return acc


def test_closed_delta_terms_match_testing_every_target():
    for degree in range(1, 7):
        for chain in enumerate_chains(degree, 10):
            got = anick._closed_delta_terms(chain)
            want = _closed_delta_terms_testing_every_target(chain)
            assert [(t, list(terms.items())) for t, terms in got.items()] \
                == [(t, list(terms.items())) for t, terms in want.items()], chain


def test_delta_squared_worked_instance():
    # δ₂(δ₃[1|1|0]) = 0 after v(1)v(1) and v(1)v(0) are normal-formed
    assert _delta_of_combination(anick_delta_closed((1, 1, 0))) == {}


def test_check_delta_squared_catches_a_planted_delta_term(monkeypatch):
    # one wrong δ term on a degree-3 chain must fail the suite at degree 4
    # too, where that chain is read from the per-degree table as a target
    from confweyl import anick, checks

    closed = anick._closed_delta_terms

    def planted(chain):
        terms = closed(chain)
        if chain == (1, 1, 0):
            anick._accumulate(terms, (2, 1), UNIT, 1)
        return terms

    monkeypatch.setattr(checks, "_closed_delta_terms", planted)
    report = check_delta_squared(max_degree=4, max_sum=4)
    assert not report["passed"]
    assert any(len(chain) == 4 for chain in report["details"]["failures"])
    monkeypatch.undo()
    assert check_delta_squared(max_degree=4, max_sum=4)["passed"]


def test_homotopy_g_examples():
    assert homotopy_g((3,)) == {((0, 3),): AlgebraElement.one()}
    # degree 2 carries one correction cell
    assert homotopy_g((3, 2)) == {
        ((0, 3), (0, 2)): AlgebraElement.one(),
        ((0, 0), (0, 5)): -AlgebraElement.one(),
    }
    g3 = homotopy_g((2, 1, 1))
    assert g3 == {
        ((0, 2), (0, 1), (0, 1)): AlgebraElement.one(),
        ((0, 0), (0, 3), (0, 1)): -AlgebraElement.one(),
        ((0, 2), (0, 0), (0, 2)): -AlgebraElement.one(),
        ((0, 0), (0, 2), (0, 2)): AlgebraElement.one(),
    }


def test_homotopy_f_examples():
    assert homotopy_f(((0, 4), (0, 2))) == {(4, 2): AlgebraElement.one()}
    assert homotopy_f(((0, 6),)) == {(6,): AlgebraElement.one()}
    assert homotopy_f(((0, 0), (0, 1))) == {}
    assert homotopy_f(((1, 5),)) == {(5,): AlgebraElement.letter(0)}


@given(chains_23)
@settings(max_examples=30, deadline=None)
def test_fdg_equals_delta(chain):
    assert _elements(_fdg(chain)) == anick_delta_closed(chain)


def _fdg_unshared(chain):
    """f∘d∘g as Σ (coeff·c₂)·f(y) on AlgebraElements, with no (f∘d)(cell)
    shared between chains; returned as raw terms."""
    out = {}
    for cell, coeff in homotopy_g(chain).items():
        for y, c2 in bar_differential(cell).items():
            for key, val in homotopy_f(y).items():
                _add(out, key, coeff * c2 * val)
    return {key: val.terms for key, val in out.items()}


def test_fdg_memo_matches_the_unshared_composite():
    # one memo per (degree, sum), reset as in check_fdg
    for degree in range(1, 5):
        memo, grade_sum = {}, None
        for chain in enumerate_chains(degree, 8):
            if sum(chain) != grade_sum:
                memo, grade_sum = {}, sum(chain)
            assert _fdg(chain, memo) == _fdg_unshared(chain), chain
        # cells map to dicts or the empty tuple, each coefficient's frozen
        # items to its one shared copy, and every value holds those copies
        assert memo and all((type(v) is dict or v == ()) if type(k) is tuple
                            else frozenset(v.items()) == k for k, v in memo.items())
        assert all(memo[frozenset(c.items())] is c for k, v in memo.items()
                   if type(k) is tuple for c in dict(v).values())


def test_check_fdg_reads_f_through_its_memo():
    # a wrong f value for a split end met in d(g([2|1|0])) must fail the suite
    clear_caches()
    met = {}
    for cell, coeff in _g_terms((2, 1, 0)).items():
        _combine(met, coeff, _bar_terms(cell))
    split_ends = [y for y in met if matched_edge(y) is not None]
    assert split_ends
    try:
        clear_caches()
        _f_memo[split_ends[0]] = ({(7, 7): {UNIT: 1}}, {})
        report = check_fdg(max_degree=3, max_sum=4)
    finally:
        clear_caches()
    assert not report["passed"]
    assert (2, 1, 0) in report["details"]["failures"]
    assert check_fdg(max_degree=3, max_sum=4)["passed"]


def test_g_is_a_chain_map():
    # d∘g = g∘δ in the bar complex (the property that pins g's correction terms)
    for chain in [(2, 3), (1, 0), (1, 1, 0), (2, 1, 1), (3, 1, 2)]:
        lhs = {}
        for cell, coeff in homotopy_g(chain).items():
            for y, c2 in bar_differential(cell).items():
                term = coeff * c2
                prev = lhs.get(y)
                s = prev + term if prev is not None else term
                if s.is_zero():
                    lhs.pop(y, None)
                else:
                    lhs[y] = s
        rhs = {}
        for tgt, coeff in anick_delta_closed(chain).items():
            for cell, c2 in homotopy_g(tgt).items():
                term = coeff * c2
                prev = rhs.get(cell)
                s = prev + term if prev is not None else term
                if s.is_zero():
                    rhs.pop(cell, None)
                else:
                    rhs[cell] = s
        assert lhs == rhs, chain


def test_chain_killing_property():
    assert check_chain_kill(max_degree=3, max_sum=5)["passed"]


def test_fg_is_identity_on_chains():
    from confweyl.checks import check_fg_identity

    assert check_fg_identity(max_degree=3, max_sum=6)["passed"]


def test_bar_derivation_examples():
    assert bar_derivation(((0, 2), (0, 1), (0, 1))) == {
        ((0, 1), (0, 1), (0, 1)): Fraction(-2),
        ((0, 2), (0, 0), (0, 1)): Fraction(-1),
        ((0, 2), (0, 1), (0, 0)): Fraction(-1),
    }
    assert bar_derivation(((0, 0),)) == {}
    assert bar_derivation(((0, 2), (0, 3))) == {
        ((0, 1), (0, 3)): Fraction(-2),
        ((0, 2), (0, 2)): Fraction(-3),
    }


def test_chain_text_forms():
    assert parse_chain("[2|1|0]") == (2, 1, 0)
    assert parse_chain("[]") == ()
    assert render_chain((2, 1, 0)) == "[2|1|0]"
    assert parse_cell("[v(1)|v(0)v(2)]") == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="is not a normal word"):
        parse_cell("[v(1)v(2)]")
    combo = anick_delta_morse((2, 3))
    assert render_combination(combo, render_chain) == "v(2)*[3] - 2*[4] - v(0)*[5]"


def _parse_slot_by_normal_form(letters):
    """A slot read by rewriting: a normal word is its own normal form, one
    word with coefficient 1 whose letters are the slot's."""
    nf = coeffalg.normal_form(letters)
    words = list(nf.terms)
    if len(words) != 1 or words[0] is UNIT or nf.terms[words[0]] != 1 \
            or cell_letters((words[0],)) != letters:
        return None
    return words[0]


def test_parse_cell_reads_slots_as_rewriting_does():
    # every letter tuple of length 1–5 with indices ≤ 3 (1364 of them)
    import itertools

    seen = 0
    for length in range(1, 6):
        for letters in itertools.product(range(4), repeat=length):
            text = "[" + "".join(f"v({i})" for i in letters) + "]"
            want = _parse_slot_by_normal_form(letters)
            if want is None:
                with pytest.raises(ValueError, match="is not a normal word"):
                    parse_cell(text)
            else:
                assert parse_cell(text) == (want,), letters
            seen += 1
    assert seen == 1364


def _merged_partner_by_every_cut(cell):
    """Merged-end partner found by trying every cut of slot p+2 with the oracle."""
    p = _prefix_chain_degree_by_letters(cell)
    if p + 2 > len(cell):
        return None
    prefix, (k, n) = cell_letters(cell[:p + 1]), cell[p + 1]
    letters = cell_letters(((k, n),))
    for cut in range(1, len(letters)):
        if oracle_is_chain(prefix + letters[:cut], p + 1):
            # v(0)^k v(n) split after ``cut`` letters: v(0)^cut | v(0)^(k-cut) v(n)
            return cell[:p + 1] + ((cut - 1, 0), (k - cut, n)) + cell[p + 2:]
    return None


def test_merged_end_splits_after_one_letter():
    for cell in _sample_cells(3, 5, 4):
        partner = _merged_partner_by_every_cut(cell)
        edge = matched_edge(cell)
        if partner is None:
            assert edge is None or edge[1] == "down", cell
        else:
            assert edge[:2] == (partner, "up"), cell


def _prefix_chain_degree_by_letters(cell):
    """Largest p with slots 1..p+1 an Anick p-chain, letter by letter: the
    reference for the slot scan in ``prefix_chain_degree``."""
    best = -1
    letters = ()
    for q, slot in enumerate(cell):
        letters = letters + cell_letters((slot,))
        if not is_chain(letters, q):
            break
        best = q
    return best


def _matched_edge_by_letters(cell):
    """The matching with every slot rebuilt as letters and every prefix put
    to ``is_chain``: the reference for ``matched_edge``, with the edge's
    weight read off the bar differential of its split end."""
    m = len(cell)
    if m == 0:
        return None
    p = _prefix_chain_degree_by_letters(cell)
    if p + 2 <= m:
        k, n = cell[p + 1]
        letters = cell_letters(cell[:p + 2])
        if len(letters) > p + 2 and is_chain(letters[:p + 2], p + 1):
            partner = cell[:p + 1] + ((0, 0), (k - 1, n)) + cell[p + 2:]
            return partner, "up", _edge_weight(_bar_terms(partner), cell)
    hits = []
    for q in range(-1, m - 2):
        letters = cell_letters(cell[q + 1:q + 3])
        (ka, na), (kb, nb) = cell[q + 1], cell[q + 2]
        # the A₁ word product v(0)^ka v(na) · v(0)^kb v(nb)
        product = {(k + ka, n) for (k, n) in coeffalg._letter_word(na, kb, nb)}
        merged_word = next((w for w in product if cell_letters((w,)) == letters), None)
        if merged_word is None:
            continue
        merged = cell[:q + 1] + (merged_word,) + cell[q + 3:]
        if _prefix_chain_degree_by_letters(merged) != q:
            continue
        if not is_chain(cell_letters(cell[:q + 2]), q + 1):
            continue
        hits.append((q, merged))
    assert len(hits) <= 1, cell
    if hits:
        merged = hits[0][1]
        return merged, "down", _edge_weight(_bar_terms(cell), merged)
    return None


def test_matching_read_off_slots_matches_the_letter_reference():
    cells = _sample_cells(4, 6, 6)
    assert len(cells) == 43652
    for cell in cells:
        assert prefix_chain_degree(cell) == _prefix_chain_degree_by_letters(cell), cell
        edge, expected = matched_edge(cell), _matched_edge_by_letters(cell)
        if expected is None:
            assert edge is None, cell
            assert cell_is_chain(cell), cell
        else:
            assert edge == expected[:2] and type(expected[2]) is int, cell
            assert not cell_is_chain(cell), cell


def _split_end_by_merge_scan(cell):
    """The split-end side of the matching by scanning every merge position
    q < p: merge slots q+2, q+3 when slot q+2 ends in v(0) and the merged
    cell has prefix degree q.  The reference for the single test at q = p−1
    in ``matched_edge``, with the edge's weight read off d(cell)."""
    m, p = len(cell), prefix_chain_degree(cell)
    hits = []
    for q in range(-1, min(m - 2, p)):
        (ka, na), (kb, nb) = cell[q + 1], cell[q + 2]
        if na:
            continue  # junction rewrites: merged cell is not a basis vertex
        merged = cell[:q + 1] + ((ka + kb + 1, nb),) + cell[q + 3:]
        if prefix_chain_degree(merged) == q:
            hits.append((q, merged))
    assert len(hits) <= 1, cell
    if hits:
        q, merged = hits[0]
        assert q == prefix_chain_degree(cell) - 1, cell
        return merged, "down", _edge_weight(_bar_terms(cell), merged)
    return None


def test_split_end_test_matches_the_merge_scan():
    cells = _sample_cells(4, 6, 6)
    assert len(cells) == 43652
    split_ends = 0
    for cell in cells:
        expected = _split_end_by_merge_scan(cell)
        edge = matched_edge(cell)
        if expected is None:
            assert edge is None or edge[1] == "up", cell
        else:
            assert edge == expected[:2] and type(expected[2]) is int, cell
            split_ends += 1
    assert split_ends == 6643
