from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confweyl import checks
from confweyl.checks import oracle_normal_form
from confweyl.anick import cell_letters
from confweyl.coeffalg import (
    UNIT,
    AlgebraElement,
    _exact,
    _letter_word,
    _mul_into,
    coeff_image,
    derivation,
    normal_form,
    parse_word,
    render_algebra_element,
)
from confweyl.conformal import ConformalElement, n_product
from confweyl.poly import Poly

words = st.lists(st.integers(0, 8), min_size=1, max_size=6).map(tuple)
elements = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 5)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    min_size=1, max_size=3,
).map(AlgebraElement)


def test_normal_form_examples():
    assert normal_form("v(1)v(0)") == AlgebraElement.word(1, 1) + AlgebraElement.word(0, 0)
    assert normal_form("v(2)v(3)v(1)") == (
        AlgebraElement.word(2, 6)
        + AlgebraElement.word(1, 5).scale(7)
        + AlgebraElement.word(0, 4).scale(8)
    )
    assert normal_form("v(0)v(4)") == AlgebraElement.word(1, 4)


def test_normal_form_matches_naive_oracle():
    for word in [(1, 0), (2, 3, 1), (5, 0, 0, 2), (1, 1, 1, 1), (3, 2, 1, 0)]:
        assert normal_form(word) == oracle_normal_form(word, "leftmost")
        assert normal_form(word) == oracle_normal_form(word, "rightmost")


def test_oracle_rejects_an_unreduced_result(monkeypatch):
    # the guard must hold under python -O too, so it raises instead of asserting
    monkeypatch.setattr(checks, "rewrite_positions", lambda word: [])
    with pytest.raises(RuntimeError, match="not reduced"):
        oracle_normal_form((2, 3, 1))


@given(words)
@settings(max_examples=80, deadline=None)
def test_confluence_of_strategies(word):
    left = oracle_normal_form(word, "leftmost")
    right = oracle_normal_form(word, "rightmost")
    assert left == right == normal_form(word)


def _letter_word_by_recursion(a, k, n):
    """v(a)·v(0)^k v(n) by pushing v(a) past one v(0) at a time with
    v(a)v(0) = v(0)v(a) + a·v(a-1): the reference for the closed form."""
    if a == 0:
        return {(k + 1, n): 1}
    if k == 0:
        return {(1, a + n): 1, (0, a + n - 1): a}
    out = {}
    for w, c in _letter_word_by_recursion(a, k - 1, n).items():
        out[(w[0] + 1, w[1])] = out.get((w[0] + 1, w[1]), 0) + c
    for w, c in _letter_word_by_recursion(a - 1, k - 1, n).items():
        out[w] = out.get(w, 0) + a * c
    return {w: c for w, c in out.items() if c}


def test_letter_word_closed_form_matches_the_recursion():
    # values, int coefficients and key order, and a new dict on every call
    for a in range(12):
        for k in range(8):
            for n in range(12):
                got = _letter_word(a, k, n)
                assert list(got.items()) == list(_letter_word_by_recursion(a, k, n).items())
                assert all(type(c) is int for c in got.values())
                assert _letter_word(a, k, n) is not got


def _weyl_normal_order(word):
    """Naive normal ordering in A₁ = k⟨y, t⟩/(ty − yt − 1): rewrite the
    leftmost ty as yt + 1 until none is left; returns {(i, j): c} for yⁱtʲ."""
    todo, done = {word: 1}, {}
    while todo:
        w, c = todo.popitem()
        pos = w.find("ty")
        if pos < 0:
            key = (w.count("y"), w.count("t"))
            done[key] = done.get(key, 0) + c
            continue
        for rewritten in (w[:pos] + "yt" + w[pos + 2:], w[:pos] + w[pos + 2:]):
            todo[rewritten] = todo.get(rewritten, 0) + c
    return {key: c for key, c in done.items() if c}


def _weyl_word(letters):
    """The {y, t}-word of v(a₁)…v(aₘ) under v(a) ↦ y tᵃ."""
    return "".join("y" + "t" * a for a in letters)


def _from_weyl(terms):
    """Back from A₁ to Λ: y^(k+1) tⁿ is v(0)^k v(n)."""
    assert all(i >= 1 for i, _ in terms)
    return AlgebraElement({(i - 1, j): c for (i, j), c in terms.items()})


@given(st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple))
@settings(max_examples=120, deadline=None)
def test_normal_form_is_normal_ordering_in_the_weyl_algebra(word):
    assert normal_form(word) == _from_weyl(_weyl_normal_order(_weyl_word(word)))


@given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_letter_word_is_the_weyl_product(a, k, n):
    # (y tᵃ)(y^(k+1) tⁿ), normal-ordered rule by rule
    product = _weyl_normal_order("y" + "t" * a + "y" * (k + 1) + "t" * n)
    assert AlgebraElement(_letter_word(a, k, n)) == _from_weyl(product)


def _word_product(wa, wb):
    """Product of two normal words (or ``UNIT``) as a dict over normal
    words: ``_letter_word`` for v(na)·wb, shifted by wa's v(0)^ka."""
    if wa is UNIT:
        return {wb: 1}
    if wb is UNIT:
        return {wa: 1}
    ka, na = wa
    return {(k + ka, n): c for (k, n), c in _letter_word(na, wb[0], wb[1]).items()}


normal_words = st.tuples(st.integers(0, 4), st.integers(0, 8))


@given(normal_words, normal_words)
@settings(max_examples=150, deadline=None)
def test_word_product_table_matches_letter_by_letter_rewriting(wa, wb):
    product = _word_product(wa, wb)
    assert AlgebraElement(product) == normal_form(cell_letters((wa, wb)))
    assert all(type(c) is int for c in product.values())


def test_integral_coefficients_are_stored_as_int():
    w = (1, 2)
    x = AlgebraElement({w: Fraction(4, 2)})
    assert x.terms == {w: 2} and type(x.terms[w]) is int
    y = AlgebraElement({w: 2})
    assert x == y and hash(x) == hash(y)
    assert all(type(c) is int for c in normal_form("v(5)v(0)v(3)v(2)").terms.values())
    # arithmetic keeps the invariant: a Fraction that becomes integral turns back into an int
    half = AlgebraElement({w: Fraction(1, 2)})
    assert type(half.terms[w]) is Fraction
    assert type((half + half).terms[w]) is int
    assert type(half.scale(4).terms[w]) is int
    assert type((half * AlgebraElement.scalar(2)).terms[w]) is int
    assert str(half + half) == "v(0) v(2)" and str(half.scale(4)) == "2 v(0) v(2)"


def test_floats_are_refused_on_every_scalar_path():
    # a float's binary value is not the decimal it prints, so it is never stored
    x = normal_form("v(2)v(3)")
    for make in (lambda: AlgebraElement({UNIT: 0.1}), lambda: x.scale(0.1),
                 lambda: Poly.const(0.1), lambda: Poly({(1, 0, 0, 0): 0.5}),
                 lambda: ConformalElement.gen().scale(0.5)):
        with pytest.raises(TypeError):
            make()


def test_multiply_examples():
    v0, v1 = AlgebraElement.letter(0), AlgebraElement.letter(1)
    assert v0 * v1 == AlgebraElement.word(1, 1)
    assert (v1 + v0) * v0 == (
        AlgebraElement.word(1, 1) + AlgebraElement.word(0, 0) + AlgebraElement.word(1, 0)
    )
    x = normal_form("v(2)v(3)")
    assert AlgebraElement.one() * x == x


@given(elements, elements, elements)
@settings(max_examples=40, deadline=None)
def test_multiply_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def _product_by_table(a, b):
    """a·b summed pair by pair over the shifted letter-by-word products."""
    out = AlgebraElement.zero()
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            out = out + AlgebraElement(_word_product(wa, wb)).scale(ca * cb)
    return out


elements_with_unit = st.dictionaries(
    st.one_of(st.just(UNIT), st.tuples(st.integers(0, 2), st.integers(0, 5))),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    min_size=1, max_size=3,
).map(AlgebraElement)


@given(elements_with_unit, elements_with_unit)
@settings(max_examples=80, deadline=None)
def test_multiply_matches_the_word_product_table(a, b):
    # __mul__ applies the v(0)^ka shift itself, and scales when either side
    # is a pure scalar
    product = a * b
    assert list(product.terms.items()) == list(_product_by_table(a, b).terms.items())
    for c in product.terms.values():
        assert type(c) is int or c.denominator != 1


raw_elements = st.dictionaries(
    st.one_of(st.just(UNIT), st.tuples(st.integers(0, 2), st.integers(0, 5))),
    st.one_of(st.integers(-9, 9),
              st.fractions(min_value=-9, max_value=9, max_denominator=4)),
    max_size=4,
).map(lambda terms: AlgebraElement(terms).terms)


def _product_by_naive_reduction(acc, a, b):
    """acc + a·b with each pair of words reduced by the naive rewriting
    oracle on the concatenated letters, pair by pair (a's words outer) and
    each pair's words in decreasing v(0)-power, cancelled entries deleted."""
    out = dict(acc)
    for wa, ca in a.items():
        for wb, cb in b.items():
            letters = cell_letters(tuple(w for w in (wa, wb) if w is not UNIT))
            reduced = checks.oracle_normal_form(letters).terms if letters else {UNIT: 1}
            for w in sorted(reduced, key=lambda w: -w[0] if w is not UNIT else 0):
                s = out.get(w, 0) + ca * cb * reduced[w]
                if s:
                    out[w] = s
                else:
                    del out[w]
    return out


def _stored_form(terms):
    return all(c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
               for c in terms.values())


@given(raw_elements, raw_elements, raw_elements)
@settings(max_examples=150, deadline=None)
def test_product_kernel_matches_naive_normal_ordering(acc, a, b):
    # acc += a·b: values, stored form and key order; and __mul__ through it
    want = _product_by_naive_reduction(acc, a, b)
    got = dict(acc)
    _mul_into(got, a, b)
    assert list(got.items()) == list(want.items())
    assert _stored_form(got)
    product = (AlgebraElement(a) * AlgebraElement(b)).terms
    assert list(product.items()) == list(_product_by_naive_reduction({}, a, b).items())
    assert _stored_form(product)


def _oracle_mul_into(acc, a, b):
    """acc += a·b by one rule for every pair of words, the reference for
    ``_mul_into``'s three cases: a {word: 1} dict for ``UNIT`` on either
    side, else ``_letter_word`` for v(na)·wb, shifted by v(0)^ka."""
    get = acc.get
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            if wa is UNIT or wb is UNIT:
                ka, products = 0, {wb if wa is UNIT else wa: 1}
            else:
                ka, products = wa[0], _letter_word(wa[1], wb[0], wb[1])
            for w, cw in products.items():
                if ka:
                    w = (w[0] + ka, w[1])
                s = get(w, 0) + c * cw
                if type(s) is not int:
                    s = _exact(s)
                if s:
                    acc[w] = s
                else:
                    del acc[w]


# UNIT, words ending in v(0) and words ending in v(n ≥ 1), with few enough
# of each that products collide; small coefficients make sums cancel
kernel_words = st.one_of(st.just(UNIT), st.tuples(st.integers(0, 2), st.just(0)),
                         st.tuples(st.integers(0, 2), st.integers(1, 3)))
kernel_terms = st.dictionaries(
    kernel_words,
    st.one_of(st.integers(-2, 2).filter(bool),
              st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool)
              .map(_exact)),
    max_size=4,
)


@given(kernel_terms, kernel_terms, kernel_terms)
@example(acc={(1, 1): -1, (0, 9): 5}, a={(0, 0): 1, UNIT: 1}, b={(0, 1): 1, (1, 1): 1})
@example(acc={(2, 0): Fraction(1, 2)}, a={(1, 0): Fraction(-1, 2)}, b={(0, 0): 1})
@settings(max_examples=300, deadline=None)
def test_product_kernel_matches_its_oracle(acc, a, b):
    # values, stored-form types and key order of acc: the first example
    # cancels (1, 1) on v(0)·v(1) and appends it again on 1·v(0)v(1)
    want = dict(acc)
    _oracle_mul_into(want, a, b)
    got = dict(acc)
    _mul_into(got, a, b)
    assert [(w, type(c), c) for w, c in got.items()] == \
        [(w, type(c), c) for w, c in want.items()]


def test_product_kernel_matches_rewriting_on_concatenated_words():
    a, b = {(1, 2): 1}, {(2, 3): 1}
    acc = {}
    _mul_into(acc, a, b)
    assert AlgebraElement(acc) == oracle_normal_form(cell_letters(((1, 2), (2, 3))))


def test_scalar_multiplication_and_foreign_operands():
    x = normal_form("v(2)v(3)")
    assert x * 3 == 3 * x == x.scale(3)
    assert x * Fraction(1, 2) == x.scale(Fraction(1, 2))
    assert x * AlgebraElement.scalar(-2) == AlgebraElement.scalar(-2) * x == x.scale(-2)
    with pytest.raises(TypeError):
        x * "v(1)"


def test_derivation_examples():
    assert derivation(AlgebraElement.letter(3)) == AlgebraElement.letter(2).scale(-3)
    assert derivation(AlgebraElement.letter(0)).is_zero()
    assert derivation(AlgebraElement.word(1, 2)) == AlgebraElement.word(1, 1).scale(-2)


@given(elements, elements)
@settings(max_examples=40, deadline=None)
def test_derivation_is_a_derivation(x, y):
    assert derivation(x * y) == derivation(x) * y + x * derivation(y)


@given(elements_with_unit)
@settings(max_examples=80, deadline=None)
def test_derivation_is_ad_y(x):
    # v(0) is y in A₁, and ad_y(tⁿ) = [y, tⁿ] = -n·tⁿ⁻¹
    y = AlgebraElement.letter(0)
    assert derivation(x) == y * x - x * y


def test_coeff_image_examples():
    v = ConformalElement.gen()
    dv = ConformalElement.parse("d*v")
    v2 = ConformalElement.parse("v^2")
    assert coeff_image(v, 5) == AlgebraElement.letter(5)
    assert coeff_image(dv, 3) == AlgebraElement.letter(2).scale(-3)
    assert coeff_image(v2, 4) == AlgebraElement.word(1, 4)
    assert coeff_image(dv, 0).is_zero()  # (∂a)(0) = 0


def test_coeff_image_derivation_compat():
    # ∂(c(n)) = (∂c)(n) = -n c(n-1)
    for vdeg in (1, 2, 3):
        c = ConformalElement.monomial(0, vdeg)
        for n in range(0, 6):
            assert derivation(coeff_image(c, n)) == coeff_image(c, n - 1).scale(-n)


def test_coefficient_product_law():
    # c(n)·b(m) = Σ_s C(n,s) (c ∘s b)(n+m-s), linking to the conformal product
    mons = [ConformalElement.monomial(a, k) for a in (0, 1) for k in (1, 2, 3)]
    for a in mons:
        for b in mons:
            for n in range(0, 6):
                for m in range(0, 6):
                    lhs = coeff_image(a, n) * coeff_image(b, m)
                    rhs = AlgebraElement.zero()
                    for s in range(0, n + 1):
                        prod = n_product(a, b, s)
                        if prod.is_zero():
                            continue
                        rhs = rhs + coeff_image(prod, n + m - s).scale(comb(n, s))
                    assert lhs == rhs, (str(a), str(b), n, m)


def test_parser_and_rendering():
    assert parse_word("v(2) v(3)*v(1)") == (2, 3, 1)
    with pytest.raises(ValueError):
        parse_word("w(2)")
    x = normal_form("v(2)v(3)v(1)")
    assert render_algebra_element(x) == "v(0)^2 v(6) + 7 v(0) v(5) + 8 v(4)"
    assert render_algebra_element(AlgebraElement.zero()) == "0"
    assert render_algebra_element(AlgebraElement.one()) == "1"


def test_augmentation_kills_nonunit_words():
    x = normal_form("v(1)v(0)") + AlgebraElement.scalar(Fraction(2, 3))
    assert x.augmentation() == Fraction(2, 3)
