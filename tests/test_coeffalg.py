from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confweyl import checks
from confweyl.checks import oracle_normal_form
from confweyl.anick import cell_letters
from confweyl.coeffalg import (
    UNIT,
    AlgebraElement,
    _letter_word,
    _letter_word_memo,
    _word_product,
    coeff_image,
    derivation,
    normal_form,
    parse_word,
    render_algebra_element,
)
from confweyl.conformal import ConformalElement, n_product

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
    """a·b summed pair by pair over the word-product table."""
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
    # __mul__ shifts the unshifted table entry itself, and scales when
    # either side is a pure scalar
    product = a * b
    assert list(product.terms.items()) == list(_product_by_table(a, b).terms.items())
    for c in product.terms.values():
        assert type(c) is int or c.denominator != 1


def test_scalar_multiplication_and_foreign_operands():
    x = normal_form("v(2)v(3)")
    assert x * 3 == 3 * x == x.scale(3)
    assert x * Fraction(1, 2) == x.scale(Fraction(1, 2))
    assert x * AlgebraElement.scalar(-2) == AlgebraElement.scalar(-2) * x == x.scale(-2)
    with pytest.raises(TypeError):
        x * "v(1)"


def test_letter_word_table_is_shared_and_memoised():
    # the a = 0 entry is memoised like the others; callers never mutate one
    entry = _letter_word(0, 2, 3)
    assert entry == {(3, 3): 1}
    assert _letter_word(0, 2, 3) is entry and _letter_word_memo[(0, 2, 3)] is entry
    before = {key: dict(val) for key, val in _letter_word_memo.items()}
    normal_form("v(0)v(3)v(0)v(2)v(1)")
    AlgebraElement.word(2, 1) * normal_form("v(3)v(0)v(2)")
    _word_product((3, 2), (1, 0))
    assert all(_letter_word_memo[key] == val for key, val in before.items())


def test_derivation_examples():
    assert derivation(AlgebraElement.letter(3)) == AlgebraElement.letter(2).scale(-3)
    assert derivation(AlgebraElement.letter(0)).is_zero()
    assert derivation(AlgebraElement.word(1, 2)) == AlgebraElement.word(1, 1).scale(-2)


@given(elements, elements)
@settings(max_examples=40, deadline=None)
def test_derivation_is_a_derivation(x, y):
    assert derivation(x * y) == derivation(x) * y + x * derivation(y)


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
