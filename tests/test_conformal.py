from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confweyl.conformal import (
    ConformalElement,
    check_associativity,
    conf_commutator,
    lambda_product,
    locality,
    n_product,
)
from confweyl.poly import D, L, Poly, parse_poly

V1 = ConformalElement.gen()
V2 = ConformalElement.parse("v^2")
DV = ConformalElement.parse("d*v")

monomials = st.builds(ConformalElement.monomial, st.integers(0, 2), st.integers(1, 4))
elements = st.lists(monomials, min_size=1, max_size=3).map(
    lambda ms: ConformalElement(sum((m.poly for m in ms), Poly.zero())))


def lam(text):
    """A λ-product as ``lambda_product`` returns it: a ``Poly`` in ∂, v and λ."""
    return parse_poly(text)


def test_invariant_rejects_v_degree_zero():
    with pytest.raises(ValueError):
        ConformalElement.parse("d + v")
    with pytest.raises(ValueError):
        ConformalElement.parse("1")
    assert ConformalElement.zero().is_zero()


def test_lambda_product_examples():
    assert lambda_product(V1, V1) == lam("v^2 + l*v")
    assert lambda_product(V1, V2) == lam("v^3 + 2*l*v^2 + l^2*v")
    assert lambda_product(DV, V1) == lam("-l*v^2 - l^2*v")


def test_n_product_examples():
    assert n_product(V1, V1, 0) == V2
    assert n_product(V1, V1, 1) == V1
    assert n_product(V1, V1, 2).is_zero()


def test_locality_examples():
    assert locality(V1, V1) == 2
    assert locality(V1, V2) == 3
    assert locality(ConformalElement.zero(), V1) == 0


def test_commutator_is_virasoro():
    assert conf_commutator(V1, V1) == lam("d*v + 2*l*v")


def test_commutator_sesquilinearity_consequence():
    # ∂ in the right argument multiplies the commutator by (∂ + λ)
    lhs = conf_commutator(V1, DV)
    rhs = (D + L) * conf_commutator(V1, V1)
    assert lhs == rhs


def test_commutator_antisymmetry_v2():
    # [x ∘λ y] = -[y ∘_{-∂-λ} x] expanded with this module's own operations
    lhs = conf_commutator(V2, V2)
    rhs = -conf_commutator(V2, V2).subs("l", -(D + L))
    assert lhs == rhs


@given(elements, elements)
@settings(max_examples=30)
def test_commutator_antisymmetry(x, y):
    lhs = conf_commutator(x, y)
    rhs = -conf_commutator(y, x).subs("l", -(D + L))
    assert lhs == rhs


def test_associativity_examples():
    assert check_associativity(V1, V1, V1)
    assert check_associativity(DV, V1, V1)


def test_associativity_exhaustive_total_vdeg_6():
    mons = [ConformalElement.monomial(a, n) for a in (0, 1) for n in range(1, 5)]
    combos = 0
    for a in mons:
        for b in mons:
            for c in mons:
                if (a.poly.degree("v") + b.poly.degree("v") + c.poly.degree("v")) <= 6:
                    combos += 1
                    assert check_associativity(a, b, c)
    assert combos > 100


@given(monomials, monomials, monomials)
@settings(max_examples=40)
def test_associativity_random_monomials(a, b, c):
    assert check_associativity(a, b, c)


@given(monomials, monomials)
@settings(max_examples=40)
def test_sesquilinearity_axioms(a, b):
    base = lambda_product(a, b)
    assert lambda_product(a.d_mul(), b) == -L * base
    assert lambda_product(a, b.d_mul()) == (D + L) * base


@given(monomials, monomials)
@settings(max_examples=40)
def test_n_product_reconstruction(a, b):
    lampoly = lambda_product(a, b)
    rebuilt = Poly.zero()
    fact = 1
    for n in range(lampoly.degree("l") + 1):
        if n:
            fact *= n
        rebuilt = rebuilt + L ** n * n_product(a, b, n).poly * Fraction(1, fact)
    assert rebuilt == lampoly
