"""The associative conformal Weyl algebra U(2) = k[∂,v]v.

Elements are polynomials in ∂ and v in which every monomial has v-degree
at least one.  The λ-product is determined on monomials by

    (∂^a v^n ∘λ ∂^c v^m) = (-λ)^a (∂+λ)^c v^n (v+λ)^m,

which packages sesquilinearity (∂ on the left gives a -λ factor, ∂ on the
right a ∂+λ factor) together with the defining product v^n ∘λ v^m =
v^n (v+λ)^m.  The n-products are the coefficients of λ^n/n!.
"""

from __future__ import annotations

from math import factorial

from .poly import Poly, D, V, L, M, parse_poly


class ConformalElement:
    """Wrapper enforcing the v-degree ≥ 1 invariant (zero allowed)."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        if isinstance(poly, ConformalElement):
            poly = poly.poly
        if not poly.uses_only(("d", "v")):
            raise ValueError("conformal elements live in k[∂,v]")
        for exp in poly.terms:
            if exp[1] < 1:
                raise ValueError("every monomial of a conformal element needs v-degree >= 1")
        self.poly = poly

    @classmethod
    def zero(cls):
        return cls(Poly.zero())

    @classmethod
    def gen(cls):
        return cls(V)

    @classmethod
    def monomial(cls, dpow, vpow, coeff=1):
        if vpow < 1:
            raise ValueError("v-degree must be >= 1")
        return cls(Poly.monomial((dpow, vpow, 0, 0), coeff))

    @classmethod
    def parse(cls, text):
        return cls(parse_poly(text))

    def __add__(self, other):
        return ConformalElement(self.poly + other.poly)

    def __sub__(self, other):
        return ConformalElement(self.poly - other.poly)

    def __neg__(self):
        return ConformalElement(-self.poly)

    def d_mul(self, hpoly=D):
        """Left H-action: multiply by a polynomial in ∂."""
        return ConformalElement(hpoly * self.poly)

    def scale(self, q):
        return ConformalElement(self.poly * q)

    def is_zero(self):
        return self.poly.is_zero()

    def monomials(self):
        """Yield (dpow, vpow, coeff) triples."""
        for exp, c in self.poly.terms.items():
            yield exp[0], exp[1], c

    def __eq__(self, other):
        return isinstance(other, ConformalElement) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"ConformalElement({str(self.poly)!r})"


def lambda_product(a, b):
    """λ-product of two elements of U(2), as a ``Poly`` in ∂, v and λ."""
    out = Poly.zero()
    for ad, av, ac in a.monomials():
        left = (-L) ** ad * V ** av
        for bd, bv, bc in b.monomials():
            out = out + (ac * bc) * left * (D + L) ** bd * (V + L) ** bv
    return out


def n_product(a, b, n):
    """n-th product: n! times the λ^n coefficient of the λ-product."""
    if n < 0:
        raise ValueError("n-products need n >= 0")
    return ConformalElement(lambda_product(a, b).coefficient("l", n) * factorial(n))


def locality(a, b):
    """Least N with (a ∘n b) = 0 for all n ≥ N (0 for zero arguments)."""
    return lambda_product(a, b).degree("l") + 1


def conf_commutator(a, b):
    """[a ∘λ b] = (a ∘λ b) - (b ∘_{-∂-λ} a), as a ``Poly`` in ∂, v and λ.

    The substitution μ → -∂-λ expands powers of -∂-λ and multiplies them
    into the coefficients (the H-module action is multiplication by ∂).
    """
    return lambda_product(a, b) - lambda_product(b, a).subs("l", -(D + L))


def check_associativity(a, b, c):
    """Whether a ∘λ (b ∘μ c) = (a ∘λ b) ∘_{λ+μ} c as (λ, μ)-polynomials;
    each side splits its inner product along λ."""
    lhs = Poly.zero()
    for deg, f in lambda_product(b, c).coeffs_in("l").items():
        lhs = lhs + M ** deg * lambda_product(a, ConformalElement(f))
    rhs = Poly.zero()
    for deg, f in lambda_product(a, b).coeffs_in("l").items():
        rhs = rhs + L ** deg * lambda_product(ConformalElement(f), c).subs("l", L + M)
    return lhs == rhs
