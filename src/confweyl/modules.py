"""Finite free conformal modules over U(2), given by three matrices.

A module of rank r is a free k[∂]-module on e₁…e_r with the λ-action of
the generator v given by three r×r matrices E, B, C:

  v ∘λ eⱼ = Σᵢ (Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ) eᵢ.

Shipped families:

  M(α,Δ)        rank 1, v ∘λ u = (α + ∂ + Δλ)u   (valid iff Δ ∈ {0,1})
  trivial       rank 1, v ∘λ u = 0
  ext(α,β,γ)    rank 2, v ∘λ u = (λ+∂+α)u,  v ∘λ w = (λ+∂+β)w + γu

Construction validates the associativity identity
v ∘λ (v ∘μ m) = (v ∘λ v) ∘_{λ+μ} m on every basis vector from the matrices
alone: on eⱼ the residual is column j of

  λμ·(B² − B) + λ²·(BE − B) + ∂λ·(E² − E − EB + BE) + λ·(BC − CB − C + CE),

and a failure is rejected with the violated identity named.  The symbolic
expansion of the identity is the oracle ``checks.oracle_associativity_residual``;
the equivalent λ-degree criterion for M(α,Δ) is ``check_locality_compat``.

Module elements are vectors of ∂-polynomials, on which the letter v(n) acts
by Taylor's formula (``act_vn``).
"""

from __future__ import annotations

from fractions import Fraction
import re

from .poly import Poly, D, L, M as MU, split_constant
from .coeffalg import UNIT, _exact


class ModuleValidationError(ValueError):
    """A module spec fails the conformal-module axioms."""


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


class FiniteModule:
    """Free finite-rank conformal U(2)-module given by its matrices E, B, C.

    v ∘λ eⱼ = Σᵢ (Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ) eᵢ; the matrices are tuples of rows in
    stored form (``coeffalg._exact``).
    """

    def __init__(self, E, B, C, spec, params=None):
        self.E, self.B, self.C = (tuple(tuple(_exact(c) for c in row) for row in mat)
                                  for mat in (E, B, C))
        self.rank = len(self.E)
        if any(len(mat) != self.rank or any(len(row) != self.rank for row in mat)
               for mat in (self.E, self.B, self.C)):
            raise ValueError("E, B and C must be square matrices of one size")
        self.spec = spec
        self.params = dict(params or {})
        # (frozen items of x ∈ Λ, m) -> x·m, filled by Δ (``cohomology._act``);
        # owned by the module, so it is freed with it
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

    def __str__(self):
        return self.spec

    def __repr__(self):
        return f"FiniteModule({self.spec!r})"


def check_locality_compat(alpha, delta):
    """λ-degree criterion for M(α,Δ) to carry the locality-2 product.

    Expands (α+∂+λ+Δ(μ-λ))(α+∂+Δλ) — the value of (v ∘λ v) ∘μ u computed
    through the inner action — and checks the λ-degree stays below 2.
    """
    base = Poly.const(alpha) + D
    expr = (base + L + (MU - L) * delta) * (base + L * delta)
    return expr.degree("l") < 2


def _validate(module):
    """Associativity v∘λ(v∘μ m) = (v∘λv)∘_{λ+μ} m on every basis vector.

    On eⱼ, coordinate i of the residual is entry [i][j] of B² − B, BE − B,
    E² − E − EB + BE and BC − CB − C + CE times λμ, λ², ∂λ and λ; no other
    monomial occurs.  Only a failing column is written out as polynomials,
    for the message.  Returns the module.
    """
    E, B, C, r = module.E, module.B, module.C, module.rank

    def product(X, Y, i, j):
        return sum(X[i][k] * Y[k][j] for k in range(r))

    for j in range(r):
        residual = [{(0, 0, 1, 1): product(B, B, i, j) - B[i][j],
                     (0, 0, 2, 0): product(B, E, i, j) - B[i][j],
                     (1, 0, 1, 0): (product(E, E, i, j) - E[i][j]
                                    - product(E, B, i, j) + product(B, E, i, j)),
                     (0, 0, 1, 0): (product(B, C, i, j) - product(C, B, i, j)
                                    - C[i][j] + product(C, E, i, j))}
                    for i in range(r)]
        if any(c for coeffs in residual for c in coeffs.values()):
            raise ModuleValidationError(
                f"{module.spec}: associativity (v∘λ(v∘μ m)) = ((v∘λv)∘(λ+μ) m) "
                f"fails on basis vector {j}; residual {[str(Poly(c)) for c in residual]}"
            )
    return module


_SPEC_M = re.compile(r"^M\(\s*alpha\s*=\s*(-?\d+(?:/\d+)?)\s*,\s*delta\s*=\s*(-?\d+(?:/\d+)?)\s*\)$", re.I)
_SPEC_EXT = re.compile(
    r"^ext\(\s*alpha\s*=\s*(-?\d+(?:/\d+)?)\s*,\s*beta\s*=\s*(-?\d+(?:/\d+)?)\s*,"
    r"\s*gamma\s*=\s*(-?\d+(?:/\d+)?)\s*\)$", re.I)


def module_m(alpha, delta):
    alpha, delta = Fraction(alpha), Fraction(delta)
    spec = f"M(alpha={alpha},delta={delta})"
    return _validate(FiniteModule(((1,),), ((delta,),), ((alpha,),), spec,
                                  {"alpha": alpha, "delta": delta}))


def module_trivial():
    return _validate(FiniteModule(((0,),), ((0,),), ((0,),), "trivial", {}))


def module_ext(alpha, beta, gamma):
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    identity = ((1, 0), (0, 1))
    spec = f"ext(alpha={alpha},beta={beta},gamma={gamma})"
    return _validate(FiniteModule(identity, identity, ((alpha, gamma), (0, beta)), spec,
                                  {"alpha": alpha, "beta": beta, "gamma": gamma}))


def _spec_numbers(match, spec):
    """The numbers a module spec matched, as Fractions; a zero denominator
    is a ValueError that names the spec."""
    try:
        return [Fraction(g) for g in match.groups()]
    except ZeroDivisionError:
        raise ValueError(f"module spec {spec!r} has a zero denominator") from None


def make_module(spec):
    """Build and validate a module from a spec string (or pass one through)."""
    if isinstance(spec, FiniteModule):
        return spec
    text = spec.strip()
    if text.lower() == "trivial":
        return module_trivial()
    m = _SPEC_M.match(text)
    if m:
        return module_m(*_spec_numbers(m, spec))
    m = _SPEC_EXT.match(text)
    if m:
        return module_ext(*_spec_numbers(m, spec))
    raise ValueError(
        f"unknown module spec {spec!r}; expected M(alpha=..,delta=..), trivial, "
        f"or ext(alpha=..,beta=..,gamma=..)"
    )


def reduce_element(m):
    """Coordinate-wise split f = c + ∂·g; returns (constants, quotient)."""
    split = [split_constant(f) for f in m.coords]
    return tuple(c for c, _ in split), ModuleElement(g for _, g in split)
