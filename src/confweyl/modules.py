"""Finite free conformal modules over U(2), given by three matrices.

A module of rank r is a free k[∂]-module on e₁…e_r with the λ-action of
the generator v given by three r×r matrices E, B, C:

  v ∘λ eⱼ = Σᵢ (Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ) eᵢ.

Shipped families:

  M(α,Δ)        rank 1, v ∘λ u = (α + ∂ + Δλ)u   (valid iff Δ ∈ {0,1})
  trivial       rank 1, v ∘λ u = 0
  ext(α,β,γ)    rank 2, v ∘λ u = (λ+∂+α)u,  v ∘λ w = (λ+∂+β)w + γu

A ``FiniteModule`` holds E, B, C and its spec string, nothing else: a
family's parameters are read back off the matrices (the theorem
constructions read α of M(α,1) as C₁₁), and ``cohomology.assemble_matrix``
combines the matrices with ∇'s module-free operators.

Construction validates the associativity identity
v ∘λ (v ∘μ m) = (v ∘λ v) ∘_{λ+μ} m on every basis vector from the matrices
alone: on eⱼ the residual is column j of

  λμ·(B² − B) + λ²·(BE − B) + ∂λ·(E² − E − EB + BE) + λ·(BC − CB − C + CE),

and a failure is rejected with the violated identity named.  The symbolic
expansion of the identity is the oracle ``checks.oracle_associativity_residual``;
the equivalent λ-degree criterion for M(α,Δ) is ``checks.check_locality_compat``.
The module's action on vectors of ∂-polynomials is the oracle
``checks.SymbolicModule``.
"""

from __future__ import annotations

from fractions import Fraction
import re

from .coeffalg import _exact


class ModuleValidationError(ValueError):
    """A module spec fails the conformal-module axioms."""


class FiniteModule:
    """Free finite-rank conformal U(2)-module given by its matrices E, B, C.

    v ∘λ eⱼ = Σᵢ (Eᵢⱼ∂ + Bᵢⱼλ + Cᵢⱼ) eᵢ; the matrices are tuples of rows in
    stored form (``coeffalg._exact``).  The three matrices and the spec
    string are all a module holds: whatever reads a family's parameters,
    such as α of M(α,1), reads them off E, B, C.
    """

    def __init__(self, E, B, C, spec):
        self.E, self.B, self.C = (tuple(tuple(_exact(c) for c in row) for row in mat)
                                  for mat in (E, B, C))
        self.rank = len(self.E)
        if any(len(mat) != self.rank or any(len(row) != self.rank for row in mat)
               for mat in (self.E, self.B, self.C)):
            raise ValueError("E, B and C must be square matrices of one size")
        self.spec = spec

    def __str__(self):
        return self.spec

    def __repr__(self):
        return f"FiniteModule({self.spec!r})"


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
            from .poly import Poly  # here only: a valid module needs no Poly

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
    return _validate(FiniteModule(((1,),), ((delta,),), ((alpha,),), spec))


def module_trivial():
    return _validate(FiniteModule(((0,),), ((0,),), ((0,),), "trivial"))


def module_ext(alpha, beta, gamma):
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    identity = ((1, 0), (0, 1))
    spec = f"ext(alpha={alpha},beta={beta},gamma={gamma})"
    return _validate(FiniteModule(identity, identity, ((alpha, gamma), (0, beta)), spec))


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

