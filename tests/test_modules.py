from fractions import Fraction
from math import factorial
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confweyl import poly
from confweyl.checks import (
    SHIPPED_MODULES,
    ModuleElement,
    SymbolicModule,
    check_locality_compat,
    oracle_act_lambda,
    oracle_act_v_lambda,
    oracle_associativity_residual,
)
from confweyl.coeffalg import coeff_image, normal_form
from confweyl.conformal import ConformalElement
from confweyl.modules import (
    FiniteModule,
    ModuleValidationError,
    _validate,
    make_module,
    module_ext,
    module_m,
    module_trivial,
)
from confweyl.poly import D, L, Poly, parse_poly

d_polys = st.dictionaries(st.integers(0, 4).map(lambda e: (e, 0, 0, 0)),
                          st.fractions(min_value=-9, max_value=9, max_denominator=4),
                          min_size=1, max_size=3).map(Poly)


def test_make_module_examples():
    assert make_module("M(alpha=0,delta=1)").rank == 1
    assert make_module("trivial").rank == 1
    assert make_module("ext(alpha=0,beta=1,gamma=1)").rank == 2
    with pytest.raises(ModuleValidationError) as err:
        make_module("M(alpha=0,delta=2)")
    assert "associativity" in str(err.value)
    with pytest.raises(ValueError):
        make_module("M(alpha=0)")


def test_ext_valid_for_various_parameters():
    for a, b, g in [(0, 1, 1), (2, -1, 3), (Fraction(1, 2), Fraction(-1, 3), 5)]:
        assert module_ext(a, b, g).rank == 2


def test_locality_compat_table():
    for alpha in (0, 1, Fraction(-1, 2), Fraction(3, 2)):
        for delta in range(-2, 4):
            assert check_locality_compat(alpha, delta) == (delta in (0, 1))


def test_act_lambda_closed_examples():
    m = SymbolicModule(module_m(Fraction(2), 1))
    u = m.basis()[0]
    v = ConformalElement.gen()
    assert oracle_act_lambda(m, v, u) == {0: m.element(D + 2), 1: u}
    v2 = ConformalElement.parse("v^2")
    assert oracle_act_lambda(m, v2, u) == {
        0: m.element((D + 2) * (D + 2)),
        1: m.element(D + 2),
    }
    du = m.derivation(u)
    got = oracle_act_lambda(m, v, du)
    # (∂+λ)(α+∂+λ)u split by λ-degree
    assert got == {0: m.element(D * (D + 2)), 1: m.element(2 * D + 2), 2: u}


def test_act_vn_examples():
    m = SymbolicModule(module_m(Fraction(5), 1))
    u = m.basis()[0]
    assert m.act_vn(0, u) == m.element(D + 5)
    assert m.act_vn(1, u) == u
    assert m.act_vn(2, u).is_zero()
    d2u = u.poly_mul(D * D)
    assert m.act_vn(2, d2u) == m.element(6 * D + 10)


def _lambda_split_act_vn(mod, n, m):
    """v(n)·m as n! times the λⁿ part of v ∘λ m, from the shifted product."""
    part = oracle_act_v_lambda(mod, m).get(n)
    return mod.zero() if part is None else part.scale(factorial(n))


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_modules = st.one_of(
    st.builds(module_m, _rationals, st.sampled_from([0, 1])),
    st.just(module_trivial()),
    st.builds(module_ext, _rationals, _rationals, _rationals),
)
_d_polys_to_5 = st.dictionaries(st.integers(0, 5).map(lambda e: (e, 0, 0, 0)), _rationals,
                                max_size=6).map(Poly)


def _square(size, entries):
    return st.lists(st.lists(entries, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(lambda rows: tuple(map(tuple, rows)))


def _identity(size):
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def _zero(size):
    return ((0,) * size,) * size


@st.composite
def _matrices(draw, entries):
    """(E, B, C) of rank 1–3, E and B biased toward I, 0 and E."""
    size = draw(st.integers(1, 3))
    free = _square(size, entries)
    E = draw(st.one_of(st.just(_identity(size)), st.just(_zero(size)), free))
    B = draw(st.one_of(st.just(_identity(size)), st.just(_zero(size)), st.just(E), free))
    return E, B, draw(free)


def _matmul(X, Y):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*Y)) for row in X)


def _matsub(X, Y):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(X, Y))


@settings(max_examples=80, deadline=None)
@given(mod=st.one_of(_modules, _matrices(_rationals).map(
           lambda m: FiniteModule(*m, "drawn"))),  # not validated: act_vn needs no axiom
       n=st.integers(0, 7), data=st.data())
def test_act_vn_matches_lambda_split_oracle(mod, n, data):
    # Taylor's formula against n!·[λⁿ] of v ∘λ m, on ∂-polynomials up to degree 5
    mod = SymbolicModule(mod)
    m = ModuleElement(tuple(data.draw(_d_polys_to_5) for _ in range(mod.rank)))
    assert mod.act_vn(n, m) == _lambda_split_act_vn(mod, n, m)


@settings(max_examples=200, deadline=None)
@given(_matrices(st.sampled_from([-1, 0, 1])))
def test_validate_accepts_exactly_the_matrix_identities(matrices):
    # the λμ, λ², ∂λ and λ coefficients of the associativity identity (the
    # ∂λ one is E² − E − EB + BE, which reads as below once BE = B); for
    # E = I they read B² = B and BC = CB
    E, B, C = matrices
    want = (_matmul(B, B) == B and _matmul(B, E) == B
            and _matsub(_matmul(E, E), E) == _matsub(_matmul(E, B), B)
            and _matsub(_matmul(B, C), _matmul(C, B)) == _matsub(C, _matmul(C, E)))
    try:
        _validate(FiniteModule(E, B, C, "drawn"))
        accepted = True
    except ModuleValidationError:
        accepted = False
    assert accepted == want


@settings(max_examples=200, deadline=None)
@given(_matrices(st.sampled_from([-1, 0, 1, Fraction(1, 2)])))
def test_validate_agrees_with_the_symbolic_oracle(matrices):
    # unvalidated draws: the matrix check accepts exactly when the symbolic
    # residual vanishes on every basis vector, and otherwise names the first
    # basis vector it fails on with the residual the symbolic expansion wrote
    module = FiniteModule(*matrices, "drawn")
    want = None
    for j, e in enumerate(SymbolicModule(module).basis()):
        residual = oracle_associativity_residual(module, e)
        if any(residual):
            want = (f"drawn: associativity (v∘λ(v∘μ m)) = ((v∘λv)∘(λ+μ) m) "
                    f"fails on basis vector {j}; residual {[str(r) for r in residual]}")
            break
    try:
        _validate(module)
    except ModuleValidationError as err:
        got = str(err)
    else:
        got = None
    assert got == want


def test_construction_builds_no_poly():
    # a Poly is made only by code in poly.py, by its constructor or by
    # Poly.__new__ inside its operations, so a construction that enters no
    # function of poly.py builds none
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == poly.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for spec in SHIPPED_MODULES:
            make_module(spec)
    finally:
        sys.setprofile(None)
    assert entered == []


def test_act_vn_rejects_lambda_in_a_coordinate():
    m = SymbolicModule(module_m(Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        m.act_vn(1, m.element(D + L))
    ext = SymbolicModule(module_ext(0, 1, 1))
    with pytest.raises(ValueError):
        ext.act_vn(0, ext.element(D, L * L))


def test_module_derivation_examples():
    m = SymbolicModule(module_m(0, 1))
    u = m.basis()[0]
    assert m.derivation(m.element(D + 1)) == m.element(D * D + D)
    assert m.derivation(u) == m.element(D)


@pytest.mark.parametrize("spec", ["M(alpha=0,delta=1)", "M(alpha=1,delta=1)",
                                  "M(alpha=0,delta=0)", "trivial",
                                  "ext(alpha=0,beta=1,gamma=1)"])
def test_derivation_action_compat(spec):
    # ∂(v(n)·m) = -n v(n-1)·m + v(n)·∂m, a sesquilinearity consequence
    mod = SymbolicModule(spec)
    m = ModuleElement(tuple(D ** (i + 1) + Poly.const(i) for i in range(mod.rank)))
    for n in range(0, 6):
        lhs = mod.derivation(mod.act_vn(n, m))
        rhs = mod.act_vn(n, mod.derivation(m))
        if n:
            rhs = rhs - mod.act_vn(n - 1, m).scale(n)
        assert lhs == rhs


@given(d_polys, st.integers(0, 2), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_weight_one_closed_formula(f, a, k):
    # v·h(∂,v) ∘λ f(∂)u = h(-λ, ∂+α)(λ+∂+α) f(∂+λ) u  with h = ∂^a v^{k-1}
    alpha = Fraction(3, 2)
    mod = module_m(alpha, 1)
    c = ConformalElement.monomial(a, k)
    m = ModuleElement((f,))
    got = oracle_act_lambda(mod, c, m)
    h = (-L) ** a * (Poly.variable("v")) ** (k - 1)
    closed = h.subs("v", D + Poly.const(alpha)) \
        * (L + D + Poly.const(alpha)) * f.shift("d", L)
    want = {deg: ModuleElement((p,)) for deg, p in closed.coeffs_in("l").items()
            if not p.is_zero()}
    assert got == want


def test_ext_submodule_and_quotient():
    mod = SymbolicModule(module_ext(Fraction(1, 2), 3, 7))
    sub = mod.element(parse_poly("d^2+1"), 0)
    for n in range(0, 6):
        out = mod.act_vn(n, sub)
        assert out.coords[1].is_zero()  # u-line is a submodule
    # quotient action on w equals M(beta,1)
    quot = SymbolicModule(module_m(3, 1))
    for n in range(0, 6):
        for f in (Poly.one(), D, D * D + 2):
            big = mod.act_vn(n, mod.element(0, f))
            small = quot.act_vn(n, ModuleElement((f,)))
            assert big.coords[1] == small.coords[0]


def test_coefficient_action_consistency():
    # word image of c(n) acts like n!·[λⁿ](c ∘λ ·)
    import math
    mods = [SymbolicModule(m) for m in (module_m(0, 1), module_m(2, 1), module_ext(0, 1, 1))]
    mons = [ConformalElement.monomial(a, k) for a in (0, 1) for k in (1, 2, 3)]
    for mod in mods:
        for c in mons:
            for e in mod.basis():
                lam = oracle_act_lambda(mod, c, e)
                for n in range(0, 7):
                    via_word = mod.act_algebra(coeff_image(c, n), e)
                    via_lambda = lam.get(n, mod.zero()).scale(math.factorial(n))
                    assert via_word == via_lambda, (mod.spec, str(c), n)


def test_algebra_action_respects_rewriting():
    # v(n)v(m)·u computed letterwise equals the normal form acting
    mod = SymbolicModule(module_m(Fraction(1, 3), 1))
    m = mod.element(D ** 2 + 1)
    for n in range(1, 4):
        for mm in range(0, 4):
            direct = mod.act_vn(n, mod.act_vn(mm, m))
            rewritten = mod.act_algebra(normal_form((n, mm)), m)
            assert direct == rewritten
