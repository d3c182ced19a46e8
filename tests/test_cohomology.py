from fractions import Fraction
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confweyl import anick, checks, coeffalg, cohomology, ratmat, verify
from confweyl.anick import enumerate_chains
from confweyl.checks import (
    Cochain,
    ModuleElement,
    ScalarCochain,
    SymbolicModule,
    _act,
    check_nabla_squared,
    check_reduction_soundness,
    d_map,
    hochschild_delta,
    oracle_twist_terms,
    reduce_cochain,
    reduced_delta,
)
from confweyl.cohomology import (
    Window,
    _decrements,
    assemble_matrix,
    cohomology_dim,
    coordinate_labels,
    nabla_operators,
    verify_theorem_constructions,
    window_dims,
)
from confweyl.coeffalg import UNIT, AlgebraElement
from confweyl.modules import (
    FiniteModule,
    _validate,
    make_module,
    module_ext,
    module_m,
    module_trivial,
)
from confweyl.poly import D, Poly, parse_poly
from confweyl.ratmat import RationalMatrix, rank_of_vectors
from confweyl.verify import (
    nabla1_reference_matrix,
    nabla2_reference_matrix,
    nabla_general_reference_matrix,
)
from test_coeffalg import _stored_form
from test_modules import _matmul
from test_ratmat import _oracle_rref

W8 = Window(8, 0)


def _morse_route_d_map(phi, window):
    """Dⁿ chain by chain from the Morse-route terms: (Dφ)(a) = ∂φ(a) - Σ λ_b·φ(b)."""
    module = phi.module
    if phi.degree == 0:
        return Cochain(0, module, {(): module.derivation(phi.value(()))})
    out = {}
    for a in enumerate_chains(phi.degree, window.W):
        total = module.derivation(phi.value(a))
        for b, lam in oracle_twist_terms(a).items():
            val = phi.values.get(b)
            if val is not None:
                total = total - module.act_algebra(lam, val)
        if not total.is_zero():
            out[a] = total
    return Cochain(phi.degree, module, out)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(2, 3)
    assert Window(10, 3).inner == 7
    assert Window(10, 3).shrink() == Window(9, 3)


def test_delta0_values():
    # constant h = β: values (∂+α)β, β, then zero
    alpha = Fraction(4)
    mod = SymbolicModule(module_m(alpha, 1))
    phi = Cochain(0, mod, {(): mod.element(1)})
    image = hochschild_delta(phi, W8)
    assert image.value((0,)) == mod.element(D + 4)
    assert image.value((1,)) == mod.element(1)
    for n in range(2, 9):
        assert image.value((n,)).is_zero()


def test_delta1_scalar_values():
    # scalar φ[m] = α_m: (Δ¹φ)[1|m] = -(∂+α)α_{1+m};
    # (Δ¹φ)[n|m] = -(∂+α)α_{n+m} - nα_{n+m-1} for n ≥ 2
    alpha = Fraction(-2)
    mod = SymbolicModule(module_m(alpha, 1))
    seq = {m: Fraction(m * m + 1) for m in range(0, 9)}
    phi = Cochain(1, mod, {(m,): mod.element(c) for m, c in seq.items()})
    image = hochschild_delta(phi, W8)
    for n in range(1, 8):
        for m in range(0, 8 - n):
            want = (D + Poly.const(alpha)) * Poly.const(-seq[n + m])
            if n >= 2:
                want = want + Poly.const(-n * seq[n + m - 1])
            assert image.value((n, m)) == mod.element(want), (n, m)


def test_d_map_examples():
    mod = SymbolicModule(module_m(0, 1))
    # degree 0: D⁰h = ∂h
    h = Cochain(0, mod, {(): mod.element(parse_poly("d+2"))})
    assert d_map(h, W8).value(()) == mod.element(parse_poly("d^2+2*d"))
    # degree 1: (D¹φ)[i] = ∂φ[i] + iφ[i-1]
    phi = Cochain(1, mod, {(0,): mod.element(1), (1,): mod.element(D)})
    out = d_map(phi, W8)
    assert out.value((0,)) == mod.element(D)
    assert out.value((1,)) == mod.element(D * D + 1)
    assert out.value((2,)) == mod.element(2 * D)
    assert out == _morse_route_d_map(phi, W8)


def test_d_map_worked_degree3_value():
    mod = SymbolicModule(module_m(1, 1))
    vals = {(2, 1, 1): mod.element(D ** 3),
            (1, 1, 1): mod.element(7),
            (2, 1, 0): mod.element(11)}
    psi = Cochain(3, mod, vals)
    got = d_map(psi, W8).value((2, 1, 1))
    assert got == mod.element(D ** 4 + 25)  # ∂ψ(2,1,1) + 2ψ(1,1,1) + ψ(2,1,0)


def test_d_map_routes_agree():
    mod = SymbolicModule(module_ext(0, 1, 1))
    values = {
        (1, 1): mod.element(D, 1),
        (2, 3): mod.element(0, D * D),
        (4, 0): mod.element(3, D + 1),
    }
    phi = Cochain(2, mod, values)
    assert d_map(phi, W8) == _morse_route_d_map(phi, W8)


def test_reduce_cochain_examples():
    mod = SymbolicModule(module_m(2, 1))
    phi = Cochain(1, mod, {(0,): mod.element(parse_poly("d+3"))})
    s, h = reduce_cochain(phi, W8)
    assert s.values == {(0,): (Fraction(3),), (1,): (Fraction(-1),)}
    assert h.values == {(0,): mod.element(1)}

    phi2 = Cochain(1, mod, {(0,): mod.element(parse_poly("d^2"))})
    s2, h2 = reduce_cochain(phi2, W8)
    assert s2.values == {(2,): (Fraction(2),)}
    assert h2.values == {(0,): mod.element(D), (1,): mod.element(-1)}

    scalar = Cochain(2, mod, {(1, 1): mod.element(5)})
    s3, h3 = reduce_cochain(scalar, W8)
    assert s3.values == {(1, 1): (Fraction(5),)} and h3.is_zero()


def test_reduction_soundness_suite():
    assert check_reduction_soundness()["passed"]


def test_reduced_delta_closed_form_degree1():
    # (∇¹s)[n|m] = -α s_{n+m} + m s_{n+m-1}
    alpha = Fraction(3)
    mod = SymbolicModule(module_m(alpha, 1))
    seq = {m: Fraction(2 * m + 1) for m in range(0, 9)}
    s = ScalarCochain(1, mod, {(m,): (c,) for m, c in seq.items()})
    out = reduced_delta(s, W8)
    for n in range(1, 8):
        for m in range(0, 8 - n):
            want = -alpha * seq[n + m] + m * seq[n + m - 1]
            assert out.value((n, m)) == (want,), (n, m)


def test_reduced_delta_closed_form_degree2():
    # eq-style: -α s_{(n+m,p)} + α s_{(n,m+p)} + m s_{(n+m-1,p)}
    #           + p s_{(n+m,p-1)} - p s_{(n,m+p-1)}
    alpha = Fraction(-1, 2)
    mod = SymbolicModule(module_m(alpha, 1))
    vals = {}
    for (a, b) in enumerate_chains(2, 8):
        vals[(a, b)] = (Fraction(3 * a - b + a * b + 1),)
    s = ScalarCochain(2, mod, vals)

    def sv(t):
        if any(i < 1 for i in t[:-1]) or t[-1] < 0:
            return Fraction(0)
        return vals.get(t, (Fraction(0),))[0]

    out = reduced_delta(s, W8)
    for (n, m, p) in enumerate_chains(3, 8):
        want = (-alpha * sv((n + m, p)) + alpha * sv((n, m + p))
                + m * sv((n + m - 1, p)) + p * sv((n + m, p - 1))
                - p * sv((n, m + p - 1)))
        assert out.value((n, m, p)) == (want,), (n, m, p)


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1)])
def test_matrices_match_display_formulas(alpha):
    window = Window(9, 3)
    mod = module_m(alpha, 1)
    assert assemble_matrix(1, mod, window).columns == nabla1_reference_matrix(alpha, window)
    assert assemble_matrix(2, mod, window).columns == nabla2_reference_matrix(alpha, window)
    # the corrected general form covers the degree-3 matrix symbolically
    assert assemble_matrix(3, mod, window).columns == \
        nabla_general_reference_matrix(alpha, 3, window)
    # and reproduces the two displayed instances
    assert nabla_general_reference_matrix(alpha, 1, window) == \
        nabla1_reference_matrix(alpha, window)
    assert nabla_general_reference_matrix(alpha, 2, window) == \
        nabla2_reference_matrix(alpha, window)


def _typed_columns(columns):
    return [[(i, type(c), c) for i, c in col.items()] for col in columns]


@pytest.mark.parametrize("window", [Window(6, 0), Window(9, 3)])
def test_reference_builders_take_alpha_in_either_form(window):
    # α as an int or as a Fraction gives the same columns, items in order
    # and entry types, and the general form reproduces degrees 1 and 2
    builders = [lambda a: nabla1_reference_matrix(a, window),
                lambda a: nabla2_reference_matrix(a, window),
                lambda a: nabla_general_reference_matrix(a, 3, window)]
    for build in builders:
        for alpha in (0, 1):
            assert _typed_columns(build(alpha)) == _typed_columns(build(Fraction(alpha)))
    for alpha in (0, 1, Fraction(0), Fraction(1), Fraction(-3, 2)):
        columns = [build(alpha) for build in builders]
        assert all(_stored_form(col) for cols in columns for col in cols)
        assert _typed_columns(nabla_general_reference_matrix(alpha, 1, window)) == \
            _typed_columns(columns[0])
        assert _typed_columns(nabla_general_reference_matrix(alpha, 2, window)) == \
            _typed_columns(columns[1])


def test_assemble_matrix_shape_example():
    mod = module_m(0, 1)
    window = Window(3, 0)
    a = assemble_matrix(1, mod, window)
    assert a.ncols == 4  # chains [0..3]
    assert a.nrows == len(enumerate_chains(2, 3)) == 6
    a0 = assemble_matrix(0, mod, window)
    assert a0.ncols == 1  # constants


def test_cohomology_dim_reports():
    rep = cohomology_dim(1, module_m(0, 1), Window(12, 3))
    assert rep["dim_H"] == 1 and rep["stable"]
    assert rep["dim_ker_proj"] == 1 and rep["dim_im_proj"] == 0
    rep = cohomology_dim(1, module_m(1, 1), Window(12, 3))
    assert rep["dim_H"] == 0 and rep["stable"]
    rep = cohomology_dim(2, module_m(0, 1), Window(10, 3))
    assert rep["dim_H"] == 0 and rep["stable"]


def test_kernel_structure_alpha_zero():
    # window kernel of ∇¹ projected inward is spanned by the delta at [0]
    mod = module_m(0, 1)
    window = Window(10, 3)
    a1 = assemble_matrix(1, mod, window)
    kernel = a1.nullspace()
    inner = []
    for vec in kernel:
        restricted = {j: v for j, v in vec.items()
                      if sum(a1.col_labels[j][0]) <= window.inner}
        if restricted:
            inner.append(restricted)
    assert len(inner) == 1
    only = inner[0]
    idx0 = a1.col_labels.index(((0,), 0))
    assert set(only) == {idx0}


def test_verify_theorem_constructions():
    assert verify_theorem_constructions(module_m(1, 1), 2, Window(10, 3))[0]
    assert verify_theorem_constructions(module_m(0, 1), 2, Window(10, 3))[0]
    assert verify_theorem_constructions(module_m(0, 1), 3, Window(9, 3))[0]
    with pytest.raises(ValueError):
        verify_theorem_constructions(make_module("trivial"), 2, Window(8, 3))
    with pytest.raises(ValueError):
        verify_theorem_constructions(module_m(0, 1), 1, Window(8, 3))


@pytest.mark.parametrize("alpha", [1, Fraction(-3, 2)])
def test_constructions_read_alpha_off_the_matrices(alpha):
    # a module built from its matrices gets the verdict of the spec it equals,
    # with α read as a Fraction even when C holds an int
    built = _matrix_module(((1,),), ((1,),), ((alpha,),))
    spec = verify_theorem_constructions(f"M(alpha={alpha},delta=1)", 3, Window(9))
    assert verify_theorem_constructions(built, 3, Window(9)) == spec
    for other in ("M(alpha=1,delta=0)", "trivial", "ext(alpha=1,beta=1,gamma=0)"):
        with pytest.raises(ValueError, match=r"apply to the rank-1 modules M\(alpha,1\)"):
            verify_theorem_constructions(other, 3, Window(9))


# kernel vectors that are no cocycles, so every construction path must report;
# keyed by position among the degree-n chains in (sum, lex) order at W = 8
_NON_COCYCLES = [{0: 1}, {3: 2}, {7: Fraction(-1, 3), 12: 5}, {20: 1}]


@pytest.mark.parametrize("alpha, n, want", [
    (0, 2, [{"chain": (1, 0), "got": ["0"], "want": ["1"]},
            {"chain": (1, 2), "got": ["0"], "want": ["2"]},
            {"chain": (2, 2), "got": ["0"], "want": ["-1/3"]}]),
    (0, 3, [{"chain": (1, 1, 1), "got": ["2"], "want": ["0"]},
            {"chain": (1, 1, 2), "got": ["2/3"], "want": ["0"]}]),
    (1, 2, [{"chain": (1, 1), "got": ["-1"], "want": ["0"]},
            {"chain": (1, 2), "got": ["0"], "want": ["2"]},
            {"chain": (2, 2), "got": ["0"], "want": ["-1/3"]}]),
    (1, 3, [{"chain": (1, 1, 1), "got": ["-2"], "want": ["0"]},
            {"chain": (2, 1, 1), "got": ["0"], "want": ["-1/3"]}]),
    (-2, 2, [{"chain": (1, 1), "got": ["1/2"], "want": ["0"]},
             {"chain": (1, 2), "got": ["0"], "want": ["2"]},
             {"chain": (2, 2), "got": ["0"], "want": ["-1/3"]}]),
    (-2, 3, [{"chain": (1, 1, 1), "got": ["-2"], "want": ["0"]},
             {"chain": (2, 1, 1), "got": ["0"], "want": ["-1/3"]}]),
])
def test_construction_failures_are_reported(monkeypatch, alpha, n, want):
    # the fourth vector sits above the inner window, so it never fails
    chains = enumerate_chains(n, 8)
    labels = coordinate_labels(n, module_m(alpha, 1), Window(8, 3))
    index = {lab: i for i, lab in enumerate(labels)}
    vectors = [{index[(chains[k], 0)]: v for k, v in vec.items()} for vec in _NON_COCYCLES]
    monkeypatch.setattr(ratmat.RationalMatrix, "nullspace",
                        lambda self: [dict(v) for v in vectors])
    assert verify_theorem_constructions(module_m(alpha, 1), n, Window(8, 3)) == (False, want)


def test_nabla_squared_zero_small():
    res = check_nabla_squared(max_degree=3, window_sum=7, module="ext(alpha=0,beta=1,gamma=1)")
    assert res["passed"]


def _column_oracle(degree, module, window):
    """∇ one column at a time: reduced_delta of each delta-function cochain."""
    symbolic = SymbolicModule(module)
    row_index = {lab: i for i, lab in
                 enumerate(coordinate_labels(degree + 1, module, window))}
    columns = []
    for chain, j in coordinate_labels(degree, module, window):
        basis_vec = tuple(1 if i == j else 0 for i in range(module.rank))
        image = reduced_delta(ScalarCochain(degree, symbolic, {chain: basis_vec}), window)
        columns.append({row_index[(x, coord)]: val
                        for x, vec in image.values.items()
                        for coord, val in enumerate(vec) if val})
    return columns


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_modules = st.one_of(
    st.builds(module_m, _rationals, st.sampled_from([0, 1])),
    st.just(module_trivial()),
    st.builds(module_ext, _rationals, _rationals, _rationals),
)


@settings(max_examples=40, deadline=None)
@given(module=_modules, degree=st.integers(0, 4), W=st.integers(3, 7), data=st.data())
def test_d_map_matches_morse_route_oracle(module, degree, W, data):
    # the decrement rule against D's terms read off ∂ₙ∘gₙ, chain by chain
    module = SymbolicModule(module)
    window = Window(W, 0)
    chains = enumerate_chains(degree, W)
    # nonzero values on every chain, with ∂-powers up to 3
    polys = st.dictionaries(st.integers(0, 3), _rationals.filter(bool), min_size=1,
                            max_size=3).map(
        lambda terms: sum((Poly.const(c) * D ** k for k, c in terms.items()), Poly.zero()))
    size = len(chains) * module.rank
    coords = data.draw(st.lists(polys, min_size=size, max_size=size))
    phi = Cochain(degree, module, {
        c: module.element(*coords[k * module.rank:(k + 1) * module.rank])
        for k, c in enumerate(chains)})
    assert d_map(phi, window) == _morse_route_d_map(phi, window)


@settings(max_examples=40, deadline=None)
@given(module=_modules, degree=st.integers(1, 4), W=st.integers(3, 7), data=st.data())
def test_d_map_on_sparse_support_matches_morse_route_oracle(module, degree, W, data):
    # d_map visits φ's chains and their increments only; values on a few
    # chains, some of them one sum above the window, which D must ignore
    module = SymbolicModule(module)
    chains = enumerate_chains(degree, W + 1)
    support = data.draw(st.lists(st.sampled_from(chains), min_size=1, max_size=4,
                                 unique=True))
    phi = Cochain(degree, module, {
        c: module.element(*[Poly.const(data.draw(_rationals.filter(bool))) * D ** k
                            for k in range(module.rank)])
        for c in support})
    window = Window(W, 0)
    assert d_map(phi, window) == _morse_route_d_map(phi, window)


def _h0(vec, labels, index, degree, flipped=None):
    """(h₀s)[t] = (−1)ⁿ⁺¹ s[t+(0,)] for a degree-n cochain s given as
    {position: value} over ``labels``; t+(0,) is a chain exactly when t = ()
    or t[−1] ≥ 1.  The sign is flipped at the chain ``flipped``."""
    sign = (-1) ** (degree + 1)
    out = {}
    for i, v in vec.items():
        x, j = labels[i]
        if x[-1] == 0:
            k = index[(x[:-1], j)]
            out[k] = out.get(k, 0) + (-sign if x[:-1] == flipped else sign) * v
    return out


def _h0_failures(alpha, delta, n, W, flipped=None):
    """Columns y of ∇ⁿ with sum ≤ W−1 where ∇ⁿ⁻¹h₀ + h₀∇ⁿ ≠ α·id on M(α,Δ)."""
    module, window = module_m(alpha, delta), Window(W, 0)
    a_n, a_prev = assemble_matrix(n, module, window), assemble_matrix(n - 1, module, window)
    index_prev, index_n = ({lab: i for i, lab in enumerate(a.col_labels)} for a in (a_prev, a_n))
    failures = []
    for j, (y, _) in enumerate(a_n.col_labels):
        if sum(y) > W - 1:
            continue
        got = a_prev.matvec(_h0({j: 1}, a_n.col_labels, index_prev, n, flipped))
        for i, v in _h0(a_n.columns[j], a_n.row_labels, index_n, n + 1, flipped).items():
            got[i] = got.get(i, 0) + v
        if {i: v for i, v in got.items() if v} != ({j: alpha} if alpha else {}):
            failures.append(y)
    return failures


@settings(max_examples=30, deadline=None)
@given(alpha=_rationals, delta=st.sampled_from([0, 1]), n=st.integers(1, 5),
       W=st.integers(1, 9))
def test_h0_is_a_homotopy_from_alpha_to_zero(alpha, delta, n, W):
    # the Finding's h₀: ∇ⁿ⁻¹h₀ + h₀∇ⁿ = α·id on M(α,Δ), column by column
    assert _h0_failures(alpha, delta, n, W) == []


@pytest.mark.parametrize("alpha", [0, 1, Fraction(-3, 2)])
def test_h0_with_one_sign_flipped_is_not_a_homotopy(alpha):
    # mutation: h₀ with its sign flipped on the one chain (1,) of degree 1
    assert _h0_failures(alpha, 1, 2, 6) == []
    assert _h0_failures(alpha, 1, 2, 6, flipped=(1,)) != []


_lambda_elements = st.dictionaries(
    st.one_of(st.just(UNIT), st.tuples(st.integers(0, 2), st.integers(0, 5))),
    _rationals.filter(bool), min_size=1, max_size=3).map(AlgebraElement)
_d_polys = st.dictionaries(st.integers(0, 3).map(lambda e: (e, 0, 0, 0)), _rationals,
                           max_size=4).map(Poly)


@settings(max_examples=60, deadline=None)
@given(module=_modules, x=_lambda_elements, data=st.data())
def test_action_memo_matches_a_fresh_action(module, x, data):
    # Δ hands ``_act`` δ's raw terms; the memo is keyed by their frozen items
    symbolic = SymbolicModule(module)
    m = ModuleElement(tuple(data.draw(_d_polys) for _ in range(module.rank)))
    want = symbolic.act_algebra(x, m)
    key = (frozenset(x.terms.items()), m)
    assert _act(symbolic, x.terms, m) == want
    assert symbolic.action_memo[key] == want
    assert _act(symbolic, dict(x.terms), m) == want  # read back from the memo
    # a second symbolic module over the same module starts with its own empty memo
    twin = SymbolicModule(make_module(module.spec))
    assert twin is not symbolic and not twin.action_memo
    symbolic.action_memo[key] = want + symbolic.element(*([1] * module.rank))
    assert _act(symbolic, x.terms, m) != want
    assert _act(twin, x.terms, m) == want
    assert len(twin.action_memo) == 1
    del symbolic.action_memo[key]
    # Δ fills its module's δ memo with _closed_delta_terms, in its key order
    window = Window(4, 0)
    phi = Cochain(1, symbolic, {(1,): symbolic.basis()[0]})
    image = hochschild_delta(phi, window)
    assert list(symbolic.delta_memo) == enumerate_chains(2, window.W)
    for chain, delta in symbolic.delta_memo.items():
        want_delta = anick._closed_delta_terms(chain)
        assert [(y, list(terms.items())) for y, terms in delta.items()] \
            == [(y, list(terms.items())) for y, terms in want_delta.items()], chain
    assert list(symbolic.coface_memo) == [(2, window.W)]
    assert not twin.delta_memo and not twin.coface_memo
    # [1] is no target of δ[2|2], so a memo entry that maps [2|2] to 1·[1]
    # changes Δ there, on its own module only; the coface index is read off
    # the δ memo once, so the entry goes in before the twin's first Δ
    assert (1,) not in symbolic.delta_memo[(2, 2)] and (2, 2) not in image.values
    twin.delta_memo[(2, 2)] = {(1,): {UNIT: 1}}
    twin_phi = Cochain(1, twin, {(1,): twin.basis()[0]})
    assert hochschild_delta(twin_phi, window).values[(2, 2)] == twin_phi.value((1,))
    assert hochschild_delta(phi, window).values == image.values
    # the module itself keeps no memo: it holds no dict at all
    assert [name for name, v in vars(twin.module).items() if isinstance(v, dict)] == []


def _dense_hochschild_delta(phi, window):
    """Δⁿφ read at every chain of degree n+1 with sum ≤ W, with no memo: the
    reference for the coface walk of ``hochschild_delta``."""
    module = phi.module
    out = {}
    for x in enumerate_chains(phi.degree + 1, window.W):
        acc = module.zero()
        for y, terms in anick._closed_delta_terms(x).items():
            val = phi.values.get(y)
            if val is not None:
                acc = acc + module.act_algebra(AlgebraElement(terms), val)
        if not acc.is_zero():
            out[x] = acc
    return Cochain(phi.degree + 1, module, out)


@settings(max_examples=60, deadline=None)
@given(module=_modules, degree=st.integers(0, 3), W=st.integers(0, 7), data=st.data())
def test_delta_by_cofaces_matches_the_dense_loop(module, degree, W, data):
    # values on 1–4 chains, some of them above the window, and two
    # cochains through one module, the second reading the stored index
    module = SymbolicModule(module)
    chains = enumerate_chains(degree, W + 2)
    window = Window(W, 0)
    for _ in range(2):
        support = data.draw(st.lists(st.sampled_from(chains), min_size=1, max_size=4,
                                     unique=True))
        phi = Cochain(degree, module, {
            c: module.element(*[Poly.const(data.draw(_rationals.filter(bool))) * D ** k
                                for k in range(module.rank)])
            for c in support})
        got, want = hochschild_delta(phi, window), _dense_hochschild_delta(phi, window)
        assert list(got.values.items()) == list(want.values.items())


def test_assembly_builds_no_algebra_element(monkeypatch):
    # the pass reads δ's coefficients of 1, v(0) and v(1) straight from the
    # raw terms and never acts with a coefficient, so it wraps none
    from confweyl.anick import clear_caches

    degree, window = 2, Window(7, 0)
    module = make_module("ext(alpha=0,beta=1,gamma=1)")  # rank 2
    # an AlgebraElement is made by its constructor or, with no copy, by
    # coeffalg._element, which anick (and any other module) binds by name
    made = []
    element, init = coeffalg._element, AlgebraElement.__init__

    def counting_element(terms):
        made.append(terms)
        return element(terms)

    def counting_init(self, terms=None):
        made.append(terms)
        init(self, terms)

    # the operators, and every δ their build reads, come from this assembly
    clear_caches()
    nabla_operators.cache_clear()
    for name, mod in list(sys.modules.items()):
        if name.startswith("confweyl") and getattr(mod, "_element", None) is element:
            monkeypatch.setattr(mod, "_element", counting_element)
    monkeypatch.setattr(AlgebraElement, "__init__", counting_init)
    matrix = assemble_matrix(degree, module, window)
    monkeypatch.undo()
    assert made == []
    assert matrix.columns == _column_oracle(degree, module, window)


def _matrix_module(E, B, C):
    """A validated module straight from its matrices E, B, C."""
    module = FiniteModule(E, B, C, f"E={E},B={B},C={C}")
    _validate(module)
    return module


# ∂-coefficients E ∉ {0, I}, which no module spec reaches: they exercise
# the T·E part of assembly
_matrix_modules = st.one_of(
    st.just(_matrix_module(((1, 1), (0, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0)))),
    _rationals.map(lambda c: _matrix_module(((1, 0), (0, 0)), ((1, 0), (0, 0)),
                                            ((c, 0), (0, 0)))),
)


_V0, _V1 = (0, 0), (0, 1)  # the words v(0) and v(1)


def _oracle_assemble(degree, module, window):
    """∇ by the one-pass assembly that read δ of every row and of each of
    its decrements afresh and computed S, T, L, Q per module."""
    module = make_module(module)
    rank, E, B, C = module.rank, module.E, module.B, module.C
    col_labels = coordinate_labels(degree, module, window)
    row_labels = coordinate_labels(degree + 1, module, window)
    first_col = {chain: k for k, (chain, j) in enumerate(col_labels) if j == 0}
    first_row = {chain: k for k, (chain, j) in enumerate(row_labels) if j == 0}
    columns = [{} for _ in col_labels]
    for x in enumerate_chains(degree + 1, window.W):
        weights = {y: [terms.get(UNIT, 0), 0, terms.get(_V1, 0), terms.get(_V0, 0)]
                   for y, terms in anick._closed_delta_terms(x).items()}  # y -> [S, T, L, Q]
        for _, i, dec in _decrements(x):
            for y, terms in anick._closed_delta_terms(dec).items():
                q = terms.get(_V0)
                if q:
                    weights.setdefault(y, [0, 0, 0, 0])[1] -= i * q
        base = first_row[x]
        for y, (s, t, l, q) in weights.items():
            for j in range(rank):
                column = columns[first_col[y] + j]
                for i in range(rank):
                    entry = t * E[i][j] + l * B[i][j] + q * C[i][j]
                    if i == j:
                        entry += s
                    if entry:
                        column[base + i] = coeffalg._exact(entry)
    return RationalMatrix(len(row_labels), len(col_labels), columns, row_labels, col_labels)


_I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# rank 3 with E = I and B ∈ {0, I}: B commutes with every C, so any C is valid
_rank3_modules = st.builds(
    lambda B, C: _matrix_module(_I3, B, C),
    st.sampled_from([((0, 0, 0),) * 3, _I3]),
    st.tuples(*[st.tuples(_rationals, _rationals, _rationals)] * 3))


def _matrix_key(matrix):
    return (matrix.nrows, matrix.ncols, matrix.row_labels, matrix.col_labels,
            _typed_columns(matrix.columns))


def _operators_cached_are(keys):
    """Whether the operator cache holds exactly ``keys``, each built once:
    its misses and size are len(keys), and reading every key again is a hit
    that builds nothing."""
    info = nabla_operators.cache_info()
    if info.misses != len(keys) or info.currsize != len(keys):
        return False
    for key in keys:
        nabla_operators(*key)
    after = nabla_operators.cache_info()
    return after.misses == info.misses and after.hits == info.hits + len(keys)


@settings(max_examples=40, deadline=None)
@given(grid=st.lists(st.tuples(st.integers(0, 4), st.integers(3, 7)), min_size=1, max_size=2),
       data=st.data())
def test_shared_operators_assemble_what_the_oracle_does(grid, data):
    # modules assembled in turn at one or two (degree, W) share one operator
    # build each, and every ∇ equals the per-module oracle and a cold
    # assembly: values, key order and stored-form types
    modules = st.one_of(_modules, _matrix_modules, _rank3_modules)
    jobs = data.draw(st.lists(st.tuples(modules, st.sampled_from(grid)), min_size=1,
                              max_size=4))
    anick.clear_caches()
    nabla_operators.cache_clear()
    got = [assemble_matrix(degree, module, Window(W, 0)) for module, (degree, W) in jobs]
    met = {key for _, key in jobs}
    assert _operators_cached_are(met)
    for (module, (degree, W)), matrix in zip(jobs, got):
        anick.clear_caches()
        nabla_operators.cache_clear()
        cold = assemble_matrix(degree, module, Window(W, 0))
        want = _oracle_assemble(degree, module, Window(W, 0))
        assert _matrix_key(matrix) == _matrix_key(want) == _matrix_key(cold)


@pytest.mark.parametrize("degree, max_sum", [(0, 5), (1, 6), (3, 7), (5, 9)])
def test_nabla_operators_are_compact_and_leave_the_delta_table_alone(degree, max_sum):
    # per column: increasing rows, each with an index into a palette of
    # distinct nonzero (S, T, L, Q); the build's δ table is its own, so the
    # one process-wide table it fills is the operator cache
    anick.clear_caches()
    nabla_operators.cache_clear()
    try:
        palette, columns = nabla_operators(degree, max_sum)
        assert not anick._f_memo
        assert nabla_operators(degree, max_sum)[1] is columns
        assert _operators_cached_are({(degree, max_sum)})
        assert len(columns) == len(enumerate_chains(degree, max_sum))
        nrows = len(enumerate_chains(degree + 1, max_sum))
        assert len(set(palette)) == len(palette) and all(any(w) for w in palette)
        used = set()
        for rows, entries in columns:
            assert rows.typecode == entries.typecode == "I" and len(rows) == len(entries)
            assert list(rows) == sorted(set(rows)) and all(r < nrows for r in rows)
            used.update(entries)
        assert used == set(range(len(palette)))
    finally:
        anick.clear_caches()
        nabla_operators.cache_clear()


@settings(max_examples=40, deadline=None)
@given(module=st.one_of(_modules, _matrix_modules), degree=st.integers(0, 4),
       W=st.integers(3, 7))
def test_assemble_matrix_matches_column_oracle(module, degree, W):
    window = Window(W, 0)
    got = assemble_matrix(degree, module, window).columns
    want = _column_oracle(degree, module, window)
    assert got == want
    # same entry order within each column, so elimination sees identical rows
    assert [list(col) for col in got] == [list(col) for col in want]
    # and the same value type: both keep the stored form, an int where integral
    assert [[type(v) for v in col.values()] for col in got] == \
        [[type(v) for v in col.values()] for col in want]


@settings(max_examples=40, deadline=None)
@given(module=st.one_of(_modules, _matrix_modules), degree=st.integers(0, 4),
       W=st.integers(3, 7), smaller=st.integers(0, 6))
def test_restriction_equals_smaller_window(module, degree, W, smaller):
    # the sum ≤ W′ corner of ∇ at W is ∇ assembled at W′: labels run by
    # decreasing sum, so the corner is a suffix of the rows and columns,
    # and no row of sum ≤ W′ has an entry in a column of sum > W′, which is
    # what lets the report read W-1 midway through one elimination
    W_small = min(smaller, W - 1)
    whole = assemble_matrix(degree, module, Window(W, 0))
    want = assemble_matrix(degree, module, Window(W_small, 0))
    nrows = sum(1 for chain, _ in whole.row_labels if sum(chain) <= W_small)
    ncols = sum(1 for chain, _ in whole.col_labels if sum(chain) <= W_small)
    assert (nrows, ncols) == (want.nrows, want.ncols)
    top, left = whole.nrows - nrows, whole.ncols - ncols  # the rows, columns of sum > W′
    assert whole.row_labels[top:] == want.row_labels
    assert whole.col_labels[left:] == want.col_labels
    assert [{i - top: v for i, v in col.items() if i >= top} for col in whole.columns[left:]] \
        == want.columns
    assert all(i < top for col in whole.columns[:left] for i in col)


@settings(max_examples=40, deadline=None)
@given(module=st.one_of(_modules, _matrix_modules, _rank3_modules), degree=st.integers(0, 4),
       W=st.integers(0, 6))
def test_coordinates_run_by_decreasing_sum(module, degree, W):
    # ∇'s one order is (decreasing sum, lex, coordinate): the (sum, lex,
    # coordinate) labels sorted stably by decreasing sum
    by_sum = [(chain, j) for chain in enumerate_chains(degree, W) for j in range(module.rank)]
    assert coordinate_labels(degree, module, Window(W, 0)) \
        == sorted(by_sum, key=lambda label: -sum(label[0]))


@pytest.mark.parametrize("degree, spec, W, entries", [
    (4, "M(alpha=1,delta=1)", 9, (923, 2279)),
    (3, "ext(alpha=1/2,beta=2,gamma=3)", 8, (640, 1200)),
])
def test_coordinate_order_keeps_the_kernel_sparse(degree, spec, W, entries):
    # a fill guard by count: the entries of ∇'s kernel, then of the kernel
    # of the same matrix with its columns in (sum, lex, coordinate) order,
    # mapped back (2.5× and 1.9× as many); both span one space
    a = assemble_matrix(degree, spec, Window(W))
    order = sorted(range(a.ncols), key=lambda j: (sum(a.col_labels[j][0]), j))
    permuted = RationalMatrix(a.nrows, a.ncols, [a.columns[j] for j in order])
    kernel = a.nullspace()
    mapped = [{order[p]: v for p, v in vec.items()} for vec in permuted.nullspace()]
    assert (sum(map(len, kernel)), sum(map(len, mapped))) == entries
    assert rank_of_vectors(kernel + mapped) == len(kernel) == len(mapped)


# 2×2 integer matrices of determinant ±1, so each has an integer inverse
_UNIMODULAR = (((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)),
               ((1, 2), (1, 1)), ((1, 0), (-3, 1)))


def _conjugate(S, X):
    """SXS⁻¹ for a 2×2 S of determinant ±1 (1/det = det)."""
    (a, b), (c, d) = S
    det = a * d - b * c
    inverse = ((d * det, -b * det), (-c * det, a * det))
    return _matmul(_matmul(S, X), inverse)


def _conjugated(module, S):
    """The module (SES⁻¹, SBS⁻¹, SCS⁻¹)."""
    return _matrix_module(*(_conjugate(S, X) for X in (module.E, module.B, module.C)))


@settings(max_examples=20, deadline=None)
@given(params=st.tuples(_rationals, _rationals, _rationals), S=st.sampled_from(_UNIMODULAR),
       degree=st.integers(1, 3), W=st.integers(3, 7), margin=st.integers(0, 3))
def test_report_is_invariant_under_conjugation(params, S, degree, W, margin):
    # ∇ of (SES⁻¹, SBS⁻¹, SCS⁻¹) is ∇ of (E, B, C) conjugated by I ⊗ S, which
    # commutes with the projection onto the inner window, so every projected
    # dimension matches
    window = Window(W, min(margin, W - 1))
    module = module_ext(*params)
    conjugated = _conjugated(module, S)
    want = cohomology_dim(degree, module, window)
    got = cohomology_dim(degree, conjugated, window)
    assert got.pop("module") == conjugated.spec and want.pop("module") == module.spec
    assert got == want


def _oracle_projected_dims(module, n, window):
    """(dim proj(ker ∇ⁿ), dim proj(im ∇ⁿ⁻¹)) on the inner window, from a kernel
    basis: ``nullspace``, projected, then ``rank_of_vectors``."""
    a_n, a_prev = assemble_matrix(n, module, window), assemble_matrix(n - 1, module, window)
    col_keep = [sum(chain) <= window.inner for chain, _ in a_n.col_labels]
    row_keep = [sum(chain) <= window.inner for chain, _ in a_prev.row_labels]
    return (rank_of_vectors(a_n.nullspace(), lambda j: col_keep[j]),
            a_prev.rank(lambda i: row_keep[i]))


_conjugated_modules = st.builds(lambda params, S: _conjugated(module_ext(*params), S),
                                st.tuples(_rationals, _rationals, _rationals),
                                st.sampled_from(_UNIMODULAR))


@settings(max_examples=60, deadline=None)
@given(module=st.one_of(_modules, _matrix_modules, _conjugated_modules),
       degree=st.integers(1, 4), W=st.integers(1, 8), margin=st.integers(0, 3))
@example(module=module_ext(0, 1, 1), degree=3, W=3, margin=0)  # not stable
def test_report_matches_the_kernel_basis_oracle(module, degree, W, margin):
    # the four numbers read off one elimination per matrix, against a kernel
    # basis at W and a second assembly at W-1
    window = Window(W, min(margin, W - 1))
    at_w = _oracle_projected_dims(module, degree, window)
    below = _oracle_projected_dims(module, degree, window.shrink())
    assert window_dims(degree, module, window) == (at_w, below)
    rep = cohomology_dim(degree, module, window)
    assert (rep["dim_ker_proj"], rep["dim_im_proj"], rep["dim_H"]) \
        == (*at_w, at_w[0] - at_w[1])
    assert rep["stable"] == (below[0] - below[1] == at_w[0] - at_w[1])


def test_each_caller_assembles_the_matrices_it_reads_once(monkeypatch):
    # (degree, W) of every assembly, whichever module imported the function
    calls = []
    assemble = cohomology.assemble_matrix

    def counting(degree, module, window):
        calls.append((degree, window.W))
        return assemble(degree, module, window)

    for caller in (cohomology, checks):
        monkeypatch.setattr(caller, "assemble_matrix", counting)
    # the W-1 numbers are read off the matrices at W: nothing is assembled at W-1
    rep = cohomology_dim(3, module_m(0, 1), Window(9, 3))
    assert rep["dim_H"] == 0 and rep["stable"]
    assert sorted(calls) == [(2, 9), (3, 9)]
    calls.clear()
    assert verify_theorem_constructions(module_m(0, 1), 3, Window(9, 3)) == (True, [])
    assert sorted(calls) == [(2, 9), (3, 9)]
    calls.clear()
    assert check_nabla_squared(max_degree=3, window_sum=6)["passed"]
    assert calls == [(d, 6) for d in range(5)]


@pytest.mark.parametrize("criterion, builds", [
    pytest.param(verify.criterion_8, 5, id="criterion_8"),
    pytest.param(verify.criterion_9, 3, id="criterion_9"),
])
def test_criteria_build_each_operator_once(criterion, builds):
    # the modules of a criterion and its report and constructions share the
    # operators of every (degree, W): criterion 8 reads ∇¹…∇³ at W = 10 and
    # ∇³, ∇⁴ at W = 9, criterion 9 ∇¹…∇³ at W = 10
    anick.clear_caches()
    nabla_operators.cache_clear()
    assert criterion()["passed"]
    info = nabla_operators.cache_info()  # a key is missed once: misses are distinct builds
    assert info.misses == info.currsize == builds


@settings(max_examples=40, deadline=None)
@given(module=_modules, degree=st.integers(0, 4), W=st.integers(3, 7),
       alpha=st.sampled_from([0, 1, Fraction(-3, 2)]))
def test_nabla_and_kernel_entries_keep_the_stored_form(module, degree, W, alpha):
    # ∇ entries and kernel vectors are ints where integral: never Fraction(n, 1)
    window = Window(W, 0)
    assembled = assemble_matrix(degree, module, window)
    columns = nabla_general_reference_matrix(alpha, degree, window)
    reference = RationalMatrix(len(enumerate_chains(degree + 1, W)), len(columns), columns)
    for a in (assembled, reference):
        assert all(_stored_form(col) for col in a.columns)
        assert all(_stored_form(vec) for vec in a.nullspace())


@settings(max_examples=40, deadline=None)
@given(module=st.one_of(_modules, _matrix_modules), degree=st.integers(0, 4),
       W=st.integers(3, 7), rng=st.randoms(use_true_random=False))
def test_elimination_does_not_depend_on_row_order(module, degree, W, rng):
    # the RREF is unique, and the kernel's vector and key order are canonical
    a = assemble_matrix(degree, module, Window(W, 0))
    shuffled = a.rows()
    rng.shuffle(shuffled)
    assert ratmat._exact_rref([dict(row) for row in shuffled]) == ratmat._exact_rref(a.rows())

    columns = [{} for _ in range(a.ncols)]
    for i, row in enumerate(shuffled):
        for j, v in row.items():
            columns[j][i] = v
    b = RationalMatrix(a.nrows, a.ncols, columns)
    assert [list(vec.items()) for vec in b.nullspace()] \
        == [list(vec.items()) for vec in a.nullspace()]


def _fraction_route(ncols, rows):
    """RREF over Q of sparse rows by the dense Fraction oracle of the tests.

    Returns {lead: row}, each row without its lead entry, which is 1.
    """
    # the oracle divides, so its int entries become Fractions first
    dense = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    reduced, pivots = _oracle_rref(ncols, dense)
    return {p: {j: x for j, x in enumerate(row) if x and j != p}
            for row, p in zip(reduced, pivots)}


@settings(max_examples=40, deadline=None)
@given(module=_modules, degree=st.integers(1, 4), W=st.integers(4, 7))
def test_elimination_matches_dense_fraction_oracle(module, degree, W):
    # the ratmat calls of ``_oracle_projected_dims``, each against the dense oracle
    window = Window(W)
    a_n = assemble_matrix(degree, module, window)
    a_prev = assemble_matrix(degree - 1, module, window)

    rref = _fraction_route(a_n.ncols, a_n.rows())
    want = {f: {f: Fraction(1)} for f in range(a_n.ncols) if f not in rref}
    for lead, row in rref.items():
        for f, v in row.items():
            want[f][lead] = -v
    kernel = a_n.nullspace()
    assert kernel == list(want.values())

    col_keep = [sum(chain) <= window.inner for chain, _ in a_n.col_labels]
    projected = [{j: v for j, v in vec.items() if col_keep[j]} for vec in kernel]
    assert rank_of_vectors(kernel, lambda j: col_keep[j]) \
        == len(_fraction_route(a_n.ncols, projected))

    row_keep = [sum(chain) <= window.inner for chain, _ in a_prev.row_labels]
    assert a_prev.rank(lambda i: row_keep[i]) \
        == len(_fraction_route(a_prev.ncols, a_prev.rows(lambda i: row_keep[i])))
