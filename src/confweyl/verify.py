"""Acceptance criteria: one callable per criterion, plus a driver.

Each criterion function returns a dict {id, description, passed, seconds,
detail}; ``_criterion`` gives it its id, description and time budget, and
times it.  The closed differential and reduced-matrix formulas used as
oracles here are coded directly from their displayed forms, independent of
the engine paths they certify.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
import time

from .anick import anick_delta_closed, enumerate_chains
from .checks import (
    Cochain,
    SymbolicModule,
    check_chain_map,
    check_conformal_associativity,
    check_conformal_axioms,
    check_confluence,
    check_delta_squared,
    check_fdg,
    check_locality_compat,
    check_module_axioms,
    check_morse_closed,
    check_nabla_squared,
    d_map,
    oracle_twist_terms,
)
from .coeffalg import AlgebraElement, _exact, normal_form
from .cohomology import (
    Window,
    assemble_matrix,
    cohomology_dim,
    coordinate_labels,
    verify_theorem_constructions,
)
from .modules import ModuleValidationError, module_m
from .poly import D


# -- independently coded reference formulas ----------------------------------------------

def delta2_reference(n, m):
    """v(n)[m] - v(0)[n+m] - n[n+m-1]."""
    out = {(m,): AlgebraElement.letter(n)}
    _acc(out, (n + m,), AlgebraElement.letter(0).scale(-1))
    _acc(out, (n + m - 1,), AlgebraElement.scalar(-n))
    return {k: v for k, v in out.items() if not v.is_zero()}


def delta3_reference(n, m, p):
    """v(n)[m|p] - n[n+m-1|p] - v(0)[n+m|p] + v(0)[n|m+p] + n[n-1|m+p] + m[n|m+p-1]."""
    out = {}
    _acc(out, (m, p), AlgebraElement.letter(n))
    _acc(out, (n + m - 1, p), AlgebraElement.scalar(-n))
    _acc(out, (n + m, p), AlgebraElement.letter(0).scale(-1))
    _acc(out, (n, m + p), AlgebraElement.letter(0))
    if n - 1 >= 1:  # [0|m+p] is not an Anick chain
        _acc(out, (n - 1, m + p), AlgebraElement.scalar(n))
    _acc(out, (n, m + p - 1), AlgebraElement.scalar(m))
    return {k: v for k, v in out.items() if not v.is_zero()}


def twist_reference(chain):
    """D's terms by the evaluation rule (Dφ)[c] = ∂φ[c] + Σ_k i_k φ[dec_k c]:
    -i_k at every decrement dec_k c that is still a chain."""
    out = {}
    for k, i in enumerate(chain):
        _acc(out, chain[:k] + (i - 1,) + chain[k + 1:], AlgebraElement.scalar(-i))
    return out


def _acc(out, chain, coeff):
    if len(chain) >= 2 and any(i < 1 for i in chain[:-1]):
        return
    if chain and chain[-1] < 0:
        return
    prev = out.get(chain)
    s = prev + coeff if prev is not None else coeff
    if s.is_zero():
        out.pop(chain, None)
    else:
        out[chain] = s


def _reference_matrix(alpha, degree, window, row_terms):
    """∇^degree of M(α,1) as columns, summing ``row_terms(row)``, the
    (column chain, value) terms of each row chain.  Each builder passes α
    in stored form (``_exact``), so an integral α sums as ``int``s.

    s = 0 on non-chain tuples, so a term whose chain has an interior index
    below 1 or a last index below 0 is skipped, as is a zero value; an
    entry whose terms cancel is dropped.  Entries are in
    ``assemble_matrix``'s stored form, an ``int`` when integral.
    """
    mod = module_m(alpha, 1)
    col_index = {lab: j for j, lab in enumerate(coordinate_labels(degree, mod, window))}
    columns = [{} for _ in col_index]
    for i, (row, _) in enumerate(coordinate_labels(degree + 1, mod, window)):
        for chain, val in row_terms(row):
            if val == 0 or chain[-1] < 0 or (len(chain) > 1 and min(chain[:-1]) < 1):
                continue
            column = columns[col_index[(chain, 0)]]
            s = _exact(column.get(i, 0) + val)
            if s:
                column[i] = s
            else:
                del column[i]
    return columns


def nabla1_reference_matrix(alpha, window):
    """Rows [n|m]: -α at column n+m, +m at column n+m-1."""
    alpha = _exact(alpha)

    def row_terms(row):
        n, m = row
        return (((n + m,), -alpha), ((n + m - 1,), m))
    return _reference_matrix(alpha, 1, window, row_terms)


def nabla2_reference_matrix(alpha, window):
    """Rows [n|m|p]: -α@(n+m,p) +α@(n,m+p) +m@(n+m-1,p) +p@(n+m,p-1) -p@(n,m+p-1)."""
    alpha = _exact(alpha)

    def row_terms(row):
        n, m, p = row
        return (((n + m, p), -alpha), ((n, m + p), alpha), ((n + m - 1, p), m),
                ((n + m, p - 1), p), ((n, m + p - 1), -p))
    return _reference_matrix(alpha, 2, window, row_terms)


def nabla_general_reference_matrix(alpha, degree, window):
    """Corrected general reduced differential for M(α,1), any degree ≥ 1.

    (∇s)[i₁|…|iₙ] = Σⱼ (-1)^j α s_{merge_j} + Σⱼ (-1)^{j+1} i_{j+1} s_{merge_j - 1}
                    + Σⱼ Σ_{t>j+1} (-1)^{j+1} i_t s_{(merge_j, dec_t)},
    s = 0 on non-chain tuples; the n = 1, 2 instances of this formula are
    exactly the two reference matrices above.
    """
    alpha = _exact(alpha)

    def row_terms(x):
        nlen = len(x)
        for j in range(1, nlen):  # 1-based merge position
            sign = (-1) ** j
            merge = x[:j - 1] + (x[j - 1] + x[j],) + x[j + 1:]
            yield merge, sign * alpha
            yield merge[:j - 1] + (merge[j - 1] - 1,) + merge[j:], -sign * x[j]
            for t in range(j + 2, nlen + 1):  # decrement original position t
                dec = merge[:t - 2] + (merge[t - 2] - 1,) + merge[t - 1:]
                yield dec, -sign * x[t - 1]
    return _reference_matrix(alpha, degree, window, row_terms)


# -- criteria ---------------------------------------------------------------------------

def _criterion(cid, description, budget=None):
    """Make ``check``, which returns (passed, detail), criterion ``cid``: timed,
    and failed when it takes ``budget`` seconds or more, if a budget is set."""
    def make(check):
        @wraps(check)
        def criterion():
            t0 = time.perf_counter()
            passed, detail = check()
            seconds = time.perf_counter() - t0
            out = {"id": cid, "description": description, "passed": bool(passed),
                   "seconds": round(seconds, 2), "detail": detail}
            if budget is not None:
                out["budget_seconds"] = budget
                out["within_budget"] = seconds < budget
                out["passed"] = out["passed"] and seconds < budget
            return out
        criterion.id = cid
        return criterion
    return make


@_criterion(1, "GSB worked value and 1000-word confluence fuzz", 5)
def criterion_1():
    want = (AlgebraElement.word(2, 6) + AlgebraElement.word(1, 5).scale(7)
            + AlgebraElement.word(0, 4).scale(8))
    got = normal_form("v(2)v(3)v(1)")
    if got != want:
        return False, {"got": str(got)}
    res = check_confluence(count=1000)
    return res["passed"], res["details"]


@_criterion(2, "closed δ₂/δ₃ reference forms and morse = closed (sum ≤ 8)", 30)
def criterion_2():
    for n in range(1, 9):
        for m in range(0, 9 - n):
            if anick_delta_closed((n, m)) != delta2_reference(n, m):
                return False, {"chain": (n, m), "side": "closed-vs-display"}
    chains3 = enumerate_chains(3, 8)
    for chain in chains3:
        if anick_delta_closed(chain) != delta3_reference(*chain):
            return False, {"chain": chain, "side": "closed-vs-display"}
    res = check_morse_closed(max_degree=4, max_sum=8)
    return res["passed"], {"degree3_chains": len(chains3), **res["details"]}


@_criterion(3, "δ∘δ = 0 (deg ≤ 5, sum ≤ 10) and f∘d∘g = δ (deg ≤ 4, sum ≤ 8)", 60)
def criterion_3():
    res = check_delta_squared(max_degree=5, max_sum=10)
    if not res["passed"]:
        return False, res["details"]
    res2 = check_fdg(max_degree=4, max_sum=8)
    return res2["passed"], res2["details"]


# (degree, W) windows on which D's terms are held to the decrement rule
_TWIST_WINDOWS = ((1, 10), (2, 10), (3, 10), (4, 10), (5, 9))


@_criterion(4, "derivation twist D = decrement rule on every chain (deg ≤ 4 at W=10, "
               "deg 5 at W=9) and (D³ψ)[2|1|1] = ∂ψ(2,1,1) + 2ψ(1,1,1) + ψ(2,1,0)")
def criterion_4():
    # operator identity: the Morse-route terms of D at every chain equal the decrement rule
    checked = 0
    for degree, w in _TWIST_WINDOWS:
        for chain in enumerate_chains(degree, w):
            checked += 1
            if oracle_twist_terms(chain) != twist_reference(chain):
                return False, {"chain": chain, "side": "operator-vs-decrement-rule"}
    mod = SymbolicModule(module_m(7, 1))  # any weight-one module; D is module-independent here
    window = Window(8, 0)
    target = (2, 1, 1)
    # symbolic check: evaluate D³ on every delta-function cochain
    for chain in enumerate_chains(3, 8):
        for k in range(0, 3):
            phi = Cochain(3, mod, {chain: mod.element(D ** k)})
            got = d_map(phi, window).value(target)
            want = mod.zero()
            if chain == target:
                want = want + mod.element(D ** (k + 1))
            if chain == (1, 1, 1):
                want = want + mod.element(D ** k).scale(2)
            if chain == (2, 1, 0):
                want = want + mod.element(D ** k)
            if got != want:
                return False, {"chain": chain, "k": k, "got": str(got)}
    return True, {"operator_chains": checked,
                  "basis_cochains": 3 * len(enumerate_chains(3, 8))}


@_criterion(5, "locality criterion Δ ∈ {0,1} and M(α,2) rejection")
def criterion_5():
    alphas = (Fraction(0), Fraction(1), Fraction(-1, 2))
    for alpha in alphas:
        for delta in range(-2, 4):
            want = delta in (0, 1)
            if check_locality_compat(alpha, delta) != want:
                return False, {"alpha": str(alpha), "delta": delta}
    try:
        module_m(0, 2)
        return False, {"error": "M(alpha,2) was accepted"}
    except ModuleValidationError:
        pass
    return True, {"alphas": [str(a) for a in alphas], "deltas": list(range(-2, 4))}


@_criterion(6, "assembled ∇¹/∇² equal the reference closed forms (α ∈ {0,1}, W=10)")
def criterion_6():
    window = Window(10, 3)
    for alpha in (Fraction(0), Fraction(1)):
        mod = module_m(alpha, 1)
        for degree, reference in ((1, nabla1_reference_matrix), (2, nabla2_reference_matrix)):
            if assemble_matrix(degree, mod, window).columns != reference(alpha, window):
                return False, {"alpha": str(alpha), "matrix": f"nabla{degree}"}
    return True, {"W": 10}


@_criterion(7, "H¹(M(α,1)): dim 1 for α=0, dim 0 for α ∈ {1,-2,1/2} (W=12)", 240)
def criterion_7():
    window = Window(12, 3)
    cases = [(Fraction(0), 1), (Fraction(1), 0), (Fraction(-2), 0), (Fraction(1, 2), 0)]
    reports = []
    for alpha, want in cases:
        rep = cohomology_dim(1, module_m(alpha, 1), window)
        reports.append({"alpha": str(alpha), "dim_H": rep["dim_H"], "stable": rep["stable"]})
        if rep["dim_H"] != want or not rep["stable"]:
            return False, {"case": reports[-1], "want": want}
    return True, {"reports": reports}


@_criterion(8, "Hⁿ(M(α,1)) = 0 for n=2,3,4 plus explicit constructions (α ∈ {0,1})", 300)
def criterion_8():
    reports = []
    for n, window in ((2, Window(10, 3)), (3, Window(10, 3)), (4, Window(9, 3))):
        for alpha in (Fraction(0), Fraction(1)):
            module = module_m(alpha, 1)
            rep = cohomology_dim(n, module, window)
            ok, failures = verify_theorem_constructions(module, n, window)
            reports.append({"n": n, "alpha": str(alpha), "dim_H": rep["dim_H"],
                            "stable": rep["stable"], "constructions": ok})
            if rep["dim_H"] != 0 or not rep["stable"] or not ok:
                return False, {"case": reports[-1], "failures": failures[:2]}
    return True, {"reports": reports}


@_criterion(9, "Hⁿ = 0 for the M(α,0)-route instances M(0,0) and ext(0,1,1) (n=2,3)", 300)
def criterion_9():
    window = Window(10, 3)
    reports = []
    for spec in ("M(alpha=0,delta=0)", "ext(alpha=0,beta=1,gamma=1)"):
        for n in (2, 3):
            rep = cohomology_dim(n, spec, window)
            reports.append({"module": spec, "n": n, "dim_H": rep["dim_H"],
                            "stable": rep["stable"]})
            if rep["dim_H"] != 0 or not rep["stable"]:
                return False, {"case": reports[-1]}
    return True, {"reports": reports}


@_criterion(10, "property suites: conformal axioms, module axioms, D∘Δ = Δ∘D, ∇∘∇ = 0", 120)
def criterion_10():
    suites = (("conformal-axioms", check_conformal_axioms),
              ("conformal-associativity", check_conformal_associativity),
              ("module-axioms", check_module_axioms),
              ("chain-map", lambda: check_chain_map(max_degree=3, window_sum=8)),
              ("nabla-squared", lambda: check_nabla_squared(max_degree=4, window_sum=9)))
    for name, suite in suites:
        res = suite()
        if not res["passed"]:
            return False, {"suite": name, **res["details"]}
    return True, {"suites": [name for name, _ in suites]}


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(ids=None):
    valid = {fn.id for fn in CRITERIA}
    unknown = sorted(set(ids or ()) - valid)
    if unknown:
        raise ValueError(f"unknown criterion ids {unknown}; "
                         f"valid ids are {min(valid)}-{max(valid)}")
    results = [fn() for fn in CRITERIA if not ids or fn.id in ids]
    return {"passed": all(r["passed"] for r in results), "criteria": results}
