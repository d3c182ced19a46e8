"""The three confweyl benchmark workloads: operations, sizes and expected answers.

Planning is pure data and imports nothing from confweyl, so the parent
process can count operations without loading the engine.  Setting up and
running operations imports confweyl lazily, inside the child process whose
set-up time is being measured.

Every expected answer is an exact result: a dimension, a stability flag,
a chain count (degree-n chains with index sum <= W number C(W+1, n)), a
construction verdict or a suite verdict.  dim_H is the paper's value; the
projected kernel and image dimensions behind it are pinned to what the
engine computes at the commit that defined this benchmark, and any exact
method must reproduce them.  A wrong answer, an exception or a nonzero CLI
exit is a failed operation; nothing is skipped or retried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
import json
import random

NAMES = ("cohomology", "elimination", "resolution")
ORDERS = 3  # distinct seeded operation orders per seed

# -- sizes ---------------------------------------------------------------------------
#
# FULL sizes keep each workload's mix and layer shares at 6-10 s per pass, so
# that each sample averages over the host's speed swings; SMOKE sizes run the
# same code paths in well under a second.

_COHOMOLOGY = {
    # (degree, module spec, W, dim_ker_proj, dim_im_proj); dim_H is their
    # difference and every report expects stable
    "full": (
        (1, "M(alpha=0,delta=1)", 12, 1, 0),
        (2, "M(alpha=1/2,delta=1)", 9, 6, 6),
        (3, "ext(alpha=0,beta=1,gamma=1)", 9, 26, 26),
        (4, "M(alpha=1,delta=1)", 9, 20, 20),
        (3, "M(alpha=0,delta=0)", 9, 11, 11),
        (3, "M(alpha=0,delta=1)", 9, 11, 11),
    ),
    "smoke": (
        (1, "M(alpha=0,delta=1)", 6, 1, 0),
        (2, "M(alpha=1/2,delta=1)", 5, 2, 2),
        (3, "ext(alpha=0,beta=1,gamma=1)", 5, 2, 2),
        (4, "M(alpha=1,delta=1)", 5, 0, 0),
        (3, "M(alpha=0,delta=0)", 5, 0, 0),
        (3, "M(alpha=0,delta=1)", 5, 1, 1),
    ),
}
# verify_theorem_constructions runs right after the report on these arguments
_CONSTRUCTION = (3, "M(alpha=0,delta=1)")

_ELIMINATION = {
    # (alpha, degree, W, dim_ker_proj, dim_im_proj); every case expects
    # dim_H = 0, stable
    "full": ((1, 4, 11, 56, 56), (0, 4, 12, 62, 62), (1, 5, 10, 35, 35)),
    "smoke": ((1, 4, 6, 1, 1), (0, 4, 6, 0, 0), (1, 5, 6, 0, 0)),
}
# closed-form ∇ against assemble_matrix, once per alpha, in every set-up
_CROSS_CHECK = {"full": (3, 6), "smoke": (3, 4)}  # (degree, W)

_RESOLUTION = {
    "full": (
        ("chain-map", {"max_degree": 3, "window_sum": 5}),
        ("fdg", {"max_degree": 5, "max_sum": 10}),
        ("morse-closed", {"max_degree": 5, "max_sum": 10}),
        ("delta-squared", {"max_degree": 5, "max_sum": 10}),
        ("reduction-soundness", {"window_sum": 7, "trials": 25}),
    ),
    "smoke": (
        ("chain-map", {"max_degree": 2, "window_sum": 3}),
        ("fdg", {"max_degree": 3, "max_sum": 4}),
        ("morse-closed", {"max_degree": 3, "max_sum": 4}),
        ("delta-squared", {"max_degree": 3, "max_sum": 4}),
        ("reduction-soundness", {"window_sum": 4, "trials": 3}),
    ),
}
_SUITE_MODULE = "M(alpha=1,delta=1)"  # default module of chain-map and reduction-soundness


@dataclass
class Op:
    """One operation of a pass: what to run, what it must return, its work units."""

    kind: str
    label: str
    args: dict
    expected: dict
    units: int
    group: int = 0


@dataclass
class Plan:
    workload: str
    size: str
    seed: int
    ops: list = field(default_factory=list)

    @property
    def units(self):
        return sum(op.units for op in self.ops)


def _chain_count(degree, W):
    return 1 if degree == 0 else comb(W + 1, degree)


def plan(workload, seed, size="full", order=0):
    """The seeded operation list of one pass.

    The seed permutes the operation order and draws the inputs of the seeded
    suites; it never picks a module, a degree or a window.  Each seed gives
    ``ORDERS`` such passes, numbered by ``order``; a run cycles through them
    so that its medians do not hang on one order's cache reuse.
    """
    rng = random.Random(f"{workload}:{seed}:{order % ORDERS}")
    ops = []
    if workload == "cohomology":
        for group, (n, spec, W, ker, im) in enumerate(_COHOMOLOGY[size]):
            counts = {str(d): _chain_count(d, W) for d in range(1, n + 2)}
            rank = 2 if spec.startswith("ext") else 1
            units = rank * sum(_chain_count(d, W) for d in (n - 1, n, n + 1))
            ops.append(Op("report", f"H{n}({spec})@W{W}",
                          {"degree": n, "module": spec, "W": W},
                          {"dim_H": ker - im, "stable": True, "chain_counts": counts,
                           "dim_ker_proj": ker, "dim_im_proj": im},
                          units, group))
            if (n, spec) == _CONSTRUCTION:
                ops.append(Op("constructions", f"constructions({spec},{n})@W{W}",
                              {"degree": n, "module": spec, "W": W},
                              {"ok": True}, units, group))
    elif workload == "elimination":
        for group, (alpha, n, W, ker, im) in enumerate(_ELIMINATION[size]):
            units = sum(_chain_count(d, w) for d in (n - 1, n) for w in (W, W - 1))
            ops.append(Op("elimination", f"nabla{n}(M({alpha},1))@W{W}",
                          {"alpha": alpha, "degree": n, "W": W},
                          {"dim_H": ker - im, "stable": True,
                           "dim_ker_proj": ker, "dim_im_proj": im}, units, group))
    elif workload == "resolution":
        for group, (suite, kwargs) in enumerate(_RESOLUTION[size]):
            kwargs = dict(kwargs)
            if suite == "reduction-soundness":
                kwargs["seed"] = rng.randrange(1, 2**31)
            ops.append(Op("suite", suite, kwargs, {"passed": True},
                          _suite_units(suite, kwargs), group))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    groups = sorted({op.group for op in ops})
    rng.shuffle(groups)
    rank = {g: i for i, g in enumerate(groups)}
    ops.sort(key=lambda op: rank[op.group])  # stable: a report keeps its construction after it
    return Plan(workload, size, seed, ops)


def _suite_units(suite, kwargs):
    """Chains (or trials) a suite checks."""
    if suite == "chain-map":
        W = kwargs["window_sum"]
        return 4 * sum(_chain_count(d, W) for d in range(0, kwargs["max_degree"] + 1))
    if suite in ("fdg", "morse-closed"):
        return sum(_chain_count(d, kwargs["max_sum"]) for d in range(1, kwargs["max_degree"] + 1))
    if suite == "delta-squared":
        return sum(_chain_count(d, kwargs["max_sum"]) for d in range(2, kwargs["max_degree"] + 1))
    return kwargs["trials"]


# -- set-up ---------------------------------------------------------------------------

def setup(p, workdir):
    """Build what the timed phase needs; returns per-op inputs keyed by op index.

    Raises ``SetupError`` when a set-up cross-check fails.
    """
    from confweyl.modules import make_module

    inputs = {}
    if p.workload == "cohomology":
        for i, op in enumerate(p.ops):
            make_module(op.args["module"])
            inputs[i] = workdir / f"op{i}.json"
    elif p.workload == "elimination":
        inputs = _setup_elimination(p)
    else:
        make_module(_SUITE_MODULE)
    return inputs


class SetupError(RuntimeError):
    """A set-up cross-check disagreed; the pass's inputs are not trusted."""


def _setup_elimination(p):
    from confweyl.cohomology import Window, assemble_matrix, coordinate_labels
    from confweyl.modules import module_m
    from confweyl.ratmat import RationalMatrix
    from confweyl.verify import nabla_general_reference_matrix

    degree, W = _CROSS_CHECK[p.size]
    for alpha in sorted({op.args["alpha"] for op in p.ops}):
        want = assemble_matrix(degree, module_m(Fraction(alpha), 1), Window(W)).columns
        got = nabla_general_reference_matrix(Fraction(alpha), degree, Window(W))
        if got != want:
            raise SetupError(f"closed-form ∇{degree} differs from assemble_matrix "
                             f"for alpha={alpha} at W={W}")

    def matrix(alpha, n, window):
        module = module_m(Fraction(alpha), 1)
        cols = coordinate_labels(n, module, window)
        rows = coordinate_labels(n + 1, module, window)
        columns = nabla_general_reference_matrix(Fraction(alpha), n, window)
        if len(columns) != len(cols):
            raise SetupError(f"∇{n} has {len(columns)} columns, expected {len(cols)}")
        return RationalMatrix(len(rows), len(cols), columns, rows, cols)

    inputs = {}
    for i, op in enumerate(p.ops):
        alpha, n, W = op.args["alpha"], op.args["degree"], op.args["W"]
        levels = []
        for window in (Window(W), Window(W).shrink()):
            levels.append((window, matrix(alpha, n, window), matrix(alpha, n - 1, window)))
        inputs[i] = levels
    return inputs


# -- operations ------------------------------------------------------------------------

def run_op(op, inputs):
    """Run one operation; returns its mismatches against the expected answers."""
    if op.kind == "report":
        answer = _report(op, inputs)
    elif op.kind == "constructions":
        answer = _constructions(op)
    elif op.kind == "elimination":
        answer = _eliminate(inputs)
    else:
        answer = _suite(op)
    return [f"{key}: got {answer.get(key)!r}, want {want!r}"
            for key, want in op.expected.items() if answer.get(key) != want]


def _report(op, out_path):
    from confweyl import cli

    a = op.args
    rc = cli.run(["cohomology", "--degree", str(a["degree"]), "--module", a["module"],
                  "--window", str(a["W"]), "--format", "json", "--out", str(out_path)])
    if rc != 0:
        return {"exit": rc}
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _constructions(op):
    from confweyl.cohomology import Window, verify_theorem_constructions
    from confweyl.modules import make_module

    a = op.args
    ok, _ = verify_theorem_constructions(make_module(a["module"]), a["degree"], Window(a["W"]))
    return {"ok": ok}


def _eliminate(levels):
    """The ratmat calls cohomology_dim makes, at W and at W-1."""
    from confweyl.ratmat import rank_of_vectors

    dims = []  # (dim_ker_proj, dim_im_proj) at W, then at W-1
    for window, a_n, a_prev in levels:
        inner = window.inner
        kernel = a_n.nullspace()
        col_keep = [sum(chain) <= inner for (chain, _) in a_n.col_labels]
        dim_ker = rank_of_vectors(kernel, lambda j: col_keep[j])
        row_keep = [sum(chain) <= inner for (chain, _) in a_prev.row_labels]
        dim_im = a_prev.rank(lambda i: row_keep[i])
        dims.append((dim_ker, dim_im))
    (ker, im), (ker2, im2) = dims
    return {"dim_H": ker - im, "stable": ker - im == ker2 - im2,
            "dim_ker_proj": ker, "dim_im_proj": im}


def _suite(op):
    from confweyl import checks

    result = checks.run_suite(op.label, **op.args)
    return {"passed": result["passed"]}
