"""Per-layer attribution by wrapping confweyl's public functions from outside.

Each target is looked up by name.  A target that no longer exists is
recorded as absent and reported with zero counts, so refactors that remove
a function or a memo table do not break the benchmark.  A wrapped call
updates an aggregate (calls, inclusive seconds, self seconds); self time is
inclusive time minus the inclusive time of wrapped callees.  Coarse
boundaries also record a span (name, start, end, parent, trace id), kept in
memory and returned at the end of the pass.

Counters read from return values (matrix shapes, ranks, kernel sizes,
chain-test hits) are taken after the wrapped call returns, so they never
touch the program's own code paths.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (metric name, module, attribute path, records a span)
TARGETS = (
    ("cli.run", "cli", "run", True),
    ("cohomology.cohomology_dim", "cohomology", "cohomology_dim", True),
    ("cohomology.verify_theorem_constructions", "cohomology", "verify_theorem_constructions", True),
    ("cohomology.assemble_matrix", "cohomology", "assemble_matrix", True),
    ("cohomology.reduced_delta", "cohomology", "reduced_delta", False),
    ("cohomology.ScalarCochain.include", "cohomology", "ScalarCochain.include", False),
    ("cohomology.hochschild_delta", "cohomology", "hochschild_delta", False),
    ("cohomology.reduce_cochain", "cohomology", "reduce_cochain", False),
    ("cohomology.d_map", "cohomology", "d_map", False),
    ("ratmat.nullspace", "ratmat", "RationalMatrix.nullspace", True),
    ("ratmat.rank", "ratmat", "RationalMatrix.rank", True),
    ("ratmat.rank_of_vectors", "ratmat", "rank_of_vectors", True),
    ("checks.run_suite", "checks", "run_suite", True),
    ("verify.nabla_general_reference_matrix", "verify", "nabla_general_reference_matrix", True),
    ("modules.make_module", "modules", "make_module", False),
    ("modules.act_algebra", "modules", "FiniteModule.act_algebra", False),
    ("modules.reduce_element", "modules", "reduce_element", False),
    ("anick.enumerate_chains", "anick", "enumerate_chains", False),
    ("anick.anick_delta_closed", "anick", "anick_delta_closed", False),
    ("anick.anick_delta_morse", "anick", "anick_delta_morse", False),
    ("anick.homotopy_g", "anick", "homotopy_g", False),
    ("anick.homotopy_f", "anick", "homotopy_f", False),
    ("anick.bar_derivation", "anick", "bar_derivation", False),
    ("anick.bar_differential", "anick", "bar_differential", False),
    ("anick.matched_edge", "anick", "matched_edge", False),
    ("anick.cell_is_chain", "anick", "cell_is_chain", False),
    ("anick.is_chain", "anick", "is_chain", False),
    ("coeffalg.normal_form", "coeffalg", "normal_form", False),
    # products in Λ: coeffalg.multiply delegates to AlgebraElement.__mul__,
    # which the engine calls directly
    ("coeffalg.multiply", "coeffalg", "AlgebraElement.__mul__", False),
    ("coeffalg.derivation", "coeffalg", "derivation", False),
)

# memo tables whose size is read at the end of the timed phase
MEMOS = (
    ("anick.f_memo.size", "anick", "_f_memo"),
    ("anick.ascend_memo.size", "anick", "_ascend_memo"),
    ("coeffalg.letter_word_memo.size", "coeffalg", "_letter_word_memo"),
    ("cohomology.delta_cache.size", "cohomology", "_delta_cache"),
)

# counters read from return values
COUNTERS = ("cohomology.matrix_cols", "cohomology.matrix_nnz", "ratmat.rows_in",
            "ratmat.pivots", "ratmat.kernel_dim", "ratmat.kernel_nnz",
            "anick.cell_is_chain.hits")

SUITES = ("chain-map", "fdg", "morse-closed", "delta-squared", "reduction-soundness")
LAYERS = ("cli", "cohomology", "ratmat", "checks", "verify", "modules", "anick", "coeffalg")


def _observe_assemble(c, args, kwargs, m):
    c["cohomology.matrix_cols"] += m.ncols
    c["cohomology.matrix_nnz"] += sum(len(col) for col in m.columns)


def _observe_nullspace(c, args, kwargs, basis):
    m = args[0]
    c["ratmat.rows_in"] += m.nrows
    c["ratmat.pivots"] += m.ncols - len(basis)
    c["ratmat.kernel_dim"] += len(basis)
    c["ratmat.kernel_nnz"] += sum(len(v) for v in basis)


def _observe_rank(c, args, kwargs, rank):
    m = args[0]
    keep = args[1] if len(args) > 1 else kwargs.get("row_filter")
    c["ratmat.rows_in"] += m.nrows if keep is None else sum(1 for i in range(m.nrows) if keep(i))
    c["ratmat.pivots"] += rank


def _observe_rank_of_vectors(c, args, kwargs, rank):
    c["ratmat.rows_in"] += len(args[0])
    c["ratmat.pivots"] += rank


def _observe_cell_is_chain(c, args, kwargs, hit):
    if hit:
        c["anick.cell_is_chain.hits"] += 1


OBSERVERS = {
    "cohomology.assemble_matrix": _observe_assemble,
    "ratmat.nullspace": _observe_nullspace,
    "ratmat.rank": _observe_rank,
    "ratmat.rank_of_vectors": _observe_rank_of_vectors,
    "anick.cell_is_chain": _observe_cell_is_chain,
}


class Tracer:
    """Installs wrappers around confweyl functions and aggregates per phase.

    ``phase`` names the bucket new calls go to ("setup" or "timed"); the
    timed bucket gives the plain metric names and the set-up bucket the
    ``setup.``-prefixed ones.
    """

    def __init__(self, trace_prefix):
        self.stats = {"setup": {}, "timed": {}}      # name -> [calls, incl_s, self_s]
        self.counters = {"setup": _zero_counters(), "timed": _zero_counters()}
        self.phase = "setup"
        self.spans = []
        self.absent = []
        self._stack = []        # per active wrapped call: inclusive time of wrapped callees
        self._span_stack = []   # ids of open spans
        self._trace_prefix = trace_prefix
        self._trace_id = None

    @property
    def phase(self):
        return self._phase

    @phase.setter
    def phase(self, value):
        self._phase = value
        self._bucket = self.stats[value]
        self._counters = self.counters[value]

    # -- installation -------------------------------------------------------------

    def install(self):
        for name, module, path, span in TARGETS:
            owner, attr, original = _resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, span, OBSERVERS.get(name))
            if owner is not None:  # a method: patch the class
                setattr(owner, attr, wrapper)
                continue
            # a function: patch every confweyl namespace that holds it
            for mod in _confweyl_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return self

    def _wrap(self, name, fn, span, observe):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        per_suite = name == "checks.run_suite"

        def wrapper(*args, **kwargs):
            label = f"checks.{args[0]}" if per_suite else name
            st = tracer._bucket.get(label)
            if st is None:
                st = tracer._bucket[label] = [0, 0.0, 0.0]
            span_id = tracer._open_span(label) if span else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                child = stack.pop()
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
                if stack:
                    stack[-1] += dur
                if span:
                    tracer._close_span(span_id, t0, t1)
            if observe is not None:
                observe(tracer._counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- spans --------------------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, index, label):
        """One span per benchmark operation, with its own trace id."""
        self._trace_id = f"{self._trace_prefix}-op{index}"
        span_id = self._open_span(f"op:{label}")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(span_id, t0, time.perf_counter())
            self._trace_id = None

    def _open_span(self, label):
        span_id = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append({"id": span_id, "parent": parent, "trace": self._trace_id,
                           "name": label, "phase": self.phase})
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id, t0, t1):
        self._span_stack.pop()
        rec = self.spans[span_id]
        rec["start"] = t0
        rec["end"] = t1

    # -- results ------------------------------------------------------------------

    def metrics(self, wall_s, setup_s):
        """Per-layer metrics of the timed phase, plus the set-up ones.

        Times are shares of the traced phase they fall in (``*_share``), so a
        layer that a workload never calls reads 0 as a ratio rather than as a
        time; ``trace.wall_s`` and ``trace.setup_s`` turn shares back into
        seconds.
        """
        def share(seconds, total):
            return seconds / total if total > 0 else 0.0

        timed = self.stats["timed"]
        out = {}
        for name, _, _, _ in TARGETS:
            if name == "checks.run_suite":
                continue
            calls, _, self_s = timed.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_share"] = share(self_s, wall_s)
        for suite in SUITES:
            incl_s = timed.get(f"checks.{suite}", (0, 0.0, 0.0))[1]
            out[f"checks.{suite}.incl_share"] = share(incl_s, wall_s)
        counters = self.counters["timed"]
        for key in COUNTERS:
            if key != "anick.cell_is_chain.hits":
                out[key] = counters[key]
        out["anick.cell_is_chain.hit_ratio"] = share(counters["anick.cell_is_chain.hits"],
                                                     out["anick.cell_is_chain.calls"])
        for name, module, attr in MEMOS:
            table = getattr(sys.modules.get(f"confweyl.{module}"), attr, None)
            if table is None:
                self.absent.append(name)
            out[name] = len(table) if table is not None else 0
        layer_self = {layer: 0.0 for layer in LAYERS}
        for label, (_, _, self_s) in timed.items():
            layer_self[label.split(".", 1)[0]] += self_s
        for layer in LAYERS:
            out[f"{layer}.self_share"] = share(layer_self[layer], wall_s)
        out["other.self_share"] = share(wall_s - sum(layer_self.values()), wall_s)
        setup = self.stats["setup"]
        for name in ("modules.make_module", "verify.nabla_general_reference_matrix",
                     "cohomology.assemble_matrix"):
            calls, _, self_s = setup.get(name, (0, 0.0, 0.0))
            out[f"setup.{name}.calls"] = calls
            out[f"setup.{name}.self_share"] = share(self_s, setup_s)
        out["trace.wall_s"] = wall_s
        out["trace.setup_s"] = setup_s
        out["trace.absent"] = len(self.absent)
        return out


def _zero_counters():
    return {key: 0 for key in COUNTERS}


def _confweyl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "confweyl" or name.startswith("confweyl."))]


def _resolve(module, path):
    """(owning class or None, attribute name, object) for a dotted path."""
    try:
        obj = importlib.import_module(f"confweyl.{module}")
    except ImportError:
        return None, None, None
    parts = path.split(".")
    owner = None
    for part in parts:
        owner = obj
        obj = getattr(obj, part, None)
        if obj is None:
            return None, None, None
    return (owner if len(parts) > 1 else None), parts[-1], obj
