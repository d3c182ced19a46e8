"""One pass of a workload in a fresh process: set up, run every operation, check.

Run by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON object on
stdout.  Set-up time runs from ``import confweyl`` until the inputs are
ready; the timed phase covers every operation of the pass, back to back.
"""

from __future__ import annotations

import argparse
import contextlib
import json
from pathlib import Path
import resource
import shutil
import time
import traceback

import workloads


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--order", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--wrong-answer", action="store_true",
                    help="corrupt one expected answer (benchmark self-test)")
    args = ap.parse_args()

    plan = workloads.plan(args.workload, args.seed, args.size, args.order)
    if args.wrong_answer:
        op = plan.ops[0]
        key = next(iter(op.expected))
        op.expected[key] = "deliberately wrong"
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print(json.dumps(run_pass(plan, args, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(plan, args, workdir):
    tracer = None
    t0 = time.perf_counter()
    import confweyl  # set-up time starts at the engine import
    from confweyl import checks, cli, verify  # noqa: F401

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(confweyl.__file__).resolve().parents:
        raise SystemExit(f"confweyl was imported from {confweyl.__file__}, not from {src}")

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{plan.workload}-s{plan.seed}-p{args.pass_index}").install()
    failures = []
    try:
        inputs = workloads.setup(plan, workdir)
    except Exception:
        failures.append({"op": "setup", "error": traceback.format_exc(limit=3)})
        inputs = None
    setup_s = time.perf_counter() - t0

    failed = len(plan.ops) if inputs is None else 0
    if tracer is not None:
        tracer.phase = "timed"
    start = time.perf_counter()
    for i, op in enumerate(plan.ops if inputs is not None else ()):
        try:
            with tracer.operation(i, op.label) if tracer else contextlib.nullcontext():
                mismatches = workloads.run_op(op, inputs.get(i))
        except Exception:
            mismatches = [traceback.format_exc(limit=3)]
        if mismatches:
            failed += 1
            failures.append({"op": op.label, "error": mismatches})
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "units": plan.units,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(plan.ops),
        "failed": failed,
        "failures": failures[:5],
        "traced": tracer is not None,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s, setup_s)
        out["absent"] = sorted(set(tracer.absent))
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    main()
