"""confweyl benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the engine is imported from
``src/``.  Each pass of a workload runs in a fresh, single-threaded child
process (a closed loop: one client, operations back to back) and passes
repeat until ``--seconds`` is used up.  End-to-end metrics are medians over
the untraced passes.  With ``--trace 1`` passes alternate untraced and
traced, and the per-layer metrics are medians over the traced passes.  The
last line of stdout is the result object; details, the environment and the
trace spans go to ``.perfbench/`` in the checkout.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

HASH_SEED = "0"
MIN_PASSES = workloads.ORDERS  # untraced passes per run, whatever --seconds says
DEADLINE_S = 150.0      # no new pass starts that would end past this
EXIT_S = 170.0          # a pass still running at this point is killed

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "units/s"),
              ("peak_rss_mb", "MiB"))


def per_layer_names():
    """Every per-layer metric name, in report order."""
    return list(tracer.Tracer("names").metrics(1.0, 1.0)) + ["trace.overhead_s", "host.probe_s"]


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def host_probe():
    """Seconds for a fixed stdlib Fraction loop: a host-speed diagnostic only."""
    from fractions import Fraction

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20000):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
    return time.perf_counter() - t0


def environment(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = got.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed,
            "hash_seed": HASH_SEED, "platform": platform.platform()}


def run_child(workload, seed, size, traced, index, order=0, timeout=EXIT_S, wrong_answer=False):
    """One pass in a fresh process; a crash counts every operation as failed."""
    env = dict(os.environ)
    env.pop("CONFWEYL_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = HASH_SEED
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(traced)), "--order", str(order),
           "--pass-index", str(index),
           "--workdir", str(OUT / "work" / f"{workload}-{os.getpid()}-{index}")]
    if wrong_answer:
        cmd.append("--wrong-answer")
    error = None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"pass killed after {timeout:.0f} s"
    except json.JSONDecodeError as exc:
        error = f"unreadable pass output: {exc}"
    ops = len(workloads.plan(workload, seed, size, order).ops)
    return {"crashed": True, "traced": traced, "attempted": ops, "failed": ops,
            "failures": [{"op": "pass", "error": error}]}


def measure(workload, seed, seconds, trace, size="full", min_passes=MIN_PASSES):
    """Run passes until ``seconds`` is used up; returns (result, details).

    Passes cycle through the seed's operation orders.  A traced run
    alternates untraced and traced passes and stops only after whole cycles,
    so its per-layer medians, counts included, repeat exactly for a seed.
    """
    probe_before = host_probe()
    samples = []
    start = time.perf_counter()
    step = 2 if trace else 1
    cycle = workloads.ORDERS * step if trace else step
    while True:
        order = len(samples) // step
        for traced in ((False, True) if trace else (False,)):
            left = EXIT_S - (time.perf_counter() - start)
            samples.append(run_child(workload, seed, size, traced, len(samples), order, left))
        elapsed = time.perf_counter() - start
        n = len(samples)
        next_end = elapsed * (n + cycle) / n
        if n % cycle == 0 and (next_end > DEADLINE_S
                               or (n >= min_passes * step and next_end > seconds)):
            break
    probe_after = host_probe()

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    good = [s for s in samples if not s.get("crashed")]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if not plain or (trace and not traced):
        return None, {"failures": [f for s in samples for f in s["failures"]][:5]}

    series = {
        "wall_s": [s["wall_s"] for s in plain],
        "setup_s": [s["setup_s"] for s in plain],
        "work_per_s": [s["units"] / s["wall_s"] for s in plain],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
    }
    if trace:
        metrics = {name: statistics.median(s["layers"][name] for s in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                       - statistics.median(series["wall_s"]))
        metrics["host.probe_s"] = (probe_before + probe_after) / 2
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {name: statistics.median(series[name]) for name, _ in END_TO_END}
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0 and len(good) == len(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "workload": workload, "size": size, "trace": trace, "env": environment(seed),
        "passes": {"untraced": len(plain), "traced": len(traced), "crashed": len(samples) - len(good)},
        "units_per_pass": plain[0]["units"],
        "fail_frac": {"value": failed / attempted, "unit": "ratio", "base": attempted},
        "host": {"probe_before_s": probe_before, "probe_after_s": probe_after},
        "samples": series,
        "absent": traced[0]["absent"] if traced else [],
        "failures": [f for s in samples for f in s["failures"]][:5],
        "spans": [s["spans"] for s in traced],
    }
    return result, details


def report(result, details):
    """Human summary lines, the detail file, then the result line."""
    name = details["workload"]
    passes = details["passes"]
    print(f"{name}: seed {details['env']['seed']}, {passes['untraced']} untraced and "
          f"{passes['traced']} traced passes, {details['units_per_pass']} work units per pass")
    n = passes["traced"] if details["trace"] else passes["untraced"]
    for metric, m in result["metrics"].items():
        print(f"  {metric:<48} {m['value']:.6g} {m['unit']}  (median of {n})")
    ff = details["fail_frac"]
    print(f"  {'fail_frac':<48} {ff['value']:.6g} {ff['unit']}  "
          f"({result['failed']} of {ff['base']} operations)")
    print(f"  host.probe_s before/after: {details['host']['probe_before_s']:.4f} / "
          f"{details['host']['probe_after_s']:.4f} s (diagnostic only)")
    for failure in details["failures"]:
        print(f"  FAILED {failure['op']}: {failure['error']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{details['env']['seed']}-trace{details['trace']}.json"
    path.write_text(json.dumps({"result": result, **details}, indent=1, default=str))
    info = {k: details[k] for k in ("workload", "env", "passes", "fail_frac", "host", "absent")}
    info["details_file"] = str(path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps(result))


def smoke():
    """Self-test at tiny windows: names, units, zero failures, a caught wrong answer."""
    problems = []
    want_e2e = dict(END_TO_END)
    want_layer = {name: per_layer_unit(name) for name in per_layer_names()}
    for workload in workloads.NAMES:
        for trace, want in ((0, want_e2e), (1, want_layer)):
            result, details = measure(workload, 1, 0, trace, size="smoke", min_passes=1)
            if result is None:
                problems.append(f"{workload} trace={trace}: no pass completed: {details}")
                continue
            report(result, details)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metric names or units differ")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={trace}: fail_frac is not 0")
        wrong = run_child(workload, 1, "smoke", False, 0, wrong_answer=True)
        if wrong.get("crashed") or wrong["failed"] != 1:
            problems.append(f"{workload}: a wrong expected answer was not counted as one failure")
    for problem in problems:
        print("SMOKE FAIL:", problem)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test at tiny windows")
    args = ap.parse_args(argv)
    if not (SRC / "confweyl" / "__init__.py").is_file():
        print(f"error: no confweyl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result, details = measure(name, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"error: no {name} pass completed: {details['failures']}", file=sys.stderr)
            status = 1
            continue
        report(result, details)
    return status


if __name__ == "__main__":
    sys.exit(main())
