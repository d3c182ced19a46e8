"""Command-line front end.

Subcommands: nf, chains, delta, homotopy, check, cohomology, verify.
Output is deterministic (stable chain ordering, sorted JSON keys); exit
codes: 0 success / all checks passed, 1 a check or verification failed,
2 invalid input or an ``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from . import checks, verify as verify_mod
from .anick import (
    anick_delta_closed,
    anick_delta_morse,
    enumerate_chains,
    homotopy_f,
    homotopy_g,
    is_chain,
    parse_cell,
    parse_chain,
    render_cell,
    render_chain,
    render_combination,
)
from .coeffalg import (
    UNIT,
    _word_sort_key,
    normal_form,
    parse_word,
    render_algebra_element,
    render_word,
)
from .cohomology import Window, cohomology_dim
from .modules import ModuleValidationError, make_module


def _emit(args, text_body, json_body):
    if args.format == "json":
        payload = json.dumps(json_body, sort_keys=True, indent=2) + "\n"
    else:
        payload = text_body if text_body.endswith("\n") else text_body + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _algebra_terms_json(x):
    terms = []
    for w in sorted(x.terms, key=_word_sort_key):
        c = x.terms[w]
        entry = {"coefficient": str(c)}
        if w is UNIT:
            entry["unit"] = True
        else:
            entry["zeros"], entry["tail"] = w
        terms.append(entry)
    return terms


def _combination_json(combo, kind):
    items = []
    for key in sorted(combo, key=lambda k: (len(k), k)):
        coeff = combo[key]
        entry = {"coefficient": render_algebra_element(coeff),
                 "coefficient_terms": _algebra_terms_json(coeff)}
        if kind == "chain":
            entry["chain"] = list(key)
        else:
            entry["cell"] = [render_word(w) for w in key]
        items.append(entry)
    return items


def cmd_nf(args):
    word = parse_word(args.word)
    result = normal_form(word)
    _emit(args, render_algebra_element(result), {
        "input": args.word,
        "normal_form": render_algebra_element(result),
        "terms": _algebra_terms_json(result),
    })
    return 0


def cmd_chains(args):
    chains = enumerate_chains(args.degree, args.max_sum)
    text = "\n".join(render_chain(c) for c in chains) or "(none)"
    _emit(args, text, {
        "degree": args.degree,
        "max_sum": args.max_sum,
        "count": len(chains),
        "chains": [list(c) for c in chains],
    })
    return 0


def _require_chain(chain, text):
    if not is_chain(chain, len(chain) - 1):
        raise ValueError(f"{text} is not an Anick chain")


def cmd_delta(args):
    chain = parse_chain(args.chain)
    if len(chain) < 1:
        raise ValueError("delta needs a chain of degree >= 1")
    _require_chain(chain, args.chain)
    fn = anick_delta_morse if args.method == "morse" else anick_delta_closed
    combo = fn(chain)
    _emit(args, render_combination(combo, render_chain), {
        "chain": list(chain),
        "method": args.method,
        "terms": _combination_json(combo, "chain"),
    })
    return 0


def cmd_homotopy(args):
    if args.map == "g":
        chain = parse_chain(args.cell)
        _require_chain(chain, args.cell)
        combo = homotopy_g(chain)
        _emit(args, render_combination(combo, render_cell), {
            "map": "g",
            "input": render_chain(chain),
            "terms": _combination_json(combo, "cell"),
        })
    else:
        cell = parse_cell(args.cell)
        combo = homotopy_f(cell)
        _emit(args, render_combination(combo, render_chain), {
            "map": "f",
            "input": render_cell(cell),
            "terms": _combination_json(combo, "chain"),
        })
    return 0


def cmd_check(args):
    # forward each given flag as the suite's keyword; refuse one it does not take
    allowed = inspect.signature(checks.SUITES[args.suite]).parameters
    flags = {
        ("--max-degree", "max_degree"): args.max_degree,
        ("--max-sum", "max_sum"): args.max_sum,
        ("--count", "count"): args.count,
        ("--window", "window_sum"): args.window,
        ("--module", "module"): args.module,
    }
    given = {flag_key: val for flag_key, val in flags.items() if val is not None}
    refused = [flag for flag, key in given if key not in allowed]
    if refused:
        raise ValueError(f"suite {args.suite!r} takes no {', '.join(refused)}")
    result = checks.run_suite(args.suite, **{key: val for (_, key), val in given.items()})
    status = "PASS" if result["passed"] else "FAIL"
    text = f"{result['name']}: {status}"
    if not result["passed"]:
        text += f"\n  details: {result['details']}"
    _emit(args, text, {
        "suite": result["name"],
        "passed": result["passed"],
        "details": _json_safe(result["details"]),
    })
    return 0 if result["passed"] else 1


def cmd_cohomology(args):
    module = make_module(args.module)
    window = Window(args.window, args.margin)
    report = cohomology_dim(args.degree, module, window)
    text = (
        f"H^{report['degree']}({report['module']})  W={report['W']} margin={report['margin']}\n"
        f"  dim_ker_proj = {report['dim_ker_proj']}\n"
        f"  dim_im_proj  = {report['dim_im_proj']}\n"
        f"  dim_H        = {report['dim_H']}\n"
        f"  stable       = {str(report['stable']).lower()}"
    )
    payload = dict(report)
    payload["chain_counts"] = {str(k): v for k, v in report["chain_counts"].items()}
    _emit(args, text, payload)
    return 0


def cmd_verify(args):
    ids = set(args.only) if args.only else None
    outcome = verify_mod.run_all(ids=ids)
    lines = []
    for r in outcome["criteria"]:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"criterion {r['id']:>2}: {status}  ({r['seconds']:7.2f}s)  {r['description']}")
    lines.append("overall: " + ("PASS" if outcome["passed"] else "FAIL"))
    _emit(args, "\n".join(lines), {
        "passed": outcome["passed"],
        "criteria": [_json_safe(r) for r in outcome["criteria"]],
    })
    return 0 if outcome["passed"] else 1


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _at_least(least):
    """An argparse type: an int no smaller than ``least``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


@functools.cache  # parsing leaves the parser as it was, so one serves every run
def build_parser():
    parser = argparse.ArgumentParser(
        prog="confweyl",
        description="Exact Anick resolution and Hochschild cohomology for the conformal Weyl algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    p = sub.add_parser("nf", help="normal form of a word in the coefficient algebra")
    p.add_argument("word", help="e.g. 'v(2)v(3)v(1)'")
    common(p)
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("chains", help="enumerate Anick chains")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-sum", type=int, required=True, dest="max_sum")
    common(p)
    p.set_defaults(fn=cmd_chains)

    p = sub.add_parser("delta", help="resolution differential of a chain")
    p.add_argument("chain", help="e.g. '[2|3]'")
    p.add_argument("--method", choices=("closed", "morse"), default="closed")
    common(p)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("homotopy", help="homotopy maps between bar and Anick complexes")
    p.add_argument("map", choices=("f", "g"))
    p.add_argument("cell", help="bar cell '[v(0)|v(1)]' for f, chain '[2|1|1]' for g")
    common(p)
    p.set_defaults(fn=cmd_homotopy)

    p = sub.add_parser("check", help="run a named property suite")
    p.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    # a negative bound or a zero count leaves a suite nothing to check, which
    # would read as a pass; the resolution suites refuse their own smaller
    # vacuous bounds with a ValueError
    p.add_argument("--max-degree", type=_at_least(0), dest="max_degree")
    p.add_argument("--max-sum", type=_at_least(0), dest="max_sum")
    p.add_argument("--count", type=_at_least(1))
    p.add_argument("--window", type=_at_least(0))
    p.add_argument("--module")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cohomology", help="windowed cohomology dimension report")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--module", required=True,
                   help="M(alpha=..,delta=..) | trivial | ext(alpha=..,beta=..,gamma=..)")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--margin", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("verify", help="run the full reproduction suite")
    p.add_argument("--only", type=int, nargs="*", help="criterion ids to run")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ModuleValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
