import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import confweyl
from confweyl.cohomology import nabla_operators
from confweyl.cli import run


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return invoke


def _schema(name):
    path = resources.files("confweyl").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text())


def _validated(name, payload):
    jsonschema.validate(json.loads(payload), _schema(name))
    return json.loads(payload)


def test_nf_text(capture):
    code, out, _ = capture("nf", "v(2)v(3)v(1)")
    assert code == 0
    assert out.strip() == "v(0)^2 v(6) + 7 v(0) v(5) + 8 v(4)"


def test_nf_json_schema(capture):
    code, out, _ = capture("nf", "v(2)v(3)v(1)", "--format", "json")
    assert code == 0
    doc = _validated("nf", out)
    assert doc["normal_form"] == "v(0)^2 v(6) + 7 v(0) v(5) + 8 v(4)"


def test_chains_outputs(capture):
    code, out, _ = capture("chains", "--degree", "2", "--max-sum", "2")
    assert code == 0
    assert out.splitlines() == ["[1|0]", "[1|1]", "[2|0]"]
    code, out, _ = capture("chains", "--degree", "2", "--max-sum", "2", "--format", "json")
    doc = _validated("chains", out)
    assert doc["chains"] == [[1, 0], [1, 1], [2, 0]]


def test_delta_text_and_json(capture):
    code, out, _ = capture("delta", "[2|3]")
    assert code == 0
    assert out.strip() == "v(2)*[3] - 2*[4] - v(0)*[5]"
    code, out, _ = capture("delta", "[2|3]", "--method", "morse", "--format", "json")
    doc = _validated("delta", out)
    assert doc["method"] == "morse"
    assert {tuple(t["chain"]) for t in doc["terms"]} == {(3,), (4,), (5,)}


def test_homotopy_maps(capture):
    code, out, _ = capture("homotopy", "g", "[2|1|1]", "--format", "json")
    assert code == 0
    doc = _validated("homotopy", out)
    cells = {tuple(t["cell"]) for t in doc["terms"]}
    assert ("v(2)", "v(1)", "v(1)") in cells
    code, out, _ = capture("homotopy", "f", "[v(0)|v(1)]")
    assert code == 0
    assert out.strip() == "0"


def test_check_suite(capture):
    code, out, _ = capture("check", "--suite", "morse-closed",
                           "--max-degree", "2", "--max-sum", "4", "--format", "json")
    assert code == 0
    doc = _validated("check", out)
    assert doc["passed"] is True


def test_cohomology_report(capture):
    code, out, _ = capture("cohomology", "--degree", "1", "--module",
                           "M(alpha=0,delta=1)", "--window", "12", "--margin", "3",
                           "--format", "json")
    assert code == 0
    doc = _validated("cohomology", out)
    assert doc["dim_H"] == 1 and doc["stable"] is True


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (("nf", "v(5)v(0)v(3)v(2)"), "nf.json"),
    (("delta", "[3|2|1|0]", "--method", "closed"), "delta_closed.json"),
    (("delta", "[3|2|1|0]", "--method", "morse"), "delta_morse.json"),
    (("homotopy", "g", "[3|1|2|0]"), "homotopy_g.json"),
    (("homotopy", "f", "[v(2)|v(0)v(3)|v(1)]"), "homotopy_f.json"),
    (("cohomology", "--degree", "3", "--module", "M(alpha=0,delta=1)", "--window", "9"),
     "cohomology_h3.json"),
    (("check", "--suite", "chain-map", "--max-degree", "2", "--window", "5"),
     "check_chain_map.json"),
    (("check", "--suite", "reduction-soundness", "--window", "6"),
     "check_reduction_soundness.json"),
    (("cohomology", "--degree", "3", "--module", "ext(alpha=2,beta=1/2,gamma=3)",
      "--window", "8"),
     "cohomology_ext_h3.json"),
    # α = −3/2: the only report here whose elimination meets non-unit leads
    (("cohomology", "--degree", "5", "--module", "M(alpha=-3/2,delta=1)", "--window", "11"),
     "cohomology_h5_m32.json"),
    # C a nilpotent Jordan block
    (("cohomology", "--degree", "2", "--module", "ext(alpha=0,beta=0,gamma=1)", "--window", "9"),
     "cohomology_ext_h2_nilpotent.json"),
    # α = 1 at degree 6: a large report whose kernel and image are both 126
    (("cohomology", "--degree", "6", "--module", "M(alpha=1,delta=1)", "--window", "12"),
     "cohomology_h6_m11.json"),
    # margin 0: the window's top artifacts stay in, and the report is not stable
    (("cohomology", "--degree", "3", "--module", "ext(alpha=0,beta=1,gamma=1)", "--window", "7",
      "--margin", "0"),
     "cohomology_ext_h3_margin0.json"),
    # C non-integral: the blocks of ∇'s palette carry Fraction entries
    (("cohomology", "--degree", "3", "--module", "ext(alpha=1/2,beta=2,gamma=3)",
      "--window", "8"),
     "cohomology_ext_h3_frac.json"),
    # the α ≠ 0 reports of the benchmark's elimination workload
    (("cohomology", "--degree", "4", "--module", "M(alpha=1,delta=1)", "--window", "11"),
     "cohomology_h4_m11.json"),
    (("cohomology", "--degree", "5", "--module", "M(alpha=1,delta=1)", "--window", "10"),
     "cohomology_h5_m11.json"),
])
def test_json_outputs_match_golden_files(capture, argv, golden):
    # the golden files pin every coefficient string byte for byte, so the
    # storage type of Λ's coefficients (int or Fraction) never shows
    code, out, _ = capture(*argv, "--format", "json")
    assert code == 0
    assert out == (_GOLDEN / golden).read_text(encoding="utf-8")


def test_outputs_are_byte_identical(capture):
    runs = []
    for _ in range(2):
        code, out, _ = capture("cohomology", "--degree", "1", "--module",
                               "M(alpha=1,delta=1)", "--window", "10",
                               "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = [capture("delta", "[3|2|1]")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_python_dash_m_runs_the_command():
    # `python -m confweyl verify` from a source checkout, without installing
    src = str(Path(confweyl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "confweyl", "verify", "--only", "5",
                           "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert [c["id"] for c in doc["criteria"]] == [5]


def test_out_file(tmp_path, capture):
    target = tmp_path / "report.json"
    code, out, _ = capture("cohomology", "--degree", "1", "--module",
                           "M(alpha=0,delta=1)", "--window", "8",
                           "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = _validated("cohomology", target.read_text())
    assert doc["degree"] == 1


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(tmp_path, capture, where):
    # a path that cannot be opened for writing is an input error, not a crash
    out_path = tmp_path / "absent" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = capture("chains", "--degree", "1", "--max-sum", "2",
                             "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_second_run_builds_no_parser(capture, monkeypatch):
    import argparse

    capture("chains", "--degree", "1", "--max-sum", "2")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = capture("chains", "--degree", "1", "--max-sum", "2", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 3
    assert built == []


def test_invalid_inputs_exit_2(capture):
    assert capture("delta", "[0|3]")[0] == 2
    assert capture("nf", "w(2)")[0] == 2
    assert capture("cohomology", "--degree", "1", "--module", "nope",
                   "--window", "8")[0] == 2
    # a zero denominator in a module spec is an input error, not a crash
    for spec in ("M(alpha=1/0,delta=1)", "ext(alpha=1,beta=2/0,gamma=1)"):
        code, _, err = capture("cohomology", "--degree", "1", "--module", spec, "--window", "6")
        assert code == 2 and "zero denominator" in err and spec in err
    assert capture("chains", "--degree", "2")[0] == 2  # missing required flag
    assert capture("delta", "[2|-1]")[0] == 2  # negative index
    assert capture("homotopy", "g", "[1|0|2]")[0] == 2
    code, _, err = capture("verify", "--only", "11")
    assert code == 2 and "1-10" in err
    assert capture("verify", "--only", "0", "--format", "json")[0] == 2


@pytest.mark.parametrize("suite, bounds, named, least", [
    pytest.param("confluence", ("--count", "-3"), "--count", 1, id="confluence---count"),
    pytest.param("nabla-squared", ("--max-degree", "-3"), "--max-degree", 0,
                 id="nabla-squared---max-degree"),
    pytest.param("delta-squared", ("--max-sum", "-3"), "--max-sum", 0,
                 id="delta-squared---max-sum"),
    pytest.param("chain-map", ("--window", "-3"), "--window", 0, id="chain-map---window"),
    pytest.param("confluence", ("--count", "0"), "--count", 1, id="confluence---count-zero"),
    # bounds the parser takes but under which the suite itself checks nothing
    pytest.param("delta-squared", ("--max-degree", "1"), "max_degree", 2,
                 id="delta-squared---max-degree-1"),
    pytest.param("delta-squared", ("--max-sum", "0"), "max_sum", 1,
                 id="delta-squared---max-sum-0"),
    pytest.param("fdg", ("--max-degree", "0"), "max_degree", 1, id="fdg---max-degree-0"),
    pytest.param("morse-closed", ("--max-degree", "0"), "max_degree", 1,
                 id="morse-closed---max-degree-0"),
    pytest.param("fg-identity", ("--max-degree", "0"), "max_degree", 1,
                 id="fg-identity---max-degree-0"),
    pytest.param("chain-kill", ("--max-degree", "0", "--max-sum", "0"), "max_degree", 2,
                 id="chain-kill---max-degree-0---max-sum-0"),
    pytest.param("chain-kill", ("--max-degree", "1", "--max-sum", "0"), "max_degree", 2,
                 id="chain-kill---max-degree-1---max-sum-0"),
    pytest.param("chain-kill", ("--max-degree", "2", "--max-sum", "1"), "max_sum", 2,
                 id="chain-kill---max-degree-2---max-sum-1"),
    pytest.param("nabla-squared", ("--window", "0"), "window_sum", 1,
                 id="nabla-squared---window-0"),
    pytest.param("reduction-soundness", ("--window", "0"), "window_sum", 2,
                 id="reduction-soundness---window-0"),
    pytest.param("reduction-soundness", ("--window", "1"), "window_sum", 2,
                 id="reduction-soundness---window-1"),
])
def test_check_refuses_a_negative_bound(capture, suite, bounds, named, least):
    # a negative bound, a count of 0, or a bound under which the suite meets
    # no chain or cell to check leaves it nothing to check, so no PASS may
    # come of it
    code, out, err = capture("check", "--suite", suite, *bounds)
    assert code == 2 and out == ""
    assert "error:" in err and named in err and f">= {least}" in err


def test_oversized_enumerations_exit_2_at_once(capture):
    # C(201, 12) and C(201, 11) chains: refused before any is built
    before = nabla_operators.cache_info()
    code, _, err = capture("chains", "--degree", "12", "--max-sum", "200")
    assert code == 2 and "limit" in err
    code, _, err = capture("cohomology", "--degree", "10", "--module",
                           "M(alpha=1,delta=1)", "--window", "200")
    assert code == 2 and "limit" in err
    assert nabla_operators.cache_info() == before  # no operator built or read


def test_check_forwards_only_the_suite_keywords(capture, monkeypatch):
    from confweyl import checks

    seen = {}

    def recorder(name):
        def suite(max_degree=3, max_sum=6):
            seen[name] = {"max_degree": max_degree, "max_sum": max_sum}
            return {"name": name, "passed": True, "details": {}}
        return suite

    monkeypatch.setitem(checks.SUITES, "chain-kill", recorder("chain-kill"))
    monkeypatch.setitem(checks.SUITES, "fdg", recorder("fdg"))
    assert capture("check", "--suite", "chain-kill", "--max-degree", "2",
                   "--max-sum", "4")[0] == 0
    assert seen["chain-kill"] == {"max_degree": 2, "max_sum": 4}
    # fdg takes neither --count nor --window: both are refused by name, and
    # the suite does not run on flags it would not read
    code, out, err = capture("check", "--suite", "fdg", "--count", "5", "--window", "3")
    assert code == 2 and out == ""
    assert "'fdg'" in err and "--count" in err and "--window" in err
    assert "fdg" not in seen


def test_failed_check_exits_1(capture, monkeypatch):
    from confweyl import checks

    def fake(**kwargs):
        return {"name": "morse-closed", "passed": False, "details": {}}

    monkeypatch.setitem(checks.SUITES, "morse-closed", fake)
    code, out, _ = capture("check", "--suite", "morse-closed")
    assert code == 1
    assert "FAIL" in out


def test_verify_subset(capture):
    code, out, _ = capture("verify", "--only", "5", "--format", "json")
    assert code == 0
    doc = _validated("verify", out)
    assert doc["passed"] is True and doc["criteria"][0]["id"] == 5
