"""Command line front end: output formats and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z2z4
from z2z4 import cli, cyclic, verify
from z2z4.cli import main

F2_FLAGS = [
    "--alpha", "1", "--beta", "3",
    "--b", "x+1", "--ell", "1",
    "--f", "1", "--h", "x+3", "--g", "x^2+x+1",
]


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_factor_z4_text(capsys):
    rc, out, _ = _run(capsys, ["factor", "--n", "7", "--ring", "z4"])
    assert rc == 0
    assert out.startswith("x^7 - 1 = ")
    assert out.count("coset") == 3


def test_factor_gf2_json(capsys):
    rc, out, _ = _run(capsys, ["factor", "--n", "7", "--ring", "gf2",
                               "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 7
    assert doc["ring"] == "gf2"
    assert len(doc["factors"]) == 3
    assert {f["poly"] for f in doc["factors"]} == {
        "1 + x", "1 + x + x^3", "1 + x^2 + x^3"
    }


def test_factor_csv(capsys):
    rc, out, _ = _run(capsys, ["factor", "--n", "7", "--ring", "z4",
                               "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "coset_leader,coset,poly"
    assert len(lines) == 4


def test_factor_rejects_even_length(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["factor", "--n", "6", "--ring", "gf2"])
    assert excinfo.value.code == 2


def test_factor_guard_exit(capsys):
    rc, _, err = _run(capsys, ["factor", "--n", "37", "--ring", "gf2"])
    assert rc == 3
    assert "error:" in err


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(spec):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(cli, "kernel_spec", broken)
    rc, out, err = _run(capsys, ["analyze", *F2_FLAGS])
    assert rc == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "Traceback" in err and "AssertionError: broken invariant" in err


def test_library_value_error_exits_4(monkeypatch, capsys):
    def broken(spec, max_words):
        raise ValueError("broken library call")

    monkeypatch.setattr(cli, "cross_check", broken)
    rc, out, err = _run(capsys, ["analyze", *F2_FLAGS, "--verify"])
    assert rc == cli.EXIT_INTERNAL
    assert out == ""
    assert "Traceback" in err and "ValueError: broken library call" in err


def test_analyze_renders_a_failing_report(monkeypatch, capsys):
    # a synthetic report, built as test_verify.test_failing_row_rendering
    # builds one: no real spec is known to fail
    def failing(spec, max_words):
        return verify.CheckReport(
            spec, (("cardinality", True), ("kernel-dim", False)),
            "kernel-dim: closed 3, oracle 2", ("rank-set",),
            cyclic.kernel_spec(spec), cyclic.rank_spec(spec),
        )

    monkeypatch.setattr(cli, "cross_check", failing)
    verify_flags = ["analyze", *F2_FLAGS, "--verify", "--format"]
    rc, out, err = _run(capsys, [*verify_flags, "csv"])
    assert (rc, err) == (1, "")
    # spelled as search --verify spells a failing row
    assert out.splitlines()[1] == "1,3,1+x,1,1,3+x,1+x+x^2,1,2,1,3,6,1+x+x^2,1,FAIL:kernel-dim"
    rc, out, err = _run(capsys, [*verify_flags, "json"])
    assert (rc, err) == (1, "")
    doc = json.loads(out)["verify"]
    assert doc == {
        "passed": False,
        "checks": [{"name": "cardinality", "passed": True},
                   {"name": "kernel-dim", "passed": False}],
        "skipped": ["rank-set"],
        "witness": "kernel-dim: closed 3, oracle 2",
    }
    rc, out, err = _run(capsys, [*verify_flags, "text"])
    assert (rc, err) == (1, "")
    assert out.splitlines()[-5:] == [
        "  pass  cardinality",
        "  FAIL  kernel-dim",
        "  skip  rank-set",
        "  witness: kernel-dim: closed 3, oracle 2",
        "verify: FAILED",
    ]


@pytest.mark.parametrize("argv", [
    ["analyze", *F2_FLAGS, "--f", "2x+1"],
    ["analyze", *F2_FLAGS, "--g", "x^"],
    ["search", "--alpha", "2", "--beta", "7", "--type", "a,b"],
], ids=["non-unit-leading-coefficient", "unparsed-polynomial", "type-not-integers"])
def test_bad_user_text_exits_2(argv, capsys):
    rc, out, err = _run(capsys, argv)
    assert rc == cli.EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_analyze_json(capsys):
    rc, out, _ = _run(capsys, ["analyze", *F2_FLAGS, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["type"] == [1, 3, 1, 2, 1]
    assert doc["kappa_split"] == [0, 1]
    assert doc["size"] == 32
    assert doc["gray_linear"] is False
    assert doc["kernel"]["dim"] == 3
    assert doc["kernel"]["k_prime"] == "1 + x + x^2"
    assert doc["kernel"]["candidates"] == [3, 5]
    assert doc["rank"]["rank"] == 6
    assert doc["rank"]["r"] == "1"
    assert doc["rank"]["candidates"] == [5, 6]
    assert "verify" not in doc


def test_analyze_verify(capsys):
    rc, out, _ = _run(capsys, ["analyze", *F2_FLAGS, "--verify",
                               "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verify"]["passed"] is True
    assert doc["verify"]["witness"] is None
    assert len(doc["verify"]["checks"]) == 31


def test_analyze_text(capsys):
    rc, out, _ = _run(capsys, ["analyze", *F2_FLAGS])
    assert rc == 0
    assert "type (1, 3; 1, 2; 1)" in out
    assert "size 2^5 = 32 words" in out
    assert "gray image linear: no" in out


def test_analyze_rejects_bad_factorization(capsys):
    rc, _, err = _run(capsys, [
        "analyze", "--alpha", "1", "--beta", "3",
        "--f", "1", "--h", "1", "--g", "x^2+x+1",
    ])
    assert rc == 2
    assert "factorization" in err


def test_enumerate_csv(capsys):
    rc, out, _ = _run(capsys, ["enumerate", *F2_FLAGS, "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "word,gray"
    assert len(lines) == 33
    assert "0|000,0000000" in lines


def test_enumerate_json_gray_matches_width(capsys):
    rc, out, _ = _run(capsys, ["enumerate", *F2_FLAGS, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["size"] == 32
    assert len(doc["words"]) == 32
    assert all(len(w["gray"]) == 7 for w in doc["words"])


def test_enumerate_respects_size_guard(capsys):
    rc, _, err = _run(capsys, ["enumerate", *F2_FLAGS, "--max-size", "8"])
    assert rc == 3
    assert "error:" in err


def test_search_guards_its_enumeration(capsys):
    rc, out, err = _run(capsys, ["search", "--alpha", "40", "--beta", "3"])
    assert rc == cli.EXIT_GUARD == 3
    assert out == ""
    assert err.startswith("error:") and "candidate pairs" in err


def test_search_filtered(capsys):
    rc, out, _ = _run(capsys, [
        "search", "--alpha", "2", "--beta", "7",
        "--type", "2,3", "--format", "csv",
    ])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith("unchecked") for line in lines[1:])


def test_search_verify(capsys):
    rc, out, _ = _run(capsys, [
        "search", "--alpha", "2", "--beta", "7",
        "--type", "2,3", "--verify", "--workers", "2", "--format", "csv",
    ])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith("pass") for line in lines[1:])


def test_search_type_prefix_must_match(capsys):
    rc, _, err = _run(capsys, [
        "search", "--alpha", "2", "--beta", "7", "--type", "1,7:2,3",
    ])
    assert rc == 2
    assert "type-filter-prefix" in err


def test_paper_suite_default(capsys):
    rc, out, _ = _run(capsys, ["paper-suite"])
    assert rc == 0
    assert "F9" in out
    assert "(flagged)" in out


def test_paper_suite_strict(capsys):
    rc, out, _ = _run(capsys, ["paper-suite", "--strict-erratum"])
    assert rc == 1
    assert "suite failed" in out


def test_paper_suite_csv_quotes_titles(capsys):
    rc, out, _ = _run(capsys, ["paper-suite", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert '"length-(2, 7) kernel sweep"' in out


@pytest.mark.parametrize("argv", [
    ["factor", "--n", "7", "--ring", "z4", "--workers", "2"],
    ["factor", "--n", "7", "--ring", "z4", "--max-size", "8"],
    ["paper-suite", "--max-size", "8"],
    ["paper-suite", "--workers", "2"],
    ["analyze", *F2_FLAGS, "--workers", "2"],
    ["enumerate", *F2_FLAGS, "--workers", "2"],
    ["search", "--alpha", "1", "--beta", "3", "--dedupe"],
    ["search", "--alpha", "2", "--beta", "3", "--max-size", "1"],
    ["search", "--alpha", "2", "--beta", "3", "--workers", "2"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_verify_runs_each_closed_form_once(monkeypatch, capsys):
    # counts the calls made through the names the CLI, the harness and
    # the closed forms themselves bind
    calls = {"kernel_spec": 0, "rank_spec": 0}
    for name in calls:
        real = getattr(cyclic, name)

        def counted(spec, _real=real, _name=name):
            calls[_name] += 1
            return _real(spec)

        for module in (cli, verify, cyclic):
            monkeypatch.setattr(module, name, counted)
    rc, _, _ = _run(capsys, ["analyze", *F2_FLAGS, "--verify"])
    assert rc == 0
    assert calls == {"kernel_spec": 1, "rank_spec": 1}


_TAMPERED_STANDARD_FORM = """
import dataclasses
from z2z4.code import _validate_standard_form, standard_form
from z2z4.cyclic import cyclic_spec, materialize
from z2z4.gf2 import BinPoly
from z2z4.z4 import QuatPoly
spec = cyclic_spec(1, 3, BinPoly.parse("x+1"), BinPoly.parse("1"),
                   QuatPoly.parse("1"), QuatPoly.parse("x+3"), QuatPoly.parse("x^2+x+1"))
code = materialize(spec)
sf = standard_form(code)
swapped = dataclasses.replace(sf, quaternary_rows=sf.quaternary_rows[::-1])
try:
    _validate_standard_form(swapped, code)
except AssertionError as exc:
    print("rejected:", exc)
"""


def test_invariants_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(z2z4.__file__).resolve().parents[1]))

    def run_optimized(*argv):
        return subprocess.run([sys.executable, "-O", *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    suite = run_optimized("-m", "z2z4.cli", "paper-suite")
    assert suite.returncode == 0, suite.stderr
    assert "F9  printed span pair at length (3, 7): pass (flagged)" in suite.stdout
    assert suite.stdout.endswith("suite ok, flagged: F9\n")

    tampered = run_optimized("-c", _TAMPERED_STANDARD_FORM)
    assert tampered.returncode == 0, tampered.stderr
    assert tampered.stdout.startswith("rejected: standard form: malformed quaternary")
