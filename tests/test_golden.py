"""Byte-for-byte CLI output of every command in every format.

The expected standard output of case ``NAME`` is ``golden/NAME.out`` and
its exit code is ``golden/exit_codes.json[NAME]``.  The ``search-*`` and
``analyze-*`` cases were captured before ``search`` and ``analyze``
shared one row renderer.  The ``factor-*``, ``enumerate-*``,
``paper-suite-*`` and ``search-closed-*`` cases (``search`` without
``--verify`` at (2, 15) and (3, 9)) were captured before the text and CSV
views were rendered from the JSON records, with ``paper-suite-strict``
pinning exit code 1.  Any drift in a header, a cell, a verdict or a
footer shows up here as a diff.
"""

import json
from pathlib import Path

import pytest

from test_cli import F2_FLAGS
from z2z4.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_SEARCH = ["search", "--alpha", "2", "--beta", "7", "--type", "2,3"]
_GUARDED = ["search", "--alpha", "2", "--beta", "3", "--max-size", "16", "--verify"]
_ANALYZE = ["analyze", *F2_FLAGS]

CASES = {}
for _fmt in ("text", "csv", "json"):
    _tail = ["--format", _fmt]
    CASES[f"search-{_fmt}"] = _SEARCH + _tail
    CASES[f"search-verify-{_fmt}"] = _SEARCH + ["--verify"] + _tail
    CASES[f"search-guarded-{_fmt}"] = _GUARDED + _tail
    CASES[f"analyze-{_fmt}"] = _ANALYZE + _tail
    CASES[f"analyze-verify-{_fmt}"] = _ANALYZE + ["--verify"] + _tail
    CASES[f"enumerate-{_fmt}"] = ["enumerate", *F2_FLAGS] + _tail
    CASES[f"paper-suite-{_fmt}"] = ["paper-suite"] + _tail
CASES["factor-z4-text"] = ["factor", "--n", "15", "--ring", "z4"]
CASES["factor-gf2-json"] = ["factor", "--n", "15", "--ring", "gf2", "--format", "json"]
CASES["factor-z4-csv"] = ["factor", "--n", "15", "--ring", "z4", "--format", "csv"]
CASES["paper-suite-strict"] = ["paper-suite", "--strict-erratum"]
CASES["search-closed-json"] = ["search", "--alpha", "2", "--beta", "15", "--format", "json"]
CASES["search-closed-csv"] = ["search", "--alpha", "3", "--beta", "9", "--format", "csv"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    rc = main(CASES[name])
    captured = capsys.readouterr()
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert captured.out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert captured.err == ""
    assert rc == exit_codes[name]
