"""Byte-for-byte CLI output for ``search`` and ``analyze``.

The expected standard output of case ``NAME`` is ``golden/NAME.out`` and
its exit code is ``golden/exit_codes.json[NAME]``.  Both were captured
from the command line before ``search`` and ``analyze`` shared one row
renderer, so any drift in a header, a cell, a verdict or a footer shows
up here as a diff.
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    rc = main(CASES[name])
    captured = capsys.readouterr()
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert captured.out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert captured.err == ""
    assert rc == exit_codes[name]
