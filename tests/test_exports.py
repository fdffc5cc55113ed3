"""The package's ``__all__`` lists exactly what ``__init__`` imports, no
module states an invariant with ``assert``, which ``python -O`` strips,
and importing the package loads no module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import z2z4


def test_all_matches_the_imported_names():
    tree = ast.parse(Path(z2z4.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(z2z4.__all__) == imported
    assert len(z2z4.__all__) == len(imported)
    for name in z2z4.__all__:
        assert getattr(z2z4, name) is not None


def test_no_assert_statement_in_the_package():
    modules = sorted(Path(z2z4.__file__).parent.rglob("*.py"))
    assert Path(z2z4.__file__) in modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_import_loads_neither_multiprocessing_nor_numpy_random():
    # each adds milliseconds to every cold start; only a parallel sweep
    # needs multiprocessing, and it imports it itself
    env = dict(os.environ, PYTHONPATH=str(Path(z2z4.__file__).resolve().parents[1]))
    probe = ("import sys, z2z4; "
             "print([m for m in ('multiprocessing', 'numpy.random') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
