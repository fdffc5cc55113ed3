"""The package's ``__all__`` lists exactly what ``__init__`` imports and
what README's quick start imports from the root, the quick start runs as
its comments say, no module states an invariant with ``assert``, which
``python -O`` strips, and importing the package loads no module it does
not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import z2z4

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The ``python`` block under README's "Python quick start"."""
    section = README.read_text().split("## Python quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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
    documented = {
        alias.name
        for node in ast.parse(_quick_start()).body
        if isinstance(node, ast.ImportFrom) and node.module == "z2z4"
        for alias in node.names
    }
    assert set(z2z4.__all__) == documented


def test_readme_quick_start_runs_as_its_comments_say():
    # run the block statement by statement, keeping each bare expression's
    # value: the kernel dimension, the rank and the cross-check verdict
    ns: dict = {}
    values = []
    for node in ast.parse(_quick_start()).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    assert values == [3, 6, True]
    assert ns["code"].size == 32
    assert len(ns["cross_check"](ns["spec"]).checks) == 31


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
