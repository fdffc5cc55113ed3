"""The package's ``__all__`` lists exactly what ``__init__`` imports, and no
module states an invariant with ``assert``, which ``python -O`` strips."""

import ast
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
