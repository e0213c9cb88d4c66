"""The library states its invariants with typed errors, never `assert`.

`python -O` strips assert statements, so a library invariant written as one
would stop being checked; `src/toytheory` raises a `ToyTheoryError` subclass
instead.  This test parses every module and fails on any assert statement.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toytheory"


def test_library_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
