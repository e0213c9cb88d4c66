"""The library imports at module level, with one named exception.

`import toytheory` loads every module of the package, so an import inside a
function protects nothing and only hides a dependency from the module's
header.  The one kept is `scenarios._pool_context`'s
`import multiprocessing`: `import toytheory` does not load the
multiprocessing package, importing its pool costs tens of milliseconds, and
only an exhaustive FR search with more than one worker needs it.  This test
parses every module and fails on any other import inside a function.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toytheory"

ALLOWED = {("scenarios.py", "_pool_context", "multiprocessing")}


def _imports_in_functions(path: Path) -> set:
    found = set()
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                found.update((path.name, func.name, alias.name)
                             for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.add((path.name, func.name,
                           "." * node.level + (node.module or "")))
    return found


def test_library_imports_only_at_module_level():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = set().union(*map(_imports_in_functions, modules))
    assert found == ALLOWED
