"""`cli._load` is the one reader of the documents a command is given.

It refuses a document that is not a JSON object, fills in field/d/n from
the state a transform or measurement acts on, and turns a missing key into
one "<kind> schema error in PATH" line.  A second reader would have its own
defaults and errors, so this test parses `cli.py` and fails on any call of
`open` or `json.load` outside `_load`.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "toytheory" / "cli.py"


def _reads(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id == "open"
    return (isinstance(f, ast.Attribute) and f.attr == "load"
            and isinstance(f.value, ast.Name) and f.value.id == "json")


def test_only_the_loader_reads_cli_documents():
    tree = ast.parse(CLI.read_text(), str(CLI))
    loader = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_load")
    inside = {id(node) for node in ast.walk(loader)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _reads(node)]
    assert reads
    assert [node.lineno for node in reads if id(node) not in inside] == []
