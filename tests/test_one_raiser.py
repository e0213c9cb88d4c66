"""Each refusal of a malformed value is raised in one place.

A measurement, an outcome and a conditional-preparation scenario check
themselves when built, so their factories and the values that hold them
need no copy of those checks; a copy would drift from the original or let
a hand-built value past it.  The AST scan below finds every `raise` in
`src/toytheory` whose message holds one of the refusals and fails when a
refusal is raised anywhere but in its type.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toytheory"

REFUSALS = {
    "label needs": ("measurement.py", "Outcome.__post_init__"),
    "must commute pairwise": ("measurement.py", "Measurement.__post_init__"),
    "need one desired target": ("dynamics.py",
                                "ConditionalPrepSpec.__post_init__"),
}


def _raisers(path: Path) -> set:
    """(phrase, file, qualified function) for each raise of a refusal."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Raise):
                texts = [n.value for n in ast.walk(child)
                         if isinstance(n, ast.Constant)
                         and isinstance(n.value, str)]
                for phrase in REFUSALS:
                    if any(phrase in text for text in texts):
                        found.add((phrase, path.name, ".".join(scope)))
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), ())
    return found


def test_each_refusal_has_one_raiser():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = set().union(*map(_raisers, modules))
    assert found == {(phrase, *place) for phrase, place in REFUSALS.items()}
