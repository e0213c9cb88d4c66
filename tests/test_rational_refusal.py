"""One refusal of a rational field, with one error type and exit 3.

Every operation that enumerates or samples needs a discrete field Z_p; over
QQ the ontic points and the outcomes are infinite.  Each one refuses QQ
through the one guard `phase_space._require_prime`, which raises
`ContinuousNotEnumerable`, an `EnumerationCapExceeded`, naming the refused
operation; the CLI exits 3 on it.  The AST scan below keeps it that way: it
fails when any other `if not isinstance(..., PrimeField)` block raises,
apart from `algebra._span_from`'s `TypeError`, an argument check that the
library reaches only after the guard.
"""

import ast
import json
import random
from pathlib import Path

import pytest

from toytheory import cli
from toytheory.algebra import QQ, rref
from toytheory.dynamics import (
    ConditionalPrepSpec, find_conditional_transform, random_symplectic,
    symplectic_group,
)
from toytheory.errors import ContinuousNotEnumerable, EnumerationCapExceeded
from toytheory.measurement import (
    branches, make_measurement, outcomes, sample_outcome,
)
from toytheory.phase_space import _check_enumerable, rational_space
from toytheory.states import (
    OnticSupport, all_valid_states, is_valid_support, make_state,
    ontic_support,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toytheory"

SPACE = rational_space(1)
STATE = make_state(SPACE, [(1, 0)], (0, 0))
MEASUREMENT = make_measurement(SPACE, [(1, 0)])


def _spec() -> ConditionalPrepSpec:
    return ConditionalPrepSpec(
        source_space=SPACE, source_known=rref(QQ, 2, [(1, 0)]),
        source_valuations=((0, 0), (1, 0)), target_initial=STATE,
        desired_targets=(STATE, STATE))


# each refusing entry point on a rational input, and the operation its
# message names
REFUSALS = {
    "_check_enumerable": (lambda: _check_enumerable(SPACE),
                          "enumerating ontic states"),
    "is_valid_support": (
        lambda: is_valid_support(OnticSupport(SPACE, frozenset({(0, 0)}))),
        "checking a support"),
    "outcomes": (lambda: outcomes(MEASUREMENT),
                 "listing a measurement's outcomes"),
    "symplectic_group": (lambda: symplectic_group(QQ, 1),
                         "enumerating the symplectic group"),
    "random_symplectic": (lambda: random_symplectic(SPACE, random.Random(0)),
                          "sampling a random symplectic transform"),
    "ConditionalPrepSpec": (_spec, "a conditional-preparation scenario"),
    "sample_outcome": (lambda: sample_outcome(STATE, MEASUREMENT),
                       "listing a measurement's outcomes"),
    "find_conditional_transform": (
        lambda: find_conditional_transform(_spec(), exhaustive=True),
        "a conditional-preparation scenario"),
    "ontic_support": (lambda: ontic_support(STATE),
                      "enumerating ontic states"),
    "branches": (lambda: branches(STATE, MEASUREMENT),
                 "listing a measurement's outcomes"),
    "all_valid_states": (lambda: all_valid_states(SPACE),
                         "enumerating ontic states"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_entry_point_refuses_the_rationals_through_the_guard(name):
    call, operation = REFUSALS[name]
    with pytest.raises(ContinuousNotEnumerable,
                       match=f"^{operation} needs a discrete field") as e:
        call()
    assert isinstance(e.value, EnumerationCapExceeded)
    assert "rational" in str(e.value)


@pytest.fixture
def qq_files(tmp_path):
    docs = {
        # a state that knows q = 1/2
        "q.json": {"field": "rational", "n": 1, "generators": [[1, 0]],
                   "valuation": ["1/2", 0]},
        "mq.json": {"observables": [[1, 0]]},
        "mp.json": {"observables": [[0, 1]]},
        "support.json": {"field": "rational", "n": 1,
                         "support": [[0, 0], ["1/2", 0]]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return lambda argv: [str(tmp_path / a) if a in docs else a for a in argv]


@pytest.mark.parametrize("argv, code, message", [
    (["measure", "q.json", "mq.json", "--outcome", "1/2"], 0, ""),
    (["measure", "q.json", "mq.json"], 3,
     "measure without --outcome needs a discrete field"),
    (["measure", "q.json", "mq.json", "--outcome", "1/3"], 2,
     "outcome (1/3,) has probability 0"),
    (["measure", "q.json", "mp.json", "--outcome", "0"], 2,
     "neither 0 nor 1"),
    (["measure", "q.json", "mq.json", "--outcome", "1/2", "--verify"], 3,
     "enumerating ontic states"),
    (["evolve", "q.json", "--gate", "identity", "--verify"], 3,
     "enumerating ontic states"),
    (["state", "validate", "support.json"], 3, "checking a support"),
], ids=["measure-outcome", "measure-sampled", "measure-impossible",
        "measure-not-point-mass", "measure-verify", "evolve-verify",
        "validate-support"])
def test_cli_rational_exit_codes(qq_files, capsys, argv, code, message):
    assert cli.main(qq_files(argv)) == code
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == (code != 0)


def test_cli_measures_a_given_rational_outcome(qq_files, capsys):
    assert cli.main(["--format", "json", *qq_files(
        ["measure", "q.json", "mq.json", "--outcome", "1/2"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["probabilities"] == {"(1/2,)": "1"}
    assert doc["outcome"] == ["1/2"]
    assert doc["post_state"]["valuation"] == ["1/2", 0]


def _is_not_prime_check(test: ast.expr) -> bool:
    """`not isinstance(x, PrimeField)`."""
    return (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Call)
            and getattr(test.operand.func, "id", None) == "isinstance"
            and getattr(test.operand.args[1], "id", None) == "PrimeField")


def _raising_prime_checks(path: Path) -> set:
    found = set()
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.If) and _is_not_prime_check(node.test) \
                    and any(isinstance(n, ast.Raise) for stmt in node.body
                            for n in ast.walk(stmt)):
                found.add((path.name, func.name))
    return found


def test_only_the_guard_refuses_a_rational_field():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = set().union(*map(_raising_prime_checks, modules))
    assert found == {("phase_space.py", "_require_prime"),
                     ("algebra.py", "_span_from")}
