"""One limit on explicit enumeration, set only by TOY_ENUM_CAP.

Every explicit enumerator (supports, mixtures, the state and isotropic-
subspace catalogs, the oracle) refuses a phase space of more than
`enumeration_cap()` points and any rational space, through the one guard
`phase_space._check_enumerable`.  The AST scan below keeps it that way: it
fails when `enumeration_cap` is read anywhere else, or when a library
function other than `symplectic_group` grows a `cap` parameter.
"""

import ast
from pathlib import Path

import pytest

from toytheory.config import DEFAULT_ENUM_CAP, enumeration_cap
from toytheory.errors import EnumerationCapExceeded
from toytheory.measurement import make_measurement, outcome_from_valuation
from toytheory.oracle import (
    oracle_conditional, oracle_probability, oracle_smallest_update,
)
from toytheory.phase_space import (
    all_isotropic_subspaces, discrete_space, q_observable, rational_space,
)
from toytheory.states import (
    all_valid_states, make_state, maximally_mixed, mixture_support,
    ontic_support, state_from_values, tensor, toy_bit,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toytheory"

# each enumerator, called on a state, a measurement and an outcome of it
ENUMERATORS = {
    "ontic_support": lambda s, m, out: ontic_support(s),
    "mixture_support":
        lambda s, m, out: mixture_support([s, maximally_mixed(s.space)]),
    "all_valid_states": lambda s, m, out: all_valid_states(s.space),
    "all_isotropic_subspaces":
        lambda s, m, out: all_isotropic_subspaces(s.space),
    "oracle_probability": oracle_probability,
    "oracle_smallest_update": oracle_smallest_update,
    "oracle_conditional":
        lambda s, m, out: oracle_conditional(s, m, out, m, out),
}


def _measured(s):
    """A measurement of q on the first system and the outcome that the
    state's valuation takes, so it has positive probability."""
    m = make_measurement(s.space, [q_observable(s.space, 0)])
    return s, m, outcome_from_valuation(m, s.valuation)


@pytest.mark.parametrize("name", ENUMERATORS)
@pytest.mark.parametrize("state, below", [
    # a 4-point support among the 2^4 points of two toy bits
    pytest.param(tensor(toy_bit("0"), toy_bit("1")), 8, id="two-bits"),
    pytest.param(maximally_mixed(discrete_space(2, 3)), 16, id="three-bits"),
    pytest.param(state_from_values(discrete_space(3, 1), [((1, 0), 2)]), 8,
                 id="trit"),
])
def test_every_enumerator_obeys_the_one_limit(name, state, below,
                                              monkeypatch):
    enumerate_ = ENUMERATORS[name]
    p, n = state.field.p, state.space.ambient_dim
    monkeypatch.setenv("TOY_ENUM_CAP", str(below))
    with pytest.raises(EnumerationCapExceeded,
                       match=rf"{p}\^{n} = {p ** n} .*cap of {below}"):
        enumerate_(*_measured(state))
    monkeypatch.setenv("TOY_ENUM_CAP", str(p ** n))
    assert enumerate_(*_measured(state))
    monkeypatch.delenv("TOY_ENUM_CAP")
    rational = make_state(rational_space(1), [(1, 0)], (0, 0))
    with pytest.raises(EnumerationCapExceeded, match="rational"):
        enumerate_(*_measured(rational))


def test_enumeration_cap_reads_the_environment(monkeypatch):
    monkeypatch.delenv("TOY_ENUM_CAP", raising=False)
    assert enumeration_cap() == DEFAULT_ENUM_CAP
    monkeypatch.setenv("TOY_ENUM_CAP", "16")
    assert enumeration_cap() == 16
    monkeypatch.setenv("TOY_ENUM_CAP", "1")
    assert enumeration_cap() == 1


@pytest.mark.parametrize("value", ["abc", "1e3", "2.5", "", "0", "-3"])
def test_enumeration_cap_rejects_a_bad_value(monkeypatch, value):
    monkeypatch.setenv("TOY_ENUM_CAP", value)
    with pytest.raises(ValueError, match=f"TOY_ENUM_CAP .*got '{value}'"):
        enumeration_cap()


class _LimitUses(ast.NodeVisitor):
    """The qualified names of the scopes that read `enumeration_cap`, and
    of the functions with a parameter named `cap`."""

    def __init__(self, module: str):
        self.scope = [module]
        self.readers = []
        self.cap_params = []

    def _enter(self, node, name: str):
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._enter(node, node.name)

    def _check_params(self, node, name: str):
        a = node.args
        if any(arg is not None and arg.arg == "cap" for arg in
               a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]):
            self.cap_params.append(".".join(self.scope + [name]))
        self._enter(node, name)

    def visit_FunctionDef(self, node):
        self._check_params(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._check_params(node, "<lambda>")

    def _read(self, name: str):
        if name == "enumeration_cap":
            self.readers.append(".".join(self.scope))

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def test_one_guard_reads_the_enumeration_limit():
    readers, cap_params = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        uses = _LimitUses(path.stem)
        uses.visit(ast.parse(path.read_text(), str(path)))
        readers += uses.readers
        cap_params += uses.cap_params
    assert readers == ["phase_space._check_enumerable"]
    assert cap_params == ["dynamics.symplectic_group"]
