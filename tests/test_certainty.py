"""Certainty as a lookup, held to the elimination it replaced.

`is_certain(s, m, out)` reads each canonical generator g of V_π off the
state: the outcome is certain iff every g is known and g.v is its label.
The reference below is the formulation it replaced: V_π ⊆ V by `contains`,
and the state's and the outcome's stacked constraints solvable by one
`_solve_augmented`.  The two are compared over every state, measurement and
outcome at small points and on seeded draws elsewhere, QQ included; two
mutants, each dropping one half of the lookup, must fail the same
comparison; and the lookup runs no elimination.
"""

import random

import pytest

from toytheory import algebra
from toytheory.algebra import QQ, _solve_augmented
from toytheory.errors import NotPointMass
from toytheory.measurement import (
    Measurement, is_certain, make_measurement, outcome_for_label,
    outcome_from_valuation, outcome_probability, outcomes,
)
from toytheory.phase_space import (
    all_isotropic_subspaces, discrete_space, rational_space,
)
from toytheory.states import all_valid_states, make_state

from conftest import count_calls, isotropic_rows, random_vector


def _reference_certain(s, m, out) -> bool:
    """V_π ⊆ V, and g.x = g.v (g in V) with g.x = label (g in V_π) is
    solvable."""
    if not all(s.known.contains(g) for g in m.observables.basis):
        return False
    rows, values = s.constraints()
    return _solve_augmented(s.field, s.space.ambient_dim,
                            rows + m.observables.basis,
                            values + out.label) is not None


def _containment_only(s, m, out) -> bool:
    return all(s.known.contains(g) for g in m.observables.basis)


def _values_only(s, m, out) -> bool:
    return all(s.field.dot(g, s.valuation) == value
               for g, value in zip(m.observables.basis, out.label))


def _agrees(query, cases) -> bool:
    return all(query(*case) == _reference_certain(*case) for case in cases)


def _exhaustive(d, n):
    space = discrete_space(d, n)
    ms = [Measurement(space, sub) for sub in all_isotropic_subspaces(space)]
    return [(s, m, o) for s in all_valid_states(space) for m in ms
            for o in outcomes(m)]


def _seeded(space, count, seed):
    """Seeded (state, measurement, outcome) draws: V is the first k of n
    drawn commuting rows, V_π spans combinations of some of its rows, inside
    V or not, and the outcome is the one the valuation lies in, or a label
    one entry off it."""
    field = space.field
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        rows = isotropic_rows(space, rng, space.n_systems)
        k = rng.randint(0, len(rows))
        s = make_state(space, rows[:k],
                       random_vector(field, space.ambient_dim, rng))
        picked = rng.sample(rows, rng.randint(1, len(rows)))
        combos = []
        for _ in picked:
            coeffs = [rng.randint(-2, 2) for _ in picked]
            combos.append(field.vector([
                sum(c * x for c, x in zip(coeffs, col))
                for col in zip(*picked)]))
        m = make_measurement(space, combos + [picked[0]])
        out = outcome_from_valuation(m, s.valuation)
        if rng.random() < 0.5:
            label = list(out.label)
            label[rng.randrange(len(label))] += rng.randint(1, 2)
            out = outcome_for_label(m, label)
        cases.append((s, m, out))
    return cases


EXHAUSTIVE = [(2, 1), (2, 2), (3, 1)]
SEEDED = [discrete_space(5, 2), discrete_space(3, 3), rational_space(2)]


def _check(cases):
    assert _agrees(is_certain, cases)
    # both verdicts occur, and each mutant is caught on these cases
    assert {is_certain(*case) for case in cases} == {True, False}
    assert not _agrees(_containment_only, cases)
    assert not _agrees(_values_only, cases)


@pytest.mark.parametrize("d, n", EXHAUSTIVE)
def test_lookup_matches_the_elimination_exhaustively(d, n):
    cases = _exhaustive(d, n)
    _check(cases)
    assert all(is_certain(*case) == (outcome_probability(*case) == 1)
               for case in cases)


@pytest.mark.parametrize("space", SEEDED, ids=repr)
def test_lookup_matches_the_elimination_on_seeded_draws(space):
    cases = _seeded(space, 400, 30)
    _check(cases)
    if space.field is not QQ:
        assert all(is_certain(*case) == (outcome_probability(*case) == 1)
                   for case in cases)


@pytest.mark.parametrize("space", SEEDED, ids=repr)
def test_certainty_eliminates_nothing_and_probability_once(monkeypatch,
                                                           space):
    cases = _seeded(space, 40, 31)
    calls = {}
    for name in ("_rref_rows", "_solve_augmented"):
        count_calls(monkeypatch, algebra, name, calls)
    for case in cases:
        is_certain(*case)
    assert calls == {}
    for case in cases:
        calls.clear()
        try:
            outcome_probability(*case)
        except NotPointMass:
            pass
        assert calls == {"_solve_augmented": 1, "_rref_rows": 1}
