"""The bracket-block kernel `measurement._commuting_meet`, behind
`update_state`, `inference_conditions` and the branch kernel's V'.

The queries are held to the formulation the kernel replaced, written out
here: V' = V_π + commutant_within(V, V_π) by `subspace_sum`, the
post-state's point from one `_solve_augmented` of the state's and the
outcome's stacked constraints, the inference's subset test by `contains`
on V' and its solvability by a three-part stacked solve.  `infers` is held to the oracle's
conditional probability as well.  A kernel whose bracket block is zero,
so that it keeps V's non-commuting rows, fails these checks; and each
query runs one elimination.
"""

import random

import pytest

from toytheory import algebra, measurement, phase_space
from toytheory.algebra import (
    QQ, _solve_augmented, contains, orthogonal_complement,
    reduce_mod_subspace, subspace_sum,
)
from toytheory.errors import ImpossibleOutcome, NotPointMass
from toytheory.measurement import (
    Measurement, _check_outcome, inference_conditions, infers,
    make_measurement, outcome_for_label, outcome_from_valuation, outcomes,
    update_state,
)
from toytheory.oracle import oracle_conditional
from toytheory.phase_space import (
    all_isotropic_subspaces, commutant_within, discrete_space, rational_space,
)
from toytheory.states import EpistemicState, all_valid_states, make_state

from conftest import count_calls, isotropic_rows, random_vector


def _reference_update(s, m, out):
    """The update as one stacked solve, a commutant and a sum."""
    _check_outcome(s, m, out)
    rows, values = s.constraints()
    met = _solve_augmented(s.field, s.space.ambient_dim,
                           rows + m.observables.basis, values + out.label)
    if met is None:
        raise ImpossibleOutcome(f"outcome {out.label} has probability 0")
    rows, point = met
    if s.field is QQ and len(rows) != s.known.dim:
        raise NotPointMass("not a point mass")
    post = subspace_sum(m.observables,
                        commutant_within(s.known, m.observables))
    return EpistemicState(s.space, post, reduce_mod_subspace(
        orthogonal_complement(post), point))


def _reference_conditions(s, m_a, out_a, m_b, out_b):
    """The inference as a commutant, a sum, one `contains` per row of V_B
    and a three-part stacked solve."""
    _check_outcome(s, m_a, out_a)
    _check_outcome(s, m_b, out_b)
    v_comm = commutant_within(s.known, m_a.observables)
    reach = subspace_sum(v_comm, m_a.observables)
    cond1 = all(contains(reach, g) for g in m_b.observables.basis)
    values = tuple([s.field.dot(g, s.valuation) for g in v_comm.basis])
    cond2 = _solve_augmented(
        s.field, s.space.ambient_dim,
        v_comm.basis + m_a.observables.basis + m_b.observables.basis,
        values + out_a.label + out_b.label) is not None
    return cond1, cond2


def _result(query, *args):
    """The query's value, or the type of the library error it raised."""
    try:
        return query(*args)
    except (ImpossibleOutcome, NotPointMass) as exc:
        return type(exc)


def _update_matches(s, m, out) -> bool:
    return _result(update_state, s, m, out) == \
        _result(_reference_update, s, m, out)


def _conditions_match(*args) -> bool:
    return inference_conditions(*args) == _reference_conditions(*args)


def _measurements(space):
    return [Measurement(space, sub) for sub in all_isotropic_subspaces(space)]


def _combos(space, basis, rng):
    field = space.field
    row = tuple([field.zero] * space.ambient_dim)
    for g in basis:
        row = field.add_rows(row, field.scale_row(
            field.coerce(rng.randint(-2, 2)), g))
    return row


def _outcome(space, m, s, rng):
    """Half the draws the outcome the valuation lies in, half a random
    label."""
    if rng.random() < 0.5:
        return outcome_from_valuation(m, s.valuation)
    return outcome_for_label(m, random_vector(space.field, m.observables.dim,
                                              rng))


def _tuples(space, count, seed):
    """Seeded (state, A, outcome, B, outcome) draws.  Over QQ, half the
    draws' A measures observables the state knows, so that its outcomes
    are point masses.  B measures A's observables, the state's or random
    ones, a third each."""
    rng = random.Random(seed)
    n = space.n_systems
    found = []
    while len(found) < count:
        s = make_state(space, isotropic_rows(space, rng, rng.randint(0, n)),
                       random_vector(space.field, space.ambient_dim, rng))
        if space.field is QQ and rng.random() < 0.5:
            m_a = make_measurement(space, [_combos(space, s.known.basis, rng)
                                           for _ in range(s.known.dim)])
        else:
            m_a = make_measurement(
                space, isotropic_rows(space, rng, rng.randint(1, n)))
        pool = rng.choice([m_a.observables.basis, s.known.basis, None])
        rows = (isotropic_rows(space, rng, rng.randint(1, n)) if not pool
                else [_combos(space, pool, rng) for _ in pool])
        m_b = make_measurement(space, rows)
        if not (m_a.observables.dim and m_b.observables.dim):
            continue
        found.append((s, m_a, _outcome(space, m_a, s, rng), m_b,
                      _outcome(space, m_b, s, rng)))
    return found


SEEDED = [discrete_space(2, 2), discrete_space(3, 2), discrete_space(5, 2),
          rational_space(2)]


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2)])
def test_update_matches_the_commutant_route_exhaustively(d, n):
    space = discrete_space(d, n)
    raised = 0
    for s in all_valid_states(space):
        for m in _measurements(space):
            for o in outcomes(m):
                assert _update_matches(s, m, o)
                raised += _result(update_state, s, m, o) is ImpossibleOutcome
    assert raised > 0


def test_update_matches_the_commutant_route_over_qq():
    seen = set()
    for s, m_a, out_a, m_b, out_b in _tuples(rational_space(2), 150, 7):
        # B's outcome is no point mass unless B happens to be known
        for m, out in ((m_a, out_a), (m_b, out_b)):
            assert _update_matches(s, m, out)
            got = _result(update_state, s, m, out)
            seen.add(got if isinstance(got, type) else EpistemicState)
    assert seen == {EpistemicState, ImpossibleOutcome, NotPointMass}


def test_inference_matches_the_commutant_route_exhaustively_d2n1():
    space = discrete_space(2, 1)
    pairs = [(m, o) for m in _measurements(space) for o in outcomes(m)]
    seen = set()
    for s in all_valid_states(space):
        for m_a, out_a in pairs:
            for m_b, out_b in pairs:
                assert _conditions_match(s, m_a, out_a, m_b, out_b)
                seen.add(inference_conditions(s, m_a, out_a, m_b, out_b))
    assert len(seen) == 4


@pytest.mark.parametrize("space", SEEDED, ids=repr)
def test_inference_matches_the_commutant_route_on_seeded_draws(space):
    seen = set()
    for draw in _tuples(space, 300, 11):
        assert _conditions_match(*draw)
        seen.add(inference_conditions(*draw))
    assert len(seen) == 4


def test_infers_matches_the_oracle_d2n2():
    space = discrete_space(2, 2)
    states = all_valid_states(space)
    pairs = [(m, o) for m in _measurements(space) for o in outcomes(m)]
    rng = random.Random(5)
    seen = set()
    for _ in range(1500):
        s = rng.choice(states)
        (m_a, out_a), (m_b, out_b) = rng.choice(pairs), rng.choice(pairs)
        cond = oracle_conditional(s, m_a, out_a, m_b, out_b)
        got = infers(s, m_a, out_a, m_b, out_b)
        assert got == (cond == 1)
        seen.add((got, cond is None))
    assert seen == {(True, False), (False, False), (False, True)}


def test_a_kernel_without_the_bracket_block_fails(monkeypatch):
    # every bracket [g, b] reads 0, so the kernel keeps all of V
    monkeypatch.setattr(measurement, "symplectic_dual",
                        lambda field, g: (field.zero,) * len(g))
    space = discrete_space(2, 2)
    states = all_valid_states(space)
    assert not all(_update_matches(s, m, o) for s in states[:30]
                   for m in _measurements(space) for o in outcomes(m))
    for space in SEEDED:
        assert not all(_conditions_match(*draw)
                       for draw in _tuples(space, 100, 11))


@pytest.mark.parametrize("space", SEEDED, ids=repr)
def test_update_and_inference_eliminate_once(monkeypatch, space):
    draws = _tuples(space, 20, 3)
    for s, m_a, out_a, _, _ in draws:
        _result(update_state, s, m_a, out_a)   # V'^⊥ is now cached
    calls = {}
    count_calls(monkeypatch, algebra, "_rref_rows", calls)
    count_calls(monkeypatch, algebra, "subspace_sum", calls)
    count_calls(monkeypatch, phase_space, "commutant_within", calls)
    for s, m_a, out_a, m_b, out_b in draws:
        for query, args in ((update_state, (s, m_a, out_a)),
                            (inference_conditions,
                             (s, m_a, out_a, m_b, out_b))):
            calls.clear()
            _result(query, *args)
            assert calls == {"_rref_rows": 1}
