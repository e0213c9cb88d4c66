from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from toytheory.algebra import _rref_rows, enumerate_coset
from toytheory.errors import (
    EnumerationCapExceeded, ImpossibleOutcome, InvariantViolation,
)
from toytheory.measurement import (
    Measurement, infers, make_measurement, outcome_for_label,
    outcome_from_valuation, outcome_probability, outcomes, update_state,
)
from toytheory import oracle
from toytheory.oracle import (
    _largest_superspace_orthogonal_to, _outcome_points, oracle_conditional,
    oracle_probability, oracle_smallest_update,
)
from toytheory.phase_space import (
    _all_vectors, all_isotropic_subspaces, discrete_space, rational_space,
)
from toytheory.states import (
    all_valid_states, bell_pair, make_state, ontic_support, tensor, toy_bit,
)

SP1 = discrete_space(2, 1)
SP2 = discrete_space(2, 2)
MZ1 = make_measurement(SP1, [(1, 0)])


def test_oracle_probability_examples():
    out0 = outcome_for_label(MZ1, (0,))
    assert oracle_probability(toy_bit("+"), MZ1, out0) == Fraction(1, 2)
    assert oracle_probability(toy_bit("0"), MZ1, out0) == 1


@pytest.mark.parametrize("update", [oracle_smallest_update, update_state])
def test_an_impossible_update_is_a_domain_error(update):
    # the oracle refuses the update the algebra refuses, with its error
    # (CLI exit 2), not with a cap error (exit 3)
    with pytest.raises(ImpossibleOutcome,
                       match=r"^outcome \(1,\) has probability 0$"):
        update(toy_bit("0"), MZ1, outcome_for_label(MZ1, (1,)))


def test_oracle_matches_algebra_exhaustively_n1():
    for s in all_valid_states(SP1):
        for sub in all_isotropic_subspaces(SP1):
            m = Measurement(SP1, sub)
            for o in outcomes(m):
                assert oracle_probability(s, m, o) == \
                    outcome_probability(s, m, o)


def test_oracle_smallest_update_examples():
    out0 = outcome_for_label(MZ1, (0,))
    got = oracle_smallest_update(toy_bit("+"), MZ1, out0)
    assert got.members == ontic_support(toy_bit("0")).members
    mzB = make_measurement(SP2, [(0, 0, 1, 0)])
    b0 = outcome_for_label(mzB, (0,))
    got = oracle_smallest_update(bell_pair(2), mzB, b0)
    assert got.members == ontic_support(
        tensor(toy_bit("0"), toy_bit("0"))).members
    # an eigenstate is undisturbed
    got = oracle_smallest_update(toy_bit("0"), MZ1, out0)
    assert got.members == ontic_support(toy_bit("0")).members


def test_oracle_conditional_examples():
    mzB = make_measurement(SP2, [(0, 0, 1, 0)])
    mzA = make_measurement(SP2, [(1, 0, 0, 0)])
    b0 = outcome_for_label(mzB, (0,))
    a0 = outcome_for_label(mzA, (0,))
    a1 = outcome_for_label(mzA, (1,))
    assert oracle_conditional(bell_pair(2), mzB, b0, mzA, a0) == 1
    assert oracle_conditional(bell_pair(2), mzB, b0, mzA, a1) == 0
    plus2 = tensor(toy_bit("+"), toy_bit("+"))
    assert oracle_conditional(plus2, mzB, b0, mzA, a0) == Fraction(1, 2)
    # premise of probability zero is undefined
    product = tensor(toy_bit("0"), toy_bit("0"))
    b1 = outcome_for_label(mzB, (1,))
    assert oracle_conditional(product, mzB, b1, mzA, a0) is None


def test_pre_post_selection_consistency():
    for s in all_valid_states(SP1):
        for sub in all_isotropic_subspaces(SP1):
            m = Measurement(SP1, sub)
            for o in outcomes(m):
                coset = o.coset()
                nonempty = any(coset.contains(x)
                               for x in ontic_support(s).members)
                assert nonempty == (oracle_probability(s, m, o) > 0)


def test_oracle_certifies_update_n1():
    for s in all_valid_states(SP1):
        for sub in all_isotropic_subspaces(SP1):
            m = Measurement(SP1, sub)
            for o in outcomes(m):
                if outcome_probability(s, m, o) == 0:
                    continue
                assert ontic_support(update_state(s, m, o)).members == \
                    oracle_smallest_update(s, m, o).members


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_outcome_indicator_matches_outcome_coset(d, n, rng):
    space = discrete_space(d, n)
    points = _all_vectors(space.field, space.ambient_dim)
    catalog = all_isotropic_subspaces(space)
    for sub in rng.sample(catalog, min(6, len(catalog))):
        for o in outcomes(Measurement(space, sub)):
            assert set(_outcome_points(points, o)) == \
                set(enumerate_coset(o.coset()))


@pytest.mark.parametrize("d", [2, 3])
def test_conditional_is_the_hit_share_of_the_smallest_update(d, rng):
    space = discrete_space(d, 2)
    states = all_valid_states(space)
    catalog = all_isotropic_subspaces(space)
    undefined = defined = 0
    for _ in range(60):
        s = rng.choice(states)
        m_a, m_b = (Measurement(space, rng.choice(catalog)) for _ in "ab")
        out_a = rng.choice(outcomes(m_a))
        out_b = rng.choice(outcomes(m_b))
        cond = oracle_conditional(s, m_a, out_a, m_b, out_b)
        if oracle_probability(s, m_a, out_a) == 0:
            assert cond is None
            undefined += 1
            continue
        post = oracle_smallest_update(s, m_a, out_a).members
        coset = out_b.coset()
        assert cond == Fraction(sum(coset.contains(o) for o in post),
                                len(post))
        defined += 1
    assert undefined and defined


def test_oracle_refuses_rational_states():
    space = rational_space(1)
    s = make_state(space, [(1, 0)], (0, 0))
    m = Measurement(space, s.known)
    out = outcome_for_label(m, (0,))
    with pytest.raises(EnumerationCapExceeded):
        oracle_probability(s, m, out)
    with pytest.raises(EnumerationCapExceeded):
        oracle_smallest_update(s, m, out)
    with pytest.raises(EnumerationCapExceeded):
        oracle_conditional(s, m, out, m, out)


def _premise_diffs(s, out):
    """An RREF basis of the span of the differences of the premise's
    points, as the oracle's update takes it."""
    field = s.field
    pre_post = _outcome_points(ontic_support(s).members, out)
    x0 = min(pre_post)
    return _rref_rows(field, [field.sub_rows(x, x0) for x in pre_post])[0]


def _first_in_catalog(catalog, v_pi, diffs):
    """The reference answer: the first catalog member, largest dimension
    first and sorted within each, that contains V_π and is orthogonal to
    every difference."""
    field = v_pi.field
    return next(w for w in sorted(catalog, key=lambda w: -w.dim)
                if all(w.contains(g) for g in v_pi.basis)
                and not any(field.dot(b, x) for b in w.basis for x in diffs))


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (5, 2), (3, 3)])
def test_superspace_walk_is_the_filtered_catalog(d, n, rng):
    space = discrete_space(d, n)
    catalog = all_isotropic_subspaces(space)
    line = rng.choice([w for w in catalog if w.dim == 1])
    lagrangian = rng.choice([w for w in catalog if w.dim == n])
    # the empty D: a premise of one point, which needs V + V_π to be the
    # whole space, so V_π is Lagrangian
    assert _largest_superspace_orthogonal_to(space, lagrangian, []) == \
        _first_in_catalog(catalog, lagrangian, [])
    cases = 0
    for v_pi in (catalog[0], line, lagrangian):
        for _ in range(12):
            known = rng.choice(catalog)
            s = make_state(space, known.basis,
                           [rng.randrange(d) for _ in range(2 * n)])
            point = rng.choice(sorted(ontic_support(s).members))
            out = outcome_from_valuation(Measurement(space, v_pi), point)
            diffs = _premise_diffs(s, out)
            assert _largest_superspace_orthogonal_to(space, v_pi, diffs) == \
                _first_in_catalog(catalog, v_pi, diffs)
            cases += bool(diffs)
    assert cases


def test_superspace_walk_refuses_a_premise_off_the_outcome():
    v_pi = MZ1.observables
    # (0,0) and (1,0) differ in the measured q: no W ⊇ V_π contains both
    with pytest.raises(InvariantViolation):
        _largest_superspace_orthogonal_to(SP1, v_pi, [(1, 0)])


def test_superspace_walk_refuses_two_top_superspaces(monkeypatch):
    real = oracle.isotropic_subspaces_within

    def doubled(*args):
        return [per_dim * 2 for per_dim in real(*args)]

    monkeypatch.setattr(oracle, "isotropic_subspaces_within", doubled)
    with pytest.raises(InvariantViolation):
        _largest_superspace_orthogonal_to(SP1, MZ1.observables, [])


# Every isotropic subspace at d in {2, 3, 5} and n in {1, 2}: the known
# sets of the drawn states and the measured subspaces.
_CATALOGS = [(sp, all_isotropic_subspaces(sp))
             for sp in (discrete_space(d, n) for d in (2, 3, 5)
                        for n in (1, 2))]


@st.composite
def _state_and_measurements(draw):
    """A valid state and two measurements with one outcome each.  About
    half of the time the premise's outcome is the one at a drawn support
    point, so that possible premises, and with them updates, come up
    often."""
    space, subs = draw(st.sampled_from(_CATALOGS))
    field = space.field
    known = draw(st.sampled_from(subs))
    valuation = draw(st.tuples(*[st.integers(0, field.p - 1)]
                               * space.ambient_dim))
    s = make_state(space, known.basis, valuation)
    measured = [sub for sub in subs if sub.dim]
    m_a = Measurement(space, draw(st.sampled_from(measured)))
    m_b = Measurement(space, draw(st.sampled_from(measured)))
    if draw(st.booleans()):
        point = draw(st.sampled_from(sorted(ontic_support(s).members)))
        out_a = outcome_from_valuation(m_a, point)
    else:
        out_a = draw(st.sampled_from(outcomes(m_a)))
    return s, m_a, out_a, m_b, draw(st.sampled_from(outcomes(m_b)))


@given(_state_and_measurements())
def test_algebraic_rules_match_the_oracle(case):
    s, m_a, out_a, m_b, out_b = case
    p = outcome_probability(s, m_a, out_a)
    assert p == oracle_probability(s, m_a, out_a)
    assert infers(s, m_a, out_a, m_b, out_b) == \
        (oracle_conditional(s, m_a, out_a, m_b, out_b) == 1)
    if p:
        assert ontic_support(update_state(s, m_a, out_a)).members == \
            oracle_smallest_update(s, m_a, out_a).members


@given(_state_and_measurements())
def test_superspace_walk_matches_the_catalog(case):
    s, m_a, out_a, _, _ = case
    assume(outcome_probability(s, m_a, out_a))
    catalog = dict(_CATALOGS)[s.space]
    diffs = _premise_diffs(s, out_a)
    assert _largest_superspace_orthogonal_to(s.space, m_a.observables,
                                             diffs) == \
        _first_in_catalog(catalog, m_a.observables, diffs)
