from fractions import Fraction

import pytest

from toytheory import measurement
from toytheory.algebra import (
    GF, QQ, dot, enumerate_coset, orthogonal_complement, rref, vec_add,
    vec_sub,
)
from toytheory.errors import (
    ContinuousNotEnumerable, DimensionMismatch, ImpossibleOutcome,
    NotIsotropic, NotPointMass,
)
from toytheory.measurement import (
    Measurement, Outcome, infers, inference_conditions, is_certain,
    make_measurement, outcome_for_label, outcome_from_valuation,
    outcome_probability, outcomes, sample_outcome, update_state,
)
from toytheory.oracle import oracle_probability
from toytheory.phase_space import (
    bracket_vectors, discrete_space, rational_space,
)
from toytheory.states import (
    bell_pair, make_state, states_equal, tensor, toy_bit,
)

from conftest import count_calls, random_vector

F2 = GF(2)
SP1 = discrete_space(2, 1)
SP2 = discrete_space(2, 2)
MZ1 = make_measurement(SP1, [(1, 0)])


def test_measurement_requires_commuting_observables():
    with pytest.raises(NotIsotropic):
        make_measurement(SP1, [(1, 0), (0, 1)])


def test_outcomes_partition():
    outs = outcomes(MZ1)
    assert len(outs) == 2
    members = [frozenset(_coset_set(o)) for o in outs]
    assert members[0] & members[1] == frozenset()
    assert members[0] | members[1] == {(0, 0), (0, 1), (1, 0), (1, 1)}

    trivial = make_measurement(SP1, [])
    assert len(outcomes(trivial)) == 1

    m = make_measurement(SP2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    outs = outcomes(m)
    assert len(outs) == 4
    sets = [set(_coset_set(o)) for o in outs]
    assert all(len(s) == 4 for s in sets)
    assert set().union(*sets) == set(_all4())


def _coset_set(o):
    from toytheory.algebra import enumerate_coset
    return list(enumerate_coset(o.coset()))


def _all4():
    from toytheory.phase_space import _all_vectors
    return _all_vectors(F2, 4)


def test_probability_examples():
    outs = outcomes(MZ1)
    for o in outs:
        assert outcome_probability(toy_bit("+"), MZ1, o) == Fraction(1, 2)
    assert outcome_probability(toy_bit("0"), MZ1, outs[0]) == 1
    assert outcome_probability(toy_bit("0"), MZ1, outs[1]) == 0


def test_probability_normalization_sweep():
    from toytheory.states import all_valid_states
    from toytheory.phase_space import all_isotropic_subspaces
    from toytheory.measurement import Measurement
    for s in all_valid_states(SP2):
        for sub in all_isotropic_subspaces(SP2):
            m = Measurement(SP2, sub)
            assert sum(outcome_probability(s, m, o) for o in outcomes(m)) == 1


def test_rational_point_masses_and_label_convention():
    sp = rational_space(1)
    s = make_state(sp, [(2, 0)], (3, 1))  # knows 2q = 6, i.e. q = 3
    m = make_measurement(sp, [(1, 0)])
    out3 = outcome_from_valuation(m, (3, 0))
    out6 = outcome_from_valuation(m, (6, 0))
    assert out3.label == (3,)
    assert outcome_probability(s, m, out3) == 1
    assert outcome_probability(s, m, out6) == 0
    free = make_state(sp, [], (0, 0))
    with pytest.raises(NotPointMass):
        outcome_probability(free, m, out3)
    with pytest.raises(ContinuousNotEnumerable):
        outcomes(m)
    # certainty works over the rationals without enumeration
    q_state = make_state(sp, [(1, 0)], (3, 0))
    assert is_certain(q_state, m, out3)
    assert not is_certain(q_state, m, out6)
    assert not is_certain(free, m, out3)


def test_sampling_determinism_and_frequencies():
    out_certain = outcomes(MZ1)[0]
    for seed in range(5):
        assert sample_outcome(toy_bit("0"), MZ1, seed) == out_certain
    seq1 = [sample_outcome(toy_bit("+"), MZ1, seed) for seed in range(50)]
    seq2 = [sample_outcome(toy_bit("+"), MZ1, seed) for seed in range(50)]
    assert seq1 == seq2
    n = 10000
    ones = sum(sample_outcome(toy_bit("+"), MZ1, seed).label[0]
               for seed in range(n))
    # 5 sigma around n/2 for a fair coin
    assert abs(ones - n / 2) <= 5 * (n ** 0.5) / 2


def test_update_examples():
    out0 = outcome_for_label(MZ1, (0,))
    assert states_equal(update_state(toy_bit("+"), MZ1, out0), toy_bit("0"))
    # local measurement on one half of the correlated pair
    mzB = make_measurement(SP2, [(0, 0, 1, 0)])
    out = outcome_for_label(mzB, (0,))
    post = update_state(bell_pair(2), mzB, out)
    assert states_equal(post, tensor(toy_bit("0"), toy_bit("0")))
    with pytest.raises(ImpossibleOutcome):
        update_state(toy_bit("0"), MZ1, outcome_for_label(MZ1, (1,)))


def test_update_outcome_checks_over_the_rationals():
    sp = rational_space(1)
    m = make_measurement(sp, [(1, 0)])
    s = make_state(sp, [(2, 0)], (3, 1))  # knows 2q = 6, i.e. q = 3
    out3 = outcome_from_valuation(m, (3, 0))
    assert states_equal(update_state(s, m, out3),
                        make_state(sp, [(1, 0)], (3, 0)))
    with pytest.raises(ImpossibleOutcome):
        update_state(s, m, outcome_from_valuation(m, (6, 0)))
    with pytest.raises(NotPointMass):
        update_state(make_state(sp, [], (0, 0)), m, out3)


def test_an_impossible_rational_outcome_prints_its_label_exactly():
    sp = rational_space(1)
    m = make_measurement(sp, [(1, 0)])
    third = outcome_for_label(m, (Fraction(1, 3),))
    with pytest.raises(ImpossibleOutcome,
                       match=r"^outcome \(1/3,\) has probability 0$"):
        update_state(make_state(sp, [(1, 0)], (0, 0)), m, third)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_update_momentum_pair_formal_example(d):
    sp = discrete_space(d, 2)
    f = sp.field
    state = make_state(sp, [(1, 0, 1, 0), (0, 1, 0, f.neg(1))], (1, 0, 0, 0))
    m = make_measurement(sp, [(0, 0, 0, 1)])
    for p in f.elements():
        out = outcome_for_label(m, (p,))
        post = update_state(state, m, out)
        want = make_state(sp, [(0, 0, 0, 1), (0, 1, 0, f.neg(1))],
                          (0, p, 0, p))
        assert states_equal(post, want)
        # measuring again repeats the outcome with certainty
        assert is_certain(post, m, out)
        assert outcome_probability(post, m, out) == 1


def test_is_certain_examples():
    assert is_certain(toy_bit("0"), MZ1, outcome_for_label(MZ1, (0,)))
    assert not is_certain(toy_bit("+"), MZ1, outcome_for_label(MZ1, (0,)))
    assert not is_certain(toy_bit("+"), MZ1, outcome_for_label(MZ1, (1,)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_momentum_pair_inference_conditions(d):
    """After the momentum-pair update, the partner's momentum measurement is
    certain, and both numbered inference conditions hold from the start."""
    sp = discrete_space(d, 2)
    f = sp.field
    state = make_state(sp, [(1, 0, 1, 0), (0, 1, 0, f.neg(1))], (1, 0, 0, 0))
    m_bob = make_measurement(sp, [(0, 0, 0, 1)])
    m_alice = make_measurement(sp, [(0, 1, 0, 0)])
    for p in f.elements():
        out_b = outcome_for_label(m_bob, (p,))
        out_a = outcome_for_label(m_alice, (p,))
        post = update_state(state, m_bob, out_b)
        assert is_certain(post, m_alice, out_a)
        c1, c2 = inference_conditions(state, m_bob, out_b, m_alice, out_a)
        assert c1 and c2
        assert infers(state, m_bob, out_b, m_alice, out_a)


def test_infers_examples():
    mzB = make_measurement(SP2, [(0, 0, 1, 0)])
    mzA = make_measurement(SP2, [(1, 0, 0, 0)])
    b0 = outcome_for_label(mzB, (0,))
    a0 = outcome_for_label(mzA, (0,))
    a1 = outcome_for_label(mzA, (1,))
    assert infers(bell_pair(2), mzB, b0, mzA, a0)
    product = tensor(toy_bit("0"), toy_bit("0"))
    assert not infers(product, mzB, b0, mzA, a1)
    assert infers(product, mzB, b0, mzA, a0)  # A=0 is certain outright


def test_infers_false_for_impossible_premise():
    mzB = make_measurement(SP2, [(0, 0, 1, 0)])
    mzA = make_measurement(SP2, [(1, 0, 0, 0)])
    product = tensor(toy_bit("0"), toy_bit("0"))
    b1 = outcome_for_label(mzB, (1,))
    a0 = outcome_for_label(mzA, (0,))
    assert outcome_probability(product, mzB, b1) == 0
    assert not infers(product, mzB, b1, mzA, a0)


def test_probability_matches_oracle_random_d3_d5(rng):
    from toytheory.oracle import oracle_probability
    from toytheory.phase_space import all_isotropic_subspaces, discrete_space
    from toytheory.states import all_valid_states
    from toytheory.measurement import Measurement
    for d in (3, 5):
        sp = discrete_space(d, 2)
        states = all_valid_states(sp)
        meas = [Measurement(sp, sub) for sub in all_isotropic_subspaces(sp)]
        for _ in range(5000):
            s = states[rng.randrange(len(states))]
            m = meas[rng.randrange(len(meas))]
            outs = outcomes(m)
            o = outs[rng.randrange(len(outs))]
            assert outcome_probability(s, m, o) == oracle_probability(s, m, o)


def test_update_repeatability_sweep():
    from toytheory.states import all_valid_states
    from toytheory.phase_space import all_isotropic_subspaces
    from toytheory.measurement import Measurement
    for s in all_valid_states(SP1):
        for sub in all_isotropic_subspaces(SP1):
            m = Measurement(SP1, sub)
            for o in outcomes(m):
                if outcome_probability(s, m, o) == 0:
                    continue
                post = update_state(s, m, o)
                assert outcome_probability(post, m, o) == 1


MP1 = make_measurement(SP1, [(0, 1)])


def test_probability_rejects_an_outcome_of_another_measurement():
    out_p = outcome_for_label(MP1, (0,))
    with pytest.raises(DimensionMismatch):
        outcome_probability(toy_bit("0"), MZ1, out_p)
    # an equal measurement built again is the same measurement
    again = make_measurement(SP1, [(1, 0)])
    assert outcome_probability(
        toy_bit("0"), again, outcome_for_label(MZ1, (0,))) == 1


def test_update_rejects_an_outcome_of_another_measurement():
    with pytest.raises(DimensionMismatch):
        update_state(toy_bit("0"), MZ1, outcome_for_label(MP1, (0,)))


def test_is_certain_rejects_an_outcome_of_another_measurement():
    # <p> on toy0 is a fair coin, so neither outcome may pass as certain
    for label in (0, 1):
        with pytest.raises(DimensionMismatch):
            is_certain(toy_bit("0"), MZ1, outcome_for_label(MP1, (label,)))


def test_infers_rejects_an_outcome_of_another_measurement():
    mzB = make_measurement(SP2, [(0, 0, 1, 0)])
    mzA = make_measurement(SP2, [(1, 0, 0, 0)])
    b0 = outcome_for_label(mzB, (0,))
    a0 = outcome_for_label(mzA, (0,))
    pair = bell_pair(2)
    assert infers(pair, mzB, b0, mzA, a0)
    for args in ((mzA, b0, mzA, a0), (mzB, b0, mzB, a0),
                 (mzB, a0, mzA, b0)):
        with pytest.raises(DimensionMismatch):
            infers(pair, *args)
        with pytest.raises(DimensionMismatch):
            inference_conditions(pair, *args)


def _random_measurement(space, rng):
    """q-coordinate units pushed through transvections x -> x + c[x,w]w,
    which keep every bracket: a random measurement of any field."""
    field, n = space.field, space.ambient_dim
    rows = [tuple(field.one if j == 2 * i else field.zero for j in range(n))
            for i in range(rng.randint(0, space.n_systems))]
    for _ in range(3):
        w = random_vector(field, n, rng)
        c = field.coerce(rng.choice([-2, -1, 1, 2, 3]) if field is QQ
                         else rng.randrange(1, field.p))
        rows = [vec_add(field, x, field.scale_row(
            field.mul(c, bracket_vectors(field, x, w)), w)) for x in rows]
    return make_measurement(space, rows)


def _shifted(field, x, basis, rng):
    """x plus a random combination of the basis rows."""
    for b in basis:
        x = vec_add(field, x, field.scale_row(
            field.coerce(rng.randint(-3, 3)), b))
    return x


@pytest.mark.parametrize("space", [discrete_space(2, 2), discrete_space(3, 2),
                                   discrete_space(5, 2), rational_space(2)],
                         ids=lambda sp: repr(sp.field))
def test_outcomes_are_equal_exactly_when_their_labels_are(space, rng):
    field, n = space.field, space.ambient_dim
    seen = set()
    for _ in range(60):
        m = _random_measurement(space, rng)
        gens = m.observables.basis
        perp = orthogonal_complement(m.observables).basis
        x = random_vector(field, n, rng)
        # half the draws move x inside its outcome, along V_pi^⊥
        y = (_shifted(field, x, perp, rng) if rng.random() < 0.5
             else random_vector(field, n, rng))
        # two outcomes are equal exactly when x - y ⊥ V_pi
        diff = vec_sub(field, x, y)
        equal = outcome_from_valuation(m, x) == outcome_from_valuation(m, y)
        assert equal == all(dot(field, g, diff) == 0 for g in gens)
        seen.add(equal)

        lab = tuple(field.coerce(rng.randint(-3, 3)) for _ in gens)
        out = outcome_for_label(m, lab)
        assert out.label == lab
        coset = out.coset()
        assert out == outcome_from_valuation(m, coset.shift)
        if field is QQ:
            # no enumeration over QQ: the shift moved along random points
            points = [_shifted(field, coset.shift, coset.subspace.basis, rng)
                      for _ in range(6)]
        else:
            points = list(enumerate_coset(coset))
            assert len(points) == field.p ** (n - len(gens))
        assert all(outcome_from_valuation(m, pt).label == lab
                   for pt in points)
    assert seen == {True, False}


# A measurement and an outcome check themselves when built, so no query can
# be handed one its factory would have refused.

@pytest.mark.parametrize("label, error, message", [
    ((), DimensionMismatch, "label needs 1 values, got 0"),
    ((0, 1), DimensionMismatch, "label needs 1 values, got 2"),
    ([0], ValueError, "not field elements"),
    ((2,), ValueError, "not field elements"),
    ((-1,), ValueError, "not field elements"),
    ((True,), TypeError, "cannot coerce True")],
    ids=["short", "long", "list", "2", "-1", "bool"])
def test_outcome_refuses_a_malformed_label(label, error, message):
    with pytest.raises(error, match=message):
        Outcome(MZ1, label)


def test_outcome_keeps_a_label_of_field_elements():
    assert Outcome(MZ1, (1,)) == outcome_for_label(MZ1, (3,))
    assert Outcome(make_measurement(SP1, []), ()).label == ()
    # over QQ an int equals its Fraction, so (1,) is already a field element
    mq = make_measurement(rational_space(1), [(1, 0)])
    assert Outcome(mq, (1,)) == outcome_for_label(mq, ("1",))


def test_measurement_refuses_observables_that_do_not_commute():
    with pytest.raises(NotIsotropic, match="must commute pairwise"):
        Measurement(SP1, rref(F2, 2, [(1, 0), (0, 1)]))


@pytest.mark.parametrize("sub", [rref(GF(3), 2, [(1, 0)]),
                                 rref(F2, 4, [(1, 0, 0, 0)])],
                         ids=["field", "ambient"])
def test_measurement_refuses_observables_on_another_space(sub):
    with pytest.raises(DimensionMismatch, match="on another space"):
        Measurement(SP1, sub)


def test_hand_built_malformed_queries_are_refused_at_construction():
    # each once reached a query: () read as certain with P = 1, (2,) as
    # P = 1 yet not certain, and <q, p> updated toy0 to know both q and p
    toy0 = toy_bit("0")
    with pytest.raises(DimensionMismatch, match="label needs"):
        outcome_probability(toy0, MZ1, Outcome(MZ1, ()))
    with pytest.raises(ValueError, match="not field elements"):
        oracle_probability(toy0, MZ1, Outcome(MZ1, (2,)))
    with pytest.raises(NotIsotropic, match="must commute pairwise"):
        update_state(toy0, Measurement(SP1, rref(F2, 2, [(1, 0), (0, 1)])),
                     Outcome(MZ1, (0,)))


def test_make_measurement_tests_isotropy_once(monkeypatch):
    calls = {}
    count_calls(monkeypatch, measurement, "is_isotropic", calls)
    make_measurement(SP2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert calls == {"is_isotropic": 1}
