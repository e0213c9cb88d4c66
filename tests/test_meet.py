"""Property tests: the constraint meet behind the measurement queries.

Value constraints g.x = value from two sources are stacked and solved in
one `_solve_augmented`.  These properties check that meet against the
complement route (cosets V^⊥ + v, sums and intersections of complements),
and check the measurement queries: probabilities sum to 1 over the outcomes,
an update repeats its outcome, an inference is an update followed by a
certainty test, and `branches` is the probability and the update taken
outcome by outcome.  They run at d ∈ {2, 3, 5, 7} and n ∈ {1, 2} systems, and
over QQ on point masses, where the rational probabilities are determined.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toytheory.algebra import (
    GF, QQ, Coset, _solve_augmented, dot, orthogonal_complement,
    reduce_mod_subspace,
    rref, subspace_intersection, subspace_sum, vec_sub,
)
from toytheory.errors import ContinuousNotEnumerable, DimensionMismatch
from toytheory.measurement import (
    branches, infers, is_certain, make_measurement, outcome_for_label,
    outcome_from_valuation, outcome_probability, outcomes, update_state,
)
from toytheory.phase_space import (
    bracket_vectors, discrete_space, rational_space,
)
from toytheory.states import make_state

PRIMES = (2, 3, 5, 7)


def _scalars(field, nonzero=False):
    if field is QQ:
        s = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        s = st.integers(0, field.p - 1)
    return s.filter(bool) if nonzero else s


@st.composite
def _space(draw, rational=False):
    n = draw(st.sampled_from((1, 2)))
    if rational:
        return rational_space(n)
    return discrete_space(draw(st.sampled_from(PRIMES)), n)


@st.composite
def _isotropic(draw, space, min_dim=0):
    """Rows spanning an isotropic subspace: q-coordinate units pushed
    through transvections x -> x + c[x,w]w, which keep every bracket."""
    field, dim = space.field, space.ambient_dim
    k = draw(st.integers(min_dim, space.n_systems))
    rows = [[field.one if j == 2 * i else field.zero for j in range(dim)]
            for i in range(k)]
    for _ in range(draw(st.integers(0, dim + 1))):
        w = draw(st.lists(_scalars(field), min_size=dim, max_size=dim))
        c = draw(_scalars(field, nonzero=True))
        for x in rows:
            s = field.mul(c, bracket_vectors(field, tuple(x), tuple(w)))
            x[:] = [field.add(a, field.mul(s, b)) for a, b in zip(x, w)]
    return [tuple(x) for x in rows]


@st.composite
def _state(draw, space, min_dim=0):
    rows = draw(_isotropic(space, min_dim))
    dim = space.ambient_dim
    return make_state(space, rows, draw(st.lists(
        _scalars(space.field), min_size=dim, max_size=dim)))


@st.composite
def _combos(draw, space, basis):
    """One to len(basis) combinations of the given independent rows, each
    with no zero coefficient, so none is zero."""
    field = space.field
    out = []
    for _ in range(draw(st.integers(1, len(basis)))):
        row = [field.zero] * space.ambient_dim
        for g in basis:
            c = draw(_scalars(field, nonzero=True))
            row = [field.add(x, field.mul(c, y)) for x, y in zip(row, g)]
        out.append(row)
    return out


@st.composite
def _constraint_pair(draw):
    """A field, n, and two (subspace, point) pairs; half the time the points
    agree, so both empty and nonempty meets occur."""
    field = draw(st.sampled_from([GF(p) for p in PRIMES] + [QQ]))
    n = 2 * draw(st.sampled_from((1, 2)))
    vec = st.lists(_scalars(field), min_size=n, max_size=n)
    subs = [rref(field, n, draw(st.lists(vec, max_size=n))) for _ in range(2)]
    v1 = field.vector(draw(vec))
    v2 = v1 if draw(st.booleans()) else field.vector(draw(vec))
    return field, n, (subs[0], v1), (subs[1], v2)


@given(_constraint_pair())
def test_meet_agrees_with_the_complement_route(case):
    field, n, (s1, v1), (s2, v2) = case
    met = _solve_augmented(field, n, s1.basis + s2.basis, [
        dot(field, g, v) for s, v in ((s1, v1), (s2, v2)) for g in s.basis])
    c1, c2 = (Coset(orthogonal_complement(s), v)
              for s, v in ((s1, v1), (s2, v2)))
    # nonempty iff v1 - v2 lies in S1^⊥ + S2^⊥
    spread = subspace_sum(c1.subspace, c2.subspace)
    empty = any(reduce_mod_subspace(spread, vec_sub(field, v1, v2)))
    assert (met is None) == empty
    if met is not None:
        rows, point = met
        assert n - len(rows) == subspace_intersection(
            c1.subspace, c2.subspace).dim
        assert c1.contains(point) and c2.contains(point)


@st.composite
def _discrete_query(draw):
    space = draw(_space())
    s = draw(_state(space))
    m = make_measurement(space, draw(_isotropic(space)))
    return s, m


def _power_of(den, p):
    while den % p == 0:
        den //= p
    return den == 1


@given(_discrete_query())
def test_probabilities_sum_to_one(case):
    s, m = case
    probs = [outcome_probability(s, m, out) for out in outcomes(m)]
    assert sum(probs) == 1
    # every possible outcome is equally likely, at 1/d^k
    nonzero = set(probs) - {0}
    assert len(nonzero) == 1
    x = nonzero.pop()
    assert x.numerator == 1 and _power_of(x.denominator, s.field.p)


@given(_discrete_query(), st.integers(0, 1 << 30))
def test_update_repeats_its_outcome(case, pick):
    s, m = case
    outs = [o for o in outcomes(m) if outcome_probability(s, m, o)]
    out = outs[pick % len(outs)]
    post = update_state(s, m, out)
    assert outcome_probability(post, m, out) == 1
    assert is_certain(post, m, out)


@st.composite
def _point_mass_query(draw):
    """Over QQ: a state that knows something, and a measurement of
    observables it already knows, so each outcome has probability 0 or 1."""
    space = draw(_space(rational=True))
    s = draw(_state(space, min_dim=1))
    m = make_measurement(space, draw(_combos(space, s.known.basis)))
    return s, m


@given(_point_mass_query(), st.integers(0, 3))
def test_point_masses_over_the_rationals(case, shift):
    s, m = case
    out = outcome_from_valuation(m, s.valuation)
    assert outcome_probability(s, m, out) == 1
    assert is_certain(s, m, out)
    post = update_state(s, m, out)
    assert outcome_probability(post, m, out) == 1
    assert is_certain(post, m, out)
    if shift:
        label = list(out.label)
        label[0] += shift
        other = outcome_for_label(m, label)
        assert outcome_probability(s, m, other) == 0
        assert not is_certain(s, m, other)


def _premise(data, s, m):
    """An outcome of m.  Over Z_p any outcome, or one of the possible ones;
    over QQ, where m is a point mass, its certain outcome or one shifted
    off it, which has probability 0."""
    if s.field is QQ:
        out = outcome_from_valuation(m, s.valuation)
        if data.draw(st.booleans()):
            return out
        label = list(out.label)
        label[0] += data.draw(st.integers(1, 3))
        return outcome_for_label(m, label)
    outs = outcomes(m)
    if data.draw(st.booleans()):
        outs = [o for o in outs if outcome_probability(s, m, o)]
    return data.draw(st.sampled_from(outs))


def _any_outcome(data, m):
    dim = m.observables.dim
    if m.space.field is QQ:
        return outcome_for_label(m, data.draw(st.lists(
            _scalars(QQ), min_size=dim, max_size=dim)))
    return data.draw(st.sampled_from(outcomes(m)))


@given(st.one_of(_discrete_query(), _point_mass_query()), st.data())
def test_infers_is_update_then_certain(case, data):
    # over Z_p at any state, over QQ at point masses of random rank; the
    # conclusion measures random commuting rows, or combinations of the
    # premise's or the state's rows, so inferences hold as well as fail
    s, m_a = case
    space = s.space
    out_a = _premise(data, s, m_a)
    possible = bool(outcome_probability(s, m_a, out_a))
    pool = data.draw(st.sampled_from([None] + [
        rows for rows in (m_a.observables.basis, s.known.basis) if rows]))
    m_b = make_measurement(space, data.draw(
        _isotropic(space, min_dim=1) if pool is None
        else _combos(space, pool)))
    if possible and data.draw(st.booleans()):
        # the conclusion the updated state's own valuation gives
        out_b = outcome_from_valuation(
            m_b, update_state(s, m_a, out_a).valuation)
    else:
        out_b = _any_outcome(data, m_b)
    want = possible and \
        is_certain(update_state(s, m_a, out_a), m_b, out_b)
    assert infers(s, m_a, out_a, m_b, out_b) == want


@given(_discrete_query())
def test_branches_are_probability_and_update_per_outcome(case):
    s, m = case
    want = [(o, outcome_probability(s, m, o), update_state(s, m, o))
            for o in outcomes(m) if outcome_probability(s, m, o)]
    assert branches(s, m) == want


@given(_discrete_query())
def test_branch_states_are_the_validated_ones(case):
    # built without make_state, each post-state must still be the one it
    # builds from the same basis, in any row order, and any point of the
    # meet
    s, m = case
    for out, _, post in branches(s, m):
        rows, values = s.constraints()
        _, point = _solve_augmented(s.field, s.space.ambient_dim,
                                    rows + m.observables.basis,
                                    values + out.label)
        for rows in (post.known.basis, post.known.basis[::-1]):
            assert make_state(s.space, rows, point) == post


@given(_point_mass_query())
def test_branches_need_a_discrete_field(case):
    s, m = case
    with pytest.raises(ContinuousNotEnumerable):
        branches(s, m)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 1), (5, 2)])
def test_branches_reject_a_measurement_of_another_space(p, n):
    s = make_state(discrete_space(2, 1), [(1, 0)], (0, 0))
    m = make_measurement(discrete_space(p, n), [(1,) + (0,) * (2 * n - 1)])
    with pytest.raises(DimensionMismatch):
        branches(s, m)
