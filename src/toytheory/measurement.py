"""Measurements as valuated observable spaces.

A measurement is an isotropic subspace V_π of jointly measurable observables;
an outcome fixes the value each canonical generator g of V_π takes, the
constraints g.x = label.  A state (V, v) states the constraints g.x = g.v for
g in V.  Every query is one elimination of stacked constraints (`_meet`):
the probability counts the dimension the outcome's constraints cut from the
support, the update keeps the commuting part of prior knowledge and adjoins
the measured observables at a point of the meet, and an inference asks
whether the retained, premise and conclusion constraints are solvable
together.  The post-measurement known subspace V_π ⊕ V_commute depends on
neither the outcome nor the valuation, so the branch kernel
(`_level_branches`) takes a whole level of states on one known subspace
and decides every (valuation, outcome) pair from one elimination of the
stacked rows against an identity block; `branches` is its one-state call,
and the four-agent sequential chain walks its tree a level per agent.  An
outcome is its label alone, so two outcomes of a measurement are equal
exactly when their labels are.  Outcomes partition the ontic space;
`Outcome.coset` solves for the solution set V_π^⊥ + v_π of an outcome's
constraints when asked.

Note on outcome labels: the label records the values of the measured
observables themselves.  Measuring <q> on a state that knows 2q = 6 yields
the outcome labeled q = 3 (the compatible coset), not 6.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import (
    Coset, PrimeField, Subspace, VectorT, _meet, _rref_rows, _span_from,
    identity_matrix, make_coset, orthogonal_complement, reduce_mod_subspace,
    rref, solve_linear, subspace_sum,
)
from .errors import (
    DimensionMismatch, ImpossibleOutcome, InvariantViolation, NotIsotropic,
    NotPointMass,
)
from .phase_space import (
    Observable, PhaseSpace, _require_prime, commutant_within, is_isotropic,
)
from .states import EpistemicState


@dataclass(frozen=True)
class Measurement:
    space: PhaseSpace
    observables: Subspace  # canonical, isotropic

    def __repr__(self):
        gens = ", ".join(str(list(g)) for g in self.observables.basis)
        return f"Measurement(n={self.space.n_systems}, V_pi=[{gens}])"


@dataclass(frozen=True)
class Outcome:
    measurement: Measurement
    label: tuple  # values of the canonical generators, the outcome itself

    def coset(self) -> Coset:
        m = self.measurement
        point = solve_linear(m.space.field, m.space.ambient_dim,
                             m.observables.basis, self.label)
        return make_coset(orthogonal_complement(m.observables), point)

    def constraints(self) -> tuple[tuple, tuple]:
        """The measured rows g and the values g.x = label they take."""
        return self.measurement.observables.basis, self.label

    def __repr__(self):
        return f"Outcome(label={self.label})"


def make_measurement(space: PhaseSpace, observables: Iterable) -> Measurement:
    # rref coerces each row and checks its length
    sub = rref(space.field, space.ambient_dim,
               [g.coeffs if isinstance(g, Observable) else g
                for g in observables])
    if not is_isotropic(sub):
        raise NotIsotropic("measured observables must commute pairwise")
    return Measurement(space, sub)


def outcome_from_valuation(m: Measurement, valuation: Iterable) -> Outcome:
    """The outcome whose compatible coset contains the given ontic vector:
    the values the canonical generators take on it."""
    field = m.space.field
    x = field.vector(valuation)
    if len(x) != m.space.ambient_dim:
        raise DimensionMismatch(
            f"vector length {len(x)} != ambient dimension {m.space.ambient_dim}")
    return Outcome(m, tuple([field.dot(g, x) for g in m.observables.basis]))


def outcome_for_label(m: Measurement, label: Iterable) -> Outcome:
    """The outcome on which each canonical generator takes the given value
    (independent generators take every label)."""
    values = m.space.field.vector(label)
    if len(values) != m.observables.dim:
        raise DimensionMismatch(
            f"label needs {m.observables.dim} values, got {len(values)}")
    return Outcome(m, values)


def outcomes(m: Measurement) -> list[Outcome]:
    """All d^dim(V_pi) outcomes, ordered by label (discrete fields only)."""
    field = m.space.field
    _require_prime(field, "listing a measurement's outcomes")
    labels = itertools.product(field.elements(), repeat=m.observables.dim)
    return [Outcome(m, lab) for lab in labels]


def _check_outcome(s: EpistemicState, m: Measurement, out: Outcome):
    if s.space != m.space:
        raise DimensionMismatch("state and measurement live on different spaces")
    if out.measurement != m:
        raise DimensionMismatch(f"{out} belongs to {out.measurement}, not {m}")


def _outcome_meet(s: EpistemicState, m: Measurement,
                  out: Outcome) -> tuple[Optional[VectorT], Fraction]:
    """A point of the meet of the state's and the outcome's constraints
    (None when there is none) and the outcome's probability."""
    _check_outcome(s, m, out)
    field = s.field
    met = _meet(field, s.space.ambient_dim,
                (s.constraints(), out.constraints()))
    if met is None:
        return None, Fraction(0)
    rows, point = met
    # the support has dimension N - dim V, its meet with the outcome N - rank
    gained = len(rows) - s.known.dim
    if isinstance(field, PrimeField):
        return point, Fraction(1, field.p ** gained)
    if gained == 0:
        return point, Fraction(1)
    raise NotPointMass(
        "rational-case probability is neither 0 nor 1; only point masses "
        "are algebraically determined")


def outcome_probability(s: EpistemicState, m: Measurement, out: Outcome) -> Fraction:
    """P(out) = d^-(rank - dim V), or 0 when the constraints conflict.

    The support is the solution set of g.x = g.v (g in V); the outcome adds
    g.x = label (g in V_π).  If the stacked system of rank r is solvable its
    solutions are a d^-(r - dim V) share of the support.  Over QQ only the
    point masses are determined: 1 when r = dim V, else `NotPointMass`.
    Raises `DimensionMismatch` when ``out`` is not an outcome of ``m``.
    """
    return _outcome_meet(s, m, out)[1]


def sample_outcome(s: EpistemicState, m: Measurement, seed: int = 0) -> Outcome:
    """Draw an outcome with the exact probabilities, reproducibly by seed.

    The probabilities come from `branches`, one elimination for all
    outcomes, which refuses a rational field."""
    return _draw(s, branches(s, m), seed)


def _draw(s: EpistemicState, table: list, seed: int) -> Outcome:
    """The outcome of s's `branches` table that ``seed`` draws: an integer
    below the support's size p^(N - dim V), against the running sum of the
    outcomes' shares of it.  Zero-probability outcomes, which the table
    leaves out, add nothing to that sum, so the draw is the one over
    `outcomes` order."""
    total = s.field.p ** (s.space.ambient_dim - s.known.dim)
    r = random.Random(seed).randrange(total)
    acc = 0
    for out, p, _ in table:
        acc += int(p * total)
        if r < acc:
            return out
    raise InvariantViolation("outcome probabilities did not sum to 1")


def _post_known(known: Subspace, v_pi: Subspace) -> tuple[Subspace, Subspace]:
    """The known subspace V' = V_π ⊕ V_commute after measuring V_π on
    knowledge V, and V'^⊥.

    V' is canonical (one RREF) and isotropic by construction: V_π is,
    V_commute ⊆ V is, and the two commute.  It depends on neither the
    outcome nor the valuation, so every post-state of one measurement on
    one known subspace shares it, and each is built directly, its point
    reduced modulo V'^⊥, without `make_state`'s re-validation.
    """
    post = subspace_sum(v_pi, commutant_within(known, v_pi))
    return post, orthogonal_complement(post)


def update_state(s: EpistemicState, m: Measurement, out: Outcome) -> EpistemicState:
    """Post-measurement state: keep commuting knowledge, adjoin the outcome.

    V' = V_π ⊕ V_commute with the valuation any point that meets the state's
    and the outcome's constraints.  That point also satisfies the retained
    values, because V_commute ⊆ V; all choices describe the same state, and
    the canonical one (the point reduced modulo V'^⊥) is stored.  `branches`
    gives the same state for every outcome at once.
    """
    point, _ = _outcome_meet(s, m, out)
    if point is None:
        raise ImpossibleOutcome(f"outcome {out.label} has probability 0")
    known, perp = _post_known(s.known, m.observables)
    return EpistemicState(s.space, known, reduce_mod_subspace(perp, point))


def _level_branches(space: PhaseSpace, known: Subspace, valuations: Sequence,
                    m: Measurement) -> list[list[tuple]]:
    """`branches` of every state (V, v), v in ``valuations``, on one known
    subspace V: a list of (outcome, probability, post-state) lists, one per
    valuation.  Raises `ContinuousNotEnumerable` over QQ.

    The states differ only in the right-hand sides of one linear system.
    With M the k rows of V then V_π, one elimination of [M | I_k] gives
    rows (e, t) with t·M = e.  A row whose pivot lies in the identity block
    has e = 0, so t is a dependency among M's rows, and the right-hand side r
    (the values g.v of V's rows, then the outcome's label) is consistent
    iff t·r = 0 for every such t.  The other rows' left blocks are the RREF
    of M, so x[c] = t·r at each of their pivots c, zero elsewhere, solves
    M·x = r: the point `_meet` returns.  Every consistent outcome has
    probability p^-(rank - dim V), and V' comes from `_post_known`, both
    once for all valuations.  Each t·r is t's V half dotted with the
    values plus its V_π half dotted with the label, and reduction modulo
    V'^⊥ is linear.  So the dependency values and the reduced point of a
    valuation's half are taken once per valuation, those of the labels'
    halves are spanned from the unit labels' in `outcomes` order, and a
    (valuation, outcome) pair costs one row sum.
    """
    field = space.field
    outs = outcomes(m)
    n = space.ambient_dim
    rows = known.basis + m.observables.basis
    eye = identity_matrix(field, len(rows))
    reduced, pivots = _rref_rows(field, [
        row + e for row, e in zip(rows, eye)])
    solved = [(c, row[n:]) for row, c in zip(reduced, pivots) if c < n]
    deps = [row[n:] for row, c in zip(reduced, pivots) if c >= n]
    p = Fraction(1, field.p ** (len(solved) - known.dim))
    post, perp = _post_known(known, m.observables)
    dot, add = field.dot, field.add_rows

    def half(rhs, cut: slice) -> tuple:
        """The dependency values, then the reduced point, of one half of r."""
        x = [0] * n
        for c, t in solved:
            x[c] = dot(t[cut], rhs)
        return (tuple([dot(t[cut], rhs) for t in deps])
                + reduce_mod_subspace(perp, x))

    nd, k_v = len(deps), known.dim
    units = [half(e[k_v:], slice(k_v, None)) for e in eye[k_v:]]
    by_label = list(zip(outs, _span_from(field, (0,) * (nd + n), units)))
    found = []
    for v in valuations:
        hv = half([dot(g, v) for g in known.basis], slice(k_v))
        level = []
        for out, hl in by_label:
            r = add(hv, hl)
            if not any(r[:nd]):
                level.append((out, p, EpistemicState(space, post, r[nd:])))
        found.append(level)
    return found


def branches(s: EpistemicState, m: Measurement) -> list[tuple]:
    """(outcome, probability, post-state) for every outcome of positive
    probability, in `outcomes` order (discrete fields only).

    Equals ``update_state`` and ``outcome_probability`` outcome by outcome.
    It is the one-state call of `_level_branches`: one elimination decides
    every outcome, and V' = V_π ⊕ V_commute is built once.  Raises
    `DimensionMismatch` when m lives on another space and
    `ContinuousNotEnumerable` over QQ.
    """
    if s.space != m.space:
        raise DimensionMismatch("state and measurement live on different spaces")
    return _level_branches(s.space, s.known, [s.valuation], m)[0]


def is_certain(s: EpistemicState, m: Measurement, out: Outcome) -> bool:
    """True iff the outcome occurs with probability 1.

    Two conditions: the measured observables are already known
    (V_π ⊆ V), and the outcome's values agree with the known ones (the
    constraints g.x = g.v, g in V, and g.x = label, g in V_π, are solvable).
    """
    _check_outcome(s, m, out)
    known = s.known
    if not all(known.contains(g) for g in m.observables.basis):
        return False
    return _meet(s.field, s.space.ambient_dim,
                 (s.constraints(), out.constraints())) is not None


def inference_conditions(s: EpistemicState, m_a: Measurement, out_a: Outcome,
                         m_b: Measurement, out_b: Outcome) -> tuple[bool, bool]:
    """The two conditions behind "A = out_a implies B = out_b".

    (1) V_B ⊆ V_commute,A ⊕ V_A: some outcome of B is inferable at all;
    (2) the constraints g.x = g.v (g in V_commute,A), g.x = label_A
        (g in V_A) and g.x = label_B (g in V_B) are solvable: the inferable
        outcome is out_b (and the premise is possible).
    """
    _check_outcome(s, m_a, out_a)
    _check_outcome(s, m_b, out_b)
    v_comm = commutant_within(s.known, m_a.observables)
    reach = subspace_sum(v_comm, m_a.observables)
    cond1 = all(reach.contains(g) for g in m_b.observables.basis)
    comm_values = [s.field.dot(g, s.valuation) for g in v_comm.basis]
    cond2 = _meet(s.field, s.space.ambient_dim,
                  ((v_comm.basis, comm_values),
                   out_a.constraints(), out_b.constraints())) is not None
    return cond1, cond2


def infers(s: EpistemicState, m_a: Measurement, out_a: Outcome,
           m_b: Measurement, out_b: Outcome) -> bool:
    """The inference "A = out_a implies B = out_b" from state s.

    Equivalent to: out_a has positive probability and, after updating on it,
    out_b is certain.  A premise of probability zero never infers anything.
    """
    cond1, cond2 = inference_conditions(s, m_a, out_a, m_b, out_b)
    return cond1 and cond2
