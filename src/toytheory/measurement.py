"""Measurements as valuated observable spaces.

A measurement is an isotropic subspace V_π of jointly measurable observables;
an outcome is a coset V_π^⊥ + v_π of compatible ontic states, addressed by
the tuple of values the canonical generators take.  Outcomes partition the
ontic space.  Probabilities are exact rationals obtained by coset dimension
counting; the update rule keeps the commuting part of prior knowledge and
adjoins the measured observables.

Note on outcome labels: the label records the values of the measured
observables themselves.  Measuring <q> on a state that knows 2q = 6 yields
the outcome labeled q = 3 (the compatible coset), not 6.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import (
    Coset, PrimeField, Subspace,
    coset_intersection, dot, orthogonal_complement,
    reduce_mod_subspace, rref, solve_linear, subspace_sum,
)
from .errors import (
    ContinuousNotEnumerable, DimensionMismatch, ImpossibleOutcome,
    InvariantViolation, NotIsotropic, NotPointMass,
)
from .phase_space import Observable, PhaseSpace, commutant_within, is_isotropic
from .states import EpistemicState, make_state


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
    valuation: tuple  # canonical shift of V_pi^⊥
    label: tuple      # values of the canonical generators

    def coset(self) -> Coset:
        return Coset(orthogonal_complement(self.measurement.observables),
                     self.valuation)

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
    """The outcome whose compatible coset contains the given ontic vector."""
    field = m.space.field
    shift = reduce_mod_subspace(orthogonal_complement(m.observables), valuation)
    label = tuple(dot(field, g, shift) for g in m.observables.basis)
    return Outcome(m, shift, label)


def outcome_for_label(m: Measurement, label: Iterable) -> Outcome:
    """The outcome on which each canonical generator takes the given value."""
    field = m.space.field
    values = [field.coerce(x) for x in label]
    if len(values) != m.observables.dim:
        raise DimensionMismatch(
            f"label needs {m.observables.dim} values, got {len(values)}")
    v = solve_linear(field, m.space.ambient_dim, m.observables.basis, values)
    if v is None:
        raise InvariantViolation("independent generators take every label")
    return outcome_from_valuation(m, v)


def outcomes(m: Measurement) -> list[Outcome]:
    """All d^dim(V_pi) outcomes, ordered by label (discrete fields only)."""
    field = m.space.field
    if not isinstance(field, PrimeField):
        raise ContinuousNotEnumerable(
            "rational outcome sets are infinite; construct outcomes "
            "explicitly via outcome_from_valuation / outcome_for_label")
    labels = itertools.product(field.elements(), repeat=m.observables.dim)
    return [outcome_for_label(m, lab) for lab in labels]


def _support_meet(s: EpistemicState, m: Measurement,
                  out: Outcome) -> tuple[Optional[Coset], Fraction]:
    """support ∩ outcome coset (None when empty) and its probability."""
    if s.space != m.space:
        raise DimensionMismatch("state and measurement live on different spaces")
    field = s.field
    inter = coset_intersection(s.support_coset(), out.coset())
    if inter is None:
        return None, Fraction(0)
    support_dim = s.space.ambient_dim - s.known.dim
    if isinstance(field, PrimeField):
        return inter, Fraction(1, field.p ** (support_dim - inter.subspace.dim))
    if inter.subspace.dim == support_dim:
        return inter, Fraction(1)
    raise NotPointMass(
        "rational-case probability is neither 0 nor 1; only point masses "
        "are algebraically determined")


def outcome_probability(s: EpistemicState, m: Measurement, out: Outcome) -> Fraction:
    """|support ∩ outcome coset| / |support| by exact dimension counting."""
    return _support_meet(s, m, out)[1]


def sample_outcome(s: EpistemicState, m: Measurement, seed: int = 0) -> Outcome:
    """Draw an outcome with the exact probabilities, reproducibly by seed."""
    field = s.field
    if not isinstance(field, PrimeField):
        raise ContinuousNotEnumerable("sampling needs a discrete field")
    outs = outcomes(m)
    support_dim = s.space.ambient_dim - s.known.dim
    total = field.p ** support_dim
    rng = random.Random(seed)
    r = rng.randrange(total)
    acc = 0
    for out in outs:
        acc += int(outcome_probability(s, m, out) * total)
        if r < acc:
            return out
    raise InvariantViolation("outcome probabilities did not sum to 1")


def update_state(s: EpistemicState, m: Measurement, out: Outcome) -> EpistemicState:
    """Post-measurement state: keep commuting knowledge, adjoin the outcome.

    V' = V_π ⊕ V_commute with the valuation a point of support ∩ outcome.
    That point also satisfies the retained values, because V_commute ⊆ V;
    all choices describe the same state, and the stored one is canonical.
    """
    meet, _ = _support_meet(s, m, out)
    if meet is None:
        raise ImpossibleOutcome(f"outcome {out.label} has probability 0")
    v_comm = commutant_within(s.known, m.observables)
    new_known = subspace_sum(m.observables, v_comm)
    return make_state(s.space, new_known.basis, meet.shift)


def is_certain(s: EpistemicState, m: Measurement, out: Outcome) -> bool:
    """True iff the outcome occurs with probability 1.

    Two conditions: the measured observables are already known
    (V_π ⊆ V), and the outcome values agree with the known values
    (nonempty intersection of the support with the outcome coset).
    """
    if s.space != m.space:
        raise DimensionMismatch("state and measurement live on different spaces")
    known = s.known
    if not all(known.contains(g) for g in m.observables.basis):
        return False
    return coset_intersection(s.support_coset(), out.coset()) is not None


def inference_conditions(s: EpistemicState, m_a: Measurement, out_a: Outcome,
                         m_b: Measurement, out_b: Outcome) -> tuple[bool, bool]:
    """The two conditions behind "A = out_a implies B = out_b".

    (1) V_B ⊆ V_commute,A ⊕ V_A: some outcome of B is inferable at all;
    (2) (V_commute,A^⊥ + v) ∩ (V_A^⊥ + v_A) ∩ (V_B^⊥ + v_B) ≠ ∅: the
        inferable outcome is out_b (and the premise is possible).
    """
    v_comm = commutant_within(s.known, m_a.observables)
    reach = subspace_sum(v_comm, m_a.observables)
    cond1 = all(reach.contains(g) for g in m_b.observables.basis)
    c12 = coset_intersection(
        Coset(orthogonal_complement(v_comm), s.valuation), out_a.coset())
    cond2 = c12 is not None and \
        coset_intersection(c12, out_b.coset()) is not None
    return cond1, cond2


def infers(s: EpistemicState, m_a: Measurement, out_a: Outcome,
           m_b: Measurement, out_b: Outcome) -> bool:
    """The inference "A = out_a implies B = out_b" from state s.

    Equivalent to: out_a has positive probability and, after updating on it,
    out_b is certain.  A premise of probability zero never infers anything.
    """
    cond1, cond2 = inference_conditions(s, m_a, out_a, m_b, out_b)
    return cond1 and cond2
