"""Measurements as valuated observable spaces.

A measurement is an isotropic subspace V_π of jointly measurable observables;
an outcome fixes the value each canonical generator g of V_π takes, the
constraints g.x = label.  Both check themselves when built: V_π lies on the
measurement's space and is isotropic, and a label holds one field element per
generator.  The queries below trust them, and trust a state as `make_state`
built it.  A state (V, v) states the constraints g.x = g.v for g in V.
Certainty is a lookup: the outcome is certain iff every g is known and g.v
is its label.  Probability is one `_solve_augmented` of the state's
and the outcome's stacked constraints.  Update and inference run
`_commuting_meet`, one elimination whose bracket block sets V's
non-commuting part aside and leaves V' = V_π ⊕ V_commute, the known
subspace after measuring, with its values.  V' depends on neither the
outcome nor the valuation, so the branch kernel (`_level_branches`) decides
every (valuation, outcome) pair of a level of states on one known subspace
from one such elimination; `branches` is its one-state call, and the
four-agent sequential chain walks its tree a level per agent.  An outcome
is its label alone, so two outcomes of a measurement are equal exactly when
their labels are.  Outcomes partition the ontic space; `Outcome.coset`
solves for an outcome's solution set V_π^⊥ + v_π when asked.

Note on outcome labels: the label records the values of the measured
observables themselves.  Measuring <q> on a state that knows 2q = 6 yields
the outcome labeled q = 3 (the compatible coset), not 6.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import (
    Coset, PrimeField, Subspace, _rref_rows, _solve_augmented, _span_from,
    identity_matrix, make_coset, orthogonal_complement, reduce_mod_subspace,
    rref, solve_linear,
)
from .errors import (
    DimensionMismatch, ImpossibleOutcome, InvariantViolation, NotIsotropic,
    NotPointMass,
)
from .phase_space import (
    Observable, PhaseSpace, _require_prime, is_isotropic, symplectic_dual,
)
from .states import EpistemicState


@dataclass(frozen=True)
class Measurement:
    """The observables V_π measured together, a canonical subspace of
    ``space``'s phase space.  It checks itself when built: V_π over
    another field or ambient dimension raises `DimensionMismatch`, and
    observables that do not commute pairwise raise `NotIsotropic`."""

    space: PhaseSpace
    observables: Subspace  # canonical, isotropic

    def __post_init__(self):
        sub, space = self.observables, self.space
        if (sub.field, sub.ambient_dim) != (space.field, space.ambient_dim):
            raise DimensionMismatch("measured observables on another space")
        if not is_isotropic(sub):
            raise NotIsotropic("measured observables must commute pairwise")

    def __repr__(self):
        gens = ", ".join(str(list(g)) for g in self.observables.basis)
        return f"Measurement(n={self.space.n_systems}, V_pi=[{gens}])"


@dataclass(frozen=True)
class Outcome:
    """One outcome of a measurement: its label, the values its canonical
    generators take.  It checks itself when built: a label of the wrong
    length raises `DimensionMismatch`, and one that is not a tuple of
    field elements (a list, or 2 at d = 2) raises `ValueError`, so every
    query reads a well-formed label and equal outcomes have equal labels."""

    measurement: Measurement
    label: tuple  # values of the canonical generators, the outcome itself

    def __post_init__(self):
        m, label = self.measurement, self.label
        if len(label) != m.observables.dim:
            raise DimensionMismatch(
                f"label needs {m.observables.dim} values, got {len(label)}")
        if label != m.space.field.vector(label):
            raise ValueError(f"label {label} holds values that are not "
                             "field elements")

    def coset(self) -> Coset:
        m = self.measurement
        point = solve_linear(m.space.field, m.space.ambient_dim,
                             m.observables.basis, self.label)
        return make_coset(orthogonal_complement(m.observables), point)

    def __repr__(self):
        return f"Outcome(label={self.label})"


def label_text(label: tuple) -> str:
    """An outcome label as a tuple prints, each entry exact: (0, 1), (1/2,)."""
    return f"({', '.join(map(str, label))}{',' * (len(label) == 1)})"


def make_measurement(space: PhaseSpace, observables: Iterable) -> Measurement:
    # rref coerces each row and checks its length
    return Measurement(space, rref(space.field, space.ambient_dim,
                                  [g.coeffs if isinstance(g, Observable)
                                   else g for g in observables]))


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
    return Outcome(m, m.space.field.vector(label))


def outcomes(m: Measurement) -> list[Outcome]:
    """All d^dim(V_pi) outcomes, ordered by label (discrete fields only)."""
    field = m.space.field
    _require_prime(field, "listing a measurement's outcomes")
    labels = itertools.product(field.elements(), repeat=m.observables.dim)
    return [Outcome(m, lab) for lab in labels]


def _check_outcome(s: EpistemicState, m: Measurement,
                   out: Optional[Outcome] = None):
    if s.space != m.space:
        raise DimensionMismatch("state and measurement live on different spaces")
    if out is not None and out.measurement != m:
        raise DimensionMismatch(f"{out} belongs to {out.measurement}, not {m}")


def outcome_probability(s: EpistemicState, m: Measurement, out: Outcome) -> Fraction:
    """P(out) = d^-(rank - dim V), or 0 when the constraints conflict.

    The support is the solution set of g.x = g.v (g in V); the outcome adds
    g.x = label (g in V_π).  If the stacked system of rank r is solvable its
    solutions are a d^-(r - dim V) share of the support.  Over QQ only the
    point masses are determined: 1 when r = dim V, else `NotPointMass`.
    Raises `DimensionMismatch` when ``out`` is not an outcome of ``m``.
    """
    _check_outcome(s, m, out)
    rows, values = s.constraints()
    solved = _solve_augmented(s.field, s.space.ambient_dim,
                              rows + m.observables.basis, values + out.label)
    if solved is None:
        return Fraction(0)
    # the support has dimension N - dim V, its meet with the outcome N - rank
    gained = len(solved[0]) - s.known.dim
    _require_point_mass(s.field, gained)
    return Fraction(1, s.field.p ** gained) if gained else Fraction(1)


def _require_point_mass(field, gained: int) -> None:
    """Over QQ only a probability 1 (gained = rank - dim V = 0) is known."""
    if gained and not isinstance(field, PrimeField):
        raise NotPointMass("rational-case probability is neither 0 nor 1; "
                           "only point masses are algebraically determined")


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


def _commuting_meet(known: Subspace, v_pi: Subspace, rhs: Sequence,
                    tagged: Sequence = ()) -> tuple:
    """Measuring V_π on knowledge V in one elimination of the rows
    [[g_1,b] … [g_k,b] | b | 0 | r] (b in V), [0 | g | 0 | r] (g in V_π) and
    [0 | h | e_h | r] (h in ``tagged``, e_h a row of an identity block),
    each r its row's entry of ``rhs``: a value, or a row of an identity
    block.  Returns (rank, V', solved, tags, deps), read by the block where
    the pivots fall.  Bracket block: V's non-commuting part, skipped; no
    dependency is lost, as c·b = -a·g lies in V ∩ V_π, which commutes with
    V_π.  Vector block: the canonical V' = V_π ⊕ V_commute (plus V_B if
    tagged), (pivot, r) in ``solved``; ``rank`` counts these rows and the
    skipped ones, rank[V; V_π] when untagged.  Tag block: dim(V_B ∩ V')
    rows, r in ``tags``.  Right-hand side: the dependencies, r in ``deps``.
    """
    field, n, k, t = known.field, known.ambient_dim, v_pi.dim, len(tagged)
    duals = [symplectic_dual(field, g) for g in v_pi.basis]
    pad, untagged = (field.zero,) * k, (field.zero,) * t
    rows = ([tuple([field.dot(g, b) for g in duals]) + b + untagged
             for b in known.basis]
            + [pad + g + untagged for g in v_pi.basis]
            + [pad + h + e for h, e in zip(tagged, identity_matrix(field, t))])
    reduced, pivots = _rref_rows(field, [row + r for row, r in zip(rows, rhs)])
    cut = k + n + t
    i, j, end = [bisect_left(pivots, c) for c in (k, k + n, cut)]
    kept = reduced[i:j]
    return (j, Subspace(field, n, tuple([row[k:k + n] for row in kept])),
            [(c - k, row[cut:]) for row, c in zip(kept, pivots[i:])],
            [row[cut:] for row in reduced[j:end]],
            [row[cut:] for row in reduced[end:]])


def update_state(s: EpistemicState, m: Measurement, out: Outcome) -> EpistemicState:
    """Post-measurement state: keep commuting knowledge, adjoin the outcome.

    One `_commuting_meet` gives V' = V_π ⊕ V_commute, isotropic as both
    parts are (`Measurement` checks V_π when built) and they commute (so
    no `make_state` re-validation), and a point x[pivot] = value meeting
    the constraints on V'; all such points are one state, stored
    canonically (x reduced modulo V'^⊥).  A conflict
    raises `ImpossibleOutcome`, and over QQ rank[V; V_π] ≠ dim V raises
    `NotPointMass`.  `branches` gives the same state for every outcome.
    """
    _check_outcome(s, m, out)
    rank, post, solved, _, deps = _commuting_meet(s.known, m.observables, [
        (x,) for x in s.constraints()[1] + out.label])
    if deps:
        raise ImpossibleOutcome(
            f"outcome {label_text(out.label)} has probability 0")
    _require_point_mass(s.field, rank - s.known.dim)
    x = [s.field.zero] * s.space.ambient_dim
    for c, (value,) in solved:
        x[c] = value
    return EpistemicState(s.space, post, reduce_mod_subspace(
        orthogonal_complement(post), x))


def _level_branches(space: PhaseSpace, known: Subspace, valuations: Sequence,
                    m: Measurement) -> tuple[Subspace, list[list[tuple]]]:
    """`branches` of every state (V, v), v in ``valuations``, on one known
    subspace V: (V', levels), V' the known subspace of every post-state and
    ``levels`` a list of (outcome, probability, post-valuation) lists, one
    per valuation.  Raises `ContinuousNotEnumerable` over QQ.

    The states differ only in the right-hand sides r (V's values, then the
    label), so `_commuting_meet` takes I_k in their place: each row ends in
    the t with row = t·[the rows].  r is consistent iff t·r = 0 for every
    dependency t, x[c] = t·r at the pivots c of V' is `update_state`'s
    point, and V', V'^⊥ and the probability p^-(rank - dim V) serve every
    valuation.  t·r is linear in the values and in the label, and so is
    reduction modulo V'^⊥: a valuation's half is taken once, the labels'
    halves are spanned from the unit labels' in `outcomes` order, and a
    (valuation, outcome) pair costs one row sum.  Its post-valuation is
    returned beside the one V' the whole level shares, not built into a
    state.
    """
    field, n, outs = space.field, space.ambient_dim, outcomes(m)
    eye = identity_matrix(field, known.dim + m.observables.dim)
    rank, post, solved, _, deps = _commuting_meet(known, m.observables, eye)
    p = Fraction(1, field.p ** (rank - known.dim))
    perp = orthogonal_complement(post)
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
                level.append((out, p, r[nd:]))
        found.append(level)
    return post, found


def branches(s: EpistemicState, m: Measurement) -> list[tuple]:
    """(outcome, probability, post-state) for every outcome of positive
    probability, in `outcomes` order (discrete fields only).

    Equals ``update_state`` and ``outcome_probability`` outcome by outcome:
    the one-state call of `_level_branches`, each post-valuation paired
    with the level's V'.  Raises `DimensionMismatch` when m lives on
    another space and `ContinuousNotEnumerable` over QQ.
    """
    _check_outcome(s, m)
    post, (level,) = _level_branches(s.space, s.known, [s.valuation], m)
    return [(out, p, EpistemicState(s.space, post, v)) for out, p, v in level]


def is_certain(s: EpistemicState, m: Measurement, out: Outcome) -> bool:
    """True iff the outcome occurs with probability 1: every canonical
    generator g of V_π is known and its value g.v is g's label.

    A lookup, no elimination: for g in V, g.x = g.v on the whole support
    V^⊥ + v; for g outside V, g.x takes more than one value there, over
    Z_p and over QQ alike.
    """
    _check_outcome(s, m, out)
    return all(s.value_of(g) == value
               for g, value in zip(m.observables.basis, out.label))


def inference_conditions(s: EpistemicState, m_a: Measurement, out_a: Outcome,
                         m_b: Measurement, out_b: Outcome) -> tuple[bool, bool]:
    """The two conditions behind "A = out_a implies B = out_b".

    (1) V_B ⊆ V' = V_commute,A ⊕ V_A: some outcome of B is inferable;
    (2) the constraints g.x = g.v (g in V_commute,A), g.x = label_A
        (g in V_A) and g.x = label_B (g in V_B) are solvable: the inferable
        outcome is out_b (and the premise is possible).
    One `_commuting_meet`, V_B's rows tagged, decides both: (1) when every
    tag is a pivot, (2) when no dependency has a nonzero value.
    """
    _check_outcome(s, m_a, out_a)
    _check_outcome(s, m_b, out_b)
    values = s.constraints()[1] + out_a.label + out_b.label
    _, _, _, tags, deps = _commuting_meet(
        s.known, m_a.observables, [(x,) for x in values], m_b.observables.basis)
    return (len(tags) == m_b.observables.dim,
            not deps and not any(value for value, in tags))


def infers(s: EpistemicState, m_a: Measurement, out_a: Outcome,
           m_b: Measurement, out_b: Outcome) -> bool:
    """The inference "A = out_a implies B = out_b" from state s.

    Equivalent to: out_a has positive probability and, after updating on it,
    out_b is certain.  A premise of probability zero never infers anything.
    """
    cond1, cond2 = inference_conditions(s, m_a, out_a, m_b, out_b)
    return cond1 and cond2
