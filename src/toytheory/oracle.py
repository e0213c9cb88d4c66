"""Ontic-level reference implementation: ground truth by raw set operations.

Everything here enumerates explicit ontic sets and scans explicit catalogs of
valid states; it is deliberately independent of the algebraic update and
probability rules so it can certify them.  An outcome is tested at each
ontic point by the values of the measured observables there, its literal
definition, not by a reduction modulo V_π^⊥.  Every prime takes the same
generic route, which shares no code with the bit-packed FR scan it checks.
Exponential cost, test-side only (and the CLI's --verify mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import (
    PrimeField, Subspace, _pivot_columns, _rref_rows, enumerate_subspace,
    orthogonal_complement, reduce_mod_subspace, rref,
)
from .errors import EnumerationCapExceeded, InvariantViolation
from .measurement import Measurement, Outcome
from .phase_space import PhaseSpace, isotropic_subspaces_within, symplectic_dual
from .states import EpistemicState, OnticSupport, ontic_support


@dataclass(frozen=True)
class OnticEnsemble:
    """Uniform distribution over the ontic support of a state."""

    space: PhaseSpace
    support: OnticSupport

    @classmethod
    def of_state(cls, s: EpistemicState, cap: int | None = None) -> "OnticEnsemble":
        return cls(s.space, ontic_support(s, cap))


def _outcome_points(points, out: Outcome) -> list:
    """The points at which every measured observable takes the outcome's
    value."""
    field_dot = out.measurement.space.field.dot
    values = tuple(zip(out.measurement.observables.basis, out.label))
    return [o for o in points
            if all(field_dot(g, o) == c for g, c in values)]


def oracle_probability(s: EpistemicState, m: Measurement, out: Outcome,
                       cap: int | None = None) -> Fraction:
    """Literal sum of the outcome indicator over the enumerated support."""
    sup = ontic_support(s, cap)
    return Fraction(len(_outcome_points(sup.members, out)), len(sup.members))


_SUPERSPACE_CACHE: dict = {}


def _isotropics_containing(space: PhaseSpace, v_pi: Subspace) -> list[Subspace]:
    """All isotropic subspaces containing V_π, largest dimension first, each
    dimension sorted by canonical basis (the catalog's order).

    Such a W lies in the symplectic complement C of V_π, whose radical is
    V_π.  The points of C that vanish in V_π's pivot columns form a
    complement L of V_π in C, so W = V_π ⊕ (W ∩ L), and the isotropic
    subspaces of L give each W once.
    """
    key = (space, v_pi)
    if key not in _SUPERSPACE_CACHE:
        field = space.field
        n = space.ambient_dim
        units = [tuple(int(i == c) for i in range(n))
                 for c in _pivot_columns(v_pi)]
        within = orthogonal_complement(rref(
            field, n, [symplectic_dual(field, g) for g in v_pi.basis] + units))
        found = []
        for per_dim in reversed(isotropic_subspaces_within(
                field, n, enumerate_subspace(within))):
            found += sorted((Subspace(field, n, tuple(
                _rref_rows(field, v_pi.basis + u.basis)[0]))
                for u in per_dim), key=lambda w: w.basis)
        _SUPERSPACE_CACHE[key] = found
    return _SUPERSPACE_CACHE[key]


def oracle_smallest_update(s: EpistemicState, m: Measurement, out: Outcome,
                           cap: int | None = None) -> OnticSupport:
    """Smallest valid support that contains (support ∩ outcome coset) and
    lies inside the outcome coset, found by scanning the state catalog.

    Valid supports are exactly the cosets W^⊥ + x of isotropic W, so the scan
    runs over isotropic subspaces from large to small dimension; containment
    in the outcome coset forces V_π ⊆ W.
    """
    if not isinstance(s.field, PrimeField):
        raise EnumerationCapExceeded("oracle updates need a discrete field")
    pre_post = _outcome_points(ontic_support(s, cap).members, out)
    if not pre_post:
        raise EnumerationCapExceeded(
            "oracle update undefined for an impossible outcome")
    return _smallest_support(s, m, pre_post, cap)


def _smallest_support(s: EpistemicState, m: Measurement, pre_post: list,
                      cap: int | None) -> OnticSupport:
    """The catalog scan of `oracle_smallest_update`, given the nonempty
    list of support points inside the outcome coset."""
    field = s.field
    x0 = min(pre_post)
    # W is orthogonal to every difference exactly when it is orthogonal to
    # a basis of their span
    diffs = _rref_rows(field, [field.sub_rows(x, x0) for x in pre_post])[0]
    w = next((w for w in _isotropics_containing(s.space, m.observables)
              if not any(field.dot(b, d) for b in w.basis for d in diffs)),
             None)
    if w is None:
        raise InvariantViolation("no valid support found; this must not happen")
    shift = reduce_mod_subspace(orthogonal_complement(w), x0)
    return ontic_support(EpistemicState(s.space, w, shift), cap)


def oracle_conditional(s: EpistemicState, m_a: Measurement, out_a: Outcome,
                       m_b: Measurement, out_b: Outcome,
                       cap: int | None = None) -> Optional[Fraction]:
    """P(out_b | out_a) by enumerating the post-update support; None when
    the premise has probability zero.  The support is enumerated and the
    premise's points found once, for both the premise's probability and the
    update."""
    pre_post = _outcome_points(ontic_support(s, cap).members, out_a)
    if not pre_post:
        return None
    post = _smallest_support(s, m_a, pre_post, cap)
    return Fraction(len(_outcome_points(post.members, out_b)),
                    len(post.members))
