"""Ontic-level reference implementation: ground truth by raw set operations.

Everything here enumerates explicit ontic sets and walks explicit isotropic
subspaces; it is deliberately independent of the algebraic update and
probability rules so it can certify them.  An outcome is tested at each
ontic point by the values of the measured observables there, its literal
definition, not by a reduction modulo V_π^⊥.  An update walks only the
isotropic W ⊇ V_π orthogonal to the differences of the premise's points,
grown afresh on each call: there is no catalog and no cache.  Every prime
takes the same generic route.  Of the bit-packed FR scan it checks, it
shares only `phase_space._orderly_walk`, the walk that grows isotropic
subspaces for both, which closed-form counts and brute-force enumerations
check; it shares no condition code.  Exponential cost, test-side only (and
the CLI's --verify mode).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import (
    Subspace, _pivot_columns, _rref_rows, enumerate_subspace,
    orthogonal_complement, reduce_mod_subspace, rref,
)
from .errors import ImpossibleOutcome, InvariantViolation
from .measurement import Measurement, Outcome, label_text
from .phase_space import PhaseSpace, isotropic_subspaces_within, symplectic_dual
from .states import EpistemicState, OnticSupport, ontic_support


def _outcome_points(points, out: Outcome) -> list:
    """The points at which every measured observable takes the outcome's
    value."""
    field_dot = out.measurement.space.field.dot
    values = tuple(zip(out.measurement.observables.basis, out.label))
    return [o for o in points
            if all(field_dot(g, o) == c for g, c in values)]


def oracle_probability(s: EpistemicState, m: Measurement,
                       out: Outcome) -> Fraction:
    """Literal sum of the outcome indicator over the enumerated support."""
    sup = ontic_support(s)
    return Fraction(len(_outcome_points(sup.members, out)), len(sup.members))


def oracle_smallest_update(s: EpistemicState, m: Measurement,
                           out: Outcome) -> OnticSupport:
    """Smallest valid support that contains (support ∩ outcome coset) and
    lies inside the outcome coset.

    Valid supports are exactly the cosets W^⊥ + x of isotropic W, and
    containment in the outcome coset forces V_π ⊆ W.  The support contains
    the premise's points exactly when W is orthogonal to their differences,
    so the largest such W gives the smallest support; the walk grows only
    those W (see `_largest_superspace_orthogonal_to`).  An outcome of
    probability 0 raises `ImpossibleOutcome`, as in `update_state`.
    """
    pre_post = _outcome_points(ontic_support(s).members, out)
    if not pre_post:
        raise ImpossibleOutcome(
            f"outcome {label_text(out.label)} has probability 0")
    return _smallest_support(s, m, pre_post)


def _smallest_support(s: EpistemicState, m: Measurement,
                      pre_post: list) -> OnticSupport:
    """The search of `oracle_smallest_update`, given the nonempty list of
    support points inside the outcome coset."""
    field = s.field
    x0 = min(pre_post)
    # W is orthogonal to every difference exactly when it is orthogonal to
    # a basis of their span
    diffs = _rref_rows(field, [field.sub_rows(x, x0) for x in pre_post])[0]
    w = _largest_superspace_orthogonal_to(s.space, m.observables, diffs)
    shift = reduce_mod_subspace(orthogonal_complement(w), x0)
    return ontic_support(EpistemicState(s.space, w, shift))


def _largest_superspace_orthogonal_to(space: PhaseSpace, v_pi: Subspace,
                                      diffs: list) -> Subspace:
    """The largest isotropic W ⊇ V_π that is orthogonal to D, the span of
    `diffs`, found without a catalog.

    Such a W lies in the symplectic complement of V_π, whose radical is
    V_π; the points of it that vanish in V_π's pivot columns form a
    complement L of V_π there, so W = V_π ⊕ U for one isotropic U ⊆ L.
    When V_π ⊥ D, as it is for the differences of points that share their
    values on V_π, W ⊥ D exactly when U ⊆ L ∩ D^⊥: the walk grows the
    isotropic subspaces of L ∩ D^⊥ alone and keeps its top dimension.
    Otherwise no W exists.

    The top holds one W when D spans the differences of all the premise's
    points, the points of V^⊥ + v inside the outcome: then D =
    (V + V_π)^⊥, so W ⊆ V + V_π.  Write w ∈ W as x + y with x ∈ V and
    y ∈ V_π; W is isotropic and contains V_π, so [x, V_π] = [w, V_π] = 0
    and x lies in V_commute, the part of V that commutes with V_π.  Every
    such W thus lies in V_π + V_commute, which is itself one of them (it
    is isotropic, as V and V_π are).  A top of more than one W raises
    `InvariantViolation`.
    """
    field = space.field
    n = space.ambient_dim
    if any(field.dot(g, d) for g in v_pi.basis for d in diffs):
        raise InvariantViolation("no valid support found; this must not happen")
    units = [tuple(int(i == c) for i in range(n))
             for c in _pivot_columns(v_pi)]
    within = orthogonal_complement(rref(
        field, n, [symplectic_dual(field, g) for g in v_pi.basis]
        + units + diffs))
    top = [per_dim for per_dim in isotropic_subspaces_within(
        field, n, enumerate_subspace(within)) if per_dim][-1]
    if len(top) != 1:
        raise InvariantViolation(
            f"{len(top)} largest isotropic superspaces; a premise fixes one")
    return Subspace(field, n,
                    tuple(_rref_rows(field, v_pi.basis + top[0].basis)[0]))


def oracle_conditional(s: EpistemicState, m_a: Measurement, out_a: Outcome,
                       m_b: Measurement, out_b: Outcome) -> Optional[Fraction]:
    """P(out_b | out_a) by enumerating the post-update support; None when
    the premise has probability zero.  The support is enumerated and the
    premise's points found once, for both the premise's probability and the
    update."""
    pre_post = _outcome_points(ontic_support(s).members, out_a)
    if not pre_post:
        return None
    post = _smallest_support(s, m_a, pre_post)
    return Fraction(len(_outcome_points(post.members, out_b)),
                    len(post.members))
