"""Ontic-level reference implementation: ground truth by raw set operations.

Everything here enumerates explicit ontic sets and scans explicit catalogs of
valid states; it is deliberately independent of the algebraic update and
probability rules so it can certify them.  Exponential cost, test-side only
(and the CLI's --verify mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import (
    PrimeField, Subspace, dot, orthogonal_complement, reduce_mod_subspace,
    vec_sub,
)
from .errors import EnumerationCapExceeded, InvariantViolation
from .measurement import Measurement, Outcome
from .phase_space import PhaseSpace, all_isotropic_subspaces
from .states import EpistemicState, OnticSupport, ontic_support


@dataclass(frozen=True)
class OnticEnsemble:
    """Uniform distribution over the ontic support of a state."""

    space: PhaseSpace
    support: OnticSupport

    @classmethod
    def of_state(cls, s: EpistemicState, cap: int | None = None) -> "OnticEnsemble":
        return cls(s.space, ontic_support(s, cap))


def oracle_probability(s: EpistemicState, m: Measurement, out: Outcome,
                       cap: int | None = None) -> Fraction:
    """Literal sum of the outcome indicator over the enumerated support."""
    sup = ontic_support(s, cap)
    coset = out.coset()
    hits = sum(1 for o in sup.members if coset.contains(o))
    return Fraction(hits, len(sup.members))


_SUPERSPACE_CACHE: dict = {}


def _isotropics_containing(space: PhaseSpace, v_pi: Subspace) -> list[Subspace]:
    """All isotropic subspaces containing V_π, largest dimension first."""
    key = (space, v_pi)
    if key not in _SUPERSPACE_CACHE:
        catalog = all_isotropic_subspaces(space)
        found = [w for w in catalog
                 if all(w.contains(g) for g in v_pi.basis)]
        found.sort(key=lambda w: -w.dim)
        _SUPERSPACE_CACHE[key] = found
    return _SUPERSPACE_CACHE[key]


_GF2_CATALOG_CACHE: dict = {}
_GF2_SUPER_CACHE: dict = {}


def _gf2_catalog(n_bits: int) -> list:
    """(basis ints, span mask) of every isotropic subspace, big dims first."""
    if n_bits not in _GF2_CATALOG_CACHE:
        from . import _gf2
        entries = []
        for per_dim in _gf2.isotropic_bases(n_bits):
            for basis in per_dim:
                entries.append((basis, _gf2.span_mask(basis)))
        entries.sort(key=lambda e: -len(e[0]))
        _GF2_CATALOG_CACHE[n_bits] = entries
    return _GF2_CATALOG_CACHE[n_bits]


def _gf2_isotropics_containing(n_bits: int, v_pi_basis_ints: tuple) -> list:
    key = (n_bits, v_pi_basis_ints)
    if key not in _GF2_SUPER_CACHE:
        from . import _gf2
        pi_mask = _gf2.span_mask(v_pi_basis_ints)
        _GF2_SUPER_CACHE[key] = [
            (basis, mask) for basis, mask in _gf2_catalog(n_bits)
            if pi_mask & ~mask == 0]
    return _GF2_SUPER_CACHE[key]


def oracle_smallest_update(s: EpistemicState, m: Measurement, out: Outcome,
                           cap: int | None = None) -> OnticSupport:
    """Smallest valid support that contains (support ∩ outcome coset) and
    lies inside the outcome coset, found by scanning the state catalog.

    Valid supports are exactly the cosets W^⊥ + x of isotropic W, so the scan
    runs over isotropic subspaces from large to small dimension; containment
    in the outcome coset forces V_π ⊆ W.
    """
    field = s.field
    if not isinstance(field, PrimeField):
        raise EnumerationCapExceeded("oracle updates need a discrete field")
    sup = ontic_support(s, cap)
    coset = out.coset()
    pre_post = sorted(o for o in sup.members if coset.contains(o))
    if not pre_post:
        raise EnumerationCapExceeded(
            "oracle update undefined for an impossible outcome")
    x0 = pre_post[0]
    diffs = [vec_sub(field, x, x0) for x in pre_post]
    if field.p == 2:
        from . import _gf2
        from .algebra import rref
        n_bits = s.space.ambient_dim
        pi_ints = tuple(_gf2.vector_to_int(g) for g in m.observables.basis)
        diff_ints = [_gf2.vector_to_int(d) for d in diffs]
        for basis, _mask in _gf2_isotropics_containing(n_bits, pi_ints):
            if all(_gf2.dot2(b, d) == 0 for b in basis for d in diff_ints):
                w = rref(field, n_bits,
                         [_gf2.int_to_vector(b, n_bits) for b in basis])
                shift = reduce_mod_subspace(orthogonal_complement(w), x0)
                return ontic_support(EpistemicState(s.space, w, shift), cap)
        raise InvariantViolation("no valid support found; this must not happen")
    for w in _isotropics_containing(s.space, m.observables):
        if all(all(dot(field, b, d) == field.zero for d in diffs)
               for b in w.basis):
            shift = reduce_mod_subspace(orthogonal_complement(w), x0)
            return ontic_support(EpistemicState(s.space, w, shift), cap)
    raise InvariantViolation("no valid support found; this must not happen")


def oracle_conditional(s: EpistemicState, m_a: Measurement, out_a: Outcome,
                       m_b: Measurement, out_b: Outcome,
                       cap: int | None = None) -> Optional[Fraction]:
    """P(out_b | out_a) by enumerating the post-update support; None when
    the premise has probability zero."""
    if oracle_probability(s, m_a, out_a, cap) == 0:
        return None
    post = oracle_smallest_update(s, m_a, out_a, cap)
    coset = out_b.coset()
    hits = sum(1 for o in post.members if coset.contains(o))
    return Fraction(hits, len(post.members))
