"""Epistemic states: validity, composition, marginals, mixtures, grids.

A state of knowledge is a pair (V, v): a canonical isotropic subspace V of
jointly known observables and a representative ontic state v fixing their
values.  Its ontic support is the coset V^⊥ + v under the standard dot
product.  The valuation is stored canonically (reduced modulo V^⊥), so state
equality is structural equality.

Grid conventions for d = 2 (toy bits): box number = 1 + 2q + p, i.e.
box 1 = (q,p) = (0,0), box 2 = (0,1), box 3 = (1,0), box 4 = (1,1).  The
single-bit states are then 0 -> {1,2}, 1 -> {3,4}, + -> {1,3}, - -> {2,4},
i -> {1,4}, -i -> {2,3}, and the q<->p swap is the box transposition (2 3).
Two-bit grids put system B's boxes 1..4 left to right in columns and system
A's boxes bottom to top in rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .algebra import (
    Coset, FieldT, Subspace, VectorT, _image_of_kernel,
    dot, enumerate_coset, orthogonal_complement, reduce_mod_subspace, rref,
    _pivot_columns, solve_linear, vector, vec_sub, zero_subspace, zero_vector,
)
from .errors import DimensionMismatch, NotIsotropic, ToyTheoryError
from .phase_space import (
    Observable, PhaseSpace, _check_enumerable, _require_prime,
    all_isotropic_subspaces, discrete_space, embed_vector, is_isotropic,
    restrict_vector,
)


@dataclass(frozen=True)
class EpistemicState:
    space: PhaseSpace
    known: Subspace   # canonical RREF basis, isotropic
    valuation: tuple  # canonical coset shift of known^⊥

    @property
    def field(self) -> FieldT:
        return self.space.field

    def support_coset(self) -> Coset:
        return Coset(orthogonal_complement(self.known), self.valuation)

    def constraints(self) -> tuple[tuple, tuple]:
        """The known rows g and their values g.v: the support is the
        solution set of g.x = g.v."""
        basis = self.known.basis
        return basis, tuple([self.field.dot(g, self.valuation) for g in basis])

    def value_of(self, obs: Union[Observable, Sequence]):
        """Value of a known observable on this state; None if not known."""
        coeffs = obs.coeffs if isinstance(obs, Observable) else vector(self.field, obs)
        if not self.known.contains(coeffs):
            return None
        return dot(self.field, coeffs, self.valuation)

    def is_pure(self) -> bool:
        return self.known.dim == self.space.n_systems

    def __repr__(self):
        gens = ", ".join(str(list(g)) for g in self.known.basis)
        return f"EpistemicState(n={self.space.n_systems}, V=[{gens}], v={list(self.valuation)})"


@dataclass(frozen=True)
class OnticSupport:
    space: PhaseSpace
    members: frozenset

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class GridDiagram:
    rows: int
    cols: int
    filled: tuple  # tuple of row tuples of bool
    labels: Optional[tuple] = None  # same shape, outcome labels for overlays

    def to_ascii(self) -> str:
        lines = []
        for r in range(self.rows):
            chars = []
            for c in range(self.cols):
                if self.labels is not None and self.labels[r][c] is not None:
                    chars.append(str(self.labels[r][c]))
                else:
                    chars.append("#" if self.filled[r][c] else ".")
            lines.append("".join(chars))
        return "\n".join(lines)


def make_state(space: PhaseSpace, generators: Iterable, valuation: Iterable) -> EpistemicState:
    """Canonicalize and validate a state of knowledge.

    Raises NotIsotropic when the generators contain a non-commuting pair
    (classical complementarity forbids jointly knowing them).
    """
    # rref coerces each row and checks its length
    known = rref(space.field, space.ambient_dim,
                 [g.coeffs if isinstance(g, Observable) else g
                  for g in generators])
    if not is_isotropic(known):
        raise NotIsotropic(
            "generators do not commute under the Poisson bracket")
    # the reduction coerces the valuation and checks its length
    return EpistemicState(space, known, reduce_mod_subspace(
        orthogonal_complement(known), valuation))


def state_from_values(space: PhaseSpace, known_values: Iterable) -> EpistemicState:
    """Build a state from (observable, value) pairs by solving for a valuation."""
    rows, rhs = [], []
    for obs, value in known_values:
        coeffs = obs.coeffs if isinstance(obs, Observable) else vector(space.field, obs)
        rows.append(coeffs)
        rhs.append(space.field.coerce(value))
    val = solve_linear(space.field, space.ambient_dim, rows, rhs)
    if val is None:
        raise NotIsotropic("inconsistent values for linearly dependent observables")
    return make_state(space, rows, val)


def maximally_mixed(space: PhaseSpace) -> EpistemicState:
    return EpistemicState(space, zero_subspace(space.field, space.ambient_dim),
                          zero_vector(space.field, space.ambient_dim))


_TOY_BIT_GENERATORS = {
    "0": ((1, 0), 0), "1": ((1, 0), 1),
    "+": ((0, 1), 0), "-": ((0, 1), 1),
    "i": ((1, 1), 0), "-i": ((1, 1), 1),
}


def toy_bit(name: str) -> EpistemicState:
    """The six pure single-toy-bit states plus 'mix', by quantum-analogy name."""
    space = discrete_space(2, 1)
    if name == "mix":
        return maximally_mixed(space)
    if name not in _TOY_BIT_GENERATORS:
        raise ValueError(f"unknown toy bit state {name!r}")
    gen, value = _TOY_BIT_GENERATORS[name]
    return state_from_values(space, [(gen, value)])


def bell_pair(d: int = 2) -> EpistemicState:
    """Positions correlated, momenta anti-correlated: q1 = q2, p1 = -p2."""
    space = discrete_space(d, 2)
    one = space.field.one
    neg = space.field.neg(one)
    return state_from_values(space, [((one, 0, neg, 0), 0), ((0, one, 0, one), 0)])


def knowledge_bits(state: EpistemicState) -> int:
    return state.known.dim


def states_equal(s1: EpistemicState, s2: EpistemicState) -> bool:
    return s1 == s2


def tensor(s1: EpistemicState, s2: EpistemicState) -> EpistemicState:
    if s1.field != s2.field:
        raise DimensionMismatch("cannot compose states over different fields")
    space = PhaseSpace(s1.field, s1.space.n_systems + s2.space.n_systems)
    gens = [embed_vector(space, 0, g) for g in s1.known.basis]
    gens += [embed_vector(space, s1.space.n_systems, g) for g in s2.known.basis]
    return make_state(space, gens, s1.valuation + s2.valuation)


def tensor_all(states: Sequence[EpistemicState]) -> EpistemicState:
    if not states:
        raise DimensionMismatch("empty tensor product")
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def marginal(state: EpistemicState, keep: Iterable[int]) -> EpistemicState:
    """Reduced state on the kept systems (0-indexed, order preserved).

    The known set restricts to those observables supported entirely on the
    kept systems; the valuation restricts coordinatewise.  This matches the
    projection of the ontic support onto the kept coordinates.
    """
    keep = list(keep)
    n = state.space.n_systems
    if not keep or len(set(keep)) != len(keep) or any(
            s < 0 or s >= n for s in keep):
        raise DimensionMismatch(f"bad subsystem indices {keep} for n={n}")
    space = PhaseSpace(state.field, len(keep))
    # the combinations of V's rows that vanish on the traced systems
    traced = [s for s in range(n) if s not in keep]
    basis = state.known.basis
    gens = _image_of_kernel(state.field,
                            [restrict_vector(g, traced) for g in basis],
                            [restrict_vector(g, keep) for g in basis])
    return make_state(space, gens, restrict_vector(state.valuation, keep))


def ontic_support(state: EpistemicState) -> OnticSupport:
    """Explicit coset V^⊥ + v (discrete only, within the enumeration cap)."""
    _check_enumerable(state.space)
    members = frozenset(enumerate_coset(state.support_coset()))
    size = state.field.p ** (state.space.ambient_dim - state.known.dim)
    if len(members) != size:
        raise ToyTheoryError(
            f"support has {len(members)} points, expected {size}")
    return OnticSupport(state.space, members)


def mixture_support(states: Sequence[EpistemicState]) -> OnticSupport:
    """Uniform mixture of states = union of their supports.

    Only uniform mixing is expressible; weighted ensembles are not a notion
    this theory admits, so there is no weights parameter.
    """
    if not states:
        raise DimensionMismatch("empty mixture")
    space = states[0].space
    members = set()
    for s in states:
        if s.space != space:
            raise DimensionMismatch("mixture components live on different spaces")
        members |= ontic_support(s).members
    return OnticSupport(space, frozenset(members))


def is_valid_support(sup: OnticSupport) -> Optional[EpistemicState]:
    """The unique state with this support, or None if no valid state has it.

    A set is a valid support iff it is a coset of W^⊥ for isotropic W, i.e.
    iff it is an affine subspace whose annihilator is isotropic.
    """
    field = sup.space.field
    _require_prime(field, "checking a support")
    n2 = sup.space.ambient_dim
    size = len(sup.members)
    if size == 0:
        return None
    # size must be d^k with n <= k <= 2n (knowledge balance)
    k = 0
    s = size
    while s % field.p == 0:
        s //= field.p
        k += 1
    if s != 1 or k < sup.space.n_systems or k > n2:
        return None
    members = sorted(sup.members)
    base = members[0]
    diffs = {vec_sub(field, m, base) for m in members}
    # subtraction-closure test: diffs is a subspace iff it equals its span,
    # i.e. iff |span| == |diffs|
    direction = rref(field, n2, sorted(diffs))
    if field.p ** direction.dim != size:
        return None
    annihilator = orthogonal_complement(direction)
    if not is_isotropic(annihilator):
        return None
    return make_state(sup.space, annihilator.basis, base)


# ---------------------------------------------------------------------------
# grid diagrams (d = 2, n <= 2)
# ---------------------------------------------------------------------------

def box_number(q: int, p: int) -> int:
    return 1 + 2 * q + p


def _box_of(v: VectorT, system: int) -> int:
    return box_number(int(v[2 * system]), int(v[2 * system + 1]))


def render_grid(obj: Union[EpistemicState, OnticSupport],
                labeler=None) -> GridDiagram:
    """Grid diagram of a state or support (d=2, n in {1,2}).

    ``labeler`` optionally maps an ontic vector to a short label (used for
    measurement-partition overlays).
    """
    sup = obj if isinstance(obj, OnticSupport) else ontic_support(obj)
    space = sup.space
    if space.d != 2 or space.n_systems not in (1, 2):
        raise DimensionMismatch("grid diagrams only cover d=2 with 1 or 2 systems")
    rows = 1 if space.n_systems == 1 else 4

    def cell(v) -> tuple[int, int]:
        if rows == 1:
            return 0, _box_of(v, 0) - 1
        # system A: box 1 at the bottom; system B: box 1 at the left
        return 4 - _box_of(v, 0), _box_of(v, 1) - 1

    filled = [[False] * 4 for _ in range(rows)]
    labels = [[None] * 4 for _ in range(rows)]
    for v in sup.members:
        row, col = cell(v)
        filled[row][col] = True
    if labeler is not None:
        for v in itertools.product(range(2), repeat=space.ambient_dim):
            row, col = cell(v)
            labels[row][col] = labeler(v)
    return GridDiagram(rows, 4, tuple(map(tuple, filled)),
                       tuple(map(tuple, labels)) if labeler else None)


def all_valid_states(space: PhaseSpace) -> list[EpistemicState]:
    """Every valid epistemic state of a discrete space (desk-scale)."""
    field = space.field
    states = []
    for sub in all_isotropic_subspaces(space):
        # the canonical shifts are zero in the pivot columns of V^⊥
        pivots = _pivot_columns(orthogonal_complement(sub))
        columns = [(0,) if j in pivots else field.elements()
                   for j in range(space.ambient_dim)]
        states.extend(EpistemicState(space, sub, shift)
                      for shift in itertools.product(*columns))
    return states
