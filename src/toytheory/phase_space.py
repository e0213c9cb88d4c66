"""Symplectic phase space: coordinate conventions, Poisson bracket, isotropy.

Coordinates interleave position and momentum: for system i (0-indexed),
coordinate 2i is q_i and coordinate 2i+1 is p_i.  Composition of systems is
concatenation of coordinate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .algebra import (
    FieldT, GF, PrimeField, QQ, Subspace, VectorT, _image_of_kernel, dot,
    vector,
)
from .config import enumeration_cap
from .errors import (
    ContinuousNotEnumerable, DimensionMismatch, EnumerationCapExceeded,
)


@dataclass(frozen=True)
class PhaseSpace:
    field: FieldT
    n_systems: int

    def __post_init__(self):
        if self.n_systems < 1:
            raise DimensionMismatch("need at least one system")

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n_systems

    @property
    def d(self) -> Optional[int]:
        return self.field.p if isinstance(self.field, PrimeField) else None

    def q_index(self, system: int) -> int:
        return self.system_coords(system)[0]

    def p_index(self, system: int) -> int:
        return self.system_coords(system)[1]

    def system_coords(self, system: int) -> tuple[int, int]:
        """(q, p) coordinates of a 0-based system index in [0, n)."""
        if not 0 <= system < self.n_systems:
            raise DimensionMismatch(
                f"0-based system index {system} is outside "
                f"0..{self.n_systems - 1} (n={self.n_systems})")
        return (2 * system, 2 * system + 1)

    def __repr__(self):
        return f"PhaseSpace({self.field}, n={self.n_systems})"


def discrete_space(d: int, n_systems: int) -> PhaseSpace:
    return PhaseSpace(GF(d), n_systems)


def rational_space(n_systems: int) -> PhaseSpace:
    return PhaseSpace(QQ, n_systems)


def compose(s1: PhaseSpace, s2: PhaseSpace) -> PhaseSpace:
    if s1.field != s2.field:
        raise DimensionMismatch("cannot compose spaces over different fields")
    return PhaseSpace(s1.field, s1.n_systems + s2.n_systems)


@dataclass(frozen=True)
class Observable:
    """A quadrature observable: a coefficient vector over phase space."""

    space: PhaseSpace
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.space.ambient_dim:
            raise DimensionMismatch(
                f"observable has {len(self.coeffs)} coefficients in a "
                f"{self.space.ambient_dim}-dimensional phase space")

    @property
    def is_zero(self) -> bool:
        return all(c == self.space.field.zero for c in self.coeffs)

    def value_on(self, ontic: VectorT):
        return dot(self.space.field, self.coeffs, ontic)


def observable(space: PhaseSpace, coeffs: Iterable) -> Observable:
    return Observable(space, vector(space.field, coeffs))


def q_observable(space: PhaseSpace, system: int) -> Observable:
    c = [space.field.zero] * space.ambient_dim
    c[space.q_index(system)] = space.field.one
    return Observable(space, tuple(c))


def p_observable(space: PhaseSpace, system: int) -> Observable:
    c = [space.field.zero] * space.ambient_dim
    c[space.p_index(system)] = space.field.one
    return Observable(space, tuple(c))


def bracket_vectors(field: FieldT, f: VectorT, g: VectorT):
    """[f,g] = sum_i f_{2i} g_{2i+1} - f_{2i+1} g_{2i} (0-indexed coords)."""
    if len(f) != len(g) or len(f) % 2 != 0:
        raise DimensionMismatch("Poisson bracket needs equal even-length vectors")
    return field.sub(field.dot(f[0::2], g[1::2]), field.dot(f[1::2], g[0::2]))


def poisson_bracket(f: Observable, g: Observable):
    if f.space != g.space:
        raise DimensionMismatch("observables live on different phase spaces")
    return bracket_vectors(f.space.field, f.coeffs, g.coeffs)


def j_matrix(space: PhaseSpace) -> tuple:
    """The block matrix J with [f,g] = f^T J g: blocks [[0,1],[-1,0]]."""
    field = space.field
    n = space.ambient_dim
    rows = []
    for i in range(n):
        row = [field.zero] * n
        if i % 2 == 0:
            row[i + 1] = field.one
        else:
            row[i - 1] = field.neg(field.one)
        rows.append(tuple(row))
    return tuple(rows)


def symplectic_dual(field: FieldT, f: VectorT) -> VectorT:
    """J^T f, so that [f,g] = (J^T f) . g = f^T J g."""
    out = list(f)
    for i in range(0, len(f), 2):
        out[i] = field.neg(f[i + 1])
        out[i + 1] = f[i]
    return tuple(out)


def is_isotropic(s: Subspace) -> bool:
    """True iff the bracket vanishes on all basis pairs (bilinearity)."""
    if s.ambient_dim % 2 != 0:
        raise DimensionMismatch("isotropy needs an even-dimensional space")
    field = s.field
    basis = s.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if bracket_vectors(field, basis[i], basis[j]):
                return False
    return True


def commutant_within(v: Subspace, v_pi: Subspace) -> Subspace:
    """{f in V : [f, g] = 0 for all g in V_pi}, in one elimination: a
    combination c·B of V's basis rows b_i commutes with V_pi exactly when
    c·L = 0, L's row i holding the brackets [g_1, b_i], ..., [g_m, b_i]."""
    if v.ambient_dim != v_pi.ambient_dim or v.field != v_pi.field:
        raise DimensionMismatch("subspaces live in different phase spaces")
    field = v.field
    return Subspace(field, v.ambient_dim, _image_of_kernel(
        field, [[bracket_vectors(field, g, b) for g in v_pi.basis]
                for b in v.basis], v.basis))


def embed_vector(space: PhaseSpace, system_offset: int, v: VectorT) -> VectorT:
    """Place a vector of a smaller space at the given system offset."""
    out = [space.field.zero] * space.ambient_dim
    base = 2 * system_offset
    if base + len(v) > space.ambient_dim:
        raise DimensionMismatch("embedded vector does not fit")
    for i, x in enumerate(v):
        out[base + i] = x
    return tuple(out)


def restrict_vector(v: VectorT, keep_systems: Iterable[int]) -> VectorT:
    out = []
    for s in keep_systems:
        out.extend(v[2 * s:2 * s + 2])
    return tuple(out)


def supported_systems(space: PhaseSpace, v: VectorT) -> set[int]:
    zero = space.field.zero
    return {i for i in range(space.n_systems)
            if v[2 * i] != zero or v[2 * i + 1] != zero}


def _require_prime(field: FieldT, what: str) -> None:
    """The one refusal of a rational field, by every operation that
    enumerates or samples (``what`` names it), before it reads ``field.p``."""
    if not isinstance(field, PrimeField):
        raise ContinuousNotEnumerable(
            f"{what} needs a discrete field; a rational field is infinite")


def _check_enumerable(space: PhaseSpace) -> None:
    """The one guard of every explicit enumeration: refuse a rational space,
    and a discrete one whose p^(2n) points exceed `enumeration_cap()`."""
    field = space.field
    _require_prime(field, "enumerating ontic states")
    n = space.ambient_dim
    limit = enumeration_cap()
    if field.p ** n > limit:
        raise EnumerationCapExceeded(
            f"{field.p}^{n} = {field.p ** n} ontic states exceed the "
            f"enumeration cap of {limit}")


def all_isotropic_subspaces(space: PhaseSpace) -> list[Subspace]:
    """Every isotropic subspace of a discrete space, by dimension.

    Each subspace appears once, with the canonical basis `rref` returns:
    each row's pivot is its first nonzero coordinate, scaled to 1; pivots
    ascend; the other rows are zero in every pivot column.  Within a
    dimension the subspaces are sorted by that basis; the tests read the
    oracle's update as the first match in this order, largest dimension
    first, which is the only match of its dimension.  `_orderly_walk`
    grows them, through `isotropic_subspaces_within` over every point.
    Desk-scale: intended for d^(2n) within the enumeration cap.
    """
    _check_enumerable(space)
    field = space.field
    n = space.ambient_dim
    return [sub for per_dim in isotropic_subspaces_within(
        field, n, _all_vectors(field, n)) for sub in per_dim]


def _orderly_walk(follows: Sequence[int], allowed: int,
                  top: int) -> list[list[tuple[int, ...]]]:
    """The index paths of an orderly generation, by length 0 to ``top``.

    Candidates are indices, and sets of them are masks (bit j marks
    candidate j).  ``allowed`` holds the candidates that may start a path,
    and ``follows[j]`` those that may come after candidate j.  A path grows
    by any candidate of its allowed set, and the child's allowed set is the
    parent's AND ``follows`` of the new candidate; so a path is emitted once
    exactly when each of its candidates may follow every earlier one.  The
    walk is depth first with children in ascending index, so each length
    comes out in lexicographic order (Read, "Every one a winner", Ann.
    Discrete Math. 2, 1978).

    Both encodings of an isotropic subspace's canonical basis are grown
    here, each by its own ``follows``: `isotropic_subspaces_within` over
    tuples and `_gf2.isotropic_bases` over packed ints.
    """
    out = [[] for _ in range(top + 1)]

    def grow(path: tuple, mask: int) -> None:
        out[len(path)].append(path)
        rest = mask if len(path) < top else 0
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            grow(path + (j,), mask & follows[j])

    grow((), allowed)
    return out


def isotropic_subspaces_within(field: PrimeField, n: int,
                               points: Iterable[VectorT]) -> list[list[Subspace]]:
    """Every isotropic subspace of L, where `points` are all the vectors of
    a subspace L of Z_p^n; entry j lists those of dimension j, sorted by
    their canonical (`rref`) basis.

    The canonical basis of a subspace of L has its rows among L's points
    whose first nonzero coordinate is 1, and its parent is the basis
    without its last row.  So `_orderly_walk` grows each subspace once over
    those points, sorted, where w may follow v when w's pivot lies above
    v's, v is zero in w's pivot column and [v, w] = 0.  The oracle's update
    walks such an L (the points of V_π's symplectic complement that vanish
    in V_π's pivot columns and are orthogonal to the premise's differences)
    and keeps only the top dimension, which holds one U.
    """
    rows = sorted(v for v in points if 1 in v and not any(v[:v.index(1)]))
    pivots = [v.index(1) for v in rows]
    follows = []
    for v, pv in zip(rows, pivots):
        dual = symplectic_dual(field, v)
        follows.append(sum(1 << j for j, w in enumerate(rows)
                           if pivots[j] > pv and v[pivots[j]] == 0
                           and field.dot(dual, w) == 0))
    return [[Subspace(field, n, tuple(rows[j] for j in path))
             for path in paths]
            for paths in _orderly_walk(follows, (1 << len(rows)) - 1, n // 2)]


def _all_vectors(field: PrimeField, n: int) -> list[VectorT]:
    vecs = [()]
    for _ in range(n):
        vecs = [v + (c,) for v in vecs for c in field.elements()]
    return vecs
