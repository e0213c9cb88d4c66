"""Reversible dynamics: symplectic transformations and what they can't do.

Covers the affine symplectic transforms (U, a) with U^T J U = J acting as
o -> U(o + a) on ontic states and (V, v) -> ((U^T)^-1 V, U(v + a)) on
epistemic states, a small gate library, the coherent-copy constructions that
realize measurements as physical interactions, symplectic completion of an
arbitrary first column, and the classification + exhaustive search showing
which outcome-conditioned preparations are realizable.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

from .algebra import (
    FieldT, PrimeField, Subspace, VectorT, _solve_augmented,
    enumerate_subspace, identity_matrix, mat_mul, mat_transpose,
    mat_vec, matrix, orthogonal_complement, reduce_mod_subspace, rref,
    solve_linear, vec_add, vector, zero_vector,
)
from .config import DEFAULT_GROUP_CAP
from .errors import (
    DimensionMismatch, InvariantViolation, NotSymplectic, SearchSpaceExceeded,
)
from .phase_space import (
    Observable, PhaseSpace, _all_vectors, _require_prime, bracket_vectors,
    compose as compose_spaces, symplectic_dual,
)
from .states import EpistemicState, make_state, marginal, tensor_all


def is_symplectic_matrix(field: FieldT, m: tuple, ambient_dim: int) -> bool:
    if len(m) != ambient_dim or any(len(r) != ambient_dim for r in m):
        return False
    cols = mat_transpose(m)
    for i in range(ambient_dim):
        for j in range(i + 1, ambient_dim):
            want = field.one if (j == i + 1 and i % 2 == 0) else field.zero
            if bracket_vectors(field, cols[i], cols[j]) != want:
                return False
    return True


def _symplectic_inverse(field: FieldT, u: tuple) -> tuple:
    """U⁻¹ of a symplectic U without an elimination: Uᵀ J U = J gives
    U⁻¹ = −J·Uᵀ·J (J has blocks [[0,1],[-1,0]]), whose entry (i, j) is
    U[j^1][i^1], negated when i and j differ in parity."""
    neg = field.neg
    n = len(u)
    return tuple(tuple(u[j ^ 1][i ^ 1] if (i ^ j) & 1 == 0
                       else neg(u[j ^ 1][i ^ 1]) for j in range(n))
                 for i in range(n))


@dataclass(frozen=True)
class SymplecticTransform:
    space: PhaseSpace
    matrix: tuple
    shift: tuple
    _ut_inv: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.space.ambient_dim
        if len(self.shift) != n:
            raise DimensionMismatch("shift does not match the phase space")
        if not is_symplectic_matrix(self.space.field, self.matrix, n):
            raise NotSymplectic("matrix fails U^T J U = J")
        object.__setattr__(
            self, "_ut_inv",
            _symplectic_inverse(self.space.field, mat_transpose(self.matrix)))

    def __repr__(self):
        return f"SymplecticTransform(n={self.space.n_systems}, U={[list(r) for r in self.matrix]}, a={list(self.shift)})"


def make_transform(space: PhaseSpace, m: Iterable, shift: Iterable | None = None) -> SymplecticTransform:
    mat = matrix(space.field, m)
    if shift is None:
        sh = zero_vector(space.field, space.ambient_dim)
    else:
        sh = vector(space.field, shift)
    return SymplecticTransform(space, mat, sh)


def identity_transform(space: PhaseSpace) -> SymplecticTransform:
    return make_transform(space, identity_matrix(space.field, space.ambient_dim))


def compose_transforms(t1: SymplecticTransform, t2: SymplecticTransform) -> SymplecticTransform:
    """t1 after t2: o -> t1(t2(o))."""
    if t1.space != t2.space:
        raise DimensionMismatch("transforms act on different spaces")
    field = t1.space.field
    u = mat_mul(field, t1.matrix, t2.matrix)
    u2_inv = mat_transpose(t2._ut_inv)  # U^-1 = ((U^T)^-1)^T
    a = vec_add(field, t2.shift, mat_vec(field, u2_inv, t1.shift))
    return SymplecticTransform(t1.space, u, a)


def invert_transform(t: SymplecticTransform) -> SymplecticTransform:
    field = t.space.field
    u_inv = mat_transpose(t._ut_inv)  # U^-1 = ((U^T)^-1)^T
    a_inv = tuple(field.neg(x) for x in mat_vec(field, t.matrix, t.shift))
    return SymplecticTransform(t.space, u_inv, a_inv)


def apply_to_ontic(t: SymplecticTransform, o: Iterable) -> VectorT:
    field = t.space.field
    ov = vector(field, o)
    return mat_vec(field, t.matrix, vec_add(field, ov, t.shift))


def apply_to_state(t: SymplecticTransform, s: EpistemicState) -> EpistemicState:
    if t.space != s.space:
        raise DimensionMismatch("transform and state live on different spaces")
    field = t.space.field
    # (U^T)^-1 is symplectic with U, so the image of V stays isotropic and
    # no `make_state` re-test runs
    known = rref(field, s.space.ambient_dim,
                 [mat_vec(field, t._ut_inv, g) for g in s.known.basis])
    val = mat_vec(field, t.matrix, vec_add(field, s.valuation, t.shift))
    return EpistemicState(s.space, known, reduce_mod_subspace(
        orthogonal_complement(known), val))


# ---------------------------------------------------------------------------
# gate library
# ---------------------------------------------------------------------------

def qp_swap_gate(space: PhaseSpace, system: int = 0) -> SymplecticTransform:
    """Exchange q and p of one system; the toy analogue of Hadamard.

    Only symplectic when -1 = 1, i.e. at d = 2 (the matrix [[0,1],[1,0]] has
    U^T J U = -J otherwise); construction rejects other fields.
    """
    field = space.field
    n = space.ambient_dim
    rows = [list(r) for r in identity_matrix(field, n)]
    q, p = space.system_coords(system)
    rows[q], rows[p] = rows[p], rows[q]
    return make_transform(space, rows)


def cnot_gate(space: PhaseSpace, control: int, target: int) -> SymplecticTransform:
    """q_target += q_control, p_control -= p_target; others fixed."""
    if control == target:
        raise DimensionMismatch("control and target must differ")
    field = space.field
    n = space.ambient_dim
    rows = [list(r) for r in identity_matrix(field, n)]
    qc, pc = space.system_coords(control)
    qt, pt = space.system_coords(target)
    rows[qt][qc] = field.one
    rows[pc][pt] = field.neg(field.one)
    return make_transform(space, rows)


def swap_gate(space: PhaseSpace, i: int, j: int) -> SymplecticTransform:
    field = space.field
    n = space.ambient_dim
    rows = [list(r) for r in identity_matrix(field, n)]
    qi, pi = space.system_coords(i)
    qj, pj = space.system_coords(j)
    rows[qi], rows[qj] = rows[qj], rows[qi]
    rows[pi], rows[pj] = rows[pj], rows[pi]
    return make_transform(space, rows)


def shift_gate(space: PhaseSpace, shift: Iterable) -> SymplecticTransform:
    return make_transform(space, identity_matrix(space.field, space.ambient_dim), shift)


def gate_library(space: PhaseSpace, name: str) -> SymplecticTransform:
    """Build a gate from a compact spec string (0-indexed systems).

    Accepted: ``identity``, ``qp_swap[:system]``, ``cnot:control,target``,
    ``swap:i,j``, ``shift:c1,...,c2n``.
    """
    head, _, args = name.partition(":")
    head = head.strip()
    if head == "identity":
        return identity_transform(space)
    if head == "qp_swap":
        system = int(args) if args else 0
        return qp_swap_gate(space, system)
    if head == "cnot":
        c, t = (int(x) for x in args.split(","))
        return cnot_gate(space, c, t)
    if head == "swap":
        i, j = (int(x) for x in args.split(","))
        return swap_gate(space, i, j)
    if head == "shift":
        return shift_gate(space, [x.strip() for x in args.split(",")])
    raise ValueError(f"unknown gate {name!r}")


# ---------------------------------------------------------------------------
# coherent copies (measurement as a physical interaction)
# ---------------------------------------------------------------------------

def position_copy_transform(space: PhaseSpace) -> SymplecticTransform:
    """The 2-system copy of position: information system 0, memory system 1;
    cnot(control=0, target=1), which correlates the memory position with the
    information position.

    After application, q_S - q_M is known with value minus the initial
    memory offset (0 for a memory prepared at q_M = 0).
    """
    if space.n_systems != 2:
        raise DimensionMismatch("position copy needs exactly 2 systems")
    return cnot_gate(space, 0, 1)


def complete_symplectic(field: FieldT, w: Iterable) -> tuple:
    """A symplectic matrix whose first column is w (w nonzero).

    w and a partner p of [w, p] = 1, the first standard basis vector e_j
    with [w, e_j] != 0 scaled by 1 / [w, e_j], are a frame on one system;
    `_complete_frame` extends it to a symplectic basis whose first pair is
    (w, p) (Witt's extension theorem), and the matrix takes that basis as
    its columns.  Deterministic.
    """
    w = tuple(field.coerce(x) for x in w)
    n = len(w)
    if n % 2 != 0:
        raise DimensionMismatch("phase-space vectors have even length")
    if all(x == field.zero for x in w):
        raise DimensionMismatch("cannot complete the zero vector")
    e = next(e for e in identity_matrix(field, n)
             if bracket_vectors(field, w, e) != field.zero)
    partner = field.scale_row(field.inv(bracket_vectors(field, w, e)), e)
    return mat_transpose(_complete_frame(field, (w, partner), n // 2, [0]))


def _block_diag(field: FieldT, a: tuple, b: tuple) -> tuple:
    na, nb = len(a), len(b)
    rows = []
    for r in a:
        rows.append(tuple(r) + zero_vector(field, nb))
    for r in b:
        rows.append(zero_vector(field, na) + tuple(r))
    return tuple(rows)


def observable_copy_transform(f: Observable, v: Observable) -> SymplecticTransform:
    """Correlate observable v of a one-system memory with observable f of the
    information systems.  Acts on memory ⊕ information (memory first).

    Built as the position copy conjugated by basis changes that carry f to
    the first information position and v to the memory position; applied to
    (memory with v-value 0) ⊗ (any information state), the observable
    (v on memory, -f on information) is known with value 0 afterwards.
    """
    if f.is_zero or v.is_zero:
        raise DimensionMismatch("copy needs nonzero observables")
    if v.space.n_systems != 1:
        raise DimensionMismatch("memory must be a single system")
    field = f.space.field
    if field != v.space.field:
        raise DimensionMismatch("memory and information fields differ")
    total = compose_spaces(v.space, f.space)

    # m^T as an ontic basis change carries an observable w to m^-1 w, so
    # diag(m_v^T, m_f^T) carries v to q_mem and f to q_1
    there = (mat_transpose(complete_symplectic(field, v.coeffs)),
             mat_transpose(complete_symplectic(field, f.coeffs)))
    back = tuple(_symplectic_inverse(field, m) for m in there)

    # position copy from info system 1 to the memory, identity on the rest
    pos = cnot_gate(total, 1, 0).matrix
    u = mat_mul(field, _block_diag(field, *back),
                mat_mul(field, pos, _block_diag(field, *there)))
    return SymplecticTransform(total, u, zero_vector(field, total.ambient_dim))


# ---------------------------------------------------------------------------
# symplectic group enumeration and sampling
# ---------------------------------------------------------------------------

def transvection(field: FieldT, v: VectorT, c=None) -> tuple:
    """T(x) = x + c[v,x]v, symplectic for any nonzero v and scalar c."""
    if c is None:
        c = field.one
    dual = symplectic_dual(field, v)
    return tuple(field.add_rows(e, field.scale_row(field.mul(c, x), dual))
                 for e, x in zip(identity_matrix(field, len(v)), v))


def sp_order(n_systems: int, p: int) -> int:
    order = p ** (n_systems * n_systems)
    for i in range(1, n_systems + 1):
        order *= p ** (2 * i) - 1
    return order


@functools.lru_cache(maxsize=8)
def symplectic_group(field: FieldT, n_systems: int,
                     cap: int = DEFAULT_GROUP_CAP) -> tuple:
    """All of Sp(2n, p), sorted: the frame walk at k = n, whose 2n rows are
    a whole symplectic matrix (``_symplectic_frames``).  ``cap`` gates the
    closed-form order before any matrix is built, so a long enumeration is
    opt-in; the walk's count is checked against that order."""
    _require_prime(field, "enumerating the symplectic group")
    order = sp_order(n_systems, field.p)
    if order > cap:
        raise SearchSpaceExceeded(
            f"|Sp({2*n_systems},{field.p})| = {order} exceeds the cap {cap}; "
            "pass a larger cap to opt in to a long enumeration")
    group = tuple(sorted(_symplectic_frames(field, n_systems, n_systems)))
    if len(group) != order:
        raise InvariantViolation(
            f"frame walk found {len(group)} elements, |Sp| = {order}")
    return group


def random_symplectic(space: PhaseSpace, rng) -> SymplecticTransform:
    """Random product of 12 symplectic transvections, with a random
    shift."""
    field = space.field
    n = space.ambient_dim
    _require_prime(field, "sampling a random symplectic transform")
    u = identity_matrix(field, n)
    for _ in range(12):
        v = tuple(field.coerce(rng.randrange(field.p)) for _ in range(n))
        if all(x == field.zero for x in v):
            continue
        c = field.coerce(rng.randrange(1, field.p))
        u = mat_mul(field, transvection(field, v, c), u)
    shift = tuple(field.coerce(rng.randrange(field.p)) for _ in range(n))
    return SymplecticTransform(space, u, shift)


# ---------------------------------------------------------------------------
# conditional preparation: classification and search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalPrepSpec:
    """A measure-then-prepare scenario: a family of source states sharing the
    known set V_S whose valuations partition the source ontic space, the
    target's initial state, and (optionally) the marginals one wishes to
    prepare conditioned on each source outcome."""

    source_space: PhaseSpace
    source_known: Subspace
    source_valuations: tuple
    target_initial: EpistemicState
    desired_targets: tuple = ()

    def __post_init__(self):
        field = self.source_space.field
        _require_prime(field, "a conditional-preparation scenario")
        k = field.p ** self.source_known.dim
        shifts = set()
        comp = orthogonal_complement(self.source_known)
        for val in self.source_valuations:
            shifts.add(reduce_mod_subspace(comp, val))
        if len(self.source_valuations) != k or len(shifts) != k:
            raise ValueError(
                "source valuations must partition the source ontic space "
                f"({k} distinct outcomes required)")

    def source_states(self) -> list[EpistemicState]:
        return [make_state(self.source_space, self.source_known.basis, v)
                for v in self.source_valuations]


@dataclass(frozen=True)
class MarginalClassification:
    classes: tuple          # tuple of tuples of source indices
    class_sizes: tuple
    pairwise_orthogonal: bool
    marginals: tuple        # one representative marginal per class


def _supports_disjoint(s1: EpistemicState, s2: EpistemicState) -> bool:
    (rows1, values1), (rows2, values2) = s1.constraints(), s2.constraints()
    return _solve_augmented(s1.field, s1.space.ambient_dim, rows1 + rows2,
                            values1 + values2) is None


def classify_conditional_marginals(spec: ConditionalPrepSpec,
                                   t: SymplecticTransform,
                                   traced: Iterable[int]) -> MarginalClassification:
    """Group the post-transform marginals by source outcome.

    For each source valuation, the joint (source ⊗ target [⊗ ancilla]) state
    is pushed through t, the ``traced`` systems are discarded, and identical
    marginals are grouped.  Ancilla systems implied by t's space are
    initialized with known position 0.
    """
    total_systems = t.space.n_systems
    base_systems = spec.source_space.n_systems + spec.target_initial.space.n_systems
    if total_systems < base_systems:
        raise DimensionMismatch("transform too small for source plus target")
    traced = sorted(set(traced))
    keep = [i for i in range(total_systems) if i not in traced]
    if not keep or any(i < 0 or i >= total_systems for i in traced):
        raise ValueError("invalid traced-system set")
    marginals = [marginal(apply_to_state(t, joint), keep)
                 for joint in _joint_states(spec, total_systems - base_systems)]
    groups: dict = {}
    for idx, m in enumerate(marginals):
        groups.setdefault(m, []).append(idx)
    classes = tuple(tuple(v) for v in groups.values())
    reps = tuple(groups.keys())
    orthogonal = True
    for a, b in itertools.combinations(reps, 2):
        if not _supports_disjoint(a, b):
            orthogonal = False
    return MarginalClassification(
        classes=classes,
        class_sizes=tuple(len(c) for c in classes),
        pairwise_orthogonal=orthogonal,
        marginals=reps,
    )


@dataclass(frozen=True)
class ConditionalSearchResult:
    transform: Optional[SymplecticTransform]
    searched: int       # (U, a) covered up to and including a hit
    exhaustive: bool
    frames: int         # target frames examined (one per draw when sampled)


def _joint_states(spec: ConditionalPrepSpec,
                  ancilla_systems: int) -> tuple[EpistemicState, ...]:
    """source_i ⊗ target ⊗ pointer ancillas (position known, value 0), one
    per source valuation; they all share one known set."""
    field = spec.source_space.field
    pointer = make_state(PhaseSpace(field, 1), [(field.one, field.zero)],
                         zero_vector(field, 2))
    return tuple(tensor_all([src, spec.target_initial]
                            + [pointer] * ancilla_systems)
                 for src in spec.source_states())


def _symplectic_frames(field: PrimeField, n_systems: int, k: int):
    """Every frame R = (r_q1, r_p1, ..., r_qk, r_pk) of 2k vectors in
    Z_p^(2n) with [r_qi, r_pj] = δ_ij and every other bracket 0, i.e.
    R J R^T = J on k systems: the possible rows of a symplectic U at k
    systems' coordinates.

    Built row pair by row pair: r_q runs over the nonzero solutions of
    [earlier rows, x] = 0, and r_p over the affine set {[r_q, x] = 1,
    [earlier rows, x] = 0}, a particular solution plus the kernel.  There
    are |Sp(2n, p)| / |Sp(2n - 2k, p)| frames.
    """
    dim = 2 * n_systems

    def extend(rows: tuple):
        if len(rows) == 2 * k:
            yield rows
            return
        duals = [symplectic_dual(field, r) for r in rows]
        free = orthogonal_complement(rref(field, dim, duals))
        for r_q in enumerate_subspace(free):
            if not any(r_q):
                continue
            cons = duals + [symplectic_dual(field, r_q)]
            rhs = [field.zero] * len(duals) + [field.one]
            r_p0 = solve_linear(field, dim, cons, rhs)
            for w in enumerate_subspace(orthogonal_complement(
                    rref(field, dim, cons))):
                yield from extend(rows + (r_q, vec_add(field, r_p0, w)))
    return extend(())


def _frame_marginals(space: PhaseSpace, rows: tuple, support: Subspace,
                     valuations: Sequence[VectorT]):
    """The marginals on ``space`` of states sharing the support directions
    ``support`` = V^⊥, one per valuation v_i, under any (U, a) whose rows at
    the kept coordinates are ``rows`` (R), as a function of b = R·a.

    U's pushed known set restricted to the kept systems is
    K = {f : f·R ∈ V} = img^⊥ with img = R·V^⊥, and U(v_i + a) restricted to
    the kept coordinates is R·v_i + b, to be read mod img.  So img, K and
    base_i = R·v_i mod img are computed once per frame, and each b costs one
    reduction: marginal_i = base_i + (b mod img).  This equals
    ``marginal(apply_to_state((U, a), joint_i), keep)``.
    """
    field = space.field
    img = rref(field, space.ambient_dim,
               [mat_vec(field, rows, w) for w in support.basis])
    known = orthogonal_complement(img)
    base = [reduce_mod_subspace(img, mat_vec(field, rows, v))
            for v in valuations]

    def at(b: VectorT) -> tuple[EpistemicState, ...]:
        moved = reduce_mod_subspace(img, b)
        return tuple(EpistemicState(space, known, vec_add(field, x, moved))
                     for x in base)
    return at


def _complete_frame(field: FieldT, rows: tuple, n_systems: int,
                    kept: Sequence[int]) -> tuple:
    """A symplectic U whose rows at the ``kept`` systems' coordinates are
    the frame ``rows`` (Witt's extension theorem).

    The other systems get a symplectic basis of the frame's symplectic
    complement, built by symplectic Gram–Schmidt: take e, pair it with a
    vector f of [e, f] = 1, project the rest off both with
    w -> w - [w, f] e + [w, e] f, repeat.
    """
    dim = 2 * n_systems
    rest = list(orthogonal_complement(rref(
        field, dim, [symplectic_dual(field, r) for r in rows])).basis)
    pairs = []
    while rest:
        e = rest.pop(0)
        j = next(j for j, w in enumerate(rest)
                 if bracket_vectors(field, e, w) != field.zero)
        w = rest.pop(j)
        f = field.scale_row(field.inv(bracket_vectors(field, e, w)), w)
        rest = [field.add_rows(
            field.sub_scaled(x, bracket_vectors(field, x, f), e),
            field.scale_row(bracket_vectors(field, x, e), f)) for x in rest]
        pairs.extend((e, f))
    out = [None] * dim
    frame = iter(rows)
    others = iter(pairs)
    for s in range(n_systems):
        src = frame if s in kept else others
        out[2 * s] = next(src)
        out[2 * s + 1] = next(src)
    return tuple(out)


def _check_realizes(spec: ConditionalPrepSpec, t: SymplecticTransform,
                    kept: Sequence[int], desired: tuple) -> SymplecticTransform:
    """The fast path's hit, confirmed by the generic layer."""
    traced = [s for s in range(t.space.n_systems) if s not in kept]
    cls = classify_conditional_marginals(spec, t, traced)
    got = {i: m for c, m in zip(cls.classes, cls.marginals) for i in c}
    if tuple(got[i] for i in range(len(desired))) != desired:
        raise InvariantViolation(
            "the frame kernel's hit does not realize the desired targets")
    return t


def find_conditional_transform(spec: ConditionalPrepSpec,
                               ancilla_systems: int = 0,
                               exhaustive: bool = False,
                               group_cap: int = DEFAULT_GROUP_CAP,
                               rng=None,
                               samples: int = 20000) -> ConditionalSearchResult:
    """Search all (U, a) for a transform realizing every desired marginal.

    The marginals read U only through its rows R at the target's
    coordinates, a symplectic frame, and a only through b = R·a
    (``_frame_marginals``).  Exhaustive mode therefore walks every frame
    (``_symplectic_frames``; ``group_cap`` bounds their closed-form count,
    so two pointer ancillas at d = 2 need an explicit larger cap) and every
    b.  Each (frame, b) stands for |Sp(2n-2k, p)| · p^(2n-2k) of the (U, a),
    which ``searched`` counts up to and including a hit (720 · 16 at two
    toy bits without ancilla).  Otherwise it draws ``samples`` random
    transforms and reads each through the same kernel.  A hit is completed
    to a symplectic U (``_complete_frame``) and confirmed by
    ``classify_conditional_marginals``; a disagreement raises
    ``InvariantViolation``.  The expected outcome for non-orthogonal desired
    targets is exhaustion without a hit.  A sampled search over fewer than
    one sample raises ``ValueError``: it would report a miss on no evidence.
    So do a negative ``ancilla_systems`` and, in exhaustive mode, a
    ``group_cap`` below 1.
    """
    field = spec.source_space.field
    if not spec.desired_targets:
        raise ValueError("spec has no desired targets to realize")
    desired = tuple(spec.desired_targets)
    if len(desired) != len(spec.source_valuations):
        raise ValueError("need one desired target per source outcome")
    if ancilla_systems < 0:
        raise ValueError(
            f"ancilla_systems must be at least 0, got {ancilla_systems}")
    if exhaustive and group_cap < 1:
        raise ValueError(f"group_cap must be at least 1, got {group_cap}")
    k = spec.target_initial.space.n_systems
    n_total = spec.source_space.n_systems + k + ancilla_systems
    space = PhaseSpace(field, n_total)
    kept = [spec.source_space.n_systems + i for i in range(k)]
    coords = [c for s in kept for c in space.system_coords(s)]
    target_space = spec.target_initial.space
    joints = _joint_states(spec, ancilla_systems)
    support = orthogonal_complement(joints[0].known)
    valuations = [j.valuation for j in joints]

    if not exhaustive:
        if rng is None:
            raise ValueError("sampled search needs an rng")
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        for searched in range(1, samples + 1):
            t = random_symplectic(space, rng)
            rows = tuple(t.matrix[c] for c in coords)
            at = _frame_marginals(target_space, rows, support, valuations)
            if at(mat_vec(field, rows, t.shift)) == desired:
                return ConditionalSearchResult(
                    _check_realizes(spec, t, kept, desired), searched, False,
                    searched)
        return ConditionalSearchResult(None, samples, False, samples)

    n_frames = sp_order(n_total, field.p) // sp_order(n_total - k, field.p)
    if n_frames > group_cap:
        raise SearchSpaceExceeded(
            f"{n_frames} symplectic frames for the target exceed the cap "
            f"{group_cap}; pass a larger cap to opt in to a long search")
    values = _all_vectors(field, 2 * k)
    per_value = (sp_order(n_total - k, field.p)
                 * field.p ** (2 * (n_total - k)))
    frames = 0
    for rows in _symplectic_frames(field, n_total, k):
        frames += 1
        at = _frame_marginals(target_space, rows, support, valuations)
        for j, b in enumerate(values):
            if at(b) == desired:
                searched = ((frames - 1) * len(values) + j + 1) * per_value
                u = _complete_frame(field, rows, n_total, kept)
                shift = solve_linear(field, space.ambient_dim, rows, b)
                t = SymplecticTransform(space, u, shift)
                return ConditionalSearchResult(
                    _check_realizes(spec, t, kept, desired), searched, True,
                    frames)
    return ConditionalSearchResult(
        None, frames * len(values) * per_value, True, frames)
