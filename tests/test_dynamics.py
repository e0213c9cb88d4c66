import functools
import itertools
import random

import pytest

from toytheory.algebra import (
    GF, QQ, identity_matrix, mat_inverse, mat_mul, mat_transpose, mat_vec,
    orthogonal_complement, rref, vec_add,
)
from toytheory.dynamics import (
    ConditionalPrepSpec, SymplecticTransform, apply_to_ontic, apply_to_state,
    classify_conditional_marginals, cnot_gate, complete_symplectic,
    compose_transforms, find_conditional_transform, gate_library,
    identity_transform, invert_transform, is_symplectic_matrix,
    make_transform, observable_copy_transform, position_copy_transform,
    qp_swap_gate, random_symplectic, shift_gate, sp_order, swap_gate,
    symplectic_group, transvection,
)
from toytheory import dynamics
from toytheory.errors import (
    DimensionMismatch, InvariantViolation, NotSymplectic, SearchSpaceExceeded,
)
from toytheory.phase_space import (
    _all_vectors, discrete_space, observable, rational_space,
)
from toytheory.states import (
    all_valid_states, bell_pair, make_state, marginal, maximally_mixed,
    ontic_support, states_equal, tensor, toy_bit,
)

from conftest import every_shift, pushforward_mismatches

F2 = GF(2)
SP1 = discrete_space(2, 1)
SP2 = discrete_space(2, 2)


def test_make_transform_identity():
    t = identity_transform(SP1)
    assert apply_to_ontic(t, (1, 0)) == (1, 0)


def test_qp_swap_is_symplectic_at_d2_only():
    make_transform(SP1, [[0, 1], [1, 0]])  # fine mod 2
    with pytest.raises(NotSymplectic):
        make_transform(rational_space(1), [[0, 1], [1, 0]])
    with pytest.raises(NotSymplectic):
        make_transform(discrete_space(3, 1), [[0, 1], [1, 0]])


def test_shear_is_symplectic_and_acts_on_states():
    # the state action over Q, checked on a genuinely symplectic example
    sp = rational_space(1)
    t = make_transform(sp, [[1, 1], [0, 1]])
    s = make_state(sp, [(2, -1)], (3, 1))
    out = apply_to_state(t, s)
    # (U^T)^-1 (2,-1) = (2,-3); U (3,1) = (4,1); value: 2*4 - 3*1 = 5
    assert out.known == rref(QQ, 2, [(2, -3)])
    assert out.valuation == make_state(sp, [(2, -3)], (4, 1)).valuation
    assert out.value_of((2, -3)) == 5


def test_ontic_q_p_swap_at_d2():
    t = qp_swap_gate(SP1)
    assert apply_to_ontic(t, (1, 0)) == (0, 1)
    sh = shift_gate(SP1, (1, 0))
    assert apply_to_ontic(sh, (0, 0)) == (1, 0)


def test_qp_swap_exchanges_toy0_toyplus():
    t = qp_swap_gate(SP1)
    assert states_equal(apply_to_state(t, toy_bit("0")), toy_bit("+"))
    assert states_equal(apply_to_state(t, toy_bit("+")), toy_bit("0"))
    assert states_equal(apply_to_state(t, toy_bit("1")), toy_bit("-"))


def test_cnot_examples():
    g = cnot_gate(SP2, 0, 1)
    assert states_equal(apply_to_state(g, tensor(toy_bit("1"), toy_bit("0"))),
                        tensor(toy_bit("1"), toy_bit("1")))
    assert states_equal(apply_to_state(g, tensor(toy_bit("+"), toy_bit("0"))),
                        bell_pair(2))


def test_cnot_matches_position_copy_matrix():
    assert cnot_gate(SP2, 0, 1).matrix == position_copy_transform(SP2).matrix


def test_swap_involution_and_gate_library():
    g = swap_gate(SP2, 0, 1)
    assert compose_transforms(g, g).matrix == identity_matrix(F2, 4)
    assert gate_library(SP2, "cnot:0,1").matrix == cnot_gate(SP2, 0, 1).matrix
    assert gate_library(SP1, "qp_swap").matrix == qp_swap_gate(SP1).matrix
    with pytest.raises(ValueError):
        gate_library(SP1, "hadamard")


def test_group_laws(rng):
    sp = discrete_space(3, 2)
    for _ in range(20):
        t1 = random_symplectic(sp, rng)
        t2 = random_symplectic(sp, rng)
        o = tuple(rng.randrange(3) for _ in range(4))
        assert apply_to_ontic(compose_transforms(t1, t2), o) == \
            apply_to_ontic(t1, apply_to_ontic(t2, o))
        assert apply_to_ontic(compose_transforms(t1, invert_transform(t1)), o) == o
        s = apply_to_state(random_symplectic(sp, rng), maximally_mixed(sp))
        assert states_equal(
            apply_to_state(compose_transforms(t1, t2), s),
            apply_to_state(t1, apply_to_state(t2, s)))


def test_shear_example_over_gf2():
    t = make_transform(SP1, [[1, 1], [0, 1]])
    assert is_symplectic_matrix(F2, t.matrix, 2)


def test_epistemic_matches_ontic_pushforward_exhaustive_d2():
    # every (U, shift) against every state at n = 1, by set enumeration;
    # criterion 10 holds n <= 2 to the pushed support through
    # `pushforward_mismatches`
    states1 = all_valid_states(SP1)
    for u in symplectic_group(F2, 1):
        for a in ((0, 0), (0, 1), (1, 0), (1, 1)):
            t = SymplecticTransform(SP1, u, a)
            for s in states1:
                pushed = {apply_to_ontic(t, o)
                          for o in ontic_support(s).members}
                assert pushed == set(ontic_support(apply_to_state(t, s)).members)


def _apply_generators_by_u(t, s):
    """T1: `apply_to_state` with the generators mapped by U, not (Uᵀ)⁻¹."""
    field, u = t.space.field, t.matrix
    return make_state(s.space, [mat_vec(field, u, g) for g in s.known.basis],
                      mat_vec(field, u, vec_add(field, s.valuation, t.shift)))


def _apply_shift_after_u(t, s):
    """T2: `apply_to_state` with the valuation U·v + a, not U·(v + a)."""
    field = t.space.field
    return make_state(s.space, apply_to_state(t, s).known.basis, vec_add(
        field, mat_vec(field, t.matrix, s.valuation), t.shift))


@pytest.mark.parametrize("apply, n1, slice_n2", [
    (apply_to_state, (168, 0), (17472, 0)),
    (_apply_generators_by_u, (168, 96), (17472, 13536)),
    (_apply_shift_after_u, (168, 48), (17472, 10816)),
], ids=["library", "T1", "T2"])
def test_pushforward_check_catches_wrong_dynamics(apply, n1, slice_n2):
    """The check of criterion 10 counts the mismatches of two wrong
    dynamics exhaustively at n = 1, and on every 60th U of Sp(4, 2) with
    all 16 shifts at n = 2; `apply_to_state` has none."""
    assert pushforward_mismatches(
        apply, every_shift(SP1, symplectic_group(F2, 1))) == n1
    assert pushforward_mismatches(
        apply, every_shift(SP2, symplectic_group(F2, 2)[::60])) == slice_n2


def test_epistemic_matches_ontic_pushforward_sampled_d3(rng):
    from toytheory.states import all_valid_states
    sp3 = discrete_space(3, 2)
    states = all_valid_states(sp3)
    for _ in range(40):
        t = random_symplectic(sp3, rng)
        s = states[rng.randrange(len(states))]
        out = apply_to_state(t, s)
        pushed = {apply_to_ontic(t, o) for o in ontic_support(s).members}
        assert pushed == set(ontic_support(out).members)


def test_position_copy_q_eigenstate():
    sp = SP2
    t = position_copy_transform(sp)
    s = tensor(toy_bit("1"), toy_bit("0"))
    out = apply_to_state(t, s)
    assert out.value_of((1, 0, 0, 0)) == 1
    assert out.value_of((0, 0, 1, 0)) == 1  # memory picked up the position


def test_position_copy_p_eigenstate_rational():
    # information with definite momentum p', memory at q = x0: afterwards
    # p_S + p_M = p' and q_M - q_S = x0 are the known observables
    sp = rational_space(2)
    t = make_transform(sp, ((1, 0, 0, 0), (0, 1, 0, -1), (1, 0, 1, 0),
                            (0, 0, 0, 1)))
    s = make_state(sp, [(0, 1, 0, 0), (0, 0, 1, 0)], (0, 7, 4, 0))
    out = apply_to_state(t, s)
    assert out.value_of((0, 1, 0, 1)) == 7
    assert out.value_of((-1, 0, 1, 0)) == 4
    assert out.value_of((0, 1, 0, -1)) is None  # p_S - p_M is not known


def test_position_copy_memory_marginal_mixed_iff_q_unknown():
    t = position_copy_transform(SP2)
    mixed = maximally_mixed(SP1)
    for name in ("0", "1", "+", "-", "i", "-i", "mix"):
        s = tensor(toy_bit(name), toy_bit("0"))
        mem = marginal(apply_to_state(t, s), [1])
        q_known = toy_bit(name).value_of((1, 0)) is not None
        assert states_equal(mem, mixed) == (not q_known)


def test_complete_symplectic_examples():
    m = complete_symplectic(F2, (1, 0))
    assert tuple(r[0] for r in m) == (1, 0)
    m = complete_symplectic(F2, (0, 1))
    assert m == ((0, 1), (1, 0))
    assert is_symplectic_matrix(F2, m, 2)
    with pytest.raises(DimensionMismatch):
        complete_symplectic(F2, (0, 0))


def test_complete_symplectic_z3_random(rng):
    f3 = GF(3)
    for _ in range(500):
        w = tuple(rng.randrange(3) for _ in range(6))
        if not any(w):
            continue
        m = complete_symplectic(f3, w)
        assert tuple(r[0] for r in m) == w
        assert is_symplectic_matrix(f3, m, 6)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_symplectic_inverse_matches_elimination(d, rng):
    # U^-1 = -J U^T J and (U^T)^-1 = -J U J, against mat_inverse
    field = GF(d)
    for n in (1, 2, 3):
        for _ in range(10):
            t = random_symplectic(discrete_space(d, n), rng)
            ut = mat_transpose(t.matrix)
            assert t._ut_inv == mat_inverse(field, ut)
            assert dynamics._symplectic_inverse(field, t.matrix) == \
                mat_inverse(field, t.matrix)


def test_symplectic_inverse_matches_elimination_over_qq():
    u = complete_symplectic(QQ, (2, "1/3", 0, -1))
    t = make_transform(rational_space(2), u)
    assert t._ut_inv == mat_inverse(QQ, mat_transpose(u))
    assert dynamics._symplectic_inverse(QQ, u) == mat_inverse(QQ, u)
    assert mat_mul(QQ, invert_transform(t).matrix, u) == identity_matrix(QQ, 4)


def test_observable_copy_reduces_to_position_copy():
    # f = q_1 of the information system, v = q of the memory: all the basis
    # changes are trivial and the composite equals the position copy with the
    # two systems exchanged (memory first)
    info = discrete_space(2, 1)
    mem = discrete_space(2, 1)
    t = observable_copy_transform(observable(info, (1, 0)),
                                  observable(mem, (1, 0)))
    sw = swap_gate(SP2, 0, 1).matrix
    expected = mat_mul(F2, sw, mat_mul(F2, position_copy_transform(SP2).matrix, sw))
    assert t.matrix == expected


def test_observable_copy_correlates_and_mixes():
    info = discrete_space(2, 1)
    mem = discrete_space(2, 1)
    f = observable(info, (0, 1))   # momentum of the information system
    v = observable(mem, (1, 0))    # memory position
    t = observable_copy_transform(f, v)
    # information in a momentum eigenstate: copy is deterministic
    joint = tensor(toy_bit("0"), toy_bit("+"))
    out = apply_to_state(t, joint)
    assert out.value_of((1, 0, 0, 1)) == 0  # v_mem - f_info (d=2 signs)
    mem_state = marginal(out, [0])
    assert states_equal(mem_state, toy_bit("0"))
    # information with unknown momentum: memory marginal fully mixed
    joint = tensor(toy_bit("0"), toy_bit("1"))
    out = apply_to_state(t, joint)
    assert out.value_of((1, 0, 0, 1)) == 0
    assert states_equal(marginal(out, [0]), maximally_mixed(SP1))


@functools.lru_cache(maxsize=None)
def _transvection_closure(field, n_systems):
    """The reference for ``symplectic_group``: the breadth-first closure of
    the identity under every transvection T(x) = x + c[v,x]v, which
    generate Sp(2n, p).  It shares no code with the library's frame walk."""
    n = 2 * n_systems
    gens = [transvection(field, v, field.coerce(c))
            for v in _all_vectors(field, n) if any(v)
            for c in range(1, field.p)]
    ident = identity_matrix(field, n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(field, g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(seen))


def test_sp_orders_and_groups():
    assert sp_order(1, 2) == 6
    assert sp_order(2, 2) == 720
    assert sp_order(3, 2) == 1451520
    assert sp_order(1, 3) == 24
    assert sp_order(2, 3) == 51840
    assert len(symplectic_group(F2, 1)) == 6
    assert len(symplectic_group(F2, 2)) == 720
    assert len(symplectic_group(GF(3), 1)) == 24
    with pytest.raises(SearchSpaceExceeded):
        symplectic_group(F2, 3)  # gated behind an explicit larger cap
    with pytest.raises(SearchSpaceExceeded):
        symplectic_group(GF(3), 2)
    sp43 = symplectic_group(GF(3), 2, cap=51840)
    assert len(sp43) == len(set(sp43)) == 51840
    for u in sp43[::97]:
        assert is_symplectic_matrix(GF(3), u, 4)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1)])
def test_symplectic_group_is_the_transvection_closure(p, n):
    assert symplectic_group(GF(p), n) == _transvection_closure(GF(p), n)


def test_symplectic_group_closure_mismatch_is_typed(monkeypatch):
    # A wrong |Sp| must surface as a library error that `python -O` keeps.
    monkeypatch.setattr(dynamics, "sp_order", lambda n, p: 5)
    with pytest.raises(InvariantViolation, match=r"6 elements, \|Sp\| = 5"):
        symplectic_group(F2, 1, cap=5)   # a fresh cache key


def test_transvection_symplectic(rng):
    f3 = GF(3)
    for _ in range(50):
        v = tuple(rng.randrange(3) for _ in range(4))
        if not any(v):
            continue
        c = rng.randrange(1, 3)
        assert is_symplectic_matrix(f3, transvection(f3, v, c), 4)


def _z_partition_spec(targets):
    return ConditionalPrepSpec(
        source_space=SP1,
        source_known=rref(F2, 2, [(1, 0)]),
        source_valuations=((0, 0), (1, 0)),
        target_initial=toy_bit("0"),
        desired_targets=targets)


def test_classify_identity_and_cnot():
    spec = _z_partition_spec(())
    ident = identity_transform(SP2)
    cls = classify_conditional_marginals(spec, ident, traced=[0])
    assert cls.class_sizes == (2,)
    assert cls.pairwise_orthogonal
    cls = classify_conditional_marginals(spec, cnot_gate(SP2, 0, 1), traced=[0])
    assert sorted(cls.class_sizes) == [1, 1]
    assert cls.pairwise_orthogonal
    reps = {m for m in cls.marginals}
    assert any(states_equal(m, toy_bit("0")) for m in reps)
    assert any(states_equal(m, toy_bit("1")) for m in reps)


def test_classify_randomized_always_orthogonal_or_identical(rng):
    for d in (2, 3):
        sp1 = discrete_space(d, 1)
        field = sp1.field
        q = rref(field, 2, [(1, 0)])
        spec = ConditionalPrepSpec(
            source_space=sp1, source_known=q,
            source_valuations=tuple((field.coerce(k), 0) for k in range(d)),
            target_initial=make_state(sp1, [(1, 0)], (0, 0)))
        total = discrete_space(d, 2)
        for _ in range(150):
            t = random_symplectic(total, rng)
            cls = classify_conditional_marginals(spec, t, traced=[0])
            assert cls.pairwise_orthogonal
            assert len(set(cls.class_sizes)) == 1


def test_find_conditional_identical_and_orthogonal_succeed():
    r = find_conditional_transform(
        _z_partition_spec((toy_bit("0"), toy_bit("0"))), exhaustive=True)
    assert r.transform is not None
    r = find_conditional_transform(
        _z_partition_spec((toy_bit("0"), toy_bit("1"))), exhaustive=True)
    assert r.transform is not None
    cls = classify_conditional_marginals(
        _z_partition_spec(()), r.transform, traced=[0])
    assert cls.pairwise_orthogonal


def test_find_conditional_respects_group_cap():
    # two pointer ancillas: 32640 target frames, over the default cap of 12000
    spec = _z_partition_spec((toy_bit("0"), toy_bit("+")))
    with pytest.raises(SearchSpaceExceeded, match="32640 symplectic frames"):
        find_conditional_transform(spec, ancilla_systems=2, exhaustive=True)


@pytest.mark.parametrize("exhaustive", [True, False])
def test_find_conditional_rejects_negative_ancilla(exhaustive):
    spec = _z_partition_spec((toy_bit("0"), toy_bit("+")))
    with pytest.raises(ValueError,
                       match="ancilla_systems must be at least 0, got -1"):
        find_conditional_transform(spec, ancilla_systems=-1,
                                   exhaustive=exhaustive,
                                   rng=random.Random(1))


@pytest.mark.parametrize("cap", [0, -1])
def test_find_conditional_rejects_a_cap_below_one(cap):
    spec = _z_partition_spec((toy_bit("0"), toy_bit("+")))
    with pytest.raises(ValueError,
                       match=f"group_cap must be at least 1, got {cap}"):
        find_conditional_transform(spec, exhaustive=True, group_cap=cap)


def _generic_marginals(spec, t, traced):
    """Each source outcome's marginal through classify_conditional_marginals."""
    cls = classify_conditional_marginals(spec, t, traced)
    got = {i: m for c, m in zip(cls.classes, cls.marginals) for i in c}
    return tuple(got[i] for i in range(len(spec.source_valuations)))


@pytest.fixture(scope="module")
def group_walk():
    """The brute-force walk: the generic marginals of every (U, a) of the
    affine symplectic group on two toy bits, keyed by (U, a)."""
    spec = _z_partition_spec(())
    return {(u, a): _generic_marginals(spec, SymplecticTransform(SP2, u, a),
                                       [0])
            for u in symplectic_group(F2, 2) for a in _all_vectors(F2, 4)}


def _kernel_inputs(spec, ancilla=0):
    joints = dynamics._joint_states(spec, ancilla)
    return orthogonal_complement(joints[0].known), \
        [j.valuation for j in joints]


def _frame_hits(spec, ancilla=0):
    """Every (frame, b) at which the frame kernel realizes the targets."""
    field = spec.source_space.field
    support, vals = _kernel_inputs(spec, ancilla)
    return [(rows, b)
            for rows in dynamics._symplectic_frames(field, 2 + ancilla, 1)
            for b in _all_vectors(field, 2)
            if dynamics._frame_marginals(spec.target_initial.space, rows,
                                         support, vals)(b)
            == spec.desired_targets]


@pytest.mark.parametrize("targets, frame_hits",
                         [(("0", "+"), 0), (("0", "1"), 32), (("0", "0"), 16)])
def test_frame_search_matches_the_group_walk(group_walk, targets, frame_hits):
    spec = _z_partition_spec(tuple(toy_bit(x) for x in targets))
    walk_hits = {k for k, m in group_walk.items() if m == spec.desired_targets}
    # each (frame, b) stands for |Sp(2)| matrices times 2^2 shifts
    assert len(walk_hits) == 24 * len(_frame_hits(spec)) == 24 * frame_hits
    r = find_conditional_transform(spec, exhaustive=True)
    assert r.frames <= 120 and r.searched <= 720 * 16
    if frame_hits == 0:
        assert r.transform is None
        assert (r.frames, r.searched) == (120, 720 * 16)
    else:
        assert (r.transform.matrix, r.transform.shift) in walk_hits


def test_frame_search_finds_exactly_the_pairs_the_walk_reaches(group_walk):
    # every ordered pair of the 7 valid toy-bit states, the mixed one too
    states = all_valid_states(SP1)
    assert len(states) == 7
    reached = set(group_walk.values())
    found = set()
    for pair in itertools.product(states, repeat=2):
        r = find_conditional_transform(_z_partition_spec(pair), exhaustive=True)
        if r.transform is not None:
            found.add(pair)
            assert group_walk[(r.transform.matrix, r.transform.shift)] == pair
        else:
            assert (r.frames, r.searched) == (120, 720 * 16)
    assert found == {pair for pair in itertools.product(states, repeat=2)
                     if pair in reached}
    # exactly the pairs of equal states or of disjoint ontic supports
    assert len(found) == 13
    supports = {s: set(ontic_support(s).members) for s in states}
    assert found == {(a, b) for a, b in itertools.product(states, repeat=2)
                     if a == b or not supports[a] & supports[b]}


def test_symplectic_frames_counts_and_brackets():
    for field, n, k in ((F2, 1, 1), (F2, 2, 1), (F2, 3, 1), (F2, 2, 2),
                        (GF(3), 1, 1), (GF(3), 2, 1)):
        frames = list(dynamics._symplectic_frames(field, n, k))
        assert len(frames) == len(set(frames)) == \
            sp_order(n, field.p) // sp_order(n - k, field.p)
        for rows in frames[::7]:
            for i, j in itertools.combinations(range(2 * k), 2):
                want = 1 if (i % 2 == 0 and j == i + 1) else 0
                assert dynamics.bracket_vectors(field, rows[i], rows[j]) == want
    # at k = n the frames are the rows of the whole group
    assert set(dynamics._symplectic_frames(F2, 2, 2)) == \
        set(_transvection_closure(F2, 2))


@pytest.mark.parametrize("d, n, kept", [(2, 2, [1]), (2, 2, [0]),
                                        (2, 3, [1]), (2, 3, [2, 0]),
                                        (3, 2, [1])])
def test_complete_frame_is_symplectic_with_the_frame_rows(d, n, kept):
    field = GF(d)
    frames = list(dynamics._symplectic_frames(field, n, len(kept)))
    coords = [c for s in sorted(kept) for c in (2 * s, 2 * s + 1)]
    for rows in frames[::max(1, len(frames) // 150)]:
        u = dynamics._complete_frame(field, rows, n, kept)
        assert is_symplectic_matrix(field, u, 2 * n)
        assert tuple(u[c] for c in coords) == rows


def test_target_marginals_match_generic_route_on_no_go_pair(group_walk):
    spec = _z_partition_spec((toy_bit("0"), toy_bit("+")))
    support, vals = _kernel_inputs(spec)
    seen = set()
    for u in symplectic_group(F2, 2)[::9]:
        rows = (u[2], u[3])
        at = dynamics._frame_marginals(SP1, rows, support, vals)
        for a in _all_vectors(F2, 4):
            generic = group_walk[(u, a)]
            assert at(dynamics.mat_vec(F2, rows, a)) == generic
            assert generic != spec.desired_targets
            seen.add(generic)
    # the stride reaches identical, orthogonal and mixed marginal pairs
    assert len(seen) > 10
    assert any(m[0] == m[1] for m in seen)
    assert any(m[0] != m[1] for m in seen)


@pytest.mark.parametrize("d, ancilla", [(3, 0), (3, 1), (2, 1)])
def test_target_marginals_match_generic_route_on_random_draws(d, ancilla):
    rng = random.Random(100 * d + ancilla)
    sp1 = discrete_space(d, 1)
    field = sp1.field
    spec = ConditionalPrepSpec(
        source_space=sp1, source_known=rref(field, 2, [(1, 1)]),
        source_valuations=tuple((k, 0) for k in range(d)),
        target_initial=make_state(sp1, [(0, 1)], (0, 1)))
    space = discrete_space(d, 2 + ancilla)
    traced = [0] + [2 + i for i in range(ancilla)]
    support, vals = _kernel_inputs(spec, ancilla)
    distinct = 0
    for _ in range(60):
        t = random_symplectic(space, rng)
        rows = (t.matrix[2], t.matrix[3])
        got = dynamics._frame_marginals(sp1, rows, support, vals)(
            dynamics.mat_vec(field, rows, t.shift))
        assert got == _generic_marginals(spec, t, traced)
        distinct += len(set(got)) > 1
    assert distinct > 0


def test_frame_search_without_the_reduction_misses_hits(monkeypatch):
    # broken copy (a): marginals not reduced mod R·V^⊥.  The no-go pair is
    # still not hit (every marginal of one frame shares K = (R·V^⊥)^⊥, and
    # toy0, toy+ differ in their known sets), but the brute-force count
    # tells the broken kernel apart on the realizable pairs.
    specs = [_z_partition_spec((toy_bit("0"), toy_bit(x))) for x in "+10"]
    monkeypatch.setattr(dynamics, "reduce_mod_subspace", lambda s, x: x)
    counts = [len(_frame_hits(spec)) for spec in specs]
    assert counts[0] == 0
    assert counts[1] < 32 and counts[2] < 16


def test_frame_search_reading_the_source_rows_is_caught(monkeypatch):
    # broken copy (b): the kernel reads R from the source system's rows of
    # the completed U instead of the target's.  Its hits are false hits,
    # and the generic cross-check refuses the returned transform.
    real = dynamics._frame_marginals

    def source_rows(space, rows, support, valuations):
        u = dynamics._complete_frame(F2, rows, 2, [1])
        return real(space, u[:2], support, valuations)

    monkeypatch.setattr(dynamics, "_frame_marginals", source_rows)
    spec = _z_partition_spec((toy_bit("0"), toy_bit("1")))
    with pytest.raises(InvariantViolation, match="does not realize"):
        find_conditional_transform(spec, exhaustive=True)


def test_sampled_search_matches_generic_route():
    spec = _z_partition_spec((toy_bit("0"), toy_bit("1")))
    rng = random.Random(11)
    for searched in range(1, 2001):
        t = random_symplectic(SP2, rng)
        if _generic_marginals(spec, t, [0]) == spec.desired_targets:
            break
    else:
        pytest.fail("no sampled transform realizes the targets")
    r = find_conditional_transform(spec, rng=random.Random(11), samples=2000)
    assert (r.searched, r.transform, r.exhaustive) == (searched, t, False)
    assert r.frames == searched


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_search_rejects_no_samples(samples):
    spec = _z_partition_spec((toy_bit("0"), toy_bit("+")))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        find_conditional_transform(spec, rng=random.Random(1),
                                   samples=samples)


def test_conditional_spec_requires_partition():
    with pytest.raises(ValueError):
        ConditionalPrepSpec(
            source_space=SP1, source_known=rref(F2, 2, [(1, 0)]),
            source_valuations=((0, 0),), target_initial=toy_bit("0"))
    with pytest.raises(ValueError):
        ConditionalPrepSpec(
            source_space=SP1, source_known=rref(F2, 2, [(1, 0)]),
            source_valuations=((0, 0), (0, 1)),  # same outcome twice
            target_initial=toy_bit("0"))


def _d3_position(value):
    return make_state(discrete_space(3, 1), [(1, 0)], (value, 0))


@pytest.mark.parametrize("targets", [
    (bell_pair(), bell_pair()), (_d3_position(0), _d3_position(1)),
    (toy_bit("0"), bell_pair())], ids=["two-bit", "d3", "one-of-two"])
def test_conditional_spec_refuses_targets_on_another_space(targets):
    # these once searched all 720·16 transforms and reported a no-go for a
    # question that was malformed
    with pytest.raises(DimensionMismatch, match="another space or field"):
        _z_partition_spec(targets)


def test_conditional_spec_refuses_a_target_over_another_field():
    with pytest.raises(DimensionMismatch, match="another space or field"):
        ConditionalPrepSpec(
            source_space=SP1, source_known=rref(F2, 2, [(1, 0)]),
            source_valuations=((0, 0), (1, 0)),
            target_initial=_d3_position(0))


@pytest.mark.parametrize("targets", [(toy_bit("0"),), (toy_bit("0"),) * 3])
def test_conditional_spec_needs_one_desired_target_per_outcome(targets):
    with pytest.raises(ValueError, match="need one desired target"):
        _z_partition_spec(targets)
