"""End-to-end acceptance suite.

One test per criterion; each runs at its stated tolerance (exact equality
everywhere, no floating point) and prints a PASS line with the headline
numbers.  Run `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from itertools import chain

from toytheory.algebra import (
    GF, QQ, coset_intersection, enumerate_coset, make_coset,
    orthogonal_complement, rref, subspace_intersection, subspace_sum,
)
from toytheory.dynamics import (
    ConditionalPrepSpec, apply_to_state, classify_conditional_marginals,
    complete_symplectic, find_conditional_transform, is_symplectic_matrix,
    observable_copy_transform, position_copy_transform, random_symplectic,
    sp_order, symplectic_group,
)
from toytheory.measurement import (
    Measurement, infers, inference_conditions, is_certain, make_measurement,
    outcome_for_label, outcome_probability, outcomes, update_state,
)
from toytheory.oracle import (
    oracle_conditional, oracle_probability, oracle_smallest_update,
)
from toytheory.phase_space import (
    all_isotropic_subspaces, discrete_space, observable, _all_vectors,
)
from toytheory.scenarios import run_forgetting, search_fr_paradox
from toytheory.states import (
    all_valid_states, bell_pair, make_state, marginal, maximally_mixed,
    ontic_support, states_equal, tensor, toy_bit,
)

from conftest import (
    every_shift, pushforward_mismatches, random_subspace, random_vector,
)

F2 = GF(2)
SP1 = discrete_space(2, 1)
SP2 = discrete_space(2, 2)


def _sweep_spaces():
    return [SP1, SP2]


def _all_measurements(space):
    return [Measurement(space, sub) for sub in all_isotropic_subspaces(space)]


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_probability_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for space in _sweep_spaces():
        states = all_valid_states(space)
        for m in _all_measurements(space):
            outs = outcomes(m)
            for s in states:
                for o in outs:
                    assert outcome_probability(s, m, o) == \
                        oracle_probability(s, m, o)
                    checked += 1
    dt = time.time() - t0
    assert dt < 60
    _report(1, f"algebraic == oracle probability on {checked} exhaustive "
               f"(state, measurement, outcome) triples at d=2, n<=2 "
               f"({dt:.1f}s)")


def test_criterion_02_update_certification():
    t0 = time.time()
    checked = 0
    for space in _sweep_spaces():
        states = all_valid_states(space)
        for m in _all_measurements(space):
            outs = outcomes(m)
            for s in states:
                for o in outs:
                    if outcome_probability(s, m, o) == 0:
                        continue
                    post = update_state(s, m, o)
                    assert ontic_support(post).members == \
                        oracle_smallest_update(s, m, o).members
                    assert outcome_probability(post, m, o) == 1
                    checked += 1
    # the worked single- and two-bit updates
    mz = make_measurement(SP1, [(1, 0)])
    assert states_equal(update_state(toy_bit("+"), mz,
                                     outcome_for_label(mz, (0,))),
                        toy_bit("0"))
    mzB = make_measurement(SP2, [(0, 0, 1, 0)])
    assert states_equal(update_state(bell_pair(2), mzB,
                                     outcome_for_label(mzB, (0,))),
                        tensor(toy_bit("0"), toy_bit("0")))
    dt = time.time() - t0
    _report(2, f"update == oracle smallest update and re-measurement is "
               f"certain on {checked} positive-probability triples; worked "
               f"updates reproduced ({dt:.1f}s)")


def test_criterion_03_certainty_and_inference_lemmas():
    t0 = time.time()
    certain_checked = 0
    for space in _sweep_spaces():
        states = all_valid_states(space)
        for m in _all_measurements(space):
            for s in states:
                for o in outcomes(m):
                    assert is_certain(s, m, o) == \
                        (outcome_probability(s, m, o) == 1)
                    certain_checked += 1
    infer_checked = 0
    local_meas = []
    for system in (0, 1):
        for sub in all_isotropic_subspaces(SP1):
            gens = [(0, 0) + tuple(g) if system else tuple(g) + (0, 0)
                    for g in sub.basis]
            local_meas.append(make_measurement(SP2, gens))
    states = all_valid_states(SP2)
    for m_a in local_meas:
        outs_a = outcomes(m_a)
        for m_b in local_meas:
            outs_b = outcomes(m_b)
            for s in states:
                for oa in outs_a:
                    for ob in outs_b:
                        got = infers(s, m_a, oa, m_b, ob)
                        cond = oracle_conditional(s, m_a, oa, m_b, ob)
                        assert got == (cond is not None and cond == 1)
                        infer_checked += 1
    # the momentum-correlated pair, verbatim, at d = 2, 3, 5
    for d in (2, 3, 5):
        sp = discrete_space(d, 2)
        f = sp.field
        state = make_state(sp, [(1, 0, 1, 0), (0, 1, 0, f.neg(1))],
                           (1, 0, 0, 0))
        m_bob = make_measurement(sp, [(0, 0, 0, 1)])
        m_alice = make_measurement(sp, [(0, 1, 0, 0)])
        for p in f.elements():
            c1, c2 = inference_conditions(
                state, m_bob, outcome_for_label(m_bob, (p,)),
                m_alice, outcome_for_label(m_alice, (p,)))
            assert c1 and c2
    dt = time.time() - t0
    _report(3, f"is_certain <=> P=1 on {certain_checked} triples; infers <=> "
               f"oracle conditional == 1 on {infer_checked} local pairs; "
               f"momentum-pair inference verbatim at d=2,3,5 ({dt:.1f}s)")


def _check_copy(f_obs, v_obs, info_states):
    """Shared body for criterion 4: copy correlates, marginal mixes iff
    the copied observable was unknown."""
    field = f_obs.space.field
    t = observable_copy_transform(f_obs, v_obs)
    mem_mixed = maximally_mixed(discrete_space(field.p, 1))
    diff = tuple(v_obs.coeffs) + tuple(field.neg(x) for x in f_obs.coeffs)
    mem_known = make_state(v_obs.space, [v_obs.coeffs],
                           (field.zero, field.zero))
    for info in info_states:
        joint = tensor(mem_known, info)
        out = apply_to_state(t, joint)
        assert out.value_of(diff) == 0
        f_known = info.value_of(f_obs.coeffs) is not None
        mem_marginal = marginal(out, [0])
        assert states_equal(mem_marginal, mem_mixed) == (not f_known)


def test_criterion_04_coherent_copies():
    t0 = time.time()
    # d=2: every nonzero observable of a two-system information space
    info2 = discrete_space(2, 2)
    mem = discrete_space(2, 1)
    count = 0
    for fv in _all_vectors(F2, 4):
        if not any(fv):
            continue
        f_obs = observable(info2, fv)
        for vv in ((1, 0), (0, 1), (1, 1)):
            v_obs = observable(mem, vv)
            known_f = make_state(info2, [fv], (0, 0, 0, 0))
            if fv != (1, 0, 0, 0):
                unknown = make_state(info2, [(1, 0, 0, 0)], (0, 0, 0, 0))
            else:
                unknown = make_state(info2, [(0, 1, 0, 0)], (0, 0, 0, 0))
            _check_copy(f_obs, v_obs,
                        [known_f, maximally_mixed(info2), unknown])
            count += 1
    # position copy at d=2, n=1 info: marginal mixed exactly when q unknown
    t = position_copy_transform(SP2)
    for name in ("0", "1", "+", "-", "i", "-i", "mix"):
        s = tensor(toy_bit(name), toy_bit("0"))
        out = apply_to_state(t, s)
        assert out.value_of((1, 0, 1, 0)) is not None  # q_S - q_M known (d=2)
        mixed = states_equal(marginal(out, [1]), maximally_mixed(SP1))
        assert mixed == (toy_bit(name).value_of((1, 0)) is None)
    # 200 random observables each at d = 3 and d = 5
    rng = random.Random(41)
    for d in (3, 5):
        fd = GF(d)
        info = discrete_space(d, 2)
        memd = discrete_space(d, 1)
        mixed_info = maximally_mixed(info)
        for _ in range(200):
            fv = tuple(rng.randrange(d) for _ in range(4))
            if not any(fv):
                continue
            vv = tuple(rng.randrange(d) for _ in range(2))
            if not any(vv):
                vv = (1, 0)
            f_obs = observable(info, fv)
            v_obs = observable(memd, vv)
            known_f = make_state(info, [fv], (0,) * 4)
            _check_copy(f_obs, v_obs, [known_f, mixed_info])
            count += 1
    dt = time.time() - t0
    _report(4, f"copy transforms correlate (v_mem - f_info = 0) and the "
               f"memory marginal is maximally mixed exactly when f was "
               f"unknown, over {count} observable choices ({dt:.1f}s)")


def test_criterion_05_symplectic_completion():
    t0 = time.time()
    count = 0
    for n_bits in (4, 8):
        for bits in range(1, 1 << n_bits):
            w = tuple((bits >> i) & 1 for i in range(n_bits))
            m = complete_symplectic(F2, w)
            assert tuple(r[0] for r in m) == w
            assert is_symplectic_matrix(F2, m, n_bits)
            count += 1
    rng = random.Random(17)
    f5 = GF(5)
    done = 0
    while done < 500:
        w = tuple(rng.randrange(5) for _ in range(6))
        if not any(w):
            continue
        m = complete_symplectic(f5, w)
        assert tuple(r[0] for r in m) == w
        assert is_symplectic_matrix(f5, m, 6)
        done += 1
        count += 1
    done = 0
    while done < 500:
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(4))
        if not any(w):
            continue
        m = complete_symplectic(QQ, w)
        assert tuple(r[0] for r in m) == w
        assert is_symplectic_matrix(QQ, m, 4)
        done += 1
        count += 1
    dt = time.time() - t0
    _report(5, f"symplectic completion with requested first column on all "
               f"15+255 binary vectors and 500 random vectors over Z_5^6 "
               f"and Q^4 ({count} total, {dt:.1f}s)")


def _z_spec(targets):
    return ConditionalPrepSpec(
        source_space=SP1, source_known=rref(F2, 2, [(1, 0)]),
        source_valuations=((0, 0), (1, 0)),
        target_initial=toy_bit("0"),
        desired_targets=targets)


def test_criterion_06_conditional_preparation_no_go():
    t0 = time.time()
    r = find_conditional_transform(_z_spec((toy_bit("0"), toy_bit("+"))),
                                   exhaustive=True)
    assert r.transform is None
    assert r.searched == 720 * 16
    for targets in (("0", "1"), ("0", "0")):
        desired = tuple(toy_bit(x) for x in targets)
        found = find_conditional_transform(_z_spec(desired), exhaustive=True)
        t = found.transform
        assert t is not None
        assert is_symplectic_matrix(F2, t.matrix, 4)
        cls = classify_conditional_marginals(_z_spec(desired), t, traced=[0])
        got = {i: m for c, m in zip(cls.classes, cls.marginals) for i in c}
        assert tuple(got[i] for i in range(2)) == desired
    trials = 0
    rng = random.Random(5)
    for d in (2, 3):
        sp1 = discrete_space(d, 1)
        field = sp1.field
        total = discrete_space(d, 2)
        for _ in range(5000):
            gen = tuple(rng.randrange(d) for _ in range(2))
            if not any(gen):
                gen = (1, 0)
            known = rref(field, 2, [gen])
            comp = orthogonal_complement(known)
            vals = []
            seen = set()
            for v in _all_vectors(field, 2):
                from toytheory.algebra import reduce_mod_subspace
                r_ = reduce_mod_subspace(comp, v)
                if r_ not in seen:
                    seen.add(r_)
                    vals.append(v)
            target0 = make_state(sp1, [(1, 0)], (rng.randrange(d), 0))
            spec = ConditionalPrepSpec(
                source_space=sp1, source_known=known,
                source_valuations=tuple(vals), target_initial=target0)
            cls = classify_conditional_marginals(
                spec, random_symplectic(total, rng), traced=[0])
            assert cls.pairwise_orthogonal
            assert len(set(cls.class_sizes)) == 1
            trials += 1
    dt = time.time() - t0
    assert dt < 30
    _report(6, f"(toy0,toy+) unrealizable over all 720*16 transforms while "
               f"(toy0,toy1) and (toy0,toy0) succeed; marginal classes "
               f"always orthogonal-or-identical with equal sizes over "
               f"{trials} random trials at d=2,3 ({dt:.1f}s)")


def _realizes(spec, t, kept):
    traced = [s for s in range(t.space.n_systems) if s not in kept]
    cls = classify_conditional_marginals(spec, t, traced=traced)
    got = {i: m for c, m in zip(cls.classes, cls.marginals) for i in c}
    return tuple(got[i] for i in range(len(got))) == spec.desired_targets


def _trit(name):
    """q0, q1, q2 (known position) or p0 (known momentum 0) at d = 3."""
    sp = discrete_space(3, 1)
    if name[0] == "q":
        return make_state(sp, [(1, 0)], (int(name[1]), 0))
    return make_state(sp, [(0, 1)], (0, int(name[1])))


def _q_trit_spec(names):
    return ConditionalPrepSpec(
        source_space=discrete_space(3, 1),
        source_known=rref(GF(3), 2, [(1, 0)]),
        source_valuations=((0, 0), (1, 0), (2, 0)),
        target_initial=_trit("q0"),
        desired_targets=tuple(_trit(x) for x in names))


def test_criterion_06b_conditional_preparation_with_memory_and_at_d3():
    # Each no-go comes with a realizable control that the same search hits.
    t0 = time.time()
    cases = [
        # (spec, ancilla systems, group cap, realizable, frames if exhausted)
        (_z_spec((toy_bit("0"), toy_bit("+"))), 1, None, False, 2016),
        (_z_spec((toy_bit("0"), toy_bit("1"))), 1, None, True, None),
        (_z_spec((toy_bit("0"), toy_bit("+"))), 2, 32640, False, 32640),
        (_z_spec((toy_bit("0"), toy_bit("1"))), 2, 32640, True, None),
        (_q_trit_spec(("q0", "q1", "p0")), 0, None, False, 2160),
        (_q_trit_spec(("q0", "q0", "p0")), 0, None, False, 2160),
        (_q_trit_spec(("q0", "q1", "q1")), 0, None, False, 2160),
        (_q_trit_spec(("q0", "q1", "q2")), 0, None, True, None),
        (_q_trit_spec(("q0", "q0", "q0")), 0, None, True, None),
    ]
    for spec, ancilla, cap, realizable, frames in cases:
        kwargs = {} if cap is None else {"group_cap": cap}
        r = find_conditional_transform(spec, ancilla_systems=ancilla,
                                       exhaustive=True, **kwargs)
        p = spec.source_space.field.p
        n = 2 + ancilla
        covered = sp_order(n, p) * p ** (2 * n)
        if realizable:
            t = r.transform
            assert t is not None and r.searched < covered
            assert is_symplectic_matrix(t.space.field, t.matrix, 2 * n)
            assert _realizes(spec, t, [1])
        else:
            assert r.transform is None
            assert (r.frames, r.searched) == (frames, covered)
    dt = time.time() - t0
    _report("6b", "conditional preparation over target frames: "
                  "(toy0,toy+) unrealizable with 1 and 2 pointer ancillas "
                  "(2016 and 32640 frames) while (toy0,toy1) succeeds; at "
                  "d=3, (q0,q1,p0), (q0,q0,p0) and (q0,q1,q1) unrealizable "
                  "over 2160 frames x 9 values while (q0,q1,q2) and "
                  f"(q0,q0,q0) succeed ({dt:.1f}s)")


def test_criterion_07_fr_no_paradox():
    import os
    t0 = time.time()
    workers = min(4, os.cpu_count() or 1)
    report = search_fr_paradox(d=2, exhaustive=True, workers=workers,
                               seed=0, spot_checks=1000,
                               sequential_checks=48)
    scan = [e for e in report.events if e["kind"] == "scan"][0]
    assert report.config["lagrangians"] == 2295
    assert scan["states"] == 2295 * 16
    assert scan["representatives"] == 18
    assert report.verdict["orbit_weights_verified"]
    assert scan["paradox_count"] == 0
    assert scan["benign_all_seven"] > 0
    derivation = [e for e in report.events if e["kind"] == "derivation"][0]
    assert derivation["samples"] > 0
    assert derivation["all_hold"]
    assert report.verdict["derivation_verified"]
    assert report.verdict["no_paradox_found"]
    assert report.verdict["spot_checks_agree"]
    assert report.verdict["no_sequential_paradox"]
    mutated = search_fr_paradox(d=2, exhaustive=True, workers=1, seed=0,
                                weaken_condition1=True, spot_checks=0,
                                stop_after=3)
    assert mutated.verdict["mutation_finds_false_positives"]
    dt = time.time() - t0
    assert dt < 600
    _report(7, f"no paradox among {scan['states']} pure states "
               f"({scan['representatives']} orbit representatives) x all "
               f"block-local measurements and ok/fail labelings "
               f"(candidate space {report.config['candidate_space']}); "
               f"all-seven configurations force equal Wigner outcomes "
               f"({scan['benign_all_seven']} benign); mutation finds false "
               f"positives; {workers} workers, {dt:.1f}s")


def test_criterion_08_forgetting():
    t0 = time.time()
    report = run_forgetting()
    assert report.passed
    assert report.verdict["second_record_fully_mixed"]
    assert report.verdict["first_record_correlated"]
    assert report.verdict["three_state_union_invalid"]
    dt = time.time() - t0
    _report(8, f"memory-environment swap erases the second record, keeps "
               f"the first, and the three-state union is rejected "
               f"({dt:.1f}s)")


def test_criterion_09_linear_algebra_lemma_suites():
    t0 = time.time()
    rng = random.Random(9)
    fields = ((F2, 6), (GF(3), 4), (QQ, 4))
    count = 0
    for field, ambient in fields:
        finite = field is not QQ
        for _ in range(1000):
            w = random_subspace(field, ambient, rng, max_rows=3)
            v = random_subspace(field, ambient, rng, max_rows=3)
            wv = random_vector(field, ambient, rng)
            vv = random_vector(field, ambient, rng)
            # representative independence
            cw = make_coset(w, wv)
            if finite:
                members = list(enumerate_coset(cw))
                a = members[rng.randrange(len(members))]
            else:
                a = tuple(field.add(x, y) for x, y in zip(
                    wv, _combo(field, w, rng)))
            assert make_coset(w, a) == cw
            # intersection form
            cv = make_coset(v, vv)
            got = coset_intersection(cw, cv)
            if finite:
                brute = set(enumerate_coset(cw)) & set(enumerate_coset(cv))
                if got is None:
                    assert not brute
                else:
                    assert set(enumerate_coset(got)) == brute
            if got is not None:
                assert got.subspace == subspace_intersection(w, v)
                assert cw.contains(got.shift) and cv.contains(got.shift)
            # complement identities
            assert orthogonal_complement(subspace_sum(v, w)) == \
                subspace_intersection(orthogonal_complement(v),
                                      orthogonal_complement(w))
            assert orthogonal_complement(orthogonal_complement(v)) == v
            assert v.dim + orthogonal_complement(v).dim == ambient
            count += 1
    dt = time.time() - t0
    _report(9, f"coset representative independence, intersection form, "
               f"complement-of-sum and double complement on {count} random "
               f"instances over Z_2^6, Z_3^4, Q^4, exact ({dt:.1f}s)")


def _combo(field, sub, rng):
    out = (field.zero,) * sub.ambient_dim
    for b in sub.basis:
        c = field.coerce(rng.randint(-3, 3))
        out = tuple(field.add(x, field.mul(c, y)) for x, y in zip(out, b))
    return out


def test_criterion_10_validity_preservation():
    t0 = time.time()
    # sampled at d=3, n=2: 500 transforms, 20 states each
    rng = random.Random(10)
    sp3 = discrete_space(3, 2)
    states3 = all_valid_states(sp3)
    sampled = [(random_symplectic(sp3, rng),
                [states3[rng.randrange(len(states3))] for _ in range(20)])
               for _ in range(500)]
    checked, mismatched = pushforward_mismatches(apply_to_state, chain(
        every_shift(SP1, symplectic_group(F2, 1)),
        every_shift(SP2, symplectic_group(F2, 2)), sampled))
    assert (checked, mismatched) == (1058488, 0)
    dt = time.time() - t0
    _report(10, f"every symplectic transform maps every valid state to the "
                f"image of its ontic support (known directions and one "
                f"pushed point): exhaustive at d=2 n<=2 plus 10^4 random "
                f"trials at d=3 n=2 ({checked} applications, {mismatched} "
                f"mismatches, {dt:.1f}s)")
