import random

import pytest

from toytheory import scenarios
from toytheory.algebra import GF, rref
from toytheory.errors import DimensionMismatch, SearchSpaceExceeded
from toytheory.phase_space import discrete_space
from toytheory.scenarios import (
    FRCandidate, check_fr_conditions, fr_chain_initial,
    fr_chain_sequential, run_bell, run_forgetting, run_wigner_friend,
    search_fr_paradox, _FR_BENIGN_SAMPLES, _fr_candidate_from_ints,
    _fr_conditions_single, _fr_partition, _fr_rederive, _fr_scan_range,
    _fr_tables, _merge_fr_stats, _random_fr_tuple,
)
from toytheory.states import make_state, state_from_values

F2 = GF(2)


@pytest.mark.parametrize("d", [2, 3])
def test_run_bell(d):
    r = run_bell(d)
    assert r.passed
    checked = [e for e in r.events if e["kind"] == "inference"]
    assert len(checked) == d
    assert all(e["infers"] for e in checked)


def test_run_bell_tampered_control():
    r = run_bell(2, tampered=True)
    assert r.passed  # the control's claim is that inference fails
    assert r.verdict["control_fails_as_expected"]


def test_run_wigner_friend():
    assert run_wigner_friend().passed


def test_run_forgetting():
    assert run_forgetting().passed


def test_report_replay_determinism():
    a = search_fr_paradox(d=2, exhaustive=False, seed=7, samples=40,
                          sequential_checks=4)
    b = search_fr_paradox(d=2, exhaustive=False, seed=7, samples=40,
                          sequential_checks=4)
    assert a.to_jsonable() == b.to_jsonable()


def _all_positions_candidate(equal_w=False):
    """Everything in position eigenstates; all seven conditions hold and the
    only consistent Wigner labeling is ok = fail."""
    space = discrete_space(2, 4)
    state = state_from_values(
        space, [(tuple(1 if j == 2 * i else 0 for j in range(8)), 0)
                for i in range(4)])
    qr = rref(F2, 8, [(1, 0, 0, 0, 0, 0, 0, 0)])
    qs = rref(F2, 8, [(0, 0, 0, 0, 1, 0, 0, 0)])
    zero = (0,) * 8
    ps_vec = (0, 0, 0, 0, 0, 1, 0, 0)
    return FRCandidate(
        initial=state, blocks=(1, 1, 1, 1),
        v_a=qr, v_b=qs, v_u=qr, v_w=qs,
        a1=zero, b1=zero,
        u_ok=zero, u_fail=(1, 0, 0, 0, 0, 0, 0, 0),
        w_ok=zero, w_fail=zero if equal_w else (0, 0, 0, 0, 1, 0, 0, 0),
        allow_equal_outcomes=equal_w)


def test_candidate_distinctness_enforced():
    # ok and fail labeling the same outcome is rejected at construction
    space = discrete_space(2, 4)
    state = state_from_values(
        space, [(tuple(1 if j == 2 * i else 0 for j in range(8)), 0)
                for i in range(4)])
    qr = rref(F2, 8, [(1, 0, 0, 0, 0, 0, 0, 0)])
    qs = rref(F2, 8, [(0, 0, 0, 0, 1, 0, 0, 0)])
    with pytest.raises(DimensionMismatch):
        FRCandidate(
            initial=state, blocks=(1, 1, 1, 1),
            v_a=qr, v_b=qs, v_u=qr, v_w=qs,
            a1=(0,) * 8, b1=(0,) * 8,
            u_ok=(0,) * 8, u_fail=(1, 0, 0, 0, 0, 0, 0, 0),
            w_ok=(0,) * 8,
            w_fail=(0, 0, 0, 0, 0, 0, 0, 1))  # p_B shift: same q_S outcome


def test_distinct_w_candidate_fails_condition_seven():
    cand = _all_positions_candidate(equal_w=False)
    rep = check_fr_conditions(cand)
    assert not rep.conditions[6]
    assert not rep.all_hold
    assert rep.forced_equality_consistent


def test_candidate_block_support_enforced():
    space = discrete_space(2, 4)
    state = state_from_values(
        space, [(tuple(1 if j == 2 * i else 0 for j in range(8)), 0)
                for i in range(4)])
    with pytest.raises(DimensionMismatch):
        FRCandidate(
            initial=state, blocks=(1, 1, 1, 1),
            v_a=rref(F2, 8, [(0, 0, 1, 0, 0, 0, 0, 0)]),  # on A, not R
            v_b=rref(F2, 8, [(0, 0, 0, 0, 1, 0, 0, 0)]),
            v_u=rref(F2, 8, [(1, 0, 0, 0, 0, 0, 0, 0)]),
            v_w=rref(F2, 8, [(0, 0, 0, 0, 1, 0, 0, 0)]),
            a1=(0,) * 8, b1=(0,) * 8,
            u_ok=(0,) * 8, u_fail=(1, 0, 0, 0, 0, 0, 0, 0),
            w_ok=(0,) * 8, w_fail=(0, 0, 0, 0, 1, 0, 0, 0))


def test_all_seven_conditions_force_equal_w_outcomes():
    cand = _all_positions_candidate(equal_w=True)
    rep = check_fr_conditions(cand)
    assert rep.all_hold
    assert rep.p_ok_ok > 0
    assert rep.w_outcomes_equal          # derivation confirmed
    assert rep.forced_equality_consistent
    chain = fr_chain_initial(cand)
    assert chain["holds"]                # benign: ok and fail coincide


def test_correlated_pairs_candidate_fails_a_subset_condition():
    # R-A and S-B momentum-correlated pairs with local position measurements:
    # nothing about S is reachable from Ursula's R+A knowledge
    space = discrete_space(2, 4)
    state = make_state(
        space,
        [(1, 0, 1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0, 0),
         (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 1, 0, 1)],
        (0,) * 8)
    qr = rref(F2, 8, [(1, 0, 0, 0, 0, 0, 0, 0)])
    qs = rref(F2, 8, [(0, 0, 0, 0, 1, 0, 0, 0)])
    cand = FRCandidate(
        initial=state, blocks=(1, 1, 1, 1),
        v_a=qr, v_b=qs, v_u=qr, v_w=qs,
        a1=(0,) * 8, b1=(0,) * 8,
        u_ok=(0,) * 8, u_fail=(1, 0, 0, 0, 0, 0, 0, 0),
        w_ok=(0,) * 8, w_fail=(0, 0, 0, 0, 1, 0, 0, 0))
    rep = check_fr_conditions(cand)
    assert not rep.conditions[0]  # V_B not reachable from U's commutant
    assert not rep.all_hold
    assert rep.forced_equality_consistent
    assert not fr_chain_initial(cand)["holds"]


def test_fast_scan_slice_agrees_with_merge_and_finds_nothing():
    t = _fr_tables()
    whole = _fr_scan_range(t, 0, 60)
    parts = [_fr_scan_range(t, 0, 29), _fr_scan_range(t, 29, 60)]
    merged = _merge_fr_stats(parts)
    whole.pop("paradoxes")
    merged_paradoxes = merged.pop("paradoxes")
    whole_benign = whole.pop("benign_sample")
    merged_benign = merged.pop("benign_sample")
    assert merged == whole
    assert merged_paradoxes == []
    # each range keeps its own sample, at most one tuple per known-set; a
    # range's first stratum starts at its first known-set
    for sample in (whole_benign, parts[0]["benign_sample"],
                   parts[1]["benign_sample"]):
        assert 0 < len(sample) <= _FR_BENIGN_SAMPLES
        assert len({tup[0] for tup in sample}) == len(sample)
    assert merged_benign == parts[0]["benign_sample"] + \
        parts[1]["benign_sample"]
    assert merged_benign[0] == whole_benign[0]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fr_partition_covers_every_known_set_once(workers):
    parts = _fr_partition(2295, workers)
    assert len(parts) == workers
    assert sorted(li for part in parts for li in part) == list(range(2295))


def test_strided_scans_merge_to_the_contiguous_scan():
    t = _fr_tables()
    whole = _fr_scan_range(t, 0, 60)
    parts = [_fr_scan_range(t, i, 60, step=3) for i in range(3)]
    merged = _merge_fr_stats(parts)
    for key in ("states", "valuation_tests", "quad_tests",
                "benign_all_seven", "paradoxes"):
        assert merged[key] == whole[key]
    # each part samples its own known-sets, one tuple per stratum of its
    # positions
    for i, part in enumerate(parts):
        sample = part["benign_sample"]
        assert 0 < len(sample) <= _FR_BENIGN_SAMPLES
        positions = [(tup[0] - i) // 3 for tup in sample]
        assert all(tup[0] % 3 == i for tup in sample)
        strata = [pos * _FR_BENIGN_SAMPLES // 20 for pos in positions]
        assert len(set(strata)) == len(strata)
        assert _fr_rederive(t, sample)


def test_strided_scan_balances_the_workers():
    t = _fr_tables()
    loads = []
    for known in _fr_partition(len(t.lagrangians), 2):
        part = _fr_scan_range(t, known.start, known.stop, step=known.step)
        loads.append(part["valuation_tests"] + part["quad_tests"])
    # the contiguous halves split the same work about 73 : 27
    assert max(loads) <= 0.52 * sum(loads)


def test_benign_sample_spreads_over_the_range():
    t = _fr_tables()
    sample = _fr_scan_range(t, 0, 40)["benign_sample"]
    lis = [tup[0] for tup in sample]
    assert len(sample) <= _FR_BENIGN_SAMPLES
    assert len(set(lis)) >= 2
    # at most one tuple from each stratum of known-sets
    strata = [li * _FR_BENIGN_SAMPLES // 40 for li in lis]
    assert len(set(strata)) == len(strata)
    assert _fr_rederive(t, sample)


def test_benign_sample_has_nonzero_valuations():
    t = _fr_tables()
    sample = _fr_scan_range(t, 0, 40)["benign_sample"]
    assert len(sample) == _FR_BENIGN_SAMPLES
    assert all(tup[1] != 0 for tup in sample)
    assert _fr_rederive(t, sample)
    # a known-set scanned alone keeps a tuple (at v != 0) exactly when it
    # has benign tuples at all
    for li in range(40):
        alone = _fr_scan_range(t, li, li + 1)
        assert bool(alone["benign_sample"]) == (alone["benign_all_seven"] > 0)


def test_benign_sample_spreads_over_valuations():
    sample = _fr_scan_range(_fr_tables(), 0, 40)["benign_sample"]
    valuations = [tup[1] for tup in sample]
    assert len(valuations) >= 2
    assert len(set(valuations)) == len(valuations)


def test_fast_conditions_match_exact_on_fixed_tuples(rng):
    t = _fr_tables()
    for _ in range(25):
        tup = _random_fr_tuple(t, rng)
        fast = _fr_conditions_single(t, *tup)
        cand = _fr_candidate_from_ints(t, *tup)
        assert check_fr_conditions(cand).conditions == fast


def _set_level_conditions(c):
    """Third, fully independent evaluation of the seven conditions by literal
    element enumeration (no subspace algebra, no bit packing)."""
    from toytheory.algebra import enumerate_subspace
    from toytheory.phase_space import bracket_vectors
    V = set(enumerate_subspace(c.initial.known))

    def span_set(sub):
        return set(enumerate_subspace(sub))

    VU, VB, VA, VW = map(span_set, (c.v_u, c.v_b, c.v_a, c.v_w))

    def commutant(meas_set):
        return {f for f in V
                if all(bracket_vectors(F2, f, g) == 0 for g in meas_set)}

    KU, KB, KA = commutant(VU), commutant(VB), commutant(VA)

    def sumset(xs, ys):
        return {tuple((x + y) % 2 for x, y in zip(a, b))
                for a in xs for b in ys}

    def perp_contains(sset, x):
        return all(sum(p * q for p, q in zip(s, x)) % 2 == 0 for s in sset)

    v = c.initial.valuation

    def comb(*vecs):
        out = [0] * 8
        for vec in vecs:
            out = [(p + q) % 2 for p, q in zip(out, vec)]
        return tuple((p - q) % 2 for p, q in zip(out, v))

    return (VB <= sumset(KU, VU),
            VA <= sumset(KB, VB),
            VW <= sumset(KA, VA),
            perp_contains(sumset(VU, VW) & V, comb(c.u_ok, c.w_ok)),
            perp_contains(sumset(VB, VU) & KU, comb(c.b1, c.u_ok)),
            perp_contains(sumset(VB, VA) & KB, comb(c.a1, c.b1)),
            perp_contains(sumset(VA, VW) & KA, comb(c.a1, c.w_fail)))


def test_conditions_match_literal_set_enumeration(rng):
    t = _fr_tables()
    for _ in range(40):
        cand = _fr_candidate_from_ints(t, *_random_fr_tuple(t, rng))
        assert check_fr_conditions(cand).conditions == \
            _set_level_conditions(cand)


def test_sequential_reading_never_assembles_paradox(rng):
    t = _fr_tables()
    for _ in range(6):
        cand = _fr_candidate_from_ints(t, *_random_fr_tuple(t, rng))
        seq = fr_chain_sequential(cand)
        assert not seq["holds"]


def test_mutated_search_finds_false_positives():
    t = _fr_tables()
    stats = _fr_scan_range(t, 0, 40, weaken_condition1=True, stop_after=3)
    assert len(stats["paradoxes"]) >= 1
    # and each false positive indeed fails one of the dropped conditions
    for tup in stats["paradoxes"]:
        conds = _fr_conditions_single(t, *tup)
        assert not all(conds[:3])
        assert all(conds[3:])


def test_mutated_search_on_a_strided_part_finds_false_positives():
    t = _fr_tables()
    stats = _fr_scan_range(t, 1, 2295, weaken_condition1=True, stop_after=3,
                           step=2)
    assert len(stats["paradoxes"]) == 3
    for tup in stats["paradoxes"]:
        assert tup[0] % 2 == 1
        conds = _fr_conditions_single(t, *tup)
        assert not all(conds[:3])
        assert all(conds[3:])


def test_search_verdict_fails_on_misclassified_benign_sample(monkeypatch):
    t = _fr_tables()

    honest = len(_fr_scan_range(t, 0, 2)["benign_sample"])

    def mislabelled_scan(t, start, stop, *rest):
        # one benign tuple again, with Wigner's fail moved to the other
        # outcome: the exact conditions must refuse it
        stats = _fr_scan_range(t, 0, 2, *rest)
        li, v, a, a1, b, b1, u, uok, w, wok, wfail = stats["benign_sample"][0]
        other = next(x for x in t.meas_w[w].outs if x != wfail)
        stats["benign_sample"].append(
            (li, v, a, a1, b, b1, u, uok, w, wok, other))
        return stats

    monkeypatch.setattr(scenarios, "_fr_scan_range", mislabelled_scan)
    r = search_fr_paradox(d=2, exhaustive=True, workers=1, spot_checks=0)
    derivation = [e for e in r.events if e["kind"] == "derivation"][0]
    assert derivation == {"kind": "derivation",
                          "samples": honest + 1,
                          "all_hold": False}
    assert r.verdict["derivation_verified"] is False
    assert not r.passed
    assert not _fr_rederive(t, [])    # no sample is no evidence


def _event(report, kind: str) -> dict:
    return next(e for e in report.events if e["kind"] == kind)


def test_search_fr_paradox_workers_agree():
    # with workers > 1 the spot checks overlap the scan; the report must
    # not show it
    reports = [search_fr_paradox(d=2, exhaustive=True, workers=w,
                                 spot_checks=40, seed=5) for w in (1, 2, 3)]
    assert [[e["kind"] for e in r.events] for r in reports] == \
        [["scan", "derivation", "spot_checks"]] * 3
    for kind in ("scan", "spot_checks"):
        events = [_event(r, kind) for r in reports]
        assert events[1] == events[0] and events[2] == events[0]
    assert _event(reports[0], "spot_checks")["checked"] == 40
    for r in reports:
        assert r.verdict["no_paradox_found"]
        assert r.verdict["derivation_verified"]
        assert r.verdict["spot_checks_agree"]
        assert r.passed


def test_overlapped_spot_checks_are_the_ones_reported(monkeypatch):
    real = scenarios._fr_conditions_single

    def flip_condition4(*args):
        c = real(*args)
        return c[:3] + (not c[3],) + c[4:]

    monkeypatch.setattr(scenarios, "_fr_conditions_single", flip_condition4)
    r = search_fr_paradox(d=2, exhaustive=True, workers=2, spot_checks=5,
                          sequential_checks=0)
    assert _event(r, "scan")["paradox_count"] == 0
    assert _event(r, "spot_checks")["conditions_agree"] is False
    assert r.verdict["spot_checks_agree"] is False
    assert not r.passed


def test_failing_spot_checks_stop_the_pool(monkeypatch):
    import multiprocessing as mp

    def fail(*args):
        raise RuntimeError("spot checks failed")

    monkeypatch.setattr(scenarios, "_fr_spot_checks", fail)
    with pytest.raises(RuntimeError, match="spot checks failed"):
        search_fr_paradox(d=2, exhaustive=True, workers=2)
    assert mp.active_children() == []


@pytest.mark.parametrize("name, value", [
    ("workers", 0), ("workers", -2), ("spot_checks", -5),
    ("sequential_checks", -1),
])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_search_fr_paradox_rejects_bad_counts(name, value, exhaustive):
    with pytest.raises(ValueError, match=f"{name} must be at least"):
        search_fr_paradox(d=2, exhaustive=exhaustive, **{name: value})


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_fr_search_rejects_no_samples(samples):
    # a verdict over no samples would pass on no evidence
    with pytest.raises(ValueError, match="samples must be at least 1"):
        search_fr_paradox(d=2, exhaustive=False, samples=samples)


def test_spot_check_digest_tells_the_draws_apart():
    t = scenarios._fr_tables()

    def spots(seed):
        return scenarios._fr_spot_checks(t, random.Random(seed), 10, 2)

    one, two = spots(1), spots(2)
    assert one != two and one["digest"] != two["digest"]
    assert spots(1) == one
    # the flags and counts alone cannot tell the two runs apart
    assert {k: v for k, v in one.items() if k != "digest"} == \
        {k: v for k, v in two.items() if k != "digest"}


def test_broken_packed_kernel_fails_the_scan_and_spares_the_oracle(
        monkeypatch):
    # The oracle that spot-checks the bit-packed FR tables must share no
    # code with them: with `_gf2.dot2` wrong, freshly built tables must
    # disagree with the exact conditions, while the oracle still matches
    # the algebraic rules on the same configurations.
    from toytheory import _gf2
    from toytheory.measurement import (
        infers, outcome_probability, outcomes,
    )
    from toytheory.oracle import oracle_conditional, oracle_probability

    good = _fr_tables()  # drawn from and turned into candidates, unbroken
    rng = random.Random(5)
    tuples = [_random_fr_tuple(good, rng) for _ in range(12)]
    cands = [_fr_candidate_from_ints(good, *tup) for tup in tuples]
    monkeypatch.setattr(_gf2, "dot2", lambda a, b: 0)
    _gf2.ortho_table.cache_clear()  # rebuilt below on the wrong kernel
    try:
        broken = scenarios._FrTables()
        assert any(_fr_conditions_single(broken, *tup)
                   != check_fr_conditions(cand).conditions
                   for tup, cand in zip(tuples, cands))
        for cand in cands:
            m = cand.measurements()
            for key, pa, po, ca, co in scenarios._FR_CHAIN:
                args = (cand.initial, m[pa], cand.outcome(po), m[ca],
                        cand.outcome(co))
                assert (oracle_conditional(*args) == 1) == infers(*args)
            for meas in m.values():
                for out in outcomes(meas):
                    assert oracle_probability(cand.initial, meas, out) == \
                        outcome_probability(cand.initial, meas, out)
    finally:
        _gf2.ortho_table.cache_clear()  # drop the tables of the wrong kernel


def test_pool_context_prefers_fork(monkeypatch):
    import multiprocessing as mp
    asked = []
    real = mp.get_context
    monkeypatch.setattr(mp, "get_context",
                        lambda method=None: asked.append(method) or real(method))
    monkeypatch.setattr(mp, "get_all_start_methods",
                        lambda: ["spawn", "fork", "forkserver"])
    assert scenarios._pool_context().get_start_method() == "fork"
    monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
    assert scenarios._pool_context() is real()
    assert asked == ["fork", None]


def test_mutation_control_same_under_spawn_and_fork(monkeypatch):
    import multiprocessing as mp

    def scan_event():
        r = search_fr_paradox(d=2, exhaustive=True, workers=2,
                              weaken_condition1=True, stop_after=3)
        assert r.verdict["mutation_finds_false_positives"]
        return [e for e in r.events if e["kind"] == "scan"][0]

    forked = scan_event()
    monkeypatch.setattr(scenarios, "_pool_context",
                        lambda: mp.get_context("spawn"))
    spawned = scan_event()
    assert spawned == forked
    assert forked["paradox_count"] == 6       # stop_after=3 in each worker


def test_search_fr_paradox_sampled_d3():
    r = search_fr_paradox(d=3, exhaustive=False, seed=11, samples=150,
                          sequential_checks=6)
    assert r.passed


def test_exhaustive_mode_gated_to_single_toy_bits():
    with pytest.raises(SearchSpaceExceeded):
        search_fr_paradox(d=3, exhaustive=True)
