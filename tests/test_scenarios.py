import random
import zlib
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from toytheory import scenarios
from toytheory.algebra import GF, rref
from toytheory.errors import DimensionMismatch, SearchSpaceExceeded
from toytheory.measurement import Measurement, Outcome
from toytheory.phase_space import discrete_space
from toytheory.scenarios import (
    FRCandidate, check_fr_conditions, check_fr_request, fr_chain_initial,
    fr_chain_sequential, run_bell, run_forgetting, run_wigner_friend,
    search_fr_paradox, _FR_BENIGN_SAMPLES, _FR_COUNTERS, _FR_PARADOX_SAMPLES,
    _block_support, _fr_candidate_from_ints, _fr_conditions_single,
    _fr_orbit_draws, _fr_orbits, _fr_rederive, _fr_scan, _fr_systems,
    _fr_tables, _fr_valuation_classes, _perp_of_elems, _random_fr_tuple,
)
from toytheory.states import make_state, state_from_values

from conftest import count_calls

F2 = GF(2)

# The exhaustive d = 2 totals over all 2295 known-sets.
FR_TOTALS = {"states": 36720, "valuation_tests": 1551744,
             "quad_tests": 3779136, "benign_all_seven": 1568160}


def _ones(*bounds) -> list:
    """The known-sets range(*bounds) as scan items at v = 0, weight 1."""
    return [(li, 0, 1) for li in range(*bounds)]


def _valuation_classes(t, li: int) -> list:
    """One valuation of each of the 16 classes of known-set li (the least
    of each coset of V^⊥)."""
    perp = _perp_of_elems(t.ortho, t.full, t.lagrangians[li])
    elems = [x for x in range(256) if (perp >> x) & 1]
    reps, seen = [], set()
    for x in range(256):
        if x not in seen:
            reps.append(x)
            seen.update(x ^ e for e in elems)
    return reps


@pytest.fixture(scope="module")
def full_scan():
    """The unreduced scan: all 2295 known-sets at all 16 valuation classes,
    36720 states at weight 1, in one process."""
    t = _fr_tables()
    return _fr_scan(t, [(li, v, 1) for li in range(len(t.lagrangians))
                        for v in _valuation_classes(t, li)])


def _per_known_set(scan) -> dict:
    """Each known-set's item counters, summed over its scanned states."""
    sums: dict = {}
    for li, counts in scan["counters"]:
        sums[li] = tuple(map(sum, zip(sums.get(li, (0,) * len(counts)),
                                      counts)))
    return sums


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


def _candidate(state, blocks, v_a, v_b, v_u, v_w,
               labels=((0,), (0,), (0,), (0,), (1,))):
    """The candidate measuring V_A, V_B, V_U and V_W, whose outcomes A=1,
    B=1, U=ok, W=ok and W=fail have these labels."""
    m_a, m_b, m_u, m_w = (Measurement(state.space, v)
                          for v in (v_a, v_b, v_u, v_w))
    return FRCandidate(state, blocks, *(
        Outcome(m, label)
        for m, label in zip((m_a, m_b, m_u, m_w, m_w), labels)))


def _position_state(n):
    """n systems, each in the position eigenstate q = 0."""
    return state_from_values(
        discrete_space(2, n),
        [(tuple(1 if j == 2 * i else 0 for j in range(2 * n)), 0)
         for i in range(n)])


QR = rref(F2, 8, [(1, 0, 0, 0, 0, 0, 0, 0)])
QS = rref(F2, 8, [(0, 0, 0, 0, 1, 0, 0, 0)])


def _all_positions_candidate(equal_w=False):
    """Everything in position eigenstates; all seven conditions hold and the
    only consistent Wigner labeling is ok = fail."""
    return _candidate(_position_state(4), (1, 1, 1, 1), QR, QS, QR, QS,
                      ((0,), (0,), (0,), (0,), (0,) if equal_w else (1,)))


def _outcome_fields(cand) -> list:
    return [f.name for f in fields(FRCandidate)
            if isinstance(getattr(cand, f.name), Outcome)]


def test_candidate_holds_its_state_and_five_outcomes():
    cand = _all_positions_candidate()
    assert [f.name for f in fields(FRCandidate)] == [
        "initial", "blocks", "a1", "b1", "u_ok", "w_ok", "w_fail"]
    assert _outcome_fields(cand) == ["a1", "b1", "u_ok", "w_ok", "w_fail"]
    assert not hasattr(cand, "outcome")


@pytest.mark.parametrize("field", ["a1", "w_fail"])
@pytest.mark.parametrize("label", [(), (0, 0)], ids=["short", "long"])
def test_candidate_label_length_enforced(field, label):
    # each measurement here has one generator, so each label one value; the
    # hand-built outcome refuses the wrong length itself, before the
    # candidate sees it
    cand = _all_positions_candidate()
    with pytest.raises(DimensionMismatch, match="label needs 1 values"):
        wrong = Outcome(getattr(cand, field).measurement, label)
        replace(cand, **{field: wrong})


@pytest.mark.parametrize("label, error, message", [
    ((2,), ValueError, "not field elements"),
    ((-1,), ValueError, "not field elements"),
    ((True,), TypeError, "cannot coerce True")])
def test_candidate_refuses_a_label_that_is_no_field_element(label, error,
                                                            message):
    # the hand-built outcome refuses the label itself: W=fail labeled 2 at
    # d = 2 would compare unequal to W=ok labeled 0, the same outcome
    cand = _all_positions_candidate(equal_w=True)
    with pytest.raises(error, match=message):
        wrong = Outcome(cand.w_fail.measurement, label)
        replace(cand, w_fail=wrong)


def test_candidate_refuses_w_outcomes_of_two_measurements():
    # W=fail of a momentum measurement on S, W=ok of the position one
    cand = _all_positions_candidate()
    ps = Measurement(cand.space, rref(F2, 8, [(0, 0, 0, 0, 0, 1, 0, 0)]))
    with pytest.raises(DimensionMismatch, match="W's ok and fail belong to "
                                                "different measurements"):
        replace(cand, w_fail=Outcome(ps, (1,)))
    # the same subspace in a second `Measurement` is the same measurement
    again = Measurement(cand.space, QS)
    assert replace(cand, w_fail=Outcome(again, (1,))).w_fail == cand.w_fail


@pytest.mark.parametrize("names, agent", [
    (("a1",), "A"), (("b1",), "B"), (("u_ok",), "U"),
    (("w_ok", "w_fail"), "W")])
def test_candidate_refuses_an_outcome_on_another_space(names, agent):
    # the same coordinates over Z_3: a space of the same shape, not the
    # state's; W's two outcomes move together, so they share a measurement
    cand = _all_positions_candidate()
    other = discrete_space(3, 4)
    moved = {}
    for name in names:
        out = getattr(cand, name)
        m = Measurement(other, rref(other.field, 8,
                                    out.measurement.observables.basis))
        moved[name] = Outcome(m, out.label)
    with pytest.raises(DimensionMismatch, match=f"{agent}'s outcome lives "
                                                "on another space"):
        replace(cand, **moved)


def test_distinct_w_candidate_fails_condition_seven():
    cand = _all_positions_candidate(equal_w=False)
    rep = check_fr_conditions(cand)
    assert not rep.conditions[6]
    assert not rep.all_hold


def test_candidate_block_support_enforced():
    with pytest.raises(DimensionMismatch, match="V_A leaves its block"):
        _candidate(_position_state(4), (1, 1, 1, 1),
                   rref(F2, 8, [(0, 0, 1, 0, 0, 0, 0, 0)]),  # on A, not R
                   QS, QR, QS)


@pytest.mark.parametrize("blocks, systems", [
    ((1, 1, 1, 1), {"A": (0, 1), "B": (2, 3), "U": (0, 2), "W": (2, 4)}),
    ((1, 2, 1, 1), {"A": (0, 1), "B": (3, 4), "U": (0, 3), "W": (3, 5)}),
    ((2, 1, 1, 2), {"A": (0, 2), "B": (3, 4), "U": (0, 3), "W": (3, 6)}),
])
def test_candidate_blocks_follow_the_layout(blocks, systems):
    # each V_X may use the first and the last system of its range, and no
    # system next to it
    assert _fr_systems(blocks) == {x: range(*r) for x, r in systems.items()}
    n = sum(blocks)
    state = _position_state(n)

    def q_on(system):
        return rref(F2, 2 * n, [tuple(1 if j == 2 * system else 0
                                      for j in range(2 * n))])

    subs = {x: q_on(start) for x, (start, _) in systems.items()}

    def candidate(agent, system):
        v = dict(subs, **{agent: q_on(system)})
        return _candidate(state, blocks, *(v[x] for x in "ABUW"))

    for agent, (start, stop) in systems.items():
        candidate(agent, start)
        candidate(agent, stop - 1)
        for outside in {start - 1, stop} & set(range(n)):
            with pytest.raises(DimensionMismatch,
                               match=f"V_{agent} leaves its block"):
                candidate(agent, outside)


def test_all_seven_conditions_force_equal_w_outcomes():
    cand = _all_positions_candidate(equal_w=True)
    rep = check_fr_conditions(cand)
    assert rep.all_hold
    assert rep.p_ok_ok > 0
    assert rep.w_outcomes_equal          # derivation confirmed
    chain = fr_chain_initial(cand)
    assert chain["holds"]                # benign: ok and fail coincide


def test_every_stored_label_is_read():
    # replacing the label of any one outcome the candidate stores moves the
    # report, so it stores none that the conditions and the W comparison
    # do not read
    cand = _all_positions_candidate(equal_w=True)

    def seen(c):
        rep = check_fr_conditions(c)
        return rep.conditions, rep.w_outcomes_equal

    names = _outcome_fields(cand)
    assert {"a1", "b1", "u_ok", "w_ok", "w_fail"} <= set(names)
    for name in names:
        out = getattr(cand, name)
        flipped = Outcome(out.measurement, tuple(1 - x for x in out.label))
        assert seen(replace(cand, **{name: flipped})) != seen(cand), name


def test_correlated_pairs_candidate_fails_a_subset_condition():
    # R-A and S-B momentum-correlated pairs with local position measurements:
    # nothing about S is reachable from Ursula's R+A knowledge
    space = discrete_space(2, 4)
    state = make_state(
        space,
        [(1, 0, 1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0, 0),
         (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 1, 0, 1)],
        (0,) * 8)
    cand = _candidate(state, (1, 1, 1, 1), QR, QS, QR, QS)
    rep = check_fr_conditions(cand)
    assert not rep.conditions[0]  # V_B not reachable from U's commutant
    assert not rep.all_hold
    assert not fr_chain_initial(cand)["holds"]


def test_fast_scan_slice_agrees_with_merge_and_finds_nothing():
    # the totals are the merge (the sum) of the item counters
    t = _fr_tables()
    scan = _fr_scan(t, _ones(60))
    assert [li for li, _ in scan["counters"]] == list(range(60))
    assert [scan[k] for k in _FR_COUNTERS] == [
        sum(counts[i] for _, counts in scan["counters"])
        for i in range(len(_FR_COUNTERS))]
    assert scan["paradox_count"] == 0 and scan["paradox_sample"] == []
    # the sample keeps at most one tuple per known-set; its first stratum
    # starts at the first known-set
    sample = scan["benign_sample"]
    assert 0 < len(sample) <= _FR_BENIGN_SAMPLES
    assert len({tup[0] for tup in sample}) == len(sample)
    assert sample[0] == _fr_scan(t, _ones(29))["benign_sample"][0]


def test_orbit_table_partitions_the_lagrangians():
    orbits = _fr_tables().orbits
    assert len(orbits) == 18
    assert sorted(len(cls) for cls in orbits) == \
        [36] * 3 + [54] * 6 + [81] + [162] * 5 + [324] * 3
    assert sorted(li for cls in orbits for li in cls) == list(range(2295))
    # enumerator order: members ascending, classes by representative
    assert all(list(cls) == sorted(cls) for cls in orbits)
    assert [cls[0] for cls in orbits] == sorted(cls[0] for cls in orbits)


def _classes_with_distinct_counters(classes, counters) -> int:
    return sum(len({counters[li] for li in cls}) > 1 for cls in classes)


def test_full_scan_counters_are_constant_on_orbits(full_scan):
    t = _fr_tables()
    assert {k: full_scan[k] for k in _FR_COUNTERS} == FR_TOTALS
    assert full_scan["paradox_count"] == 0
    assert full_scan["paradox_sample"] == []
    # every valuation class of a known-set has the same counters
    by_state: dict = {}
    for li, counts in full_scan["counters"]:
        by_state.setdefault(li, set()).add(counts)
    assert len(by_state) == 2295
    assert all(len(seen) == 1 for seen in by_state.values())
    counters = _per_known_set(full_scan)
    assert _classes_with_distinct_counters(t.orbits, counters) == 0
    # so the representatives at v = 0, weighted by orbit size times the
    # valuation classes, give the same totals
    reduced = _fr_scan(t, [(cls[0], 0,
                            len(cls) * _fr_valuation_classes(t, cls[0]))
                           for cls in t.orbits])
    assert {k: reduced[k] for k in _FR_COUNTERS} == FR_TOTALS
    assert len(reduced["counters"]) == 18


def test_representative_counters_are_constant_over_valuations():
    # the translations keep every counter, so one valuation of each
    # representative stands for all 16 of its classes
    t = _fr_tables()
    for cls in t.orbits:
        vs = _valuation_classes(t, cls[0])
        assert len(vs) == _fr_valuation_classes(t, cls[0]) == 16
        scan = _fr_scan(t, [(cls[0], v, 1) for v in vs])
        assert len({counts for _, counts in scan["counters"]}) == 1
        assert scan["paradox_count"] == 0


def _local_generators() -> list:
    """A shear (p += q) and a q <-> p swap on each block, on packed ints."""
    gens = []
    for i in range(4):
        q, p = 1 << 2 * i, 1 << 2 * i + 1
        gens.append(lambda x, q=q, p=p: x ^ p if x & q else x)
        gens.append(lambda x, q=q, p=p: x & ~(q | p) | (p if x & q else 0)
                    | (q if x & p else 0))
    return gens


def test_orbits_are_the_orbits_of_local_symplectic_maps():
    from toytheory import _gf2
    t = _fr_tables()
    gens = _local_generators()
    units = [1 << i for i in range(8)]
    for g in gens:  # linear and symplectic on every pair of unit vectors
        for a in units:
            for b in units:
                assert g(a ^ b) == g(a) ^ g(b)
                assert _gf2.dot2(g(a), _gf2.pairswap(g(b), 8)) == \
                    _gf2.dot2(a, _gf2.pairswap(b, 8))
    spans = [frozenset(_gf2.span_elements(b)) for b in t.lagrangians]
    index = {elems: li for li, elems in enumerate(spans)}
    seen, orbits = set(), []
    for li in range(len(spans)):
        if li in seen:
            continue
        orbit = [li]
        seen.add(li)
        for x in orbit:  # breadth-first, the list grows as it is walked
            for g in gens:
                y = index[frozenset(map(g, spans[x]))]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        orbits.append(tuple(sorted(orbit)))
    assert orbits == list(t.orbits)


def _swap_r_s(s: int) -> int:
    return s & 0b1010 | (s & 1) << 2 | (s >> 2) & 1


def test_key_coarsened_by_the_r_s_swap_fails_the_orbit_gate(full_scan):
    # R <-> S maps the menus of A and U onto those of B and W, so it is no
    # symmetry of the chain: merging its classes must merge unequal counters
    t = _fr_tables()
    coarse = _fr_orbits(t.lagrangians, lambda x: min(
        _block_support(x), _swap_r_s(_block_support(x))))
    assert len(coarse) == 13
    assert _classes_with_distinct_counters(
        coarse, _per_known_set(full_scan)) == 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("index", [3, 4])
def test_orbit_check_fails_on_valuation_dependent_counters(monkeypatch,
                                                           index, workers):
    # a scan whose benign count (index 3) or paradox count (index 4) changes
    # with the valuation breaks the reduction to v = 0; the drawn members
    # sit at other valuation classes
    real = scenarios._fr_scan

    def by_valuation(t, items, *rest):
        stats = real(t, items, *rest)
        stats["counters"] = [
            (li, counts[:index] + (counts[index] + (v != 0),)
             + counts[index + 1:])
            for (li, v, _), (_, counts) in zip(items, stats["counters"])]
        return stats

    monkeypatch.setattr(scenarios, "_fr_scan", by_valuation)
    r = search_fr_paradox(d=2, exhaustive=True, workers=workers,
                          spot_checks=0)
    assert _event(r, "orbit_check") == {"kind": "orbit_check", "checked": 18,
                                        "agree": False, "covers": True,
                                        "closed_form": True}
    assert r.verdict["orbit_weights_verified"] is False
    assert r.verdict["no_paradox_found"]
    assert not r.passed


def _every_paradox(monkeypatch, t, items, *rest) -> dict:
    """The scan with no bound on its paradox sample: the list of every
    paradox tuple, in the order found."""
    with monkeypatch.context() as m:
        m.setattr(scenarios, "_FR_PARADOX_SAMPLES", 1 << 62)
        return _fr_scan(t, items, *rest)


def test_item_counters_end_with_the_paradox_count(monkeypatch):
    t = _fr_tables()
    listed = _every_paradox(monkeypatch, t, _ones(3), True)["paradox_sample"]
    scan = _fr_scan(t, _ones(3), weaken_condition1=True)
    assert [counts[4] for _, counts in scan["counters"]] == \
        [sum(tup[0] == li for tup in listed) for li in range(3)]
    assert scan["paradox_count"] == len(listed) > 0


def test_weakened_scan_counts_without_storing(monkeypatch):
    # a weakened scan over a few representatives: the same count and sample
    # as the reading that lists every paradox, from at most five tuples
    t = _fr_tables()
    items = [(cls[0], 0, 1) for cls in t.orbits[:3]]
    full = _every_paradox(monkeypatch, t, items, True)
    scan = _fr_scan(t, items, weaken_condition1=True)
    listed = full["paradox_sample"]
    assert len(listed) > _FR_PARADOX_SAMPLES == 5
    assert full["paradox_count"] == scan["paradox_count"] == len(listed)
    assert scan["paradox_sample"] == listed[:5]
    assert scan["counters"] == full["counters"]
    for stop in (1, 5, 7):
        cut = _fr_scan(t, items, True, stop)
        assert cut["paradox_count"] == stop
        assert cut["paradox_sample"] == listed[:min(stop, 5)]


def test_unit_weights_miss_the_state_count(monkeypatch):
    # valuation class counts of 1 alone (the orbits still agree and cover the
    # known-sets, so only the closed form catches it), then orbit sizes of 1,
    # then both
    t = _fr_tables()
    real_classes = scenarios._fr_valuation_classes
    unit_orbits = tuple((cls[0],) for cls in t.orbits)
    for orbits, classes, states, checked in (
            (t.orbits, lambda t, li: 1, 2295, 18),
            (unit_orbits, real_classes, 18 * 16, 0),
            (unit_orbits, lambda t, li: 1, 18, 0)):
        monkeypatch.setattr(t, "orbits", orbits)
        monkeypatch.setattr(scenarios, "_fr_valuation_classes", classes)
        r = search_fr_paradox(d=2, exhaustive=True, spot_checks=0)
        assert _event(r, "scan")["states"] == states != FR_TOTALS["states"]
        assert _event(r, "orbit_check") == {
            "kind": "orbit_check", "checked": checked, "agree": True,
            "covers": checked > 0, "closed_form": False}
        assert r.verdict["orbit_weights_verified"] is False
        assert not r.passed


def test_mutation_control_finds_false_positives_on_representatives():
    t = _fr_tables()
    r = search_fr_paradox(d=2, exhaustive=True, weaken_condition1=True,
                          stop_after=3)
    assert r.verdict["mutation_finds_false_positives"]
    scan = _event(r, "scan")
    assert scan["paradox_count"] == 3 and scan["representatives"] == 18
    assert [e["kind"] for e in r.events] == ["scan"]  # no orbit check
    reps = {cls[0] for cls in t.orbits}
    for tup in scan["paradox_sample"]:
        assert tup[0] in reps
        conds = _fr_conditions_single(t, *tup)
        assert not all(conds[:3]) and all(conds[3:])


def test_orbit_draws_are_seeded_other_members():
    t = _fr_tables()
    draws = _fr_orbit_draws(t, random.Random(4))
    assert draws == _fr_orbit_draws(t, random.Random(4))
    assert draws != _fr_orbit_draws(t, random.Random(5))
    assert [rep for rep, _, _ in draws] == [cls[0] for cls in t.orbits]
    assert all(member in cls[1:]
               for (_, member, _), cls in zip(draws, t.orbits))
    # each at a valuation outside the member's V^⊥: a state other than the
    # member's at v = 0
    for _, member, v in draws:
        perp = _perp_of_elems(t.ortho, t.full, t.lagrangians[member])
        assert not (perp >> v) & 1
    assert len({v for _, _, v in draws}) > 1


@pytest.mark.parametrize("workers", [1, 2])
def test_orbit_check_fails_on_foreign_members(monkeypatch, workers):
    # swap the non-representative members of two orbits whose counters
    # differ: the table still partitions the known-sets, but each drawn
    # member disagrees with its representative
    t = _fr_tables()
    reps = dict(_fr_scan(t, [(cls[0], 0, 1)
                             for cls in t.orbits])["counters"])
    x = t.orbits[0]
    j, y = next((j, cls) for j, cls in enumerate(t.orbits)
                if reps[cls[0]] != reps[x[0]])
    bad = list(t.orbits)
    bad[0], bad[j] = x[:1] + y[1:], y[:1] + x[1:]
    monkeypatch.setattr(t, "orbits", tuple(bad))
    r = search_fr_paradox(d=2, exhaustive=True, workers=workers,
                          spot_checks=0)
    assert _event(r, "orbit_check") == {"kind": "orbit_check", "checked": 18,
                                        "agree": False, "covers": True,
                                        "closed_form": True}
    assert r.verdict["orbit_weights_verified"] is False
    assert r.verdict["no_paradox_found"]
    assert not r.passed


def test_exhaustive_report_names_the_orbit_reduction():
    r = search_fr_paradox(d=2, exhaustive=True, spot_checks=0)
    scan = _event(r, "scan")
    assert {k: scan[k] for k in _FR_COUNTERS} == FR_TOTALS
    assert scan["representatives"] == 18
    assert _event(r, "orbit_check") == {"kind": "orbit_check", "checked": 18,
                                        "agree": True, "covers": True,
                                        "closed_form": True}
    assert r.verdict["orbit_weights_verified"] is True
    assert r.passed


def test_benign_sample_spreads_over_the_range():
    t = _fr_tables()
    sample = _fr_scan(t, _ones(40))["benign_sample"]
    lis = [tup[0] for tup in sample]
    assert len(sample) <= _FR_BENIGN_SAMPLES
    assert len(set(lis)) >= 2
    # at most one tuple from each stratum of known-sets
    strata = [li * _FR_BENIGN_SAMPLES // 40 for li in lis]
    assert len(set(strata)) == len(strata)
    assert _fr_rederive(t, sample)


def test_benign_sample_has_nonzero_valuations(monkeypatch):
    # the verdict's sample reaches the drawn members, which sit at nonzero
    # valuations, as well as the representatives at v = 0
    t = _fr_tables()
    real = scenarios._fr_rederive
    seen = []

    def kept(t, sample):
        seen.extend(sample)
        return real(t, sample)

    monkeypatch.setattr(scenarios, "_fr_rederive", kept)
    r = search_fr_paradox(d=2, exhaustive=True, spot_checks=0)
    assert r.verdict["derivation_verified"]
    assert _event(r, "derivation")["samples"] == len(seen) > 0
    assert {tup[1] != 0 for tup in seen} == {False, True}
    # a known-set scanned alone keeps a tuple exactly when it has benign
    # tuples at all
    for li in range(40):
        alone = _fr_scan(t, [(li, _valuation_classes(t, li)[1], 1)])
        assert bool(alone["benign_sample"]) == (alone["benign_all_seven"] > 0)


def test_benign_sample_spreads_over_valuations():
    # one known-set at four valuation classes: each class is a stratum of
    # its own and keeps its first benign tuple
    t = _fr_tables()
    vs = _valuation_classes(t, 0)[::4]
    sample = _fr_scan(t, [(0, v, 1) for v in vs])["benign_sample"]
    assert [tup[1] for tup in sample] == vs
    assert _fr_rederive(t, sample)


def test_subset_tables_match_the_sum_sets():
    # c1-c3 test V_Y ⊆ K_X ⊕ V_X on perp masks; here the sum K_X ⊕ V_X is
    # spelled out element by element, for every pair of each representative
    t = _fr_tables()
    for cls in t.orbits:
        k = scenarios._FrKernel(t, t.lagrangians[cls[0]])
        for kmasks, table, premises, conclusions in (
                (k.k_u, k.c1, t.meas_u, t.meas_b),
                (k.k_b, k.c2, t.meas_b, t.meas_a),
                (k.k_a, k.c3, t.meas_a, t.meas_w)):
            for kmask, row, x in zip(kmasks, table, premises):
                sums = {e ^ f for e in k.v_elems if (kmask >> e) & 1
                        for f in x.elems}
                assert row == [set(y.elems) <= sums for y in conclusions]


def test_single_configuration_rows_match_the_kernel_tables():
    # the single check builds only the rows of its own premises: at every
    # representative, a kernel built for one premise holds that premise's
    # K_X mask and subset row as the scan's full tables do, and no other;
    # and each K_X mask is the exact commutant within V, packed
    from toytheory.algebra import enumerate_subspace
    from toytheory.phase_space import commutant_within
    t = _fr_tables()
    packed = {scenarios._int_vec(x): x for x in range(256)}

    def exact(basis):
        return rref(GF(2), 8, [scenarios._int_vec(g) for g in basis])

    for cls in t.orbits:
        basis = t.lagrangians[cls[0]]
        full = scenarios._FrKernel(t, basis)
        for agent, (premises, kmasks, table) in enumerate((
                (t.meas_u, full.k_u, full.c1), (t.meas_b, full.k_b, full.c2),
                (t.meas_a, full.k_a, full.c3))):
            for x, meas in enumerate(premises):
                rows = [()] * 3
                rows[agent] = (x,)
                one = scenarios._FrKernel(t, basis, rows)
                got = ((one.k_u, one.c1), (one.k_b, one.c2),
                       (one.k_a, one.c3))[agent]
                assert (got[0][x], got[1][x]) == (kmasks[x], table[x])
                assert sum(m is not None for m in got[0]) == 1
                k = commutant_within(exact(basis), exact(meas.basis))
                assert kmasks[x] == sum(1 << packed[e]
                                        for e in enumerate_subspace(k))


def test_fast_conditions_match_exact_on_fixed_tuples(rng):
    t = _fr_tables()
    for _ in range(25):
        tup = _random_fr_tuple(t, rng)
        fast = _fr_conditions_single(t, *tup)
        cand = _fr_candidate_from_ints(t, *tup)
        assert check_fr_conditions(cand).conditions == fast


def _set_level_conditions(c):
    """Third, fully independent evaluation of the seven conditions by literal
    element enumeration (no bit packing, and no subspace algebra beyond one
    point of each outcome), over the candidate's own field and ambient
    dimension.  That point is the shift of the outcome's coset: V_X is
    block-local, so the canonical shift is zero outside the block, as the
    sums below need."""
    from toytheory.algebra import enumerate_subspace
    from toytheory.phase_space import bracket_vectors
    field = c.space.field
    p, n = field.p, c.space.ambient_dim
    V = set(enumerate_subspace(c.initial.known))

    def span_set(sub):
        return set(enumerate_subspace(sub))

    VU, VB, VA, VW = (span_set(x.measurement.observables)
                      for x in (c.u_ok, c.b1, c.a1, c.w_ok))

    def commutant(meas_set):
        return {f for f in V
                if all(bracket_vectors(field, f, g) == 0 for g in meas_set)}

    KU, KB, KA = commutant(VU), commutant(VB), commutant(VA)

    def sumset(xs, ys):
        return {tuple((x + y) % p for x, y in zip(a, b))
                for a in xs for b in ys}

    def perp_contains(sset, x):
        return all(sum(s_i * x_i for s_i, x_i in zip(s, x)) % p == 0
                   for s in sset)

    v = c.initial.valuation

    def comb(*keys):
        out = [0] * n
        for vec in (getattr(c, key).coset().shift for key in keys):
            out = [(s_i + x_i) % p for s_i, x_i in zip(out, vec)]
        return tuple((s_i - v_i) % p for s_i, v_i in zip(out, v))

    return (VB <= sumset(KU, VU),
            VA <= sumset(KB, VB),
            VW <= sumset(KA, VA),
            perp_contains(sumset(VU, VW) & V, comb("u_ok", "w_ok")),
            perp_contains(sumset(VB, VU) & KU, comb("b1", "u_ok")),
            perp_contains(sumset(VB, VA) & KB, comb("a1", "b1")),
            perp_contains(sumset(VA, VW) & KA, comb("a1", "w_fail")))


def test_conditions_match_literal_set_enumeration(rng, monkeypatch):
    # random d = 2 tuples; a scan's benign sample, since random tuples
    # rarely pass a subset condition and the benign ones pass all seven;
    # and the sampled search's own candidates at d = 3 and at blocks
    # (1, 2, 1, 1)
    t = _fr_tables()
    benign = _fr_scan(t, _ones(3))["benign_sample"]
    assert benign
    cands = [_fr_candidate_from_ints(t, *_random_fr_tuple(t, rng))
             for _ in range(40)]
    cands += [_fr_candidate_from_ints(t, *tup) for tup in benign]
    real = scenarios.check_fr_conditions
    monkeypatch.setattr(scenarios, "check_fr_conditions",
                        lambda cand: cands.append(cand) or real(cand))
    for d, blocks in ((3, (1, 1, 1, 1)), (2, (1, 2, 1, 1))):
        scenarios._fr_sampled_search(d, blocks, random.Random(13), 100, 0)
    assert len(cands) == 40 + len(benign) + 200
    # the sampled search's seeded draws: states, the subspaces of the four
    # measurements and the labels of the five outcomes each candidate holds
    drawn = "".join(repr((c.initial, *(x.measurement.observables for x in
                                       (c.a1, c.b1, c.u_ok, c.w_ok)),
                          [x.label for x in (c.a1, c.b1, c.u_ok, c.w_ok,
                                             c.w_fail)]))
                    for c in cands[-200:])
    assert f"{zlib.crc32(drawn.encode()):08x}" == "5ca04741"
    seen = set()
    for cand in cands:
        conditions = real(cand).conditions
        assert conditions == _set_level_conditions(cand)
        seen.update(enumerate(conditions))
    # every condition is seen both holding and failing
    assert seen == {(i, x) for i in range(7) for x in (False, True)}


def test_a_spot_check_builds_only_the_joint_outcome_from_a_label(
        monkeypatch):
    # the candidate holds its five outcomes, so a spot check, its
    # sequential walk included, rebuilds none of them from a label: the one
    # `outcome_for_label` is P(ok, ok)'s joint U+W outcome
    from toytheory import measurement
    t = _fr_tables()
    checks = [(_random_fr_tuple(t, random.Random(seed)), True)
              for seed in range(3)]
    calls = {}
    count_calls(monkeypatch, measurement, "outcome_for_label", calls)
    for check in checks:
        calls.clear()
        result = scenarios._fr_spot_checks(t, [check])
        assert result["checked"] == result["sequential_checked"] == 1
        assert calls == {"outcome_for_label": 1}


def test_sequential_reading_never_assembles_paradox(rng):
    t = _fr_tables()
    for _ in range(6):
        cand = _fr_candidate_from_ints(t, *_random_fr_tuple(t, rng))
        seq = fr_chain_sequential(cand)
        assert not seq["holds"]


def test_sequential_chain_is_pinned():
    # 60 seeded d = 2 candidates, on which each statement both holds and
    # fails; the CRC-32 covers every key and value of the 60 chain dicts
    t = _fr_tables()
    rng = random.Random(3)
    chains = [fr_chain_sequential(
        _fr_candidate_from_ints(t, *_random_fr_tuple(t, rng)))
        for _ in range(60)]
    for link in ("u_b", "b_a", "a_w"):
        assert {ch[f"stmt_{link}"] for ch in chains} == {False, True}
    assert not any(ch["holds"] for ch in chains)
    text = "".join(repr(sorted(ch.items())) for ch in chains)
    assert f"{zlib.crc32(text.encode()):08x}" == "b6b318ed"


def test_mutated_search_finds_false_positives():
    t = _fr_tables()
    stats = _fr_scan(t, _ones(40), weaken_condition1=True, stop_after=3)
    assert stats["paradox_count"] == len(stats["paradox_sample"]) == 3
    # and each false positive indeed fails one of the dropped conditions
    for tup in stats["paradox_sample"]:
        conds = _fr_conditions_single(t, *tup)
        assert not all(conds[:3])
        assert all(conds[3:])


def test_search_verdict_fails_on_misclassified_benign_sample(monkeypatch):
    t = _fr_tables()

    honest = len(_fr_scan(t, _ones(2))["benign_sample"])

    def mislabelled_scan(t, items, *rest):
        # one benign tuple again, with Wigner's fail moved to the other
        # outcome: the exact conditions must refuse it
        stats = _fr_scan(t, _ones(2), *rest)
        li, v, a, a1, b, b1, u, uok, w, wok, wfail = stats["benign_sample"][0]
        other = next(x for x in t.meas_w[w].outs if x != wfail)
        stats["benign_sample"].append(
            (li, v, a, a1, b, b1, u, uok, w, wok, other))
        return stats

    monkeypatch.setattr(scenarios, "_fr_scan", mislabelled_scan)
    r = search_fr_paradox(d=2, exhaustive=True, workers=1, spot_checks=0)
    derivation = [e for e in r.events if e["kind"] == "derivation"][0]
    assert derivation == {"kind": "derivation",
                          "samples": honest + 1,
                          "all_hold": False}
    assert r.verdict["derivation_verified"] is False
    assert not r.passed
    assert not _fr_rederive(t, [])    # no sample is no evidence


def test_rederivation_requires_equal_w_outcomes(monkeypatch):
    # all seven holding is not enough: the exact report must also find W's
    # ok and fail equal on every benign sample
    monkeypatch.setattr(scenarios, "check_fr_conditions",
                        lambda cand: SimpleNamespace(
                            all_hold=True, w_outcomes_equal=False))
    r = search_fr_paradox(d=2, exhaustive=True, workers=1, spot_checks=0)
    assert _event(r, "derivation")["all_hold"] is False
    assert r.verdict["derivation_verified"] is False
    assert not r.passed


def _event(report, kind: str) -> dict:
    return next(e for e in report.events if e["kind"] == kind)


def _report_but_workers(report) -> dict:
    out = report.to_jsonable()
    del out["config"]["workers"]
    return out


def test_search_fr_paradox_workers_agree():
    # with workers > 1 the spot checks are split across the workers; the
    # report, derivation included, must not show it.  41 checks split
    # unevenly, and the first 5, the sequential ones, span the shares.
    for checks, sequential in ((40, 48), (41, 5)):
        reports = [search_fr_paradox(d=2, exhaustive=True, workers=w,
                                     spot_checks=checks,
                                     sequential_checks=sequential, seed=5)
                   for w in (1, 2, 3)]
        assert [[e["kind"] for e in r.events] for r in reports] == \
            [["scan", "orbit_check", "derivation", "spot_checks"]] * 3
        whole = [_report_but_workers(r) for r in reports]
        assert whole[1] == whole[0] and whole[2] == whole[0]
        spots = _event(reports[0], "spot_checks")
        assert spots["checked"] == checks
        assert spots["sequential_checked"] == min(checks, sequential)
        for r in reports:
            assert r.verdict["no_paradox_found"]
            assert r.verdict["derivation_verified"]
            assert r.verdict["spot_checks_agree"]
            assert r.passed


def test_spot_check_shares_merge_to_the_single_share():
    t = _fr_tables()
    rng = random.Random(3)
    checks = [(_random_fr_tuple(t, rng), i < 3) for i in range(7)]
    whole = scenarios._fr_spot_checks(t, checks)
    assert (whole["checked"], whole["sequential_checked"]) == (7, 3)
    for n in (1, 2, 3, 8):
        parts = [scenarios._fr_spot_checks(t, checks[i::n]) for i in range(n)]
        assert [p["checked"] for p in parts] == \
            [len(range(i, 7, n)) for i in range(n)]
        merged = scenarios._merge_spot_checks(parts)
        assert merged == whole
        assert list(merged) == list(whole)
        # one disagreeing share fails the merged flag
        for key in ("conditions_agree", "chain_matches_conditions",
                    "oracle_agrees"):
            last = dict(parts[-1], **{key: False})
            merged = scenarios._merge_spot_checks(parts[:-1] + [last])
            assert merged[key] is False


@pytest.mark.parametrize("workers, parent_calls", [(1, 3 * 4), (2, 0)])
def test_spot_checks_run_in_the_workers(monkeypatch, workers, parent_calls):
    # three oracle conditionals per check; with a pool the calling process
    # runs none of them
    calls = []
    real = scenarios.oracle_conditional

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "oracle_conditional", counted)
    r = search_fr_paradox(d=2, exhaustive=True, workers=workers,
                          spot_checks=4, sequential_checks=0)
    assert _event(r, "spot_checks")["checked"] == 4
    assert r.verdict["spot_checks_agree"]
    assert len(calls) == parent_calls


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


def test_failing_spot_checks_stop_a_single_worker(monkeypatch):
    def fail(*args):
        raise RuntimeError("spot checks failed")

    monkeypatch.setattr(scenarios, "_fr_spot_checks", fail)
    with pytest.raises(RuntimeError, match="spot checks failed"):
        search_fr_paradox(d=2, exhaustive=True, workers=1)


@pytest.mark.parametrize("name, value", [
    ("workers", 0), ("workers", -2), ("spot_checks", -5),
    ("sequential_checks", -1),
])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_search_fr_paradox_rejects_bad_counts(name, value, exhaustive):
    with pytest.raises(ValueError, match=f"{name} must be at least"):
        search_fr_paradox(d=2, exhaustive=exhaustive, **{name: value})


@pytest.mark.parametrize("blocks", [(0, 1, 1, 1), (1, 1, 1, -1), (1, 1, 1),
                                    (1, 1, 1, 1.0), 4])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_search_fr_paradox_rejects_bad_blocks(blocks, exhaustive):
    with pytest.raises(ValueError, match="blocks must be four ints"):
        search_fr_paradox(d=2, exhaustive=exhaustive, blocks=blocks)


# The seed-7 exhaustive report is the same at every worker count: the
# calling process scans once and keeps one benign sample of four strata.
SEED7_DERIVATION_SAMPLES = 4


@pytest.mark.parametrize("workers", [1, 2])
def test_seed7_exhaustive_report_is_pinned(workers):
    r = search_fr_paradox(d=2, exhaustive=True, workers=workers, seed=7)
    assert [e["kind"] for e in r.events] == \
        ["scan", "orbit_check", "derivation", "spot_checks"]
    scan = _event(r, "scan")
    assert {k: scan[k] for k in _FR_COUNTERS} == FR_TOTALS
    assert (scan["representatives"], scan["paradox_count"]) == (18, 0)
    assert _event(r, "orbit_check") == {"kind": "orbit_check", "checked": 18,
                                        "agree": True, "covers": True,
                                        "closed_form": True}
    assert _event(r, "derivation") == {
        "kind": "derivation", "samples": SEED7_DERIVATION_SAMPLES,
        "all_hold": True}
    assert _event(r, "spot_checks") == {
        "kind": "spot_checks", "checked": 200, "sequential_checked": 48,
        "conditions_agree": True, "chain_matches_conditions": True,
        "oracle_agrees": True, "sequential_paradoxes": 0,
        "digest": "09f1a215"}
    assert r.config["candidate_space"] == 24984288000
    assert r.verdict == dict.fromkeys(
        ("orbit_weights_verified", "no_paradox_found",
         "benign_all_seven_exist", "derivation_verified",
         "spot_checks_agree", "no_sequential_paradox"), True)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_fr_search_rejects_no_samples(samples):
    # a verdict over no samples would pass on no evidence
    with pytest.raises(ValueError, match="samples must be at least 1"):
        search_fr_paradox(d=2, exhaustive=False, samples=samples)


def test_sampled_fr_search_rejects_the_weakened_control():
    # the sampled search has no weakened control: a control it never ran
    # must not pass
    with pytest.raises(ValueError, match="weaken_condition1 needs exhaustive"):
        check_fr_request(d=3, samples=20, weaken_condition1=True)
    with pytest.raises(ValueError, match="weaken_condition1 needs exhaustive"):
        search_fr_paradox(d=3, samples=20, weaken_condition1=True)
    check_fr_request(d=2, exhaustive=True, weaken_condition1=True)


@pytest.mark.parametrize("kwargs, message", [
    ({"d": 3, "samples": 5, "stop_after": 0}, "stop_after must be at least 1"),
    ({"d": 3, "samples": 5, "stop_after": 2}, "stop_after needs exhaustive"),
    ({"d": 2, "exhaustive": True, "stop_after": 0},
     "stop_after must be at least 1"),
    ({"d": 2, "exhaustive": True, "stop_after": -1},
     "stop_after must be at least 1"),
], ids=["sampled-0", "sampled-2", "exhaustive-0", "exhaustive-negative"])
def test_fr_request_checks_stop_after(kwargs, message):
    # the sampled search draws all its samples, and a scan that stops after
    # no paradox would stop at the first one
    with pytest.raises(ValueError, match=message):
        check_fr_request(**kwargs)
    with pytest.raises(ValueError, match=message):
        search_fr_paradox(**kwargs)
    check_fr_request(d=2, exhaustive=True, stop_after=1)


def test_spot_check_digest_tells_the_draws_apart():
    def spots(seed):
        return _event(search_fr_paradox(d=2, exhaustive=True, seed=seed,
                                        spot_checks=10, sequential_checks=2),
                      "spot_checks")

    one, two = spots(1), spots(2)
    assert one != two and one["digest"] != two["digest"]
    assert spots(1) == one
    # the flags and counts alone cannot tell the two runs apart
    assert {k: v for k, v in one.items() if k != "digest"} == \
        {k: v for k, v in two.items() if k != "digest"}


@pytest.mark.parametrize("kernel, wrong", [
    ("dot2", lambda a, b: 0),
    ("span_elements", lambda basis: [0] + list(basis)),
], ids=["dot2", "span_elements"])
def test_broken_packed_kernel_fails_the_scan_and_spares_the_oracle(
        monkeypatch, kernel, wrong):
    # The oracle that spot-checks the bit-packed FR tables must share no
    # `_gf2` code with them (only the walk, which tests/test_gf2.py
    # checks): with a `_gf2` kernel wrong, freshly built tables must
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
    monkeypatch.setattr(_gf2, kernel, wrong)
    _gf2.ortho_table.cache_clear()  # rebuilt below on the wrong kernel
    try:
        broken = scenarios._FrTables()
        assert any(_fr_conditions_single(broken, *tup)
                   != check_fr_conditions(cand).conditions
                   for tup, cand in zip(tuples, cands))
        for cand in cands:
            for key, pa, po, ca, co in scenarios._FR_CHAIN:
                x, y = getattr(cand, po), getattr(cand, co)
                args = (cand.initial, x.measurement, x, y.measurement, y)
                assert (oracle_conditional(*args) == 1) == infers(*args)
            for meas in (x.measurement for x in (cand.a1, cand.b1,
                                                 cand.u_ok, cand.w_ok)):
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
    # the pool runs only the spot checks, so they are what a start method
    # could change; the mutation control scans in the calling process and
    # hands the pool empty shares
    import multiprocessing as mp

    def events():
        r = search_fr_paradox(d=2, exhaustive=True, workers=2, seed=3,
                              spot_checks=5, sequential_checks=1)
        mutation = search_fr_paradox(d=2, exhaustive=True, workers=2,
                                     weaken_condition1=True, stop_after=3)
        assert r.verdict["spot_checks_agree"]
        assert mutation.verdict["mutation_finds_false_positives"]
        return _event(r, "spot_checks"), _event(mutation, "scan")

    forked = events()
    monkeypatch.setattr(scenarios, "_pool_context",
                        lambda: mp.get_context("spawn"))
    spawned = events()
    assert spawned == forked
    assert (forked[0]["checked"], forked[0]["sequential_checked"]) == (5, 1)
    # stop_after counts the paradoxes of the one scan
    assert forked[1]["paradox_count"] == 3


def test_sampled_search_counts_each_paradox_once(monkeypatch):
    # a draw where all seven conditions hold with distinct Wigner outcomes
    # is one paradox
    monkeypatch.setattr(scenarios, "check_fr_conditions",
                        lambda cand: SimpleNamespace(
                            all_hold=True, w_outcomes_equal=False))
    r = search_fr_paradox(d=2, seed=1, samples=3, sequential_checks=0)
    assert _event(r, "sampled")["paradox_count"] == 3
    assert r.verdict["no_paradox_found"] is False


def test_search_fr_paradox_sampled_d3():
    r = search_fr_paradox(d=3, exhaustive=False, seed=11, samples=150,
                          sequential_checks=6)
    assert r.passed


def test_exhaustive_mode_gated_to_single_toy_bits():
    with pytest.raises(SearchSpaceExceeded):
        search_fr_paradox(d=3, exhaustive=True)
