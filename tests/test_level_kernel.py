"""The branch kernel: one elimination per level of states on one known
subspace, and the walks and draws built on it.

`measurement._level_branches` decides every (valuation, outcome) pair of a
level from one elimination of the stacked rows against an identity block,
and returns the level's post-measurement known subspace V' once beside the
post-valuations.  These tests hold it to the per-outcome route
(`outcome_probability` and `update_state`, each its own elimination), show
that the checks catch a kernel that skips the dependency rows, count the
eliminations of a sequential FR walk, and pin the outcomes `sample_outcome`
draws and what the CLI's `measure`, which reads everything from one
`branches` table over Z_p and one `update_state` over QQ, prints.
"""

import json
import random
import zlib

import pytest

from toytheory import cli, measurement, scenarios, serialize
from toytheory.errors import ContinuousNotEnumerable
from toytheory.measurement import (
    _level_branches, branches, make_measurement, outcome_probability,
    outcomes, sample_outcome, update_state,
)
from toytheory.phase_space import (
    all_isotropic_subspaces, discrete_space, rational_space,
)
from toytheory.states import EpistemicState, make_state

from conftest import count_calls, random_vector

POINTS = [(2, 1), (2, 2), (3, 2), (5, 2)]


def _levels(d, n, count=25, per_level=4):
    """Seeded (space, known, states, measurement) levels: several states
    on one known subspace, measured by a random isotropic V_π."""
    space = discrete_space(d, n)
    subs = all_isotropic_subspaces(space)
    rng = random.Random(100 * d + n)
    levels = []
    for _ in range(count):
        known = rng.choice(subs)
        states = [make_state(space, known.basis,
                             random_vector(space.field, 2 * n, rng))
                  for _ in range(per_level)]
        m = make_measurement(space, rng.choice(subs[1:]).basis)
        levels.append((space, known, states, m))
    return levels


def _per_outcome(s, m):
    return [(o, outcome_probability(s, m, o), update_state(s, m, o))
            for o in outcomes(m) if outcome_probability(s, m, o)]


def _level_states(space, known, states, m) -> list:
    """`_level_branches` of the states, each post-valuation made a state
    on the level's V'."""
    post, levels = _level_branches(space, known,
                                   [s.valuation for s in states], m)
    return [[(o, p, EpistemicState(space, post, v)) for o, p, v in level]
            for level in levels]


def _level_matches(space, known, states, m) -> bool:
    level = _level_states(space, known, states, m)
    return level == [_per_outcome(s, m) for s in states]


@pytest.mark.parametrize("d, n", POINTS)
def test_level_equals_branches_and_the_per_outcome_route(d, n):
    impossible = 0
    for space, known, states, m in _levels(d, n):
        level = _level_states(space, known, states, m)
        assert level == [branches(s, m) for s in states]
        assert _level_matches(space, known, states, m)
        impossible += sum(len(outcomes(m)) - len(found) for found in level)
    # some outcomes are impossible, so the dependency rows are exercised
    assert impossible > 0


@pytest.mark.parametrize("d, n", POINTS)
def test_a_kernel_that_skips_the_dependency_rows_fails(monkeypatch, d, n):
    # the kernel's only `any` is its test of the dependency rows; a module
    # global shadows the builtin, so every outcome passes as consistent
    monkeypatch.setattr(measurement, "any", lambda rows: False,
                        raising=False)
    assert not all(_level_matches(*level) for level in _levels(d, n))


def test_the_kernel_needs_a_discrete_field():
    space = rational_space(1)
    s = make_state(space, [(1, 0)], (0, 0))
    m = make_measurement(space, [(0, 1)])
    with pytest.raises(ContinuousNotEnumerable):
        _level_branches(space, s.known, [s.valuation], m)
    with pytest.raises(ContinuousNotEnumerable):
        branches(s, m)


def test_a_walk_eliminates_once_per_agent(monkeypatch):
    # one V' elimination per level, not one per branch state: a walk that
    # went back to eliminating per branch would count one per state
    t = scenarios._fr_tables()
    cand = scenarios._fr_candidate_from_ints(
        t, *scenarios._random_fr_tuple(t, random.Random(2)))
    calls = []
    real = measurement._commuting_meet
    monkeypatch.setattr(measurement, "_commuting_meet",
                        lambda *a: calls.append(a) or real(*a))
    walk = scenarios.fr_chain_sequential(cand)
    assert len(calls) == 4
    assert walk["branch_count"] > 4


# (d, n) -> CRC-32 of the labels drawn for seeds 0-49 at three seeded
# (state, measurement) pairs, as drawn outcome by outcome over `outcomes`
SAMPLE_PINS = {(2, 2): "9bb0eb58", (3, 2): "d43f1123", (5, 1): "aa24da8a"}


@pytest.mark.parametrize("d, n", list(SAMPLE_PINS))
def test_sampled_labels_are_pinned(d, n):
    draws = [[sample_outcome(states[0], m, seed).label for seed in range(50)]
             for _, _, states, m in _levels(d, n, count=3, per_level=1)]
    assert any(len(set(labels)) > 1 for labels in draws)
    assert f"{zlib.crc32(repr(draws).encode()):08x}" == SAMPLE_PINS[d, n]


def _measure_argvs(d, n, tmp_path):
    """`measure --format json` of three seeded states, by a random
    measurement and by their own known subspace (where every outcome but
    one is impossible): drawn at seeds 0-9, then given each outcome."""
    pairs = []
    for space, known, states, m in _levels(d, n, count=3, per_level=1):
        pairs.append((states[0], m))
        if known.dim:
            pairs.append((states[0], make_measurement(space, known.basis)))
    argvs = []
    for i, (s, m) in enumerate(pairs):
        state, meas = tmp_path / f"s{i}.json", tmp_path / f"m{i}.json"
        state.write_text(json.dumps(serialize.state_to_json(s)))
        meas.write_text(json.dumps(serialize.measurement_to_json(m)))
        argv = ["--format", "json", "measure", str(state), str(meas)]
        argvs += [argv + ["--seed", str(seed)] for seed in range(10)]
        argvs += [argv + ["--outcome", ",".join(map(str, o.label))]
                  for o in outcomes(m)]
    return argvs


def test_measure_reads_one_branch_table(monkeypatch, tmp_path, capsys):
    calls = []
    real = measurement._level_branches
    monkeypatch.setattr(measurement, "_level_branches",
                        lambda *a: calls.append("branches") or real(*a))
    # cli binds update_state alone since its QQ path stopped asking for
    # outcome_probability
    for module, name in ((cli, "update_state"),
                         (measurement, "outcome_probability"),
                         (measurement, "update_state")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name: calls.append(name))
    codes = set()
    for argv in _measure_argvs(3, 2, tmp_path):
        codes.add(cli.main(argv))
        capsys.readouterr()
        assert calls == ["branches"]
        calls.clear()
    assert codes == {0, 2}


# (d, n) -> CRC-32 of the exit code, stdout and stderr of each run of
# `_measure_argvs`, as printed when the table was built outcome by outcome
MEASURE_PINS = {(2, 1): "63ad1ab1", (2, 2): "40592a10", (3, 2): "ff8ac526"}


@pytest.mark.parametrize("d, n", list(MEASURE_PINS))
def test_measure_output_is_pinned(d, n, tmp_path, capsys):
    runs = []
    for argv in _measure_argvs(d, n, tmp_path):
        code = cli.main(argv)
        out = capsys.readouterr()
        runs.append((code, out.out, out.err))
    assert {code for code, _, _ in runs} == {0, 2}
    assert all(err.endswith(" has probability 0\n")
               for code, _, err in runs if code)
    assert f"{zlib.crc32(repr(runs).encode()):08x}" == MEASURE_PINS[d, n]


def _qq_measure_argvs(tmp_path):
    """`measure --outcome` over QQ, in text and JSON: outcomes of
    probability 1 and 0, and outcomes that are no point mass."""
    q1, q2 = rational_space(1), rational_space(2)
    cases = [
        (make_state(q1, [(1, 0)], ("1/2", 0)), [(1, 0)], ["1/2", "1/3"]),
        (make_state(q1, [(1, 0)], ("1/2", 0)), [(2, 0)], ["1/2", "-1"]),
        (make_state(q1, [(1, 0)], ("1/2", 0)), [(0, 1)], ["0"]),
        (make_state(q1, [], (0, 0)), [(1, 0)], ["0"]),
        (make_state(q2, [(1, 0, 0, 0), (0, 0, 1, 0)], ("1/2", 0, -3, 0)),
         [(1, 0, 1, 0)], ["-5/2", "0"]),
        (make_state(q2, [(1, 0, 0, 0), (0, 0, 1, 0)], ("1/2", 0, -3, 0)),
         [(1, 0, 0, 0), (0, 0, 1, 0)], ["1/2,-3", "1/2,3"]),
        (make_state(q2, [(1, 0, 0, 0), (0, 0, 1, 0)], ("1/2", 0, -3, 0)),
         [(0, 1, 0, 0)], ["2/3"]),
    ]
    argvs = []
    for i, (s, rows, labels) in enumerate(cases):
        state, meas = tmp_path / f"q{i}.json", tmp_path / f"qm{i}.json"
        state.write_text(json.dumps(serialize.state_to_json(s)))
        meas.write_text(json.dumps(serialize.measurement_to_json(
            make_measurement(s.space, rows))))
        for fmt in ("text", "json"):
            argvs += [["--format", fmt, "measure", str(state), str(meas),
                       f"--outcome={label}"] for label in labels]
    return argvs


def test_measure_over_qq_updates_once(monkeypatch, tmp_path, capsys):
    # one update_state per run decides the outcome, and no
    # outcome_probability is asked, through any module that binds either
    calls = {}
    for name in ("outcome_probability", "update_state"):
        count_calls(monkeypatch, measurement, name, calls)
    codes = set()
    for argv in _qq_measure_argvs(tmp_path):
        codes.add(cli.main(argv))
        capsys.readouterr()
        assert calls == {"update_state": 1}
        calls.clear()
    assert codes == {0, 2}


# CRC-32 of the exit code, stdout and stderr of each run of
# `_qq_measure_argvs`, as printed when probability and update were asked
# for one after the other
QQ_MEASURE_PIN = "095c9d9a"


def test_measure_output_over_qq_is_pinned(tmp_path, capsys):
    runs = []
    for argv in _qq_measure_argvs(tmp_path):
        code = cli.main(argv)
        out = capsys.readouterr()
        # the state's file name is the only run-dependent text
        runs.append((code, out.out.replace(str(tmp_path), "DIR"),
                     out.err.replace(str(tmp_path), "DIR")))
    errors = {err for code, _, err in runs if code}
    assert any(err.endswith(" has probability 0\n") for err in errors)
    assert any("neither 0 nor 1" in err for err in errors)
    assert sum(not code for code, _, _ in runs) == 8
    assert f"{zlib.crc32(repr(runs).encode()):08x}" == QQ_MEASURE_PIN
