import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from toytheory import cli, serialize
from toytheory.dynamics import cnot_gate
from toytheory.measurement import make_measurement, outcomes
from toytheory.phase_space import discrete_space, rational_space
from toytheory.states import (
    bell_pair, make_state, maximally_mixed, ontic_support, states_equal,
    tensor, toy_bit,
)

SP2 = discrete_space(2, 2)


def _roundtrip_state(s):
    return serialize.state_from_json(json.loads(json.dumps(serialize.state_to_json(s))))


def test_state_roundtrip_discrete():
    for s in (toy_bit("0"), toy_bit("-i"), bell_pair(3),
              tensor(toy_bit("+"), toy_bit("1"))):
        assert _roundtrip_state(s) == s


def test_state_roundtrip_rational():
    sp = rational_space(1)
    s = make_state(sp, [(2, -1)], ("3", "1/2"))
    back = _roundtrip_state(s)
    assert back == s
    doc = serialize.state_to_json(s)
    assert doc["field"] == "rational"
    assert any(isinstance(x, str) and "/" in x
               for row in [doc["generators"][0], doc["valuation"]] for x in row)


def test_state_requires_generators():
    doc = {"field": "prime", "d": 2, "n": 1, "valuation": [1, 0]}
    with pytest.raises(KeyError, match="generators"):
        serialize.state_from_json(doc)
    # an empty list is the maximally mixed state
    assert serialize.state_from_json({**doc, "generators": []}) == \
        maximally_mixed(discrete_space(2, 1))


# JSON's true and false, which Python would read as the ints 1 and 0
BOOLEAN_DOCS = [
    {"field": "prime", "d": 2, "n": True, "generators": [[1, 0]],
     "valuation": [0, 0]},
    {"field": "prime", "d": True, "n": 1, "generators": [[1, 0]],
     "valuation": [0, 0]},
    {"field": "prime", "d": 2, "n": 1, "generators": [[True, False]],
     "valuation": [0, 0]},
    {"field": "rational", "n": 1, "generators": [[1, 0]],
     "valuation": [False, 0]},
]


@pytest.mark.parametrize("doc", BOOLEAN_DOCS)
def test_boolean_entries_and_sizes_are_refused(doc):
    with pytest.raises(TypeError, match="True|False"):
        serialize.state_from_json(doc)


def test_transform_roundtrip():
    t = cnot_gate(SP2, 0, 1)
    doc = json.loads(json.dumps(serialize.transform_to_json(t)))
    assert serialize.transform_from_json(doc) == t


def test_measurement_roundtrip():
    m = make_measurement(SP2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    doc = json.loads(json.dumps(serialize.measurement_to_json(m)))
    assert serialize.measurement_from_json(doc) == m


def test_support_roundtrip():
    sup = ontic_support(bell_pair(2))
    doc = json.loads(json.dumps(serialize.support_to_json(sup)))
    assert serialize.support_from_json(doc) == sup


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _env(env_extra=None) -> dict:
    """The test's environment with the checkout's sources first on the
    child's path, so the CLI runs against the tree, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


def _run(args, env_extra=None, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "toytheory.cli", *args],
        capture_output=True, text=True, env=_env(env_extra), input=stdin)


@pytest.fixture
def files(tmp_path):
    docs = {
        "plus.json": {"field": "prime", "d": 2, "n": 1,
                      "generators": [[0, 1]], "valuation": [0, 0]},
        "one.json": {"field": "prime", "d": 2, "n": 1,
                     "generators": [[1, 0]], "valuation": [1, 0]},
        "zero.json": {"field": "prime", "d": 2, "n": 1,
                      "generators": [[1, 0]], "valuation": [0, 0]},
        "plus_zero.json": {"field": "prime", "d": 2, "n": 2,
                           "generators": [[0, 1, 0, 0], [0, 0, 1, 0]],
                           "valuation": [0, 0, 0, 0]},
        "mz.json": {"observables": [[1, 0]]},
        "bad_support.json": {"field": "prime", "d": 2, "n": 1,
                             "support": [[0, 0], [0, 1], [1, 0]]},
        "empty_support.json": {"field": "prime", "d": 2, "n": 1,
                               "support": []},
        "non_coset_support.json": {"field": "prime", "d": 2, "n": 2,
                                   "support": [[0, 0, 0, 0], [1, 0, 0, 0],
                                               [0, 0, 1, 0], [0, 1, 0, 1]]},
        "nonisotropic.json": {"field": "prime", "d": 2, "n": 1,
                              "generators": [[1, 0], [0, 1]],
                              "valuation": [0, 0]},
        "bad_transform.json": {"U": [[1, 1], [1, 1]], "shift": [0, 0]},
        "mixed2.json": {"field": "prime", "d": 2, "n": 2,
                        "generators": [], "valuation": [0, 0, 0, 0]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


def test_cli_show_grid_golden(files):
    r = _run(["state", "show", str(files / "plus.json")])
    assert r.returncode == 0
    assert r.stdout.splitlines()[-1] == "#.#."


def test_cli_validate_bad_support_exit2(files):
    r = _run(["state", "validate", str(files / "bad_support.json")])
    assert r.returncode == 2
    assert "not a valid epistemic state" in r.stdout


def test_cli_validate_empty_support_exit2(files):
    r = subprocess.run(
        [sys.executable, "-m", "toytheory.cli", "state", "validate",
         str(files / "empty_support.json")],
        capture_output=True, text=True, env=_env(), timeout=60)
    assert r.returncode == 2
    assert "not a valid epistemic state" in r.stdout


def test_cli_validate_non_coset_support_exit2(files):
    # four points, a power of 2, whose differences span three dimensions
    r = _run(["state", "validate", str(files / "non_coset_support.json")])
    assert r.returncode == 2
    assert "not a valid epistemic state" in r.stdout


def test_cli_validate_nonisotropic_exit2(files):
    r = _run(["state", "validate", str(files / "nonisotropic.json")])
    assert r.returncode == 2


def test_cli_missing_file_exit1(files):
    r = _run(["state", "show", str(files / "nope.json")])
    assert r.returncode == 1


@pytest.mark.parametrize("doc", [
    {"field": "rational", "n": 1, "generators": [[0.1, 0]],
     "valuation": [0.3, 0]},
    {"field": "prime", "d": 3, "n": 1, "generators": [[0.1, 0]],
     "valuation": [0, 0]},
    {"field": "prime", "d": 2.9, "n": 1, "generators": [[1, 0]],
     "valuation": [1, 0]},
    # not a float, but without an exact value too
    {"field": "rational", "n": 1, "generators": [[1, 0]],
     "valuation": ["1/0", 0]},
])
def test_cli_float_entries_exit1(tmp_path, doc):
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    r = _run(["state", "show", str(path)])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error:")
    assert len(r.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("doc", BOOLEAN_DOCS)
def test_cli_boolean_entries_exit1(tmp_path, doc):
    # "d": true once exited 2 with "d=1 is not prime"
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    r = _run(["state", "show", str(path)])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error:")
    assert "True" in r.stderr or "False" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_cli_tensor_and_marginal(files):
    r = _run(["--format", "json", "state", "tensor",
              str(files / "one.json"), str(files / "zero.json")])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    got = serialize.state_from_json(doc)
    assert states_equal(got, tensor(toy_bit("1"), toy_bit("0")))
    r = _run(["--format", "json", "state", "marginal",
              str(files / "plus_zero.json"), "--keep", "2"])
    assert states_equal(serialize.state_from_json(json.loads(r.stdout)),
                        toy_bit("0"))


def test_cli_mix_reports_invalid(files):
    r = _run(["state", "mix", str(files / "zero.json"),
              str(files / "plus.json")])
    assert r.returncode == 0
    assert "not a valid epistemic state" in r.stdout


def test_cli_evolve_gate_and_verify(files):
    r = _run(["--format", "json", "evolve", str(files / "plus_zero.json"),
              "--gate", "cnot:1,2", "--verify"])
    assert r.returncode == 0
    got = serialize.state_from_json(json.loads(r.stdout))
    assert states_equal(got, bell_pair(2))


@pytest.mark.parametrize("gate", ["cnot:0,2", "swap:1,5", "qp_swap:0"])
def test_cli_evolve_rejects_systems_outside_the_state(files, gate):
    r = _run(["evolve", str(files / "plus_zero.json"), "--gate", gate])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "system index" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args, message", [
    (["--keep", "0"], "system index 0 is outside 1..2 (n=2)"),
    (["--keep", "3"], "system index 3 is outside 1..2 (n=2)"),
    (["--keep", "1,1"], "--keep 1,1 names a system twice"),
    (["--keep", "-1"], "system index -1 is outside 1..2 (n=2)"),
    (["--gate", "cnot:0,2"], "system index 0 is outside 1..2 (n=2)"),
    (["--gate", "swap:1,5"], "system index 5 is outside 1..2 (n=2)"),
], ids=["keep-0", "keep-3", "keep-1,1", "keep--1", "cnot:0,2", "swap:1,5"])
def test_cli_names_a_bad_system_index_as_typed(files, args, message):
    # the message names the 1-based index the user typed, in one line
    command = ["state", "marginal"] if args[0] == "--keep" else ["evolve"]
    r = _run([*command, str(files / "plus_zero.json"), *args])
    assert (r.returncode, r.stdout, r.stderr) == (2, "", message + "\n")


def test_cli_evolve_rejects_nonsymplectic(files):
    r = _run(["evolve", str(files / "plus.json"),
              "--transform", str(files / "bad_transform.json")])
    assert r.returncode == 2


def test_cli_measure_with_outcome_and_verify(files):
    r = _run(["--format", "json", "measure", str(files / "plus.json"),
              str(files / "mz.json"), "--outcome", "0", "--verify"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["probabilities"] == {"(0,)": "1/2", "(1,)": "1/2"}
    assert states_equal(serialize.state_from_json(doc["post_state"]),
                        toy_bit("0"))


def test_cli_measure_verify_three_trits(tmp_path):
    state = tmp_path / "trits.json"
    state.write_text(json.dumps(
        {"field": "prime", "d": 3, "n": 3, "generators": [[1, 0, 1, 0, 0, 0]],
         "valuation": [0, 0, 0, 0, 0, 0]}))
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps({"observables": [[0, 1, 0, 0, 0, 0]]}))
    r = _run(["measure", str(state), str(meas), "--verify", "--outcome", "0"])
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("n, observables, overlay", [
    (1, [(1, 1)], "0110"),
    (2, [(1, 0, 0, 1)], "1010\n1010\n0101\n0101"),
    (2, [(1, 0, 1, 0), (0, 1, 0, 1)], "3210\n2301\n1032\n0123"),
], ids=["q+p", "qA+pB", "bell"])
def test_partition_overlay_text_is_pinned(n, observables, overlay):
    # the box -> outcome index grid `measure` prints; one system is a row of
    # boxes, two are system A's boxes bottom to top by system B's left to
    # right
    m = make_measurement(discrete_space(2, n), observables)
    assert cli._partition_overlay(m, outcomes(m)) == overlay


def test_cli_measure_impossible_outcome_exit2(files):
    r = _run(["measure", str(files / "zero.json"), str(files / "mz.json"),
              "--outcome", "1"])
    assert r.returncode == 2


def test_cli_measure_sampling_deterministic(files):
    r1 = _run(["measure", str(files / "plus.json"), str(files / "mz.json"),
               "--seed", "7"])
    r2 = _run(["measure", str(files / "plus.json"), str(files / "mz.json"),
               "--seed", "7"])
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_cli_global_flags_after_subcommand(files):
    r = _run(["state", "show", str(files / "plus.json"), "--format", "json"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["generators"] == [[0, 1]]


def test_cli_show_rational_entries_as_fractions(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"field": "rational", "n": 1,
                                "generators": [["1/2", 0]],
                                "valuation": ["3/4", 0]}))
    r = _run(["state", "show", str(path)])
    assert r.returncode == 0
    assert "Fraction(" not in r.stdout
    assert r.stdout.splitlines()[-1] == "  [1, 0] = 3/4"


def test_cli_decimal_formatting(files):
    r = _run(["--decimal", "3", "measure", str(files / "plus.json"),
              str(files / "mz.json"), "--outcome", "0"])
    assert "0.500" in r.stdout
    # exact rounding, half up: 1/2 at K = 0 is 1, not float's even 0
    r = _run(["--decimal", "0", "measure", str(files / "plus.json"),
              str(files / "mz.json"), "--outcome", "0"])
    assert r.returncode == 0
    assert "  (0,): 1\n  (1,): 1\n" in r.stdout
    # a Z measurement of every system of three mixed bits: eight 1/8 rows
    (files / "mixed3.json").write_text(json.dumps(
        {"field": "prime", "d": 2, "n": 3, "generators": [],
         "valuation": [0] * 6}))
    (files / "mz3.json").write_text(json.dumps(
        {"observables": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                         [0, 0, 0, 0, 1, 0]]}))
    r = _run(["--decimal", "2", "measure", str(files / "mixed3.json"),
              str(files / "mz3.json"), "--outcome", "0,0,0"])
    assert r.returncode == 0
    assert r.stdout.count(": 0.13\n") == 8
    cases = [(Fraction(1, 2), 0, "1"), (Fraction(1, 8), 2, "0.13"),
             (Fraction(1, 16), 3, "0.063"), (Fraction(1, 3), 2, "0.33"),
             (Fraction(2, 3), 0, "1"), (Fraction(0), 0, "0"),
             (Fraction(0), 3, "0.000"), (Fraction(1), 0, "1"),
             (Fraction(1), 2, "1.00")]
    for p, k, text in cases:
        assert cli._fmt_prob(argparse.Namespace(decimal=k), p) == text


@pytest.mark.parametrize("before_command", [True, False])
def test_cli_rejects_a_negative_decimal(files, before_command):
    measure = ["measure", str(files / "plus.json"), str(files / "mz.json")]
    flag = ["--decimal", "-1"]
    r = _run(flag + measure if before_command else measure + flag)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error:") and "--decimal" in r.stderr


def test_cli_enum_cap_env_exit3(files):
    r = _run(["state", "mix", str(files / "mixed2.json"),
              str(files / "mixed2.json")], env_extra={"TOY_ENUM_CAP": "4"})
    assert r.returncode == 3


@pytest.mark.parametrize("value", ["abc", "1e3", "0", "-3"])
def test_cli_rejects_a_bad_enum_cap_env(files, value):
    r = _run(["state", "show", str(files / "plus.json")],
             env_extra={"TOY_ENUM_CAP": value})
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error: TOY_ENUM_CAP must be an integer")


# Every place a command reads a JSON document, DOC standing for the
# document's path and PLUS for a valid state's: the command line, the
# document's kind, a document of that kind without a required key, and what
# the error says of it.  A config file requires no key, so its second
# document sets something that is not a flag.
_NO_GENERATORS = {"field": "prime", "d": 2, "n": 1, "known": [[1, 0]],
                  "valuation": [0, 0]}
_READERS = {
    "show": (["state", "show", "DOC"], "state", _NO_GENERATORS,
             "missing 'generators'"),
    "validate-state": (["state", "validate", "DOC"], "state",
                       {"field": "prime", "d": 2, "n": 1,
                        "generators": [[1, 0]]}, "missing 'valuation'"),
    "validate-support": (["state", "validate", "DOC"], "state",
                         {"field": "prime", "n": 1, "support": [[0, 0]]},
                         "missing 'd'"),
    "tensor": (["state", "tensor", "PLUS", "DOC"], "state",
               {"field": "prime", "d": 2, "generators": [],
                "valuation": [0, 0]}, "missing 'n'"),
    "mix": (["state", "mix", "PLUS", "DOC"], "state", _NO_GENERATORS,
            "missing 'generators'"),
    "evolve": (["evolve", "PLUS", "--transform", "DOC"], "transform",
               {"shift": [0, 0]}, "missing 'U'"),
    "measure": (["measure", "PLUS", "DOC"], "measurement",
                {"outcomes": [[1, 0]]}, "missing 'observables'"),
    "config": (["scenario", "bell", "--config", "DOC"], "config",
               {"format": "json"}, "'format' is not a scenario flag"),
}


@pytest.mark.parametrize("bad", ["array", "missing-key"])
@pytest.mark.parametrize("reader", list(_READERS))
def test_cli_bad_documents_are_schema_errors(files, reader, bad):
    argv, kind, missing, what = _READERS[reader]
    path = files / "bad.json"
    if bad == "array":
        path.write_text("[1, 2]")
        what = "expected a JSON object"
    else:
        path.write_text(json.dumps(missing))
    paths = {"DOC": str(path), "PLUS": str(files / "plus.json")}
    r = _run([paths.get(a, a) for a in argv])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.splitlines() == [f"{kind} schema error in {path}: {what}"]


def test_cli_evolve_takes_the_rational_space_from_the_state(tmp_path):
    # a transform without field/d/n acts on the state's QQ space
    state = tmp_path / "half.json"
    state.write_text(json.dumps({"field": "rational", "n": 1,
                                 "generators": [[1, 0]],
                                 "valuation": ["1/2", 0]}))
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps({"U": [[1, 0], [0, 1]],
                                 "shift": ["1/3", 0]}))
    r = _run(["--format", "json", "evolve", str(state),
              "--transform", str(shift)])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["valuation"] == ["5/6", 0]


def test_cli_measure_outcome_label_follows_the_entry_rules(tmp_path):
    state = tmp_path / "trit.json"
    state.write_text(json.dumps({"field": "prime", "d": 3, "n": 1,
                                 "generators": [], "valuation": [0, 0]}))
    meas = tmp_path / "mq.json"
    meas.write_text(json.dumps({"observables": [[1, 0]]}))
    half, two = (_run(["measure", str(state), str(meas), "--outcome", label])
                 for label in ("1/2", "2"))
    assert half.returncode == two.returncode == 0, half.stderr
    assert half.stdout == two.stdout and "outcome: (2,)" in half.stdout


def test_cli_measure_takes_a_negative_label_after_an_equals_sign(tmp_path):
    # "--outcome -5/2" reads the label as an option (argparse, exit 2)
    state = tmp_path / "q.json"
    state.write_text(json.dumps({"field": "rational", "n": 1,
                                 "generators": [[1, 0]],
                                 "valuation": ["-5/2", 0]}))
    meas = tmp_path / "mq.json"
    meas.write_text(json.dumps({"observables": [[1, 0]]}))
    r = _run(["measure", str(state), str(meas), "--outcome=-5/2"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-3:] == [
        "post-measurement state:", "n=1 field=QQ knowledge=1",
        "  [1, 0] = -5/2"]


def test_cli_scenario_bell_and_condprep(files):
    r = _run(["scenario", "bell", "--d", "3"])
    assert r.returncode == 0 and "PASS" in r.stdout
    r = _run(["--format", "json", "scenario", "condprep-search",
              "--targets", "0,1"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdict"]["matches_no_go"] is True
    assert doc["config"] == {"d": 2, "targets": ["0", "1"], "ancilla": 0}


@pytest.mark.parametrize("targets, names", [
    ("0,0", ["0", "0"]), ("0, 0", ["0", "0"]), ("+, +", ["+", "+"]),
    ("0, +", ["0", "+"])])
def test_cli_condprep_search_compares_target_states(targets, names):
    # a space after the comma names the same state: identical targets can
    # be prepared, and the config records the names without the space
    r = _run(["--format", "json", "scenario", "condprep-search",
              "--targets", targets])
    assert r.returncode == 0, r.stdout
    doc = json.loads(r.stdout)
    assert doc["passed"] and doc["verdict"]["matches_no_go"] is True
    assert doc["config"]["targets"] == names


def test_cli_condprep_search_with_a_memory_ancilla():
    r = _run(["--format", "json", "scenario", "condprep-search",
              "--targets", "0,+", "--ancilla", "1"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] and doc["verdict"]["matches_no_go"] is True
    # every (U, a) of Sp(6,2) x Z_2^6 is covered: 1451520 x 64
    assert doc["verdict"]["searched"] == 92897280 == 1451520 * 64
    search = next(e for e in doc["events"] if e["kind"] == "search")
    assert (search["frames"], search["found"]) == (2016, False)


@pytest.mark.parametrize("flags, message", [
    (["--d", "3"], "supports only --d 2, got 3"),
    (["--ancilla", "-1"], "ancilla_systems must be at least 0, got -1"),
    (["--ancilla", "-2"], "ancilla_systems must be at least 0, got -2"),
    (["--group-cap", "0"], "group_cap must be at least 1, got 0"),
    (["--group-cap", "-1"], "group_cap must be at least 1, got -1"),
])
def test_cli_condprep_search_rejects_bad_input(flags, message):
    r = _run(["scenario", "condprep-search", "--targets", "0,1", *flags])
    assert r.returncode == 1
    assert "input error" in r.stderr and message in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("name, d", [("wigner", "5"), ("wigner", "3"),
                                     ("forgetting", "3")])
def test_cli_toy_bit_scenarios_reject_other_dimensions(name, d):
    # like condprep-search, they would otherwise print the d = 2 report
    r = _run(["scenario", name, "--d", d])
    assert r.returncode == 1
    assert "input error" in r.stderr
    assert f"{name} supports only --d 2, got {d}" in r.stderr
    assert r.stdout == ""
    r = _run(["scenario", name, "--d", "2"])
    assert r.returncode == 0 and "PASS" in r.stdout


def test_cli_condprep_search_frame_cap():
    r = _run(["scenario", "condprep-search", "--targets", "0,+",
              "--ancilla", "2"])
    assert r.returncode == 3
    assert "32640 symplectic frames" in r.stderr and "12000" in r.stderr


def test_cli_scenario_fr_sampled(files):
    r = _run(["scenario", "fr-search", "--samples", "25", "--seed", "3"])
    assert r.returncode == 0
    assert "no_paradox_found: True" in r.stdout


@pytest.mark.parametrize("flags, message", [
    (["--exhaustive", "--workers", "0"], "workers must be at least 1"),
    (["--exhaustive", "--workers", "-2"], "workers must be at least 1"),
    (["--spot-checks", "-5"], "spot_checks must be at least 0"),
    (["--samples", "0"], "samples must be at least 1"),
    (["--samples", "-3"], "samples must be at least 1"),
])
def test_cli_scenario_fr_rejects_bad_counts(flags, message):
    r = _run(["scenario", "fr-search", *flags])
    assert r.returncode == 1
    assert "input error" in r.stderr and message in r.stderr
    assert r.stdout == ""


def test_cli_scenario_fr_sampled_mutated_is_an_input_error():
    # sampled mode has no weakened control, so it must not print PASS
    r = _run(["scenario", "fr-search", "--d", "3", "--samples", "20",
              "--mutated"])
    assert r.returncode == 1
    assert "input error" in r.stderr and "weaken_condition1" in r.stderr
    assert r.stdout == ""


def test_cli_scenario_fr_rejected_exhaustive_request_prints_no_progress():
    r = _run(["scenario", "fr-search", "--d", "3", "--exhaustive"])
    assert r.returncode == 3
    assert "exhaustive mode covers d=2" in r.stderr
    assert "scanning" not in r.stderr
    assert r.stdout == ""
    # a valid request announces its scan
    r = _run(["scenario", "fr-search", "--exhaustive", "--spot-checks", "0"])
    assert r.returncode == 0
    assert "scanning 18 orbit representatives of 2295" in r.stderr


@pytest.mark.parametrize("overrides, message", [
    ({"workers": "2"}, "'workers' must be of type int"),
    ({"format": "json"}, "'format' is not a scenario flag"),
    ({"mutated": 1}, "'mutated' must be of type bool"),
])
def test_cli_scenario_config_rejects_bad_overrides(tmp_path, overrides,
                                                   message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    r = _run(["scenario", "bell", "--config", str(path)])
    assert r.returncode == 1
    assert message in r.stderr
    assert r.stdout == ""


def test_cli_scenario_config_sets_flags(tmp_path):
    from toytheory.cli import _SCENARIO_FLAGS, build_parser
    args = build_parser().parse_args(["scenario", "bell"])
    assert set(_SCENARIO_FLAGS) <= set(vars(args))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"d": 3, "tampered": True}))
    r = _run(["--format", "json", "scenario", "bell", "--config", str(path)])
    assert r.returncode == 0
    assert json.loads(r.stdout)["config"] == {"d": 3, "tampered": True}


def test_cli_config_accepts_exactly_the_scenario_flags(tmp_path):
    scenario = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)
                    ).choices["scenario"]
    values = {bool: True, int: 3, str: "0,1"}
    path = tmp_path / "config.json"
    accepted = set()
    for action in scenario._actions:
        typ = (bool if isinstance(action, argparse._StoreTrueAction)
               else action.type or str)
        path.write_text(json.dumps({action.dest: values[typ]}))
        args = argparse.Namespace()
        try:
            cli._apply_config(args, str(path))
        except cli._CliFailure:
            continue
        assert vars(args) == {action.dest: values[typ]}
        accepted.add(action.dest)
    flags = {a.dest for a in scenario._actions if a.option_strings}
    assert accepted == flags - {"help", "format", "decimal", "config"}
