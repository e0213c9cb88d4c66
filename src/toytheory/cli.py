"""Command-line front end.

Subcommands
    state validate|show|marginal|tensor|mix
    evolve        apply a gate or explicit transform to a state
    measure       probability table, outcome selection/sampling, update
    scenario      bell | wigner | forgetting | fr-search | condprep-search

Every JSON document a command reads ("-" is stdin) goes through `_load`:
a non-object or a missing key is "<kind> schema error in PATH: ...", a
float entry an "input error" (both exit 1).  A transform or measurement
takes the field/d/n it leaves out from the state it acts on.

Exit codes: 0 pass, 1 I/O or schema error, 2 domain error (invalid state,
non-symplectic matrix, impossible outcome, scenario verdict mismatch),
3 enumeration/search cap exceeded or a rational field refused where a
command enumerates or samples.  TOY_ENUM_CAP (an integer >= 1, exit 1
otherwise) is the one explicit-enumeration limit.  System indices on the
command line are 1-based ("cnot:1,2" copies system 1 onto system 2); the
library API is 0-based.  All numbers print exactly (integers and a/b
rationals); pass --decimal K for K-digit decimal probabilities.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import serialize
from .algebra import GF, rref
from .config import DEFAULT_GROUP_CAP
from .dynamics import (
    ConditionalPrepSpec, _supports_disjoint, apply_to_ontic, apply_to_state,
    find_conditional_transform, gate_library,
)
from .errors import (
    EnumerationCapExceeded, ImpossibleOutcome, NotIsotropic,
    SearchSpaceExceeded, ToyTheoryError,
)
from .measurement import (
    _draw, branches, is_certain, label_text, outcome_for_label,
    outcome_from_valuation, outcomes, update_state,
)
from .oracle import oracle_probability, oracle_smallest_update
from .phase_space import _require_prime, discrete_space
from .scenarios import (
    DEFAULT_SPOT_CHECKS, ScenarioReport, check_fr_request, run_bell,
    run_forgetting, run_wigner_friend, search_fr_paradox,
)
from .states import (
    is_valid_support, knowledge_bits, marginal, maximally_mixed,
    mixture_support, ontic_support, render_grid, tensor, toy_bit,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_CAP = 3


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path: str, parse=serialize.state_from_json, kind: str = "state",
          space=None):
    """The one reader of a CLI document: `parse` (a state's by default)
    applied to the JSON object in file `path` (stdin for "-"), with the
    field/d/n it leaves out taken from `space` when one is given."""
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        raise _CliFailure(
            EXIT_IO, f"{kind} schema error in {path}: expected a JSON object")
    if space is not None:
        doc = {**serialize.space_to_json(space), **doc}
    try:
        return parse(doc)
    except KeyError as e:
        raise _CliFailure(
            EXIT_IO, f"{kind} schema error in {path}: missing {e}")
    except TypeError as e:  # an entry of the wrong type, such as a float
        raise _CliFailure(EXIT_IO, f"input error: {e}")


def _valid_state(doc: dict):
    """The state a state or support document gives; None for a support
    that is no state's."""
    if "support" in doc:
        return is_valid_support(serialize.support_from_json(doc))
    return serialize.state_from_json(doc)


def _emit(args, text_fn, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, indent=2, default=str))
    else:
        print(text_fn())


def _fmt_prob(args, p: Fraction) -> str:
    """``p`` exactly, or rounded half up to K decimals (p >= 0)."""
    if args.decimal is None:
        return str(p)
    scale = 10 ** args.decimal
    whole, digits = divmod(int(p * scale + Fraction(1, 2)), scale)
    return f"{whole}.{digits:0{args.decimal}d}" if args.decimal else str(whole)


def _state_text(s) -> str:
    lines = [f"n={s.space.n_systems} field={s.space.field} "
             f"knowledge={knowledge_bits(s)}"]
    if _has_grid(s.space):
        lines.append(render_grid(s).to_ascii())
    else:
        for g in s.known.basis:
            entries = ", ".join(str(x) for x in g)
            lines.append(f"  [{entries}] = {s.value_of(g)}")
        if not s.known.basis:
            lines.append("  (maximal ignorance)")
    return "\n".join(lines)


def _has_grid(space) -> bool:
    """Grid diagrams draw toy bits on one or two systems."""
    return space.d == 2 and space.n_systems in (1, 2)


# ---------------------------------------------------------------------------
# state subcommands
# ---------------------------------------------------------------------------

def _cmd_state(args) -> int:
    paths = args.input
    if args.action in ("tensor", "mix") and len(paths) < 2:
        raise _CliFailure(EXIT_IO, f"{args.action} needs at least two states")
    if args.action == "mix":
        return _state_mix(args, [_load(p) for p in paths])
    if args.action == "validate":
        try:
            state = _load(paths[0], _valid_state, "state")
        except NotIsotropic as e:
            print(f"not a valid epistemic state: {e}")
            return EXIT_DOMAIN
        if state is None:
            print("not a valid epistemic state")
            return EXIT_DOMAIN
    elif args.action == "marginal":
        state = _load(paths[0])
        if not args.keep:
            raise _CliFailure(EXIT_IO, "marginal needs --keep")
        keep = _zero_based_systems(args.keep, state.space.n_systems)
        if len(set(keep)) != len(keep):
            raise _CliFailure(EXIT_DOMAIN,
                              f"--keep {args.keep} names a system twice")
        state = marginal(state, keep)
    elif args.action == "tensor":
        state = functools.reduce(tensor, map(_load, paths))
    else:  # show
        state = _load(paths[0])
    _emit(args, lambda: _state_text(state), serialize.state_to_json(state))
    return EXIT_OK


def _state_mix(args, parts) -> int:
    sup = mixture_support(parts)
    state = is_valid_support(sup)
    doc = serialize.support_to_json(sup)
    doc["valid"] = state is not None
    if state is not None:
        doc["state"] = serialize.state_to_json(state)

    def text():
        lines = [f"mixture support: {len(sup)} ontic states"]
        if _has_grid(sup.space):
            lines.append(render_grid(sup).to_ascii())
        lines.append("valid epistemic state" if state is not None
                     else "not a valid epistemic state")
        return "\n".join(lines)

    _emit(args, text, doc)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    state = _load(args.state)
    if args.gate:
        t = gate_library(state.space, _gate_to_zero_based(
            args.gate, state.space.n_systems))
    elif args.transform:
        t = _load(args.transform, serialize.transform_from_json, "transform",
                  state.space)
    else:
        raise _CliFailure(EXIT_IO, "evolve needs --gate or --transform")
    out = apply_to_state(t, state)
    if args.verify:
        pushed = {apply_to_ontic(t, o) for o in ontic_support(state).members}
        if pushed != set(ontic_support(out).members):
            raise _CliFailure(EXIT_DOMAIN,
                              "verify failed: ontic pushforward mismatch")
    _emit(args, lambda: _state_text(out), serialize.state_to_json(out))
    return EXIT_OK


def _zero_based_systems(text: str, n: int) -> list[int]:
    """Comma-separated 1-based system indices, as 0-based ones; an index
    outside 1..n exits 2, named as typed."""
    systems = [int(x) for x in text.split(",")]
    for s in systems:
        if not 1 <= s <= n:
            raise _CliFailure(EXIT_DOMAIN,
                              f"system index {s} is outside 1..{n} (n={n})")
    return [s - 1 for s in systems]


def _gate_to_zero_based(spec: str, n: int) -> str:
    head, _, tail = spec.partition(":")
    if head in ("cnot", "swap", "qp_swap") and tail:
        return head + ":" + ",".join(map(str, _zero_based_systems(tail, n)))
    return spec


def _partition_overlay(m, outs) -> str | None:
    """Label every grid box with the index of the outcome containing it."""
    if not _has_grid(m.space):
        return None
    index = {o: i for i, o in enumerate(outs)}  # outs are all of m's outcomes
    return render_grid(maximally_mixed(m.space), labeler=lambda x: index[
        outcome_from_valuation(m, x)]).to_ascii()


def _cmd_measure(args) -> int:
    """Over Z_p one `branches` table gives every outcome's probability, the
    drawn outcome and the post-state.  Over QQ the outcomes are infinite,
    so only the outcome --outcome names is measured, by one `update_state`:
    it raises `ImpossibleOutcome` or `NotPointMass` unless the outcome has
    probability 1."""
    state = _load(args.state)
    m = _load(args.measurement, serialize.measurement_from_json,
              "measurement", state.space)
    if args.outcome is None:
        _require_prime(state.field, "measure without --outcome")
        chosen = None
    else:
        chosen = outcome_for_label(m, args.outcome.split(","))
    if state.space.d is None:
        outs = [chosen]
        probs = {chosen: Fraction(1)}
        posts = {chosen: update_state(state, m, chosen)}
    else:
        table = branches(state, m)
        outs = outcomes(m)
        probs = dict.fromkeys(outs, Fraction(0))
        posts = {}
        for out, p, after in table:
            probs[out], posts[out] = p, after
        if chosen is None:
            chosen = _draw(state, table, args.seed)
    if chosen not in posts:
        raise ImpossibleOutcome(
            f"outcome {label_text(chosen.label)} has probability 0")
    post = posts[chosen]
    if not is_certain(post, m, chosen):
        raise _CliFailure(EXIT_DOMAIN, "repeatability self-check failed")
    if args.verify:
        for o in outs:
            if oracle_probability(state, m, o) != probs[o]:
                raise _CliFailure(EXIT_DOMAIN, "verify failed: oracle mismatch")
        if set(oracle_smallest_update(state, m, chosen).members) != \
                set(ontic_support(post).members):
            raise _CliFailure(EXIT_DOMAIN, "verify failed: update mismatch")
    doc = {
        "probabilities": {label_text(o.label): str(probs[o]) for o in outs},
        "outcome": list(chosen.label),
        "post_state": serialize.state_to_json(post),
    }

    def text():
        lines = []
        overlay = _partition_overlay(m, outs)
        if overlay is not None:
            lines.append("measurement partition (box -> outcome index):")
            lines.append(overlay)
        lines.append("outcome probabilities:")
        for o in outs:
            lines.append(f"  {label_text(o.label)}: "
                         f"{_fmt_prob(args, probs[o])}")
        lines.append(f"outcome: {label_text(chosen.label)}")
        lines.append("post-measurement state:")
        lines.append(_state_text(post))
        return "\n".join(lines)

    _emit(args, text, doc)
    return EXIT_OK


# Every scenario flag as (type, default, help): the `scenario` parser and
# a `--config` file both read this table.  A bool flag is a switch.
_SCENARIO_FLAGS = {
    "d": (int, 2, None),
    "tampered": (bool, False, None),
    "exhaustive": (bool, False, None),
    "workers": (int, 1, None),
    "seed": (int, 0, None),
    "samples": (int, 2000, None),
    "spot_checks": (int, DEFAULT_SPOT_CHECKS, None),
    "mutated": (bool, False,
                "fr-search --exhaustive: weaken the inference conditions "
                "(sensitivity control; finds false positives)"),
    "targets": (str, None, "condprep-search: e.g. 0,+"),
    "ancilla": (int, 0, None),
    "group_cap": (int, DEFAULT_GROUP_CAP, None),
}


def _apply_config(args, path: str):
    for key, val in _load(path, dict, "config").items():
        attr = key.replace("-", "_")
        if attr not in _SCENARIO_FLAGS:
            raise _CliFailure(EXIT_IO, f"config schema error in {path}: "
                                       f"{key!r} is not a scenario flag")
        typ = _SCENARIO_FLAGS[attr][0]
        if type(val) is not typ:
            raise _CliFailure(
                EXIT_IO, f"config schema error in {path}: {key!r} must be "
                         f"of type {typ.__name__}, got {json.dumps(val)}")
        setattr(args, attr, val)


def _cmd_scenario(args) -> int:
    name = args.name
    if args.config:
        _apply_config(args, args.config)
    if name == "bell":
        report = run_bell(args.d, tampered=args.tampered)
    elif name == "wigner":
        _require_d2(name, args.d)
        report = run_wigner_friend()
    elif name == "forgetting":
        _require_d2(name, args.d)
        report = run_forgetting()
    elif name == "fr-search":
        request = {"d": args.d, "exhaustive": args.exhaustive,
                   "workers": args.workers, "samples": args.samples,
                   "spot_checks": args.spot_checks,
                   "weaken_condition1": args.mutated}
        check_fr_request(**request)  # no progress line for a bad request
        if args.exhaustive and args.format == "text":
            print("scanning 18 orbit representatives of 2295 pure known-sets "
                  "at one valuation each, weighted x 16 valuations, "
                  "x block-local measurements...",
                  file=sys.stderr)
        report = search_fr_paradox(**request, seed=args.seed)
    else:  # condprep-search
        report = _condprep_search(args)

    def text():
        lines = [f"scenario {report.name}: "
                 f"{'PASS' if report.passed else 'FAIL'}"]
        for event in report.events:
            s = event.get("state")
            if event["kind"] == "state" and _has_grid(s.space):
                lines.append(f"  state {event.get('label', '')}:")
                lines.extend("    " + row for row in
                             render_grid(s).to_ascii().splitlines())
        for k, v in report.verdict.items():
            lines.append(f"  {k}: {v}")
        return "\n".join(lines)

    _emit(args, text, report.to_jsonable())
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _require_d2(name: str, d: int) -> None:
    """The toy-bit scenarios take no other dimension: exit 1 for one."""
    if d != 2:
        raise ValueError(f"{name} supports only --d 2, got {d}")


def _condprep_search(args):
    _require_d2("condprep-search", args.d)
    names = (args.targets or "0,+").split(",")
    targets = tuple(toy_bit(n.strip()) for n in names)
    if len(targets) != 2:
        raise _CliFailure(EXIT_IO, "condprep-search needs two targets")
    spec = ConditionalPrepSpec(
        source_space=discrete_space(2, 1),
        source_known=rref(GF(2), 2, [(1, 0)]),
        source_valuations=((0, 0), (1, 0)),
        target_initial=toy_bit("0"),
        desired_targets=targets)
    result = find_conditional_transform(
        spec, ancilla_systems=args.ancilla, exhaustive=True,
        group_cap=args.group_cap)
    report = ScenarioReport(
        "condprep_search",
        {"d": args.d, "targets": names, "ancilla": args.ancilla})
    report.log("search", searched=result.searched, frames=result.frames,
               found=result.transform is not None)
    orthogonal_or_identical = names[0] == names[1] or \
        _supports_disjoint(*targets)
    report.verdict["matches_no_go"] = (
        (result.transform is not None) == orthogonal_or_identical)
    report.verdict["searched"] = result.searched
    if result.transform is None:
        report.log("result", message=f"NotFound ({result.searched} transforms "
                                     f"searched over {result.frames} frames)")
    return report


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toytheory",
        description="Exact epistemic-state simulator and no-go verifier.")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--decimal", type=int, default=None,
                    help="print probabilities with K decimal digits")
    # accept the global options after the subcommand too
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--decimal", type=int, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    st = sub.add_parser("state", parents=[common],
                        help="validate/show/marginal/tensor/mix")
    st.add_argument("action", choices=("validate", "show", "marginal",
                                       "tensor", "mix"))
    st.add_argument("input", nargs="+", help="state JSON file(s), - for stdin")
    st.add_argument("--keep", help="1-based systems to keep (marginal)")
    st.set_defaults(run=_cmd_state)

    ev = sub.add_parser("evolve", parents=[common],
                        help="apply a gate or transform")
    ev.add_argument("state")
    ev.add_argument("--gate", help="e.g. cnot:1,2 qp_swap swap:1,2 (1-based)")
    ev.add_argument("--transform", help="transform JSON file")
    ev.add_argument("--verify", action="store_true",
                    help="cross-check the ontic pushforward with the oracle")
    ev.set_defaults(run=_cmd_evolve)

    me = sub.add_parser("measure", parents=[common],
                        help="measure a state")
    me.add_argument("state")
    me.add_argument("measurement")
    me.add_argument("--outcome",
                    help="comma-separated label; sampled if absent.  Write "
                         "a label that starts with '-' as --outcome=-5/2")
    me.add_argument("--seed", type=int, default=0)
    me.add_argument("--verify", action="store_true",
                    help="cross-check probabilities and update with the oracle")
    me.set_defaults(run=_cmd_measure)

    sc = sub.add_parser("scenario", parents=[common],
                        help="run a canned experiment or search")
    sc.add_argument("name", choices=("bell", "wigner", "forgetting",
                                     "fr-search", "condprep-search"))
    for attr, (typ, default, text) in _SCENARIO_FLAGS.items():
        flag = "--" + attr.replace("_", "-")
        if typ is bool:
            sc.add_argument(flag, action="store_true", help=text)
        else:
            sc.add_argument(flag, type=typ, default=default, help=text)
    sc.add_argument("--config", help="JSON file of flag overrides")
    sc.set_defaults(run=_cmd_scenario)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.decimal is not None and args.decimal < 0:
            raise _CliFailure(EXIT_IO, "input error: --decimal must be at "
                                       f"least 0, got {args.decimal}")
        return args.run(args)
    except _CliFailure as e:
        print(str(e), file=sys.stderr)
        return e.code
    except (EnumerationCapExceeded, SearchSpaceExceeded) as e:
        print(str(e), file=sys.stderr)
        return EXIT_CAP
    except ToyTheoryError as e:
        print(str(e), file=sys.stderr)
        return EXIT_DOMAIN
    except (KeyError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
