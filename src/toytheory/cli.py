"""Command-line front end.

Subcommands
    state validate|show|marginal|tensor|mix
    evolve        apply a gate or explicit transform to a state
    measure       probability table, outcome selection/sampling, update
    scenario      bell | wigner | forgetting | fr-search | condprep-search

Exit codes: 0 pass, 1 I/O or schema error, 2 domain error (invalid state,
non-symplectic matrix, impossible outcome, scenario verdict mismatch),
3 enumeration/search cap exceeded.  TOY_ENUM_CAP (an integer >= 1, exit 1
otherwise) is the one explicit-enumeration limit.  System indices on the
command line are 1-based ("cnot:1,2" copies system 1 onto system 2); the
library API is 0-based.  All numbers print exactly (integers and a/b
rationals); pass --decimal K for K-digit decimal probabilities.
"""

from __future__ import annotations

import argparse
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
    EnumerationCapExceeded, NotIsotropic, SearchSpaceExceeded, ToyTheoryError,
)
from .measurement import (
    is_certain, outcome_for_label, outcome_from_valuation,
    outcome_probability, outcomes, sample_outcome, update_state,
)
from .oracle import oracle_probability, oracle_smallest_update
from .phase_space import discrete_space
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


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {e}")


def _from_json(parse, doc: dict):
    """Parse a loaded document; an entry of the wrong type, such as a
    float, is a schema error."""
    try:
        return parse(doc)
    except TypeError as e:
        raise _CliFailure(EXIT_IO, f"input error: {e}")


def _load_state(path: str):
    doc = _load_json(path)
    try:
        return _from_json(serialize.state_from_json, doc)
    except KeyError as e:
        raise _CliFailure(EXIT_IO, f"state schema error in {path}: missing {e}")


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
    if s.space.d == 2 and s.space.n_systems in (1, 2):
        lines.append(render_grid(s).to_ascii())
    else:
        for g in s.known.basis:
            entries = ", ".join(str(x) for x in g)
            lines.append(f"  [{entries}] = {s.value_of(g)}")
        if not s.known.basis:
            lines.append("  (maximal ignorance)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# state subcommands
# ---------------------------------------------------------------------------

def _cmd_state(args) -> int:
    if args.action == "validate":
        doc = _load_json(args.input[0])
        if "support" in doc:
            sup = _from_json(serialize.support_from_json, doc)
            state = is_valid_support(sup)
            if state is None:
                print("not a valid epistemic state")
                return EXIT_DOMAIN
            _emit(args, lambda: _state_text(state), serialize.state_to_json(state))
            return EXIT_OK
        try:
            state = _from_json(serialize.state_from_json, doc)
        except NotIsotropic as e:
            print(f"not a valid epistemic state: {e}")
            return EXIT_DOMAIN
        _emit(args, lambda: _state_text(state), serialize.state_to_json(state))
        return EXIT_OK
    if args.action == "show":
        state = _load_state(args.input[0])
        _emit(args, lambda: _state_text(state), serialize.state_to_json(state))
        return EXIT_OK
    if args.action == "marginal":
        state = _load_state(args.input[0])
        if not args.keep:
            raise _CliFailure(EXIT_IO, "marginal needs --keep")
        keep = [int(x) - 1 for x in args.keep.split(",")]
        out = marginal(state, keep)
        _emit(args, lambda: _state_text(out), serialize.state_to_json(out))
        return EXIT_OK
    if args.action == "tensor":
        if len(args.input) < 2:
            raise _CliFailure(EXIT_IO, "tensor needs at least two states")
        out = _load_state(args.input[0])
        for path in args.input[1:]:
            out = tensor(out, _load_state(path))
        _emit(args, lambda: _state_text(out), serialize.state_to_json(out))
        return EXIT_OK
    if args.action == "mix":
        if len(args.input) < 2:
            raise _CliFailure(EXIT_IO, "mix needs at least two states")
        parts = [_load_state(p) for p in args.input]
        sup = mixture_support(parts)
        state = is_valid_support(sup)
        doc = serialize.support_to_json(sup)
        doc["valid"] = state is not None
        if state is not None:
            doc["state"] = serialize.state_to_json(state)

        def text():
            lines = [f"mixture support: {len(sup)} ontic states"]
            if sup.space.d == 2 and sup.space.n_systems in (1, 2):
                lines.append(render_grid(sup).to_ascii())
            lines.append("valid epistemic state" if state is not None
                         else "not a valid epistemic state")
            return "\n".join(lines)

        _emit(args, text, doc)
        return EXIT_OK
    raise _CliFailure(EXIT_IO, f"unknown state action {args.action}")


def _cmd_evolve(args) -> int:
    state = _load_state(args.state)
    if args.gate:
        spec = _gate_to_zero_based(args.gate)
        t = gate_library(state.space, spec)
    elif args.transform:
        doc = _load_json(args.transform)
        doc.setdefault("field", "prime")
        doc.setdefault("n", state.space.n_systems)
        if state.space.d is not None:
            doc.setdefault("d", state.space.d)
        t = _from_json(serialize.transform_from_json, doc)
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


def _gate_to_zero_based(spec: str) -> str:
    head, _, tail = spec.partition(":")
    if head in ("cnot", "swap", "qp_swap") and tail:
        parts = [str(int(x) - 1) for x in tail.split(",")]
        return head + ":" + ",".join(parts)
    return spec


def _partition_overlay(m, outs) -> str | None:
    """Label every grid box with the index of the outcome containing it."""
    space = m.space
    if space.d != 2 or space.n_systems not in (1, 2):
        return None
    index = {o: i for i, o in enumerate(outs)}  # outs are all of m's outcomes
    return render_grid(maximally_mixed(space), labeler=lambda x: index[
        outcome_from_valuation(m, x)]).to_ascii()


def _cmd_measure(args) -> int:
    state = _load_state(args.state)
    mdoc = _load_json(args.measurement)
    mdoc.setdefault("field", "prime")
    mdoc.setdefault("n", state.space.n_systems)
    if state.space.d is not None:
        mdoc.setdefault("d", state.space.d)
    m = _from_json(serialize.measurement_from_json, mdoc)
    outs = outcomes(m)
    probs = {o: outcome_probability(state, m, o) for o in outs}
    if args.outcome is not None:
        label = tuple(int(x) for x in args.outcome.split(","))
        chosen = outcome_for_label(m, label)
    else:
        chosen = sample_outcome(state, m, args.seed)
    post = update_state(state, m, chosen)
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
        "probabilities": {str(o.label): str(probs[o]) for o in outs},
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
            lines.append(f"  {o.label}: {_fmt_prob(args, probs[o])}")
        lines.append(f"outcome: {chosen.label}")
        lines.append("post-measurement state:")
        lines.append(_state_text(post))
        return "\n".join(lines)

    _emit(args, text, doc)
    return EXIT_OK


# The flags a `scenario --config` file may set, with the type of each value.
_SCENARIO_FLAGS = {
    "d": int, "tampered": bool, "exhaustive": bool, "workers": int,
    "seed": int, "samples": int, "spot_checks": int, "mutated": bool,
    "targets": str, "ancilla": int, "group_cap": int,
}


def _apply_config(args, path: str):
    overrides = _load_json(path)
    if not isinstance(overrides, dict):
        raise _CliFailure(EXIT_IO, f"{path}: expected a JSON object of flags")
    for key, val in overrides.items():
        attr = key.replace("-", "_")
        typ = _SCENARIO_FLAGS.get(attr)
        if typ is None:
            raise _CliFailure(EXIT_IO, f"{path}: {key!r} is not a scenario flag")
        if type(val) is not typ:
            raise _CliFailure(
                EXIT_IO, f"{path}: {key!r} must be of type {typ.__name__}, "
                         f"got {json.dumps(val)}")
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
    elif name == "condprep-search":
        report = _condprep_search(args)
    else:
        raise _CliFailure(EXIT_IO, f"unknown scenario {name}")

    def text():
        lines = [f"scenario {report.name}: "
                 f"{'PASS' if report.passed else 'FAIL'}"]
        for event in report.events:
            if event["kind"] == "state" and "state" in event:
                s = event["state"]
                if getattr(s, "space", None) is not None and \
                        s.space.d == 2 and s.space.n_systems in (1, 2):
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

    ev = sub.add_parser("evolve", parents=[common],
                        help="apply a gate or transform")
    ev.add_argument("state")
    ev.add_argument("--gate", help="e.g. cnot:1,2 qp_swap swap:1,2 (1-based)")
    ev.add_argument("--transform", help="transform JSON file")
    ev.add_argument("--verify", action="store_true",
                    help="cross-check the ontic pushforward with the oracle")

    me = sub.add_parser("measure", parents=[common],
                        help="measure a state")
    me.add_argument("state")
    me.add_argument("measurement")
    me.add_argument("--outcome", help="comma-separated label; sampled if absent")
    me.add_argument("--seed", type=int, default=0)
    me.add_argument("--verify", action="store_true",
                    help="cross-check probabilities and update with the oracle")

    sc = sub.add_parser("scenario", parents=[common],
                        help="run a canned experiment or search")
    sc.add_argument("name", choices=("bell", "wigner", "forgetting",
                                     "fr-search", "condprep-search"))
    sc.add_argument("--d", type=int, default=2)
    sc.add_argument("--tampered", action="store_true")
    sc.add_argument("--exhaustive", action="store_true")
    sc.add_argument("--workers", type=int, default=1)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--samples", type=int, default=2000)
    sc.add_argument("--spot-checks", type=int, default=DEFAULT_SPOT_CHECKS)
    sc.add_argument("--mutated", action="store_true",
                    help="fr-search --exhaustive: weaken the inference "
                         "conditions (sensitivity control; finds false "
                         "positives)")
    sc.add_argument("--targets", help="condprep-search: e.g. 0,+")
    sc.add_argument("--ancilla", type=int, default=0)
    sc.add_argument("--group-cap", type=int, default=DEFAULT_GROUP_CAP)
    sc.add_argument("--config", help="JSON file of flag overrides")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.decimal is not None and args.decimal < 0:
            raise _CliFailure(EXIT_IO, "input error: --decimal must be at "
                                       f"least 0, got {args.decimal}")
        if args.command == "state":
            return _cmd_state(args)
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "measure":
            return _cmd_measure(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        return EXIT_IO
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
