"""Multi-agent experiments: Bell inference, an observed observer, forgetting
with explicit memories, and the four-agent nested-measurement no-go search.

The four-agent setting places systems in the order R, A, S, B: Alice measures
R, Bob measures S, Ursula measures R+A, Wigner measures S+B, each outcome
given by its label, the values of its measurement's canonical generators.
A "paradox" would be a state and measurements where, from the initial
description, U=ok implies B=1, B=1 implies A=1, A=1 implies W=fail, and yet
(ok, ok) for Ursula and Wigner has positive probability.  A candidate
holds the state, the four measurements and the five labels A=1, B=1, U=ok,
W=ok and W=fail that the chain and P(ok, ok) read.  Whether W's ok and fail
coincide is decided in one place, `check_fr_conditions`' `w_outcomes_equal`:
the seven necessary conditions force them to (the derivation is in that
docstring), and the exhaustive search confirms there is no paradox at d = 2
with one toy bit per block.

The seven conditions are the chain's `measurement.inference_conditions`
pairs plus P(ok, ok) > 0: one exact kernel for the condition report, the
chain and the sampled search, which the scan's bit-packed tables must match.

Two readings of the inference chain are implemented and reported: the primary
one evaluates every inference against the single initial state; the
sequential one walks the branch tree of the four measurements in order and
checks branchwise consistency.  Both find no paradox.
"""

from __future__ import annotations

import functools
import math
import random
import zlib
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from . import _gf2
from .algebra import Subspace, enumerate_coset, rref
from .dynamics import (
    apply_to_state, cnot_gate, compose_transforms, random_symplectic,
    swap_gate,
)
from .errors import DimensionMismatch, SearchSpaceExceeded
from .measurement import (
    Measurement, Outcome, _level_branches, inference_conditions, infers,
    is_certain, make_measurement, outcome_for_label, outcome_from_valuation,
    outcome_probability, update_state,
)
from .oracle import oracle_conditional
from .phase_space import (
    PhaseSpace, discrete_space, is_isotropic, supported_systems,
)
from .states import (
    EpistemicState, is_valid_support, make_state, marginal,
    maximally_mixed, mixture_support, ontic_support, state_from_values,
    states_equal, tensor, tensor_all, toy_bit,
)


@dataclass
class ScenarioReport:
    """Structured, replayable record of a canned experiment or search."""

    name: str
    config: dict
    events: list = dc_field(default_factory=list)
    verdict: dict = dc_field(default_factory=dict)

    def log(self, kind: str, **data):
        self.events.append({"kind": kind, **data})

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.verdict.values())

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "config": _jsonable(self.config),
            "events": _jsonable(self.events),
            "verdict": _jsonable(self.verdict),
            "passed": self.passed,
        }


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (EpistemicState, Subspace, Outcome, Measurement)):
        return repr(x)
    return x


# ---------------------------------------------------------------------------
# canned scenarios
# ---------------------------------------------------------------------------

def run_bell(d: int = 2, tampered: bool = False) -> ScenarioReport:
    """Momentum-correlated pair: Bob's outcome fixes Alice's with certainty.

    The shared state knows q_1 + q_2 = 1 and p_1 - p_2 = 0; Bob measures p of
    his system and infers Alice's p outcome.  With ``tampered`` the state is
    replaced by the uncorrelated product of two position eigenstates, and
    every inference fails (the control case).
    """
    space = discrete_space(d, 2)
    f = space.field
    report = ScenarioReport("bell", {"d": d, "tampered": tampered})
    if tampered:
        state = state_from_values(space, [((1, 0, 0, 0), 0), ((0, 0, 1, 0), 0)])
    else:
        state = make_state(space, [(1, 0, 1, 0), (0, 1, 0, f.neg(1))],
                           (1, 0, 0, 0))
    m_bob = make_measurement(space, [(0, 0, 0, 1)])
    m_alice = make_measurement(space, [(0, 1, 0, 0)])
    report.log("state", state=state)
    all_infer = True
    for p in f.elements():
        out_b = outcome_for_label(m_bob, (p,))
        out_a = outcome_for_label(m_alice, (p,))
        premise = outcome_probability(state, m_bob, out_b)
        ok = infers(state, m_bob, out_b, m_alice, out_a)
        all_infer = all_infer and ok
        entry = {
            "outcome_p": int(p), "premise_probability": premise,
            "vacuous": premise == 0, "infers": ok,
        }
        if premise > 0:
            post = update_state(state, m_bob, out_b)
            entry["post_state"] = post
            entry["alice_certain"] = is_certain(post, m_alice, out_a)
        report.log("inference", **entry)
    if tampered:
        report.verdict["control_fails_as_expected"] = not all_infer
    else:
        report.verdict["all_inferences_hold"] = all_infer
    return report


def run_wigner_friend() -> ScenarioReport:
    """One agent measures inside the lab; an outsider describes the same
    interaction as a reversible copy.  Both descriptions are valid states of
    knowledge about the same ontic state."""
    space = discrete_space(2, 2)  # systems: R (measured), A (Alice's memory)
    report = ScenarioReport("wigner_friend", {"d": 2})
    s0 = tensor(toy_bit("+"), toy_bit("0"))
    report.log("state", label="initial", state=s0)
    wigner = apply_to_state(cnot_gate(space, 0, 1), s0)
    report.log("state", label="wigner", state=wigner)
    m_mem = make_measurement(space, [(0, 0, 1, 0)])
    checks = {}
    checks["wigner_is_pure"] = wigner.is_pure()
    checks["wigner_marginals_mixed"] = all(
        states_equal(marginal(wigner, [i]), maximally_mixed(discrete_space(2, 1)))
        for i in (0, 1))
    expected = {0: tensor(toy_bit("0"), toy_bit("0")),
                1: tensor(toy_bit("1"), toy_bit("1"))}
    for a in (0, 1):
        out = outcome_for_label(m_mem, (a,))
        alice = update_state(wigner, m_mem, out)
        report.log("state", label=f"alice_a{a}", state=alice)
        checks[f"alice_{a}_expected"] = states_equal(alice, expected[a])
        checks[f"alice_{a}_inside_outcome"] = ontic_support(alice).members <= \
            frozenset(enumerate_coset(out.coset()))
        checks[f"alice_{a}_consistent_with_wigner"] = bool(
            ontic_support(alice).members & ontic_support(wigner).members)
    report.verdict.update(checks)
    return report


def run_forgetting() -> ScenarioReport:
    """Swap one memory register with a mixed environment: the record of the
    second measurement is lost, the first survives, and the three-state
    union is confirmed invalid as a state of knowledge."""
    report = ScenarioReport("forgetting", {"d": 2})
    space = discrete_space(2, 5)  # S1, S2, M1, M2, E
    initial = tensor_all([toy_bit("1"), toy_bit("+"), toy_bit("0"),
                          toy_bit("0"), toy_bit("mix")])
    report.log("state", label="initial", state=initial)
    update = compose_transforms(cnot_gate(space, 1, 3), cnot_gate(space, 0, 2))
    forget = compose_transforms(swap_gate(space, 3, 4), update)
    final = apply_to_state(forget, initial)
    report.log("state", label="final", state=final)
    kept = marginal(final, [0, 2])
    lost = marginal(final, [1, 3])
    two = discrete_space(2, 2)
    report.verdict["first_record_correlated"] = states_equal(
        kept, state_from_values(two, [((1, 0, 0, 0), 1), ((0, 0, 1, 0), 1)]))
    report.verdict["second_record_fully_mixed"] = states_equal(
        lost, maximally_mixed(two))
    union = mixture_support([
        tensor(toy_bit("0"), toy_bit("0")),
        tensor(toy_bit("1"), toy_bit("0")),
        tensor(toy_bit("1"), toy_bit("1")),
    ])
    report.log("support", label="three_state_union", size=len(union))
    report.verdict["three_state_union_invalid"] = (
        len(union) == 12 and is_valid_support(union) is None)
    return report


# ---------------------------------------------------------------------------
# the four-agent candidate and its algebraic conditions
# ---------------------------------------------------------------------------

# One toy bit per block: the layout of the exhaustive search.
_FR_BLOCKS = (1, 1, 1, 1)


def _fr_systems(blocks: Sequence[int]) -> dict:
    """The systems each agent measures, for blocks R, A, S, B of these sizes
    in that order: A on R, B on S, U on R+A, W on S+B."""
    n_r, n_a, n_s, n_b = blocks
    s_start = n_r + n_a
    return {"A": range(n_r), "B": range(s_start, s_start + n_s),
            "U": range(s_start), "W": range(s_start, s_start + n_s + n_b)}


@dataclass(frozen=True)
class FRCandidate:
    """A complete four-agent configuration on R ⊕ A ⊕ S ⊕ B.

    Measurement subspaces are block-local: each V_X lies on the systems
    `_fr_systems` gives agent X (V_A on R, V_B on S, V_U on R+A, V_W on
    S+B).  It holds the five outcomes the argument reads, each named by a
    key, "A=1", "B=1", "U=ok", "W=ok" or "W=fail", as `_FR_CHAIN`'s links
    name them, and given by its label: the values of its measurement's
    canonical generators (`outcome`), one per generator, so a label of the
    wrong length raises DimensionMismatch.  W's ok and fail may label the
    same outcome; `check_fr_conditions` reports whether they do.
    """

    initial: EpistemicState
    blocks: tuple
    v_a: Subspace
    v_b: Subspace
    v_u: Subspace
    v_w: Subspace
    a1: tuple
    b1: tuple
    u_ok: tuple
    w_ok: tuple
    w_fail: tuple

    def __post_init__(self):
        systems = _fr_systems(self.blocks)
        space = self.initial.space
        if space.n_systems != sum(self.blocks):
            raise DimensionMismatch("blocks do not sum to the state's systems")
        for agent, meas in self.measurements().items():
            if not all(supported_systems(space, g) <= set(systems[agent])
                       for g in meas.observables.basis):
                raise DimensionMismatch(f"V_{agent} leaves its block")
        for key in ("A=1", "B=1", "U=ok", "W=ok", "W=fail"):
            self.outcome(key)

    @property
    def space(self) -> PhaseSpace:
        return self.initial.space

    def measurements(self) -> dict:
        return {agent: Measurement(self.space, v) for agent, v in
                zip("ABUW", (self.v_a, self.v_b, self.v_u, self.v_w))}

    def outcome(self, which: str) -> Outcome:
        sub, label = {
            "A=1": (self.v_a, self.a1), "B=1": (self.v_b, self.b1),
            "U=ok": (self.v_u, self.u_ok), "W=ok": (self.v_w, self.w_ok),
            "W=fail": (self.v_w, self.w_fail),
        }[which]
        return outcome_for_label(Measurement(self.space, sub), label)

    @functools.cached_property
    def p_ok_ok(self) -> Fraction:
        """P(U=ok, W=ok) on the initial state, from the joint U+W measurement.

        V_U lies on R+A, whose coordinates come before those of S+B, where
        V_W lies, so the joint canonical generators are V_U's followed by
        V_W's and the joint label is U's ok label followed by W's.
        """
        joint = make_measurement(self.space, self.v_u.basis + self.v_w.basis)
        joint_out = outcome_for_label(joint, self.outcome("U=ok").label
                                      + self.outcome("W=ok").label)
        return outcome_probability(self.initial, joint, joint_out)


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple  # the seven, in order
    all_hold: bool
    p_ok_ok: Fraction
    w_outcomes_equal: bool


# The chain's three inferences: (link, premise agent, premise outcome,
# conclusion agent, conclusion outcome).  The chain on the initial state
# reports each link as infers_<link>, the sequential one as stmt_<link>.
_FR_CHAIN = (("u_b", "U", "U=ok", "B", "B=1"),
             ("b_a", "B", "B=1", "A", "A=1"),
             ("a_w", "A", "A=1", "W", "W=fail"))


def check_fr_conditions(c: FRCandidate) -> ConditionReport:
    """Evaluate the seven algebraic conditions any paradox would need.

    (c1, c5), (c2, c6) and (c3, c7) are the two `inference_conditions` of
    U=ok => B=1, B=1 => A=1 and A=1 => W=fail on the initial state: V_Y ⊆
    K_X ⊕ V_X (K_X the commutant of V_X within V), and the values of K_X,
    X's outcome and Y's outcome are jointly solvable.  c4 is P(ok, ok) > 0.
    With x1 and y1 any points of the two outcomes, a solution exists iff
    a.x1 + b.y1 = (a + b).v for a in V_X, b in V_Y with a + b in K_X.
    `FRCandidate` keeps each V_X in its own block, so each outcome has
    points supported on that block; for such x1 and y1 the cross terms
    a.y1, b.x1 vanish, the two blocks of each pair being disjoint, and the
    solvability is the membership y1 + x1 - v ⊥ (V_Y ⊕ V_X) ∩ K_X that the
    packed scan tests (c4 likewise, with K_X = V).

    When all seven hold, W's ok and fail are one outcome, so no
    configuration with distinct W outcomes survives.  Write x.g for the
    value that outcome x gives g in its measurement's subspace (the same at
    every point of x), and take any g in V_W.  c3, c2 and c1 decompose it:
    g = k_A + a, a = k_B + b and b = k_U + u, with each k_X in K_X and
    a, b, u in V_A, V_B, V_U.  Then c7 with the pair (-a, g), whose sum k_A
    lies in K_A, gives W=fail.g = A=1.a + v.k_A; c6 with (-b, a) gives
    A=1.a = B=1.b + v.k_B; and c5 with (-u, b) gives B=1.b = U=ok.u + v.k_U.
    So W=fail.g = U=ok.u + v.(k_A + k_B + k_U).  That sum g - u lies in V,
    so c4 with the pair (-u, g) gives W=ok.g the same value.  W's ok and
    fail agree on every g in V_W, which makes them the same outcome
    (``w_outcomes_equal``).  The argument uses only K_X ⊆ V, never that K_X
    commutes with V_X, so it holds over any field, QQ included, and at any
    block sizes.
    """
    m = c.measurements()
    subsets, members = zip(*(
        inference_conditions(c.initial, m[pa], c.outcome(po), m[ca],
                             c.outcome(co))
        for _, pa, po, ca, co in _FR_CHAIN))
    conditions = subsets + (c.p_ok_ok > 0,) + members
    return ConditionReport(conditions, all(conditions), c.p_ok_ok,
                           c.outcome("W=ok") == c.outcome("W=fail"))


def _fr_chain(rep: ConditionReport) -> dict:
    """The operational chain read off the seven conditions: each inference
    is its condition pair, and the chain holds when all seven do."""
    c = rep.conditions
    r = {f"infers_{link}": c[i] and c[i + 4]
         for i, (link, *_) in enumerate(_FR_CHAIN)}
    r["p_ok_ok"] = rep.p_ok_ok
    r["holds"] = rep.all_hold
    return r


def fr_chain_initial(c: FRCandidate) -> dict:
    """The operational chain, every inference evaluated on the initial state."""
    return _fr_chain(check_fr_conditions(c))


def fr_chain_sequential(c: FRCandidate) -> dict:
    """Walk the measurement branches in order A, B, U, W and check the chain
    branchwise: ``stmt_<link>`` holds when every leaf with the link's
    premise has its conclusion.  ``holds`` needs all three and a positive
    (U, W) = (ok, ok) leaf, on which they force B = 1, A = 1 and W = fail.
    So ``holds`` implies that W's ok and fail are the same outcome, and it
    is false for every candidate with distinct W outcomes, whatever the
    walk returns.

    The walk goes a level per agent and carries only valuations: the
    post-measurement known subspace does not depend on the outcome, so
    `_level_branches` returns it once with the whole level, from one
    elimination, and it is the known subspace of the next level."""
    m = c.measurements()
    known = c.initial.known
    tree = [({}, c.initial.valuation, Fraction(1))]
    for agent in "ABUW":
        known, level = _level_branches(c.space, known,
                                       [v for _, v, _ in tree], m[agent])
        tree = [(dict(outs, **{agent: out}), v, prob * p)
                for (outs, _, prob), found in zip(tree, level)
                for out, p, v in found]
    ok_ok = (c.outcome("U=ok"), c.outcome("W=ok"))
    r = {"p_ok_ok": sum((prob for outs, _, prob in tree
                         if (outs["U"], outs["W"]) == ok_ok), Fraction(0))}
    for link, pa, po, ca, co in _FR_CHAIN:
        premise, conclusion = c.outcome(po), c.outcome(co)
        r[f"stmt_{link}"] = all(outs[ca] == conclusion for outs, _, _ in tree
                                if outs[pa] == premise)
    r["holds"] = r["p_ok_ok"] > 0 and all(
        r[f"stmt_{link}"] for link, *_ in _FR_CHAIN)
    r["branch_count"] = len(tree)
    return r


# ---------------------------------------------------------------------------
# exhaustive no-paradox search, d = 2, one toy bit per block
# ---------------------------------------------------------------------------
#
# The scan works in bit-packed form (vectors of Z_2^8 as ints, sets of
# vectors as 256-bit masks).  For a state (V, v) and block-local measurement
# spaces with block-supported outcome vectors, the chain conditions reduce to
# three subset tests that depend only on V and four bit lookups per outcome
# and valuation:
#
#   U=ok  => B=1   <=>  V_B ⊆ K_U ⊕ V_U  and  b1+uok-v ⊥ (V_B ⊕ V_U) ∩ K_U
#   B=1   => A=1   <=>  V_A ⊆ K_B ⊕ V_B  and  a1+b1-v  ⊥ (V_B ⊕ V_A) ∩ K_B
#   A=1   => W=f   <=>  V_W ⊆ K_A ⊕ V_A  and  a1+wf-v  ⊥ (V_A ⊕ V_W) ∩ K_A
#   P(ok,ok) > 0   <=>                        uok+wok-v ⊥ (V_U ⊕ V_W) ∩ V
#
# with K_X the commutant of V_X inside V: the `inference_conditions` pairs
# of `check_fr_conditions`, cross-validated by spot checks.
#
# Per known-set the scan keeps the masks of conditions 5-7 in lists indexed
# by premise (t5 by V_B, t7 by V_A), holding only the pairs whose subset
# condition passes, so no lookup is spent on a pair that was never stored.
#
# Local symplectic maps on R, A, S and B, with the translations, map each
# measurement menu onto itself, outcomes onto outcomes, and keep all seven
# conditions (Spekkens, PRA 75, 032110, 2007).  So every counter of a state
# is the same at all valuations of its known-set and on the known-set's
# Sp(2,2)^4 orbit, and the 2295 known-sets fall into 18 orbits
# (`_fr_orbits`).  The scan takes (known-set, valuation, weight) items, one
# state each: the verdict scans one representative per orbit at v = 0,
# weighted by the orbit size times its valuation classes (2^8 valuations
# modulo V^⊥: 16), and one seeded other member of each orbit at a seeded
# nonzero valuation class and weight 0, whose counters, paradox count
# included, must equal its representative's.  The no-paradox verdict rests
# on that symmetry for the states it does not scan.  The calling process
# scans the whole item list, a few milliseconds; a pool of N workers divides
# only the spot checks, most of a second, worker i checking the draws i,
# i + N, i + 2N, ...


def _perp_of_elems(ortho, full: int, elems) -> int:
    mask = full
    for t in elems:
        mask &= ortho[t]
    return mask


class _FrMeas:
    __slots__ = ("basis", "elems", "perp", "jmperp", "outs")

    def __init__(self, basis: tuple, total_bits: int, block_bits: tuple):
        ortho = _gf2.ortho_table(total_bits)
        full = (1 << (1 << total_bits)) - 1
        self.basis = basis
        self.elems = _gf2.span_elements(basis)
        # x in perp: ok and fail valuations differing by x label one outcome
        self.perp = _perp_of_elems(ortho, full, basis)
        self.jmperp = _perp_of_elems(
            ortho, full, [_gf2.pairswap(b, total_bits) for b in basis])
        by_label = {}
        for u in sorted(block_bits):
            lab = tuple(_gf2.dot2(b, u) for b in basis)
            if lab not in by_label:
                by_label[lab] = u
        self.outs = tuple(by_label[lab] for lab in sorted(by_label))


def _fr_block_measurements(systems: range, total_bits: int) -> list:
    """The menu of one agent measuring ``systems``: every isotropic subspace
    of positive dimension on their 2·len(systems) bits."""
    offset, width = 2 * systems.start, 2 * len(systems)
    per_dim = _gf2.isotropic_bases(width)
    block = tuple(x << offset for x in range(1 << width))
    out = []
    for dim in range(1, width // 2 + 1):
        for basis in per_dim[dim]:
            shifted = tuple(b << offset for b in basis)
            out.append(_FrMeas(shifted, total_bits, block))
    return out


def _block_support(x: int) -> int:
    """The 4-bit set of the blocks R, A, S, B that the packed x touches."""
    return sum(1 << i for i in range(4) if (x >> 2 * i) & 3)


def _fr_orbits(lagrangians, support=_block_support) -> tuple:
    """The Lagrangians' classes under the key of `support`, as index tuples
    in enumerator order (each class and the classes by first member).

    The key of V is the multiset of the block supports of V's 16 elements,
    packed as the sum of 1 << 5·support(e).  An invertible local map keeps
    every vector's block support, so the key is an orbit invariant; the tests
    check that its classes are exactly the Sp(2,2)^4 orbits.
    """
    weight = [1 << 5 * support(x) for x in range(256)]
    classes: dict = {}
    for li, basis in enumerate(lagrangians):
        key = sum([weight[e] for e in _gf2.span_elements(basis)])
        classes.setdefault(key, []).append(li)
    return tuple(tuple(c) for c in classes.values())


class _FrTables:
    """All state- and measurement-independent precomputation for the scan."""

    def __init__(self):
        self.full = (1 << 256) - 1
        self.ortho = _gf2.ortho_table(8)
        self.lagrangians = _gf2.isotropic_bases(8)[4]
        # the first member of each orbit stands for it in the verdict's scan
        self.orbits = _fr_orbits(self.lagrangians)
        systems = _fr_systems(_FR_BLOCKS)
        self.meas_a, self.meas_b, self.meas_u, self.meas_w = (
            _fr_block_measurements(systems[agent], 8) for agent in "ABUW")

        def sums(xs, ys):
            return [[tuple(sorted({ex ^ ey for ex in x.elems for ey in y.elems}))
                     for y in ys] for x in xs]

        self.sum_bu = sums(self.meas_b, self.meas_u)   # [b][u]
        self.sum_ba = sums(self.meas_b, self.meas_a)   # [b][a]
        self.sum_aw = sums(self.meas_a, self.meas_w)   # [a][w]
        self.sum_uw = sums(self.meas_u, self.meas_w)   # [u][w]


@functools.cache
def _fr_tables() -> _FrTables:
    return _FrTables()


class _FrKernel:
    """The bit-packed conditions for one pure known-set V.

    The exhaustive scan and the single-configuration check both read these
    per-state masks: K_U, K_B, K_A (the commutants of V_U, V_B, V_A within
    V), the subset tables c1[u][b], c2[b][a], c3[a][w] of conditions 1-3,
    and for conditions 4-7 the masks t4(u, w), t5(u, b), t6(b, a), t7(a, w)
    of the vectors orthogonal to (V_U ⊕ V_W) ∩ V, (V_B ⊕ V_U) ∩ K_U,
    (V_B ⊕ V_A) ∩ K_B and (V_A ⊕ V_W) ∩ K_A.  Each table row and K_X mask
    comes from `premise_row`.  ``rows`` holds the u, b and a indices whose
    rows to build; the scan builds them all (the default), and the
    single-configuration check only its own, leaving the others None.
    """

    def __init__(self, t: _FrTables, basis: tuple, rows=None):
        self.t = t
        self.v_elems = _gf2.span_elements(basis)
        self.v_mask = _gf2.coset_mask(self.v_elems)
        menus = ((t.meas_u, t.meas_b), (t.meas_b, t.meas_a),
                 (t.meas_a, t.meas_w))
        if rows is None:
            rows = [range(len(xs)) for xs, _ in menus]
        (self.k_u, self.c1), (self.k_b, self.c2), (self.k_a, self.c3) = (
            self._subset_table(xs, ys, only)
            for (xs, ys), only in zip(menus, rows))

    def _subset_table(self, premises, conclusions, rows) -> tuple:
        kmasks, table = [None] * len(premises), [None] * len(premises)
        for x in rows:
            kmasks[x], table[x] = self.premise_row(premises[x], conclusions)
        return kmasks, table

    def premise_row(self, premise: _FrMeas, conclusions) -> tuple:
        """The K_X mask of premise X, and the row [y] of V_Y ⊆ K_X ⊕ V_X,
        tested as (K_X ⊕ V_X)^⊥ = K_X^⊥ ∩ V_X^⊥ ⊆ V_Y^⊥."""
        kmask = self.v_mask & premise.jmperp
        sum_perp = self._perp(self.v_elems, kmask) & premise.perp
        return kmask, [sum_perp & ~c.perp == 0 for c in conclusions]

    def _perp(self, sum_elems, kmask: int) -> int:
        return _perp_of_elems(self.t.ortho, self.t.full,
                              [x for x in sum_elems if (kmask >> x) & 1])

    def t4(self, u: int, w: int) -> int:
        return self._perp(self.t.sum_uw[u][w], self.v_mask)

    def t5(self, u: int, b: int) -> int:
        return self._perp(self.t.sum_bu[b][u], self.k_u[u])

    def t6(self, b: int, a: int) -> int:
        return self._perp(self.t.sum_ba[b][a], self.k_b[b])

    def t7(self, a: int, w: int) -> int:
        return self._perp(self.t.sum_aw[a][w], self.k_a[a])


# Benign all-seven tuples a scan keeps for the exact re-derivation: the
# first one in each of this many strata of its items (cut by position in the
# item list).
_FR_BENIGN_SAMPLES = 4

# Paradox tuples a scan keeps as its sample, the first ones it finds; past
# them it only counts, so a weakened scan's millions of false positives
# take no memory.
_FR_PARADOX_SAMPLES = 5

# The per-state counters of a scan, each summed with the item's weight.
_FR_COUNTERS = ("states", "valuation_tests", "quad_tests", "benign_all_seven")


def _fr_valuation_classes(t: _FrTables, li: int) -> int:
    """The states of known-set li: the 2^8 valuation vectors modulo V^⊥,
    whose members all give the same state."""
    perp = _perp_of_elems(t.ortho, t.full, t.lagrangians[li])
    return 256 // perp.bit_count()


def _fr_scan(t: _FrTables, items: Sequence[tuple],
             weaken_condition1: bool = False,
             stop_after: int | None = None) -> dict:
    """Scan the states of ``items``, (known-set index, valuation, weight)
    triples; exact, no sampling.

    Each state adds its counters ``weight`` times to the totals;
    ``counters`` lists them unweighted, as (index, counts in `_FR_COUNTERS`
    order followed by the item's paradox count) pairs.  ``paradox_count``
    counts the paradoxes of every item, ``paradox_sample`` keeps the first
    `_FR_PARADOX_SAMPLES` of them, and the benign sample comes from every
    item.  A state cut short by ``stop_after`` adds its partial counters
    once, whatever its weight.
    """
    meas_a, meas_b, meas_u, meas_w = t.meas_a, t.meas_b, t.meas_u, t.meas_w
    n_a, n_b, n_u, n_w = len(meas_a), len(meas_b), len(meas_u), len(meas_w)
    paradoxes: list[tuple] = []
    benign: list[tuple] = []
    stats = {"states": 0, "valuation_tests": 0, "quad_tests": 0,
             "benign_all_seven": 0, "paradox_count": 0,
             "paradox_sample": paradoxes, "benign_sample": benign,
             "counters": []}
    found = 0

    def tally(li: int, weight: int, counts: tuple, item_found: int) -> dict:
        stats["counters"].append((li, counts + (item_found,)))
        for key, n in zip(_FR_COUNTERS, counts):
            stats[key] += weight * n
        stats["paradox_count"] = found
        return stats

    sampled = -1  # the last stratum that kept a benign tuple
    for pos, (li, v, weight) in enumerate(items):
        stratum = pos * _FR_BENIGN_SAMPLES // len(items)
        k = _FrKernel(t, t.lagrangians[li])
        before = found

        # Conditions 5-7 are kept, per premise, only where their subset
        # condition holds, unless the control drops conditions 1-3.
        t5 = [[(u, k.t5(u, b), meas_u[u].outs) for u in range(n_u)
               if weaken_condition1 or k.c1[u][b]] for b in range(n_b)]
        t6 = [(b, a, k.t6(b, a)) for b in range(n_b) for a in range(n_a)
              if weaken_condition1 or k.c2[b][a]]
        t7 = [[(w, k.t7(a, w), meas_w[w].outs, meas_w[w].perp)
               for w in range(n_w) if weaken_condition1 or k.c3[a][w]]
              for a in range(n_a)]
        t4: dict = {}
        valuation_tests = quad_tests = benign_all_seven = 0

        l6: dict = {}
        for b, a, mask6 in t6:
            for b1 in meas_b[b].outs:
                for a1 in meas_a[a].outs:
                    valuation_tests += 1
                    if (mask6 >> (b1 ^ a1 ^ v)) & 1:
                        l6.setdefault((b, b1), []).append((a, a1))
        for (b, b1), a_list in l6.items():
            u_cands = []
            for u, mask5, outs_u in t5[b]:
                for uok in outs_u:
                    valuation_tests += 1
                    if (mask5 >> (b1 ^ uok ^ v)) & 1:
                        u_cands.append((u, uok))
            if not u_cands:
                continue
            for (a, a1) in a_list:
                for w, mask7, outs_w, wperp in t7[a]:
                    for wfail in outs_w:
                        valuation_tests += 1
                        if not (mask7 >> (a1 ^ wfail ^ v)) & 1:
                            continue
                        for (u, uok) in u_cands:
                            mask4 = t4.get((u, w))
                            if mask4 is None:
                                mask4 = t4[u, w] = k.t4(u, w)
                            for wok in outs_w:
                                quad_tests += 1
                                if not (mask4 >> (uok ^ wok ^ v)) & 1:
                                    continue
                                # all seven conditions hold here
                                tup = (li, v, a, a1, b, b1, u, uok, w, wok,
                                       wfail)
                                if (wperp >> (wok ^ wfail)) & 1:
                                    benign_all_seven += 1
                                    if stratum > sampled:
                                        benign.append(tup)
                                        sampled = stratum
                                    continue
                                found += 1
                                if found <= _FR_PARADOX_SAMPLES:
                                    paradoxes.append(tup)
                                if stop_after is not None and \
                                        found >= stop_after:
                                    return tally(li, 1, (
                                        1, valuation_tests, quad_tests,
                                        benign_all_seven), found - before)
        tally(li, weight, (1, valuation_tests, quad_tests, benign_all_seven),
              found - before)
    return stats


def _fr_worker(checks: Sequence[tuple]) -> dict:
    """One pool worker's share of the spot checks (`_fr_spot_checks`)."""
    return _fr_spot_checks(_fr_tables(), checks)


def _fr_orbit_draws(t: _FrTables, rng: random.Random) -> list:
    """(representative, member, valuation) for one random other member of
    every orbit larger than 1, at a random valuation outside the member's
    V^⊥, so a state other than the member's at v = 0."""
    draws = []
    for cls in t.orbits:
        if len(cls) > 1:
            member = rng.choice(cls[1:])
            perp = _perp_of_elems(t.ortho, t.full, t.lagrangians[member])
            v = rng.choice([x for x in range(256) if not (perp >> x) & 1])
            draws.append((cls[0], member, v))
    return draws


def _fr_conditions_single(t: _FrTables, li: int, v: int, a: int, a1: int,
                          b: int, b1: int, u: int, uok: int,
                          w: int, wok: int, wfail: int) -> tuple:
    """The seven conditions for one explicit configuration, from the masks
    the scan uses (for cross-checks), building only the table rows of its
    own premises u, b and a."""
    k = _FrKernel(t, t.lagrangians[li], ((u,), (b,), (a,)))
    return (k.c1[u][b], k.c2[b][a], k.c3[a][w],
            bool((k.t4(u, w) >> (uok ^ wok ^ v)) & 1),
            bool((k.t5(u, b) >> (b1 ^ uok ^ v)) & 1),
            bool((k.t6(b, a) >> (a1 ^ b1 ^ v)) & 1),
            bool((k.t7(a, w) >> (a1 ^ wfail ^ v)) & 1))


def _int_vec(x: int) -> tuple:
    return _gf2.int_to_vector(x, 8)


def _fr_candidate_from_ints(t: _FrTables, li: int, v: int, a: int, a1: int,
                            b: int, b1: int, u: int, uok: int, w: int,
                            wok: int, wfail: int) -> FRCandidate:
    space = discrete_space(2, 4)
    state = make_state(space, [_int_vec(g) for g in t.lagrangians[li]],
                       _int_vec(v))

    v_a, v_b, v_u, v_w = (
        rref(space.field, 8, [_int_vec(g) for g in meas.basis])
        for meas in (t.meas_a[a], t.meas_b[b], t.meas_u[u], t.meas_w[w]))

    def label(sub: Subspace, x: int) -> tuple:
        # the exact dots, not `_gf2.dot2`: this side checks the packed one
        m = Measurement(space, sub)
        return outcome_from_valuation(m, _int_vec(x)).label

    return FRCandidate(
        initial=state, blocks=_FR_BLOCKS,
        v_a=v_a, v_b=v_b, v_u=v_u, v_w=v_w,
        a1=label(v_a, a1), b1=label(v_b, b1), u_ok=label(v_u, uok),
        w_ok=label(v_w, wok), w_fail=label(v_w, wfail),
    )


def _random_fr_tuple(t: _FrTables, rng: random.Random) -> tuple:
    """A random (li, v, a, a1, b, b1, u, uok, w, wok, wfail), wok != wfail."""
    li = rng.randrange(len(t.lagrangians))
    v = rng.randrange(256)
    a = rng.randrange(len(t.meas_a))
    b = rng.randrange(len(t.meas_b))
    u = rng.randrange(len(t.meas_u))
    w = rng.randrange(len(t.meas_w))
    a1 = rng.choice(t.meas_a[a].outs)
    b1 = rng.choice(t.meas_b[b].outs)
    uok = rng.choice(t.meas_u[u].outs)
    wok = rng.choice(t.meas_w[w].outs)
    wfail = rng.choice([x for x in t.meas_w[w].outs if x != wok])
    return (li, v, a, a1, b, b1, u, uok, w, wok, wfail)


def _fr_spot_checks(t: _FrTables, checks: Sequence[tuple]) -> dict:
    """Cross-validate the bit-packed scan against the general machinery.

    ``checks`` holds (configuration tuple, sequential) pairs.  For each
    configuration the seven bit-level conditions must equal the exact ones
    (`check_fr_conditions`, evaluated once); the chain read off them must
    equal the bit-level condition pairs (so it fails only with the first
    test); each inference must agree with the set-enumeration oracle's
    conditional probability; and where ``sequential`` is set the sequential
    branch reading must never assemble a paradox.
    """
    result = {"checked": 0, "sequential_checked": 0,
              "conditions_agree": True, "chain_matches_conditions": True,
              "oracle_agrees": True, "sequential_paradoxes": 0}
    for tup, sequential in checks:
        fast = _fr_conditions_single(t, *tup)
        cand = _fr_candidate_from_ints(t, *tup)
        rep = check_fr_conditions(cand)
        if rep.conditions != fast:
            result["conditions_agree"] = False
        chain = _fr_chain(rep)
        if (chain["p_ok_ok"] > 0) != fast[3]:
            result["chain_matches_conditions"] = False
        m = cand.measurements()
        for i, (link, pa, po, ca, co) in enumerate(_FR_CHAIN):
            inferred = chain[f"infers_{link}"]
            if inferred != (fast[i] and fast[i + 4]):
                result["chain_matches_conditions"] = False
            cond = oracle_conditional(cand.initial, m[pa], cand.outcome(po),
                                      m[ca], cand.outcome(co))
            if inferred != (cond is not None and cond == 1):
                result["oracle_agrees"] = False
        if sequential:
            result["sequential_checked"] += 1
            if fr_chain_sequential(cand)["holds"]:
                result["sequential_paradoxes"] += 1
        result["checked"] += 1
    return result


_SPOT_COUNTS = ("checked", "sequential_checked", "sequential_paradoxes")
_SPOT_FLAGS = ("conditions_agree", "chain_matches_conditions",
               "oracle_agrees")


def _merge_spot_checks(parts: Sequence[dict]) -> dict:
    """The spot-check shares joined: counts summed, flags and-ed."""
    merged = dict(parts[0])
    for p in parts[1:]:
        for key in _SPOT_COUNTS:
            merged[key] += p[key]
        for key in _SPOT_FLAGS:
            merged[key] = merged[key] and p[key]
    return merged


def _fr_rederive(t: _FrTables, sample: Sequence[tuple]) -> bool:
    """True iff there is a sample and, for every sampled tuple the scan
    counted as benign all-seven, the exact report has all seven conditions
    holding and W's ok and fail equal."""
    reports = (check_fr_conditions(_fr_candidate_from_ints(t, *tup))
               for tup in sample)
    return bool(sample) and all(rep.all_hold and rep.w_outcomes_equal
                                for rep in reports)


def _random_block_subspace(space: PhaseSpace, rng: random.Random,
                           systems: range) -> Subspace:
    """A random isotropic subspace on ``systems``, of a random dimension
    from 1 to len(systems), drawn first."""
    field = space.field
    dim = rng.randint(1, len(systems))
    coords = [c for s in systems for c in space.system_coords(s)]
    while True:
        rows = []
        for _ in range(dim):
            row = [field.zero] * space.ambient_dim
            for c in coords:
                row[c] = field.coerce(rng.randrange(field.p))
            rows.append(tuple(row))
        sub = rref(field, space.ambient_dim, rows)
        if sub.dim == dim and is_isotropic(sub):
            return sub


def _fr_sampled_search(d: int, blocks: tuple, rng: random.Random,
                       samples: int, sequential_checks: int) -> dict:
    n = sum(blocks)
    space = discrete_space(d, n)
    field = space.field
    base = state_from_values(
        space, [(tuple(field.one if j == 2 * i else field.zero
                       for j in range(2 * n)), 0) for i in range(n)])
    systems = _fr_systems(blocks)
    found = []
    sequential_paradoxes = 0

    def pick_outcome(sub: Subspace) -> tuple:
        return tuple([field.coerce(rng.randrange(field.p)) for _ in sub.basis])

    def pick_other_outcome(sub: Subspace, ok: tuple) -> tuple:
        while True:
            fail = pick_outcome(sub)
            if fail != ok:
                return fail

    for i in range(samples):
        state = apply_to_state(random_symplectic(space, rng), base)
        v_a, v_b, v_u, v_w = (_random_block_subspace(space, rng, systems[x])
                              for x in "ABUW")
        uok = pick_outcome(v_u)
        wok = pick_outcome(v_w)
        wfail = pick_other_outcome(v_w, wok)
        cand = FRCandidate(
            initial=state, blocks=blocks, v_a=v_a, v_b=v_b, v_u=v_u, v_w=v_w,
            a1=pick_outcome(v_a), b1=pick_outcome(v_b),
            u_ok=uok, w_ok=wok, w_fail=wfail)
        rep = check_fr_conditions(cand)
        if rep.all_hold and not rep.w_outcomes_equal:
            found.append(i)
        if i < sequential_checks:
            if fr_chain_sequential(cand)["holds"]:
                sequential_paradoxes += 1
    return {"samples": samples, "paradoxes": found,
            "sequential_paradoxes": sequential_paradoxes}


def _pool_context():
    """``fork`` where the platform offers it (workers inherit the built FR
    tables), else the platform's default start method (each worker then
    builds its own tables on first use)."""
    import multiprocessing as mp
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


# Random configurations cross-checked after an exhaustive scan, unless the
# caller asks for another number (library and CLI share this default).
DEFAULT_SPOT_CHECKS = 200


def check_fr_request(d: int = 2, blocks: tuple = _FR_BLOCKS,
                     exhaustive: bool = False, workers: int = 1,
                     samples: int = 2000,
                     spot_checks: int = DEFAULT_SPOT_CHECKS,
                     sequential_checks: int = 48,
                     weaken_condition1: bool = False,
                     stop_after: int | None = None) -> None:
    """Raise what `search_fr_paradox` raises for these arguments, before
    any work.

    ValueError when ``blocks`` is not four ints of at least 1 (the toy
    bits of R, A, S and B), when ``workers`` < 1, ``spot_checks`` < 0,
    ``sequential_checks`` < 0 or ``stop_after`` < 1, and in sampled mode
    when ``samples`` < 1 (a verdict over no samples would pass on no
    evidence), with ``weaken_condition1`` (it has no weakened control to
    run) or with any ``stop_after`` (it draws all its samples);
    SearchSpaceExceeded for an exhaustive search other than d = 2 with one
    toy bit per block.
    """
    if not (isinstance(blocks, (tuple, list)) and len(blocks) == 4
            and all(type(b) is int and b >= 1 for b in blocks)):
        raise ValueError(
            f"blocks must be four ints of at least 1, got {blocks!r}")
    bounds = [("workers", workers, 1), ("spot_checks", spot_checks, 0),
              ("sequential_checks", sequential_checks, 0)]
    if not exhaustive:
        bounds.append(("samples", samples, 1))
    if stop_after is not None:
        bounds.append(("stop_after", stop_after, 1))
    for name, value, least in bounds:
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if weaken_condition1 and not exhaustive:
        raise ValueError("weaken_condition1 needs exhaustive mode: the "
                         "sampled search has no weakened control")
    if stop_after is not None and not exhaustive:
        raise ValueError("stop_after needs exhaustive mode: the sampled "
                         "search draws all its samples")
    if exhaustive and (d != 2 or tuple(blocks) != _FR_BLOCKS):
        raise SearchSpaceExceeded(
            "exhaustive mode covers d=2 with one toy bit per block; "
            "use sampled mode elsewhere")


def search_fr_paradox(d: int = 2, blocks: tuple = _FR_BLOCKS,
                      exhaustive: bool = False, workers: int = 1,
                      seed: int = 0, samples: int = 2000,
                      weaken_condition1: bool = False,
                      spot_checks: int = DEFAULT_SPOT_CHECKS,
                      sequential_checks: int = 48,
                      stop_after: int | None = None) -> ScenarioReport:
    """Search for a four-agent configuration assembling the full paradox.

    Exhaustive mode (d=2, one toy bit per block) covers every pure state and
    every block-local measurement with every ok/fail labeling; the verdict
    records that no configuration passes the chain with distinct Wigner
    outcomes, while configurations where all seven conditions hold benignly
    (ok and fail labeling the same outcome) do exist.  It scans one
    representative known-set of each of the 18 Sp(2,2)^4 orbits at
    valuation 0 and weights its counters by the orbit size times its
    valuation classes (`_fr_valuation_classes`, 16), so the ``scan``
    event's counters are those of all 36720 states.  It also scans, at
    weight 0, one other member of every orbit larger than 1 at a valuation
    other than its 0 class, both drawn with ``seed``; the
    ``orbit_weights_verified`` verdict holds when each such state's
    counters and paradox count equal its representative's and the orbits
    partition the known-sets.
    With ``weaken_condition1`` the subset conditions are dropped, which must
    produce false positives (search sensitivity control); that run skips
    the orbit and spot checks.

    The ``orbit_check`` event's ``closed_form`` holds when the known-sets
    number Π_{i=1..4}(2^i + 1) = 2295 and the weighted ``states`` are that
    times 2^4 = 36720, both computed from p and n, so a wrong weight fails
    ``orbit_weights_verified``.  The calling process scans every item once,
    keeping one benign sample of four strata, and ``stop_after`` counts the
    paradoxes of that whole scan.

    The spot checks are drawn once here from all 2295 known-sets with
    ``seed`` + 1.  With ``workers`` = N > 1 a pool maps `_fr_worker` over
    the N dealt shares, worker i checking the draws i, i + N, i + 2N, ...
    (empty shares included), and the calling process sums the shares
    (`_merge_spot_checks`), so the report is the same for every N.  With
    one worker the single share runs in the calling process.  The spot
    checks' ``digest`` is the CRC-32 of all the drawn tuples, so two reports
    show whether they checked the same configurations (a checksum is enough
    to tell draws apart, and ``hashlib`` would load OpenSSL, about 3.6 MB of
    resident memory).

    Raises what `check_fr_request` raises.
    """
    check_fr_request(d, blocks, exhaustive, workers, samples, spot_checks,
                     sequential_checks, weaken_condition1, stop_after)
    config = {"d": d, "blocks": tuple(blocks), "exhaustive": exhaustive,
              "workers": workers, "seed": seed,
              "weaken_condition1": weaken_condition1}
    report = ScenarioReport("fr_search", config)
    if not exhaustive:
        rng = random.Random(seed)
        stats = _fr_sampled_search(d, tuple(blocks), rng, samples,
                                   sequential_checks)
        report.log("sampled", **{k: v for k, v in stats.items() if k != "paradoxes"},
                   paradox_count=len(stats["paradoxes"]))
        report.verdict["no_paradox_found"] = not stats["paradoxes"]
        report.verdict["no_sequential_paradox"] = stats["sequential_paradoxes"] == 0
        return report

    t = _fr_tables()
    n_lagr = len(t.lagrangians)
    outs_a, outs_b, outs_u = (sum(len(m.outs) for m in menu)
                              for menu in (t.meas_a, t.meas_b, t.meas_u))
    pairs_w = sum(len(m.outs) * (len(m.outs) - 1) for m in t.meas_w)
    reps = [(cls[0], 0, len(cls) * _fr_valuation_classes(t, cls[0]))
            for cls in t.orbits]
    config["lagrangians"] = n_lagr
    config["candidate_space"] = \
        sum(w for _, _, w in reps) * outs_a * outs_b * outs_u * pairs_w
    run_spot_checks = spot_checks > 0 and not weaken_condition1
    draws = ([] if weaken_condition1
             else _fr_orbit_draws(t, random.Random(seed)))
    items = reps + [(member, v, 0) for _, member, v in draws]
    rng = random.Random(seed + 1)
    checks = [(_random_fr_tuple(t, rng), i < sequential_checks)
              for i in range(spot_checks if run_spot_checks else 0)]
    stats = _fr_scan(t, items, weaken_condition1, stop_after)
    shares = [checks[i::workers] for i in range(workers)]
    if workers > 1:
        with _pool_context().Pool(workers) as pool:
            spot_parts = pool.map(_fr_worker, shares)
    else:
        spot_parts = [_fr_worker(shares[0])]
    paradox_count = stats.pop("paradox_count")
    paradox_sample = stats.pop("paradox_sample")
    benign = stats.pop("benign_sample")
    counters = dict(stats.pop("counters"))
    report.log("scan", **stats, representatives=len(t.orbits),
               paradox_count=paradox_count, paradox_sample=paradox_sample)
    if weaken_condition1:
        report.verdict["mutation_finds_false_positives"] = paradox_count > 0
        return report
    agree = all(rep in counters and counters.get(member) == counters[rep]
                for rep, member, _ in draws)
    covers = sorted(li for cls in t.orbits for li in cls) == \
        list(range(n_lagr))
    p, n = 2, 4
    lagrangians = math.prod(p ** i + 1 for i in range(1, n + 1))
    closed_form = n_lagr == lagrangians and \
        stats["states"] == lagrangians * p ** n
    report.log("orbit_check", checked=len(draws), agree=agree, covers=covers,
               closed_form=closed_form)
    report.verdict["orbit_weights_verified"] = agree and covers and closed_form
    report.verdict["no_paradox_found"] = paradox_count == 0
    report.verdict["benign_all_seven_exist"] = stats["benign_all_seven"] > 0
    derived = _fr_rederive(t, benign)
    report.log("derivation", samples=len(benign), all_hold=derived)
    report.verdict["derivation_verified"] = derived
    if run_spot_checks:
        spots = _merge_spot_checks(spot_parts)
        digest = zlib.crc32("".join(repr(tup) for tup, _ in checks).encode())
        report.log("spot_checks", **spots, digest=f"{digest:08x}")
        report.verdict["spot_checks_agree"] = (
            spots["conditions_agree"] and spots["chain_matches_conditions"]
            and spots["oracle_agrees"])
        report.verdict["no_sequential_paradox"] = spots["sequential_paradoxes"] == 0
    return report
