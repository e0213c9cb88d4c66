"""The three workloads, their inputs and the checks on their verdicts.

Each workload has `setup()` (the one-time tables a fresh process builds
before its first verdict), `inputs(seed, i)` (the inputs of iteration i,
made from the seed before timing starts) and `run(inputs, gate, tracer)`
(one timed iteration, whose outputs go through the gate).  `run` returns
the exact counters of the iteration, and under "forked" the sections its
pool workers ran (see speed.ForkedSections).  The first `warmup` iterations
fill the caches and are left out of the verdict time.

Nothing here imports toytheory at module level: the caller times the import
as part of set-up.
"""

from __future__ import annotations

import random
import resource
import time
from fractions import Fraction

from speed import ForkedSections


class Gate:
    """Counts checks; a failed check or an exception marks the run failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def expect(self, got, want, what: str) -> bool:
        return self.check(got == want, f"{what}: got {got!r}, want {want!r}")

    def exception(self, exc: BaseException, where: str):
        self.check(False, f"{where}: {type(exc).__name__}: {exc}")


def _event(report, kind: str) -> dict:
    return next((e for e in report.events if e.get("kind") == kind), {})


# ---------------------------------------------------------------------------
# fr-exhaustive
# ---------------------------------------------------------------------------

FR_EXPECTED = {
    "lagrangians": 2295,
    "candidate_space": 24984288000,
    "states": 36720,
    "valuation_tests": 1551744,
    "quad_tests": 3779136,
    "benign_all_seven": 1568160,
    "paradox_count": 0,
    "spot_checks": 200,
    "sequential_checks": 48,
}
FR_WORKERS = 2


def check_fr(report, mutation, gate: Gate, expected: dict = FR_EXPECTED):
    """The headline numbers of the exhaustive four-agent search.

    `derivation_verified` is not evidence: the scan increments it together
    with `benign_all_seven`, so it cannot disagree.
    """
    cfg, scan, spots = report.config, _event(report, "scan"), \
        _event(report, "spot_checks")
    gate.expect(cfg.get("lagrangians"), expected["lagrangians"], "lagrangians")
    gate.expect(cfg.get("candidate_space"), expected["candidate_space"],
                "candidate space")
    for key in ("states", "valuation_tests", "quad_tests", "benign_all_seven",
                "paradox_count"):
        gate.expect(scan.get(key), expected[key], f"scan {key}")
    gate.expect(report.verdict.get("no_paradox_found"),
                expected["paradox_count"] == 0, "no_paradox_found verdict")
    gate.expect(spots.get("checked"), expected["spot_checks"],
                "spot checks run")
    gate.expect(spots.get("sequential_checked"), expected["sequential_checks"],
                "sequential checks run")
    for key in ("conditions_agree", "chain_matches_conditions",
                "oracle_agrees"):
        gate.expect(spots.get(key), True, f"spot checks {key}")
    gate.expect(spots.get("sequential_paradoxes"), 0, "sequential paradoxes")
    gate.expect(mutation.verdict.get("mutation_finds_false_positives"), True,
                "mutation control finds false positives")
    gate.check(_event(mutation, "scan").get("paradox_count", 0) > 0,
               "mutation control paradox count > 0")


class FrExhaustive:
    name = "fr-exhaustive"
    # Iteration 0 also fills the oracle's catalog and the complement cache.
    warmup = 1

    def __init__(self, tt):
        self.scenarios = tt.scenarios
        self.workers = ForkedSections(tt.scenarios, "_fr_worker")

    def setup(self):
        self.scenarios._fr_tables()

    def inputs(self, seed: int, i: int) -> dict:
        # The exhaustive scan has no random inputs; the seed draws the 200
        # spot-checked configurations.  Every iteration repeats the run's
        # verdict, so iterations differ only in what is cached.
        return {"seed": seed}

    def run(self, inputs: dict, gate: Gate, tracer=None) -> dict:
        search = self.scenarios.search_fr_paradox
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.workers.install()
        try:
            report = search(d=2, exhaustive=True, workers=FR_WORKERS,
                            spot_checks=200, sequential_checks=48,
                            seed=inputs["seed"])
            mutation = search(d=2, exhaustive=True, workers=FR_WORKERS,
                              weaken_condition1=True, stop_after=3,
                              seed=inputs["seed"])
        finally:
            self.workers.uninstall()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        check_fr(report, mutation, gate)
        scan = _event(report, "scan")
        out = {f"scenarios.fr.{k}": scan.get(k, 0)
               for k in ("states", "valuation_tests", "quad_tests",
                         "benign_all_seven")}
        out["scenarios.fr.paradoxes"] = scan.get("paradox_count", 0)
        out["worker_cpu_s"] = (after.ru_utime + after.ru_stime
                               - before.ru_utime - before.ru_stime)
        out["forked"] = self.workers.take()
        return out


# ---------------------------------------------------------------------------
# condprep-exhaustive
# ---------------------------------------------------------------------------

CONDPREP_SEARCHED = 11520   # |Sp(4,2)| x 16 shifts
CONDPREP_PAIRS = (("0", "+", False), ("0", "1", True), ("0", "0", True))


def check_condprep(results, gate: Gate, searched: int = CONDPREP_SEARCHED):
    """results: [(targets, realizable, search result, realized marginals)]."""
    for (a, b), realizable, res, realized in results:
        pair = f"(toy{a}, toy{b})"
        if realizable:
            gate.check(res.transform is not None, f"{pair} found")
            gate.check(realized, f"{pair} transform realizes the targets")
            gate.check(res.searched <= searched, f"{pair} searched in range")
        else:
            gate.check(res.transform is None, f"{pair} not found")
            gate.expect(res.searched, searched, f"{pair} searched")


class CondprepExhaustive:
    name = "condprep-exhaustive"
    warmup = 1

    def __init__(self, tt):
        self.tt = tt

    def setup(self):
        tt = self.tt
        # Same arguments as find_conditional_transform passes, so the
        # lru_cache key matches.
        tt.dynamics.symplectic_group(tt.GF(2), 2,
                                     cap=tt.config.DEFAULT_GROUP_CAP)

    def inputs(self, seed: int, i: int) -> list:
        # Exhaustive over all 720 x 16 affine maps: the seed selects nothing.
        tt = self.tt
        specs = []
        for a, b, realizable in CONDPREP_PAIRS:
            spec = tt.ConditionalPrepSpec(
                source_space=tt.discrete_space(2, 1),
                source_known=tt.rref(tt.GF(2), 2, [(1, 0)]),
                source_valuations=((0, 0), (1, 0)),
                target_initial=tt.toy_bit("0"),
                desired_targets=(tt.toy_bit(a), tt.toy_bit(b)))
            specs.append(((a, b), realizable, spec))
        return specs

    def run(self, inputs: list, gate: Gate, tracer=None) -> dict:
        tt = self.tt
        results = []
        for pair, realizable, spec in inputs:
            res = tt.find_conditional_transform(spec, exhaustive=True)
            realized = False
            if res.transform is not None:
                cls = tt.classify_conditional_marginals(spec, res.transform,
                                                        [0])
                got = {i: m for c, m in zip(cls.classes, cls.marginals)
                       for i in c}
                realized = all(tt.states_equal(got[i], d)
                               for i, d in enumerate(spec.desired_targets))
            results.append((pair, realizable, res, realized))
        check_condprep(results, gate)
        return {"dynamics.condprep.searched": results[0][2].searched}


# ---------------------------------------------------------------------------
# measure-sweep
# ---------------------------------------------------------------------------

# (tag, prime or None for the rationals, systems)
GRID = (("d2n2", 2, 2), ("d3n2", 3, 2), ("d5n3", 5, 3), ("qq", None, 2))
DRAWS_PER_POINT = 25   # per batch, so a batch is 100 draws
POOL_BATCHES = 40      # 4000 draws; one iteration is one pass over them


class _Sampler:
    """Random inputs at one grid point."""

    def __init__(self, tt, p, n, rng: random.Random):
        self.tt = tt
        self.rng = rng
        self.n = n
        self.space = tt.discrete_space(p, n) if p else tt.rational_space(n)
        self.field = self.space.field
        self.p = p

    def scalar(self, nonzero=False):
        rng = self.rng
        if self.p:
            return rng.randrange(1 if nonzero else 0, self.p)
        while True:
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if x or not nonzero:
                return x

    def small(self):
        # Coefficients of the symplectic mixing: small, so that rationals
        # stay short.
        return self.scalar() if self.p else Fraction(self.rng.randint(-1, 1))

    def isotropic(self, k: int) -> list:
        """k commuting vectors: q-coordinate units pushed through random
        transvections x -> x + c[x,v]v, which preserve the bracket."""
        field, dim = self.field, 2 * self.n
        bracket = self.tt.phase_space.bracket_vectors
        vecs = [[field.one if j == 2 * i else field.zero for j in range(dim)]
                for i in range(k)]
        for _ in range(dim + 2):
            v = [self.small() for _ in range(dim)]
            c = self.scalar(nonzero=True) if self.p else \
                Fraction(self.rng.choice((-1, 1)))
            for x in vecs:
                s = field.mul(c, bracket(field, x, v))
                for j in range(dim):
                    x[j] = field.add(x[j], field.mul(s, v[j]))
        return [tuple(x) for x in vecs]

    def combos(self, basis, k: int) -> list:
        field = self.field
        out = []
        for _ in range(k):
            row = [field.zero] * (2 * self.n)
            for g in basis:
                c = self.small()
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, g)]
            out.append(tuple(row))
        return out

    def measurement(self, rows_fn):
        while True:
            m = self.tt.make_measurement(self.space, rows_fn())
            if m.observables.dim:
                return m

    def outcome(self, m, s):
        if self.rng.random() < 0.5:
            return self.tt.outcome_from_valuation(m, s.valuation)
        return self.tt.outcome_for_label(
            m, [self.scalar() for _ in m.observables.basis])

    def draw(self):
        tt, rng, n = self.tt, self.rng, self.n
        lo = 0 if self.p else 1
        s = tt.make_state(self.space, self.isotropic(rng.randint(lo, n)),
                          [self.scalar() for _ in range(2 * n)])
        known = s.known.basis
        if self.p:
            m_a = self.measurement(
                lambda: self.isotropic(rng.randint(1, n)))
        else:
            # Rational probabilities are determined only for point masses:
            # measure observables the state already knows.
            m_a = self.measurement(
                lambda: self.combos(known, rng.randint(1, len(known))))
        out_a = self.outcome(m_a, s)
        pick = rng.randrange(3)
        if pick == 0:
            pool = m_a.observables.basis
        elif pick == 1 and known:
            pool = known
        else:
            pool = None
        m_b = self.measurement(
            (lambda: self.isotropic(rng.randint(1, n))) if pool is None else
            (lambda: self.combos(pool, rng.randint(1, len(pool)))))
        return s, m_a, out_a, m_b, self.outcome(m_b, s)


def _probability_ok(p, prime) -> bool:
    if p == 0:
        return True
    if prime is None:
        return p == 1
    den = p.denominator
    while den % prime == 0:
        den //= prime
    return p.numerator == 1 and den == 1


class MeasureSweep:
    name = "measure-sweep"
    # The first pass over the pool fills the caches.
    warmup = 1

    def __init__(self, tt):
        self.tt = tt
        self.pool = None

    def setup(self):
        pass

    def inputs(self, seed: int, i: int) -> list:
        # A fixed pool, made before the first timed pass and then run again
        # on every iteration, keeps the work and memory of a run
        # independent of its speed.
        if self.pool is None:
            self.pool = [draw for b in range(POOL_BATCHES)
                         for draw in self._batch(seed, b)]
        return self.pool

    def _batch(self, seed: int, b: int) -> list:
        rng = random.Random(seed * 1_000_003 + b)
        samplers = [(tag, p, _Sampler(self.tt, p, n, rng))
                    for tag, p, n in GRID]
        return [(tag, p) + smp.draw()
                for _ in range(DRAWS_PER_POINT) for tag, p, smp in samplers]

    def run(self, inputs: list, gate: Gate, tracer=None) -> dict:
        tt = self.tt
        prob, update = tt.outcome_probability, tt.update_state
        infers, certain = tt.infers, tt.is_certain
        clock = time.perf_counter
        draw_us = []
        for tag, prime, s, m_a, out_a, m_b, out_b in inputs:
            if tracer is not None:
                tracer.tag = tag
            t0 = clock()
            try:
                p = prob(s, m_a, out_a)
                gate.check(_probability_ok(p, prime),
                           f"{tag}: probability {p} is not 0 or 1/d^k")
                post = None
                if p > 0:
                    post = update(s, m_a, out_a)
                    gate.expect(prob(post, m_a, out_a), 1,
                                f"{tag}: repeated outcome probability")
                got = infers(s, m_a, out_a, m_b, out_b)
                want = post is not None and certain(post, m_b, out_b)
                gate.expect(got, want, f"{tag}: infers vs update+is_certain")
            except Exception as exc:   # a library error is a failed check
                gate.exception(exc, tag)
            draw_us.append((clock() - t0) * 1e6)
        if tracer is not None:
            tracer.tag = None
        return {"draw_us": draw_us}


WORKLOADS = {w.name: w for w in (FrExhaustive, CondprepExhaustive,
                                  MeasureSweep)}
