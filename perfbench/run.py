#!/usr/bin/env python3
r"""Benchmark of toytheory's verdicts, run against the sources in ./src.

    python3 perfbench/run.py --workload fr-exhaustive --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The set-up (import plus one-time tables) is
timed in several fresh interpreters and reported as the median; then
one closed-loop client repeats the workload's verdict until --seconds of
verdict time are measured.  Times are scaled to a fixed reference speed of
the host, sampled while each section runs (see speed.py).  --trace 1 wraps
the library's functions (see tracer.py) on every other iteration and
reports per-module metrics instead of the end-to-end ones.  The last line
of stdout is the JSON result; a run whose checks fail exits with 1, a tree
without ./src/toytheory with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import TRACED, Tracer, span_name
from workloads import FR_WORKERS, GRID, WORKLOADS, Gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up samples: at least SETUP_MIN, and more (up to SETUP_MAX) while the
# probes have taken less than SETUP_BUDGET_S, so a cheap set-up gets a
# steadier median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0
CACHED = (("algebra", "orthogonal_complement"), ("_gf2", "isotropic_bases"),
          ("dynamics", "symplectic_group"))
# Functions whose per-call metrics are reported; the remaining wrapped
# functions (the FR phases, find_conditional_transform) open spans only.
FUNCTIONS = [span_name(m, f) for m, f, name in TRACED
             if name is None and f != "find_conditional_transform"]
PHASES = ("scenarios.fr_tables", "scenarios.fr_scan",
          "scenarios.fr_spot_checks")
COUNTERS = ("scenarios.fr.states", "scenarios.fr.valuation_tests",
            "scenarios.fr.quad_tests", "scenarios.fr.benign_all_seven",
            "scenarios.fr.paradoxes", "dynamics.condprep.searched")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_toytheory(probe: SpeedProbe):
    """Import the package from ./src; returns (package, seconds taken)."""
    sys.path.insert(0, str(SRC))
    probe.start()
    t0 = time.perf_counter()
    import toytheory
    elapsed = time.perf_counter() - t0
    probe.stop()
    where = Path(toytheory.__file__).resolve().parent
    if where != (SRC / "toytheory").resolve():
        raise SystemExit(f"toytheory imported from {where}, not from {SRC}")
    return toytheory, elapsed


def setup_probe(workload: str) -> dict:
    """Set-up measured in a fresh interpreter: {"wall_s", "ref_s"}."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setup(workload_cls, tracer=None):
    """Import plus the workload's set-up, in this process.

    Returns (workload, {"wall_s", "ref_s"}); the tracer, if any, is
    installed after the import and sees the set-up only.
    """
    probe = SpeedProbe()
    tt, import_s = import_toytheory(probe)
    workload = workload_cls(tt)
    if tracer:
        tracer.install()
    probe.start()
    t0 = time.perf_counter()
    workload.setup()
    wall = import_s + time.perf_counter() - t0
    probe.stop()
    if tracer:
        tracer.uninstall()
    return workload, {"wall_s": wall, "ref_s": probe.reference_s(wall)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def percentile(xs: list, q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def run_loop(workload, args, gate: Gate, tracer):
    """Iterations until --seconds of verdict time are measured, and at
    least one after the warm-up.

    Traced runs leave the warm-up untraced, then alternate traced and
    untraced iterations, so the overhead compares warm iterations with warm
    iterations.
    """
    iters = []
    measured = 0.0
    warmup = workload.warmup
    probe = SpeedProbe()
    i = 0
    while True:
        traced = tracer is not None and i >= warmup \
            and (i - warmup) % 2 == 0
        inputs = workload.inputs(args.seed, i)
        if traced:
            tracer.install()
        probe.reset()
        probe.start()
        t0 = time.perf_counter()
        try:
            out = workload.run(inputs, gate, tracer if traced else None)
        except Exception as exc:   # a library error is a failed check
            gate.exception(exc, f"iteration {i}")
            out = {}
        dt = time.perf_counter() - t0
        probe.stop()
        forked = out.pop("forked", ())
        it = {"traced": traced, "seconds": dt, "out": out,
              "ref_s": probe.reference_s(dt, forked),
              "slowdown": probe.slowdown()}
        if traced:
            tracer.uninstall()
            it["stats"], it["top_level_s"] = tracer.take_stats()
        iters.append(it)
        measured += dt
        i += 1
        if measured >= args.seconds and \
                i >= warmup + (2 if tracer is not None else 1):
            return iters


def cache_infos() -> dict:
    out = {}
    for mod, fn in CACHED:
        info = getattr(sys.modules[f"toytheory.{mod}"], fn).cache_info()
        out[span_name(mod, fn)] = info._asdict()
    return out


def layer_metrics(setup_stats, own_setup, iters, warmup, caches, probes):
    """Per-module metrics: one set-up plus one traced iteration.

    `.calls` counts set-up plus the first traced iteration (exact for a
    seed); `.self_s` is set-up self time plus the median self time of the
    traced iterations; `.us_per_call` is inclusive time per call over set-up
    and every traced iteration.
    """
    traced = [it for it in iters if it["traced"]]
    warm = [it for it in iters[warmup:] if not it["traced"]]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def stat_of(stats, key):
        st = stats.get(key)
        return (st.calls, st.self_s, st.total_s) if st else (0, 0.0, 0.0)

    def function_metrics(key):
        calls0, self0, total0 = stat_of(setup_stats, key)
        per_iter = [stat_of(it["stats"], key) for it in traced]
        calls = calls0 + per_iter[0][0]
        all_calls = calls0 + sum(c for c, _, _ in per_iter)
        all_total = total0 + sum(t for _, _, t in per_iter)
        put(f"{key}.calls", calls, "count")
        put(f"{key}.self_s",
            self0 + statistics.median(s for _, s, _ in per_iter), "s")
        put(f"{key}.us_per_call",
            all_total / all_calls * 1e6 if all_calls else 0.0, "us")

    for key in FUNCTIONS:
        function_metrics(key)
    for key in FUNCTIONS:
        if key.startswith("measurement."):
            for tag, _, _ in GRID:
                function_metrics(f"{key}.{tag}")
    for key in PHASES:
        self0 = stat_of(setup_stats, key)[1]
        put(f"{key}.self_s", self0 + statistics.median(
            stat_of(it["stats"], key)[1] for it in traced), "s")
    for key, info in caches.items():
        lookups = info["hits"] + info["misses"]
        put(f"{key}.hit_ratio", info["hits"] / lookups if lookups else 0.0,
            "ratio")

    cpu = [it["out"].get("worker_cpu_s", 0.0) for it in traced]
    scan = [stat_of(it["stats"], "scenarios.fr_scan")[1] for it in traced]
    put("scenarios.fr_scan.worker_cpu_s", statistics.median(cpu), "s")
    eff = [c / (FR_WORKERS * s) for c, s in zip(cpu, scan) if s > 0]
    put("scenarios.fr_scan.parallel_eff",
        statistics.median(eff) if eff else 0.0, "ratio")
    first = traced[0]["out"]
    for key in COUNTERS:
        put(key, first.get(key, 0), "count")

    draws = [x for it in iters[warmup:] if not it["traced"]
             for x in it["out"].get("draw_us", ())]
    put("sweep.draw_p50_us", statistics.median(draws) if draws else 0.0, "us")
    put("sweep.draw_p99_us", percentile(draws, 0.99) if draws else 0.0, "us")
    put("sweep.draws", len(draws), "count")

    # Compared at reference speed, so that the host's speed changes
    # between iterations do not read as tracing cost.
    t_med = statistics.median(it["ref_s"] for it in traced)
    u_med = statistics.median(it["ref_s"] for it in warm)
    put("trace.overhead_share", (t_med - u_med) / u_med, "share")
    untraced_total = statistics.median(p["ref_s"] for p in probes) + u_med
    accounted = own_setup["ref_s"] + statistics.median(
        it["top_level_s"] * it["ref_s"] / it["seconds"] for it in traced)
    put("trace.unaccounted_share",
        (untraced_total - accounted) / untraced_total, "share")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toytheory" / "__init__.py").is_file():
        print(f"error: no toytheory sources under {SRC}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps(timed_setup(workload_cls)[1]))
        return 0

    probes = []
    t0 = time.perf_counter()
    while len(probes) < SETUP_MIN - 1 or (
            len(probes) < SETUP_MAX - 1
            and time.perf_counter() - t0 < SETUP_BUDGET_S):
        probes.append(setup_probe(args.workload))
    tracer = Tracer() if args.trace else None
    workload, own_setup = timed_setup(workload_cls, tracer)
    setups = probes + [own_setup]
    setup_stats = tracer.take_stats()[0] if tracer else {}

    gate = Gate()
    iters = run_loop(workload, args, gate, tracer)
    caches = cache_infos()
    verdicts = [it["seconds"] for it in iters]
    measured = [it for it in iters[workload.warmup:] if not it["traced"]]
    draws = [x for it in measured for x in it["out"].get("draw_us", ())]

    if tracer:
        metrics = layer_metrics(setup_stats, own_setup, iters,
                                workload.warmup, caches, probes)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                p["ref_s"] for p in setups), "unit": "s"},
            "verdict_s": {"value": statistics.median(
                it["ref_s"] for it in measured), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "commit": git_commit(),
        "setup_samples_s": [p["wall_s"] for p in setups],
        "setup_samples_ref_s": [p["ref_s"] for p in setups],
        "iterations_s": verdicts,
        "iterations_ref_s": [it["ref_s"] for it in iters],
        "slowdowns": [it["slowdown"] for it in iters],
        "traced_iterations": [it["traced"] for it in iters],
        "cache_info": caches,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"spans-{stem}.json")

    correct = gate.failed == 0 and gate.attempted > 0
    result = {"correct": correct, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"provenance": provenance, "result": result,
                   "failures": gate.messages}, fh, indent=1)

    for msg in gate.messages:
        print(f"FAILED CHECK: {msg}")
    print("provenance " + json.dumps(provenance))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not tracer:
        setup_wall = statistics.median(p["wall_s"] for p in setups)
        verdict_wall = statistics.median(it["seconds"] for it in measured)
        print(f"setup_wall_s {setup_wall:.6g} s (unscaled)")
        print(f"verdict_wall_s {verdict_wall:.6g} s (unscaled)")
    print(f"fail_share {gate.failed / max(gate.attempted, 1):.6g} share "
          f"({gate.failed} of {gate.attempted} checks)")
    if draws and not tracer:
        print(f"draw_p50_us {statistics.median(draws):.6g} us "
              f"(n={len(draws)})")
        print(f"draw_p99_us {percentile(draws, 0.99):.6g} us "
              f"(n={len(draws)})")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
