#!/usr/bin/env python3
"""Self-test of the benchmark: the gate can fail, and the output matches
BENCHMARK.json.

    python3 perfbench/selftest.py

1. Gate: the real fr-exhaustive reports pass `check_fr`; a wrong expected
   count, and the weaken_condition1 report fed as the real one, each fail
   it.  The condprep and measure-sweep gates fail on a wrong expected
   count and on a wrong prime.
2. Smoke: every workload at --seconds 1, traced and untraced, prints a last
   line with exactly the result keys, `correct` true, and exactly the
   metric names and units BENCHMARK.json lists.
3. A tree holding only BENCHMARK.json and perfbench/ makes run.py exit
   non-zero without printing a result.
4. Reference speed: scaling made-up samples gives the expected times, and
   an fr-exhaustive iteration reports one section per pool worker call.
Takes about three minutes on 2 CPUs.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from speed import REF_CHUNK_S, SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    CONDPREP_SEARCHED, FR_EXPECTED, FR_WORKERS, WORKLOADS, Gate,
    check_condprep, check_fr,
)

failures: list[str] = []


def verify(ok: bool, what: str):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def failed_checks(fn, *args, **kwargs) -> int:
    gate = Gate()
    fn(*args, gate, **kwargs)
    return gate.failed


def gate_tests():
    import toytheory as tt
    search = tt.search_fr_paradox
    report = search(d=2, exhaustive=True, workers=FR_WORKERS, spot_checks=200,
                    sequential_checks=48, seed=0)
    mutation = search(d=2, exhaustive=True, workers=FR_WORKERS,
                      weaken_condition1=True, stop_after=3, seed=0)
    verify(failed_checks(check_fr, report, mutation) == 0,
           "fr gate passes the real reports")
    wrong = dict(FR_EXPECTED, states=FR_EXPECTED["states"] + 1)
    verify(failed_checks(check_fr, report, mutation, expected=wrong) > 0,
           "fr gate fails on a wrong expected state count")
    verify(failed_checks(check_fr, mutation, mutation) > 0,
           "fr gate fails on the weaken_condition1 scan fed as the real one")

    result = SimpleNamespace(transform=None, searched=CONDPREP_SEARCHED)
    results = [(("0", "+"), False, result, False)]
    verify(failed_checks(check_condprep, results) == 0,
           "condprep gate passes an exhausted search")
    verify(failed_checks(check_condprep, results,
                         searched=CONDPREP_SEARCHED - 1) > 0,
           "condprep gate fails on a wrong expected search count")

    sweep = WORKLOADS["measure-sweep"](tt)
    draws = sweep.inputs(0, 0)
    gate = Gate()
    sweep.run(draws, gate)
    verify(gate.failed == 0, "measure-sweep gate passes real draws")
    gate = Gate()
    sweep.run([(tag, 7 if prime else prime, *rest)
               for tag, prime, *rest in draws], gate)
    verify(gate.failed > 0,
           "measure-sweep gate fails when told the wrong prime")


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke_tests():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            res = last_json(proc.stdout)
            label = f"smoke {w['name']} --trace {trace}"
            verify(proc.returncode == 0 and res is not None
                   and set(res) == {"correct", "attempted", "failed",
                                    "metrics"}
                   and res["correct"] and res["attempted"] >= 1,
                   f"{label}: correct result")
            got = {k: v["unit"] for k, v in (res or {}).get("metrics",
                                                            {}).items()}
            verify(got == want[trace], f"{label}: names and units match")


def bare_tree_test():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    verify(proc.returncode != 0 and last_json(proc.stdout) is None,
           "a tree without sources exits non-zero without a result")


def speed_tests():
    ref = REF_CHUNK_S
    probe = SpeedProbe()
    # Main process at half speed; 0.1 s of it in the handler.
    probe.samples = [(0.0, 0.0, 2 * ref, False), (1.0, 1.1, 2 * ref, True),
                     (9.0, 9.0, 2 * ref, False)]
    verify(abs(probe.reference_s(10.0) - 4.95) < 1e-9,
           "reference time of a serial section at half speed")
    # A 4 s parallel phase of two workers: 2 s at full speed and 4 s at
    # half speed.  The handler call inside the phase does not count.
    forked = [(2.0, 4.0, [(2.0, 2.0, ref, False)]),
              (1.5, 5.5, [(1.5, 1.5, 2 * ref, False)])]
    probe.samples.append((3.0, 3.2, 5 * ref, True))
    verify(abs(probe.reference_s(10.0, forked) - (6.0 - 0.1) / 2 - 2.0)
           < 1e-9, "reference time with a parallel phase")

    import toytheory as tt
    fr = WORKLOADS["fr-exhaustive"](tt)
    out = fr.run(fr.inputs(0, 0), Gate())
    verify(len(out["forked"]) == 2 * FR_WORKERS,
           "an fr iteration reports a section per pool worker call")


if __name__ == "__main__":
    speed_tests()
    gate_tests()
    smoke_tests()
    bare_tree_test()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
