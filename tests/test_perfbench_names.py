"""The names the benchmark harness binds exist in the package, and its
workloads' gates pass.

`perfbench/tracer.py` wraps the functions of `TRACED` and `perfbench/run.py`
reads `cache_info()` of the functions of `CACHED`; the fr-exhaustive workload
times the pool's calls of `scenarios._fr_worker`.  A refactor that renames
or drops one of them fails here, not only in a benchmark run.  So does one
that breaks a report key or a keyword a workload passes: each workload runs
one iteration here through its `Gate`.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS = ("run", "speed", "tracer", "workloads")


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in HARNESS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import tracer
    import workloads
    yield tracer, run, workloads
    for name in HARNESS:
        sys.modules.pop(name, None)


def _bound(module: str, function: str):
    return getattr(sys.modules[f"toytheory.{module}"], function, None)


def test_traced_and_cached_functions_exist(harness):
    import toytheory  # noqa: F401  (loads every module the names live in)
    tracer, run, _ = harness
    missing = [f"{m}.{f}" for m, f, _ in tracer.TRACED
               if not callable(_bound(m, f))]
    assert missing == []
    assert run.CACHED
    assert all(hasattr(_bound(m, f), "cache_info") for m, f in run.CACHED)
    assert callable(_bound("scenarios", "_fr_worker"))


# The first draws of the measure-sweep pool: its gate checks each one alike.
SWEEP_DRAWS = 100


@pytest.mark.parametrize("name", ["fr-exhaustive", "condprep-exhaustive",
                                  "measure-sweep"])
def test_workload_gates_pass(harness, name):
    import toytheory
    _, _, workloads = harness
    workload = workloads.WORKLOADS[name](toytheory)
    workload.setup()
    inputs = workload.inputs(0, 0)
    if name == "measure-sweep":
        inputs = inputs[:SWEEP_DRAWS]
    gate = workloads.Gate()
    workload.run(inputs, gate)
    assert gate.attempted > 0
    assert gate.messages == [] and gate.failed == 0
