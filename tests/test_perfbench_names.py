"""The names the benchmark harness binds exist in the package.

`perfbench/tracer.py` wraps the functions of `TRACED` and `perfbench/run.py`
reads `cache_info()` of the functions of `CACHED`; the fr-exhaustive workload
times the pool's calls of `scenarios._fr_worker`.  A refactor that renames
or drops one of them fails here, not only in a benchmark run.
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
    yield tracer, run
    for name in HARNESS:
        sys.modules.pop(name, None)


def _bound(module: str, function: str):
    return getattr(sys.modules[f"toytheory.{module}"], function, None)


def test_traced_and_cached_functions_exist(harness):
    import toytheory  # noqa: F401  (loads every module the names live in)
    tracer, run = harness
    missing = [f"{m}.{f}" for m, f, _ in tracer.TRACED
               if not callable(_bound(m, f))]
    assert missing == []
    assert run.CACHED
    assert all(hasattr(_bound(m, f), "cache_info") for m, f in run.CACHED)
    assert callable(_bound("scenarios", "_fr_worker"))
