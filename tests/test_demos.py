"""Each demo runs to completion, demo 07 (the exhaustive FR scan, under a
second) included."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-7]_*.py"))


def test_quick_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
