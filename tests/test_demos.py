"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ascentdyck

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def run_demo(script: Path) -> subprocess.CompletedProcess:
    # the child imports the same ascentdyck this process imported
    package_root = str(Path(ascentdyck.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script), "6"],
        capture_output=True, text=True, env=env, timeout=60,
    )


# a line each demo must print, where one is pinned
EXPECTED = {
    "worked_example.py":
        "menu (2,3), picked position 2; key downsteps were at steps [12,13]",
}


def test_demos_found():
    assert set(EXPECTED) <= {d.name for d in DEMOS}


@pytest.mark.parametrize("script", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_clean(script):
    done = run_demo(script)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout
    assert EXPECTED.get(script.name, "") in done.stdout
