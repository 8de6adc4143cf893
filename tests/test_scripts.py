"""The experiment scripts run end to end on small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [["scripts/genericity_survey.py", "--n", "5", "--seeds", "5"]],
    ids=["genericity_survey"],
)
def test_script_runs(argv):
    r = run(argv)
    assert r.returncode == 0, r.stderr
    assert r.stdout


@pytest.mark.parametrize(
    "args, line",
    [
        (["--seeds", "0"], "error: --seeds must be >= 1"),
        (["--n", "2"], "error: PreconditionViolated: need at least 3 points, got 2"),
        (["--resolution", "-1"], "error: PreconditionViolated: resolution must be >= 0, got -1"),
    ],
    ids=["seeds-0", "n-2", "resolution-negative"],
)
def test_genericity_survey_refuses_bad_arguments(args, line):
    # one error line and exit 2, before any survey line, never a traceback
    r = run(["scripts/genericity_survey.py", "--n", "5", *args])
    assert (r.returncode, r.stdout, r.stderr) == (2, "", line + "\n")


def run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
