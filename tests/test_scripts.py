"""The experiment scripts run end to end on small sizes."""

import importlib.util
import os
import shutil
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


def load_compare_reports():
    path = ROOT / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    compare_reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_reports)
    return compare_reports


def test_compare_reports_names_each_run_that_differs(tmp_path):
    # a tree against itself differs nowhere; one changed byte in the cell
    # export's template shows in exactly the runs that export cells (both
    # metrics are generic; n = 7 takes no --oracle run)
    compare_reports = load_compare_reports()
    specs = [s for s in compare_reports.grid() if s[0] in ("dmax-4", "random-7.2")]
    assert compare_reports.compare(ROOT / "src", ROOT / "src", specs) == (10, [])

    shutil.copytree(ROOT / "src" / "tightspan", tmp_path / "tightspan")
    module = tmp_path / "tightspan" / "subdivision.py"
    text = module.read_text()
    assert text.count('"volume": %d') == 1
    module.write_text(text.replace('"volume": %d', '"volume":  %d'))
    total, differing = compare_reports.compare(ROOT / "src", tmp_path, specs)
    assert total == 10
    assert differing == [
        (f"{name} {fmt} {label}", ["cells export"])
        for name in ("dmax-4", "random-7.2")
        for fmt in ("text", "json")
        for label in ("exports", "oracle")
        if label == "exports" or name == "dmax-4"
    ]


def test_compare_reports_sees_a_dropped_corner_witness(tmp_path):
    # the grid's corner metrics have a cell height of 0: a build whose
    # builder finds no corner witness reports the first one generic, and
    # every run of it differs
    compare_reports = load_compare_reports()
    specs = [s for s in compare_reports.grid() if s[0] == "corner-4.1"]
    shutil.copytree(ROOT / "src" / "tightspan", tmp_path / "tightspan")
    module = tmp_path / "tightspan" / "subdivision.py"
    text = module.read_text()
    corners = "    corners = [(mask, _corner(lam)) for mask, (lam, *_) in cells.items() if min(lam) <= 0]\n"
    assert text.count(corners) == 1
    module.write_text(text.replace(corners, "    corners = []\n"))
    total, differing = compare_reports.compare(ROOT / "src", tmp_path, specs)
    assert total == 6
    assert [name for name, _ in differing] == [
        f"corner-4.1 {fmt} {label}"
        for fmt in ("text", "json")
        for label in ("plain", "exports", "oracle")
    ]


def run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
