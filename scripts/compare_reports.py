#!/usr/bin/env python3
"""Compare the `tspan compute --no-timestamp` runs of two source trees, byte for byte.

Usage:
    python scripts/compare_reports.py PARENT_SRC [CHANGE_SRC]

Each SRC is a directory that holds the tightspan package, as a checkout's
src/ does; CHANGE_SRC defaults to this checkout's.  The grid is dmax and dmin
at n = 4..9, gen_random(n, s, 100) at n = 5..7, s = 1..30, and five metrics
with a zero cell height (corner_metrics), each in text and JSON: plain,
with --export-cells --export-faces, and, for n <= 6, with --oracle and both
exports; 568 runs.  Each side generates its own metric files with its own
`tspan gen`, writes the corner metrics, which `tspan gen` cannot make, from
this script's own text, and runs from its own directory with the same
relative paths, so the reports name the same files.  The exit code,
stdout, stderr and both exports of every run must match.  Prints each run
that differs, with what differs, then one line "N runs, K differ"; exits 1
when K > 0.  Standard library only.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

WORKERS = 2  # each worker waits on one run's processes at a time
FIELDS = ("exit code", "stdout", "stderr", "cells export", "faces export")


def corner_metrics() -> list:
    """(name, n, metric file text) of the metrics whose subdivision has a cell height of 0.

    The 4-point metrics with upper entries 1,2,1,1,2,1 and 1,1,10,1,1,1, and
    gen_random(n, 1, 10**6) at n = 5..7 with its first entry tripled, drawn
    here as gen_random draws it: entry 1 + k/10**6, k = randint(1, 10**6 // n),
    in pair order.  Each gives the corner witness of its traversal.
    """
    uppers = [("corner-4.1", 4, [1, 2, 1, 1, 2, 1]), ("corner-4.2", 4, [1, 1, 10, 1, 1, 1])]
    for n in range(5, 8):
        rng = random.Random(1)
        upper = [1 + Fraction(rng.randint(1, 10**6 // n), 10**6) for _ in range(n * (n - 1) // 2)]
        uppers.append((f"corner-random-{n}", n, [3 * upper[0], *upper[1:]]))
    return [
        (name, n, json.dumps({"n": n, "upper": [str(e) for e in upper]}) + "\n")
        for name, n, upper in uppers
    ]


def grid() -> list:
    """(name, n, gen arguments or metric file text) of every metric of the grid."""
    specs = [
        (f"{kind}-{n}", n, ["--kind", kind, "--n", str(n)])
        for kind in ("dmax", "dmin")
        for n in range(4, 10)
    ]
    specs += [
        (f"random-{n}.{s}", n, ["--kind", "random", "--n", str(n), "--seed", str(s),
                                "--resolution", "100"])
        for n in range(5, 8)
        for s in range(1, 31)
    ]
    return specs + corner_metrics()


def _runs(specs) -> list:
    """(run name, compute arguments) of every run on the metrics of specs."""
    exports = ["--export-cells", "{k}-cells.json", "--export-faces", "{k}-faces.json"]
    runs = []
    for name, n, _ in specs:
        for fmt in ("text", "json"):
            variants = [("plain", []), ("exports", exports)]
            if n <= 6:
                variants.append(("oracle", ["--oracle", *exports]))
            for label, extra in variants:
                argv = ["compute", f"{name}.json", "--no-timestamp", "--format", fmt, *extra]
                runs.append((f"{name} {fmt} {label}", argv))
    return runs


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def _generate(src: Path, work: Path, specs) -> None:
    """Write each metric of specs to work/<name>.json: its text, or by src's own `tspan gen`, in one process."""
    calls = []
    for name, _, source in specs:
        if isinstance(source, str):
            Path(work, f"{name}.json").write_text(source)
        else:
            calls.append(f"main(['gen', *{source!r}, '-o', {name + '.json'!r}])")
    if calls:
        code = f"import sys\nfrom tightspan.cli import main\nsys.exit(max([{', '.join(calls)}]))"
        subprocess.run([sys.executable, "-c", code], cwd=work, env=_env(src), check=True)


def _run(src: Path, work: Path, k: int, argv: list) -> tuple:
    """(exit code, stdout, stderr, cells export, faces export) of one run; None for no export."""
    argv = [a.format(k=k) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "tightspan.cli", *argv], cwd=work, env=_env(src), capture_output=True
    )
    exports = []
    for suffix in ("cells", "faces"):
        path = work / f"{k}-{suffix}.json"
        exports.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return (proc.returncode, proc.stdout, proc.stderr, *exports)


def compare(parent_src, change_src, specs) -> tuple[int, list]:
    """(runs, differing) on the metrics of specs: differing lists (run name, fields that differ)."""
    parent_src, change_src = Path(parent_src).resolve(), Path(change_src).resolve()
    runs = _runs(specs)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [(parent_src, Path(tmp, "parent")), (change_src, Path(tmp, "change"))]
        for src, work in sides:
            work.mkdir()
            _generate(src, work, specs)

        def differs(k):
            name, argv = runs[k]
            a, b = (_run(src, work, k, argv) for src, work in sides)
            return name, [field for field, x, y in zip(FIELDS, a, b) if x != y]

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(differs, range(len(runs))))
    return len(runs), [(name, fields) for name, fields in results if fields]


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: python scripts/compare_reports.py PARENT_SRC [CHANGE_SRC]", file=sys.stderr)
        return 2
    change = argv[1] if len(argv) == 2 else Path(__file__).resolve().parent.parent / "src"
    for src in (argv[0], change):
        if not Path(src, "tightspan", "__init__.py").is_file():
            print(f"error: {src} holds no tightspan package", file=sys.stderr)
            return 2
    total, differing = compare(argv[0], change, grid())
    for name, fields in differing:
        print(f"{name}: {', '.join(fields)} differ")
    print(f"{total} runs, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
