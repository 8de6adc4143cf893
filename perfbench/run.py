"""Benchmark of `tspan compute`, run from the repository root.

    python3 perfbench/run.py --workload compute-enum --seed 1 --seconds 10 --trace 0

With --trace 0 one closed-loop client starts one `tspan compute <file>
--format json --no-timestamp --export-cells <path>` process at a time, for
--seconds seconds rounded up to whole cycles of the workload's inputs, and
checks every report with the gate in check.py.  Timings are rescaled to a
nominal machine speed (speed.py).  It prints one row with every end-to-end
metric, its unit and sample count, and as its last line one JSON object with
the keys correct, attempted, failed and metrics.

With --trace 1 it makes the traced run of traced.py instead, plus the
scaling sweep of sweep.py for the workload that carries it, and reports the
per-layer metrics; --seconds is not used there.

The program is the package under src/ of the checkout this file sits in.
Inputs, exported cells and traces go to perfbench/work/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import check
import speed
import sweep
import traced
from inputs import WORKLOADS
from proc import TIMEOUT_S, tspan

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "work")

SETUP_RUNS = 9

# Metric -> unit; which way is better, and the bounds, live in BENCHMARK.json.
END_TO_END = {
    "report_p50_s": "s",
    "report_tail_s": "s",
    "reports_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Sample:
    wall_s: float
    peak_rss_mb: float
    status: str


def load_library():
    """Import the package from the checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "tightspan", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    ts = importlib.import_module("tightspan")
    importlib.import_module("tightspan.cli")
    if os.path.realpath(ts.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported tightspan from {ts.__file__}, not {init}")
    return ts


def measure_setup(workdir: str) -> list[float]:
    """Wall times of fresh `tspan gen --kind dmax --n 4` processes, at nominal speed, after one untimed warm-up."""
    argv = ["gen", "--kind", "dmax", "--n", "4", "-o", os.path.join(workdir, "setup.json")]
    times, groups = [], []
    for k in range(SETUP_RUNS + 1):
        if k:
            groups.append(speed.references())
        r = tspan(SRC, argv, workdir)
        if r.code != 0:
            raise SystemExit(f"error: tspan gen exited {r.code}: {r.stderr.strip()}")
        if k:
            times.append(r.wall_s)
    groups.append(speed.references())
    return speed.rescale(times, groups)


def closed_loop(ts, workload, seed: int, seconds: float, workdir: str) -> tuple[list[Sample], list[list[float]]]:
    """Reports started back to back over whole cycles of the workload's families.

    The loop ends at the first cycle boundary after `seconds`, so every run
    holds each family in the same proportion.  Returns the samples and the
    groups of reference samples around them, one more group than samples.
    """
    path = os.path.join(workdir, "input.json")
    cells = os.path.join(workdir, "cells.json")
    argv = ["compute", path, "--format", "json", "--no-timestamp", "--export-cells", cells, *workload.flags]
    samples, groups = [], []
    inputs = workload.inputs(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) % len(workload.families):
        inp = next(inputs)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inp.to_json())
        groups.append(speed.references())
        r = tspan(SRC, argv, workdir)
        status, reason = check.judge(ts, inp, r.code, r.stdout, r.stderr, cells)
        if status != check.GOOD:
            print(f"{status}: {inp.name}: {reason}", file=sys.stderr)
        samples.append(Sample(r.wall_s, r.peak_rss_mb, status))
    groups.append(speed.references())
    return samples, groups


def tail(ranked: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its label.

    Below 21 samples that percentile lies under the median, so the median
    is reported instead; the two agree at 21 samples.
    """
    n = len(ranked)
    median = statistics.median(ranked)
    if n < 21:
        return median, "p50"
    return max(median, sorted(ranked)[n - 11]), f"p{100 * (n - 10) // n}"


def end_to_end(ts, workload, seed: int, seconds: float, workdir: str) -> int:
    speed.share_core_with_children()
    setup = measure_setup(workdir)
    samples, groups = closed_loop(ts, workload, seed, seconds, workdir)
    walls = speed.rescale([s.wall_s for s in samples], groups)
    n = len(samples)
    good = sum(s.status == check.GOOD for s in samples)
    failed = sum(s.status == check.FAILED for s in samples)
    wrong = sum(s.status == check.WRONG for s in samples)
    # A failed or wrong report ranks as slow as the timeout, behind every good one.
    ranked = [wall if s.status == check.GOOD else TIMEOUT_S for s, wall in zip(samples, walls)]
    tail_s, tail_label = tail(ranked)
    values = {
        "report_p50_s": statistics.median(ranked),
        "report_tail_s": tail_s,
        # Per second of the reports' own wall time, so the benchmark's reference
        # samples and gate between reports do not dilute a faster program.
        "reports_per_s": good / sum(walls),
        "ok_share": good / n,
        "peak_rss_mb": max(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(setup),
    }
    shown = dict(
        values,
        fail_share=failed / n,
        wrong_share=wrong / n,
        speed_factor=speed.factor([x for group in groups for x in group]),
        report_p50_raw_s=statistics.median(s.wall_s if s.status == check.GOOD else TIMEOUT_S for s in samples),
    )
    units = dict(END_TO_END, fail_share="ratio", wrong_share="ratio", speed_factor="ratio", report_p50_raw_s="s")
    counts = {"setup_s": len(setup), "speed_factor": len(groups) * speed.SAMPLES_PER_REPORT}
    cells = []
    for name, value in shown.items():
        label = f"{tail_label}, " if name == "report_tail_s" else ""
        cells.append(f"{name}={value:.6g} {units[name]} ({label}n={counts.get(name, n)})")
    print(f"{workload.name} seed={seed} | " + " | ".join(cells))
    result = {
        "correct": wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(ts, workload, seed: int, workdir: str) -> int:
    out = traced.run(ts, SRC, workload, seed, workdir)
    problems = out["problems"]
    values = out["values"]
    record = {"workload": workload.name, "seed": seed, "per_layer": values, "spans": out["spans"]}
    rows = [
        f"{workload.name} seed={seed} traced | "
        + " | ".join(f"{name}={values[name]:.6g} {unit}" for name, unit in traced.PER_LAYER.items())
    ]
    if workload.sweep:
        record["sweep"], sweep_problems = sweep.run(ts)
        problems += sweep_problems
        rows.append("sweep | " + " | ".join(f"{name}={value:.6g}" for name, value in record["sweep"].items()))
    trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print("\n".join(rows))
    print(f"spans and counters written to {os.path.relpath(trace_path)}")
    result = {
        "correct": not problems,
        "attempted": len(out["statuses"]),
        "failed": out["statuses"].count(check.FAILED),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in traced.PER_LAYER.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ts = load_library()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload]
        if args.trace:
            return traced_run(ts, workload, args.seed, workdir)
        return end_to_end(ts, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
