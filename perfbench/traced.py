"""The traced run: per-layer self times and counters, and the tracing overhead.

For each of the first PASS_LEN inputs of the workload the run makes one
`tspan compute` subprocess (untraced, end to end), then calls the same
command in process three times: untraced, with every public library
function wrapped in spans, and untraced again.  Each in-process call starts with the library's
caches cleared, as a fresh process would.  Times and counters are means per
report over the pass; shares are ratios of the pass totals.

On every generic input small enough for enumeration (n <= 8) the run also
checks that traverse_cells and enumerate_cells give the same cells, and
times enumerate_cells with jobs=1 and jobs=2.  An input on which seed_cell
gives up is counted, not compared.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

import check
from inputs import Workload
from proc import tspan
from spans import Tracer, totals

PASS_LEN = 3
ENUMERATION_MAX_N = 8  # the CLI's default --threshold

# Per-layer metric -> unit; which way is better lives in BENCHMARK.json.
PER_LAYER = {
    "subdivision.candidate_graphs.self_s": "s",
    "subdivision.candidates": "count",
    "subdivision.enumerate_cells.self_s": "s",
    "subdivision.strict_share": "ratio",
    "subdivision.enumerate_cells.jobs1_s": "s",
    "subdivision.enumerate_cells.jobs2_s": "s",
    "subdivision.seed_cell.self_s": "s",
    "subdivision.seed_cell.failed": "count",
    "subdivision.traverse_cells.self_s": "s",
    "subdivision.cells": "count",
    "subdivision.pivots": "count",
    "subdivision.all_faces.self_s": "s",
    "subdivision.faces": "count",
    "subdivision.interior_share": "ratio",
    "subdivision.subdivision_to_json.self_s": "s",
    "facevectors.checks.self_s": "s",
    "facevectors.vectors.self_s": "s",
    "bounds.verify_metric_against_bounds.self_s": "s",
    "primal.enumerate_vertices.self_s": "s",
    "primal.bounded_faces.self_s": "s",
    "primal.h_by_outdegree.self_s": "s",
    "primal.crosscheck.self_s": "s",
    "primal.bases": "count",
    "primal.vertices": "count",
    "primal.vertex_yield": "ratio",
    "metrics.load_metric.self_s": "s",
    "cli.self_s": "s",
    "report.inprocess_s": "s",
    "trace.overhead_s": "s",
    "crossroute.compared": "count",
    "crossroute.seed_failed": "count",
}


def _clear_caches() -> None:
    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] == "tightspan":
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _in_process(cli, argv: list[str]) -> tuple[int | str, str, float]:
    """(exit code or exception name, stdout, wall time) of `tspan <argv>` run in this process."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code: int | str = cli.main(argv)
        except Exception as exc:  # the subprocess prints a traceback for the same input
            code = type(exc).__name__
    return code, out.getvalue(), time.perf_counter() - start


def enumerations(ts, d) -> tuple[set[int], float, float, str | None]:
    """Cells of d by enumeration, its times with jobs=1 and jobs=2, and a problem or None.

    The candidate pool is built first and not timed, so both times are filtration only.
    """
    sub = ts.subdivision
    sub.candidate_graphs(d.n)
    start = time.perf_counter()
    serial = sub.enumerate_cells(d)
    jobs1 = time.perf_counter() - start
    start = time.perf_counter()
    parallel = sub.enumerate_cells(d, jobs=2)
    jobs2 = time.perf_counter() - start
    cells = {c.graph.bits for c in serial.maximal_cells}
    same = {c.graph.bits for c in parallel.maximal_cells} == cells
    return cells, jobs1, jobs2, None if same else "enumerate_cells with jobs=2 differs from jobs=1"


def cross_route(ts, d, enumerated: set[int] | None):
    """(subdivision, seconds, problem) of seed_cell + traverse_cells on d.

    The problem is None unless traversal fails on d or, when `enumerated` is
    given, gives other cells than enumeration; the subdivision is None when
    traversal fails.  Raises SeedSearchFailed when seed_cell finds no seed.
    """
    sub = ts.subdivision
    start = time.perf_counter()
    try:
        traversal = sub.traverse_cells(d, sub.seed_cell(d))
    except ts.errors.DegenerateRidge as exc:
        return None, time.perf_counter() - start, f"traversal fails on a generic input: {exc}"
    seconds = time.perf_counter() - start
    traversed = {c.graph.bits for c in traversal.maximal_cells}
    if enumerated is not None and traversed != enumerated:
        return traversal, seconds, f"traversal gives {len(traversed)} cells, enumeration {len(enumerated)}"
    return traversal, seconds, None


def run(ts, src: str, workload: Workload, seed: int, workdir: str) -> dict:
    """Per-layer metric values, spans, report statuses and correctness problems of one traced run."""
    import tightspan.cli as cli

    tracer = Tracer()
    inputs = [inp for inp, _ in zip(workload.inputs(seed), range(PASS_LEN))]
    problems: list[str] = []
    statuses = []
    e2e, untraced, traced, library = [], [], [], []
    timed, compared, seed_failed, jobs1, jobs2 = 0, 0, 0, 0.0, 0.0
    path = os.path.join(workdir, "input.json")
    cells = os.path.join(workdir, "cells.json")
    argv = ["compute", path, "--format", "json", "--no-timestamp", "--export-cells", cells, *workload.flags]
    for k, inp in enumerate(inputs):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inp.to_json())
        r = tspan(src, argv, workdir)
        status, reason = check.judge(ts, inp, r.code, r.stdout, r.stderr, cells)
        statuses.append(status)
        if status == check.WRONG:
            problems.append(f"{inp.name}: {reason}")
        e2e.append(r.wall_s)

        # Untraced calls before and after the traced one, so that neither side
        # alone gets the heap the previous call left behind.
        _clear_caches()
        code, stdout, wall = _in_process(cli, argv)
        tracer.op = f"{k}:{inp.name}"
        _clear_caches()
        with tracer.patched():
            with tracer.span("cli.main") as root:
                code_t, stdout_t, wall_t = _in_process(cli, argv)
        traced.append(wall_t)
        _clear_caches()
        untraced.append((wall + _in_process(cli, argv)[2]) / 2)
        library.append(sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] == root["id"]))
        if r.code in (0, 3) and not (code == code_t == r.code and stdout == stdout_t == r.stdout):
            problems.append(f"{inp.name}: in-process report differs from the subprocess report")
        if code == 0 and inp.n <= ENUMERATION_MAX_N:
            d = ts.metrics.metric_from_upper(inp.n, inp.upper)
            enumerated, t1, t2, jobs_problem = enumerations(ts, d)
            timed += 1
            jobs1 += t1
            jobs2 += t2
            try:
                route_problem = cross_route(ts, d, enumerated)[2]
                compared += 1
            except ts.errors.SeedSearchFailed:
                route_problem = None
                seed_failed += 1
            problems += [f"{inp.name}: {p}" for p in (jobs_problem, route_problem) if p]

    own, counts = totals(tracer.spans)
    reports = len(inputs)

    def mean_self(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names) / reports

    def count(name: str, key: str) -> int:
        return counts.get(name, {}).get(key, 0)

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    traversed_ops = {s["op"] for s in tracer.spans if s["name"] == "subdivision.traverse_cells"}
    ridges = sum(
        s.get("interior_ridges", 0)
        for s in tracer.spans
        if s["name"] == "subdivision.all_faces" and s["op"] in traversed_ops
    )
    sd, fv, pr = "subdivision.", "facevectors.", "primal."
    candidates = count(sd + "candidate_graphs", "candidates")
    faces = count(sd + "all_faces", "faces")
    bases = count(pr + "enumerate_vertices", "bases")
    vertices = count(pr + "enumerate_vertices", "vertices")
    values = {
        sd + "candidate_graphs.self_s": mean_self(sd + "candidate_graphs"),
        sd + "candidates": candidates / reports,
        sd + "enumerate_cells.self_s": mean_self(sd + "enumerate_cells"),
        sd + "strict_share": share(count(sd + "enumerate_cells", "cells"), candidates),
        sd + "enumerate_cells.jobs1_s": share(jobs1, timed),
        sd + "enumerate_cells.jobs2_s": share(jobs2, timed),
        sd + "seed_cell.self_s": mean_self(sd + "seed_cell"),
        sd + "seed_cell.failed": count(sd + "seed_cell", "error:SeedSearchFailed"),
        sd + "traverse_cells.self_s": mean_self(sd + "traverse_cells"),
        sd + "cells": count(sd + "compute_subdivision", "cells") / reports,
        sd + "pivots": 2 * ridges / reports,
        sd + "all_faces.self_s": mean_self(sd + "all_faces"),
        sd + "faces": faces / reports,
        sd + "interior_share": share(count(sd + "all_faces", "interior"), faces),
        sd + "subdivision_to_json.self_s": mean_self(sd + "subdivision_to_json"),
        fv + "checks.self_s": mean_self(fv + "check_dehn_sommerville", fv + "check_ball_relations", fv + "check_asff"),
        fv + "vectors.self_s": mean_self(fv + "split_interior_boundary", fv + "tightspan_vectors", fv + "report_json"),
        "bounds.verify_metric_against_bounds.self_s": mean_self("bounds.verify_metric_against_bounds"),
        pr + "enumerate_vertices.self_s": mean_self(pr + "enumerate_vertices"),
        pr + "bounded_faces.self_s": mean_self(pr + "bounded_faces"),
        pr + "h_by_outdegree.self_s": mean_self(pr + "h_by_outdegree"),
        pr + "crosscheck.self_s": mean_self(pr + "crosscheck"),
        pr + "bases": bases / reports,
        pr + "vertices": vertices / reports,
        pr + "vertex_yield": share(vertices, bases),
        "metrics.load_metric.self_s": mean_self("metrics.load_metric"),
        "cli.self_s": sum(a - b for a, b in zip(e2e, library)) / reports,
        "report.inprocess_s": sum(untraced) / reports,
        "trace.overhead_s": (sum(traced) - sum(untraced)) / reports,
        "crossroute.compared": compared,
        "crossroute.seed_failed": seed_failed,
    }
    return {"values": values, "spans": tracer.spans, "statuses": statuses, "problems": problems}
