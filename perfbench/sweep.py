"""One-pass scaling sweep over dmax and dmin, made by the traced run of compute-enum.

Enumeration at n = 6..8 and traversal with face closure at n = 6..12.  The
counts are facts about the hypersimplex and these two metric families, so
they must repeat exactly; BASELINE pins the ones the roadmap recorded.
`enumerate_cells` is also timed with jobs=2 wherever it runs.  Enumeration
and traversal are timed and compared by the traced run's own helpers.
"""

from __future__ import annotations

import time

import traced
from inputs import dmax, dmin

# name -> expected value; any difference makes the run incorrect.
BASELINE = {
    "sweep.enum.dmax7.candidates": 45_615,
    "sweep.enum.dmax8.candidates": 937_440,
    "sweep.enum.dmax7.cells": 57,
    "sweep.trav.dmax7.cells": 57,
    "sweep.trav.dmax11.pivots": 5_610,
    "sweep.trav.dmax11.faces": 356_159,
    "sweep.trav.dmax12.faces": 1_229_887,
}

ENUM_N = (6, 7, 8)
TRAVERSE_N = tuple(range(6, 13))
FAMILIES = {"dmax": dmax, "dmin": dmin}


def run(ts) -> tuple[dict[str, float], list[str]]:
    """Sweep metrics by name, and the reasons the sweep is incorrect (empty when it is not)."""
    sub = ts.subdivision
    out: dict[str, float] = {}
    problems: list[str] = []
    enum_cells = {}
    for n in ENUM_N:
        sub.candidate_graphs.cache_clear()
        start = time.perf_counter()
        candidates = len(sub.candidate_graphs(n))
        out[f"sweep.pool.n{n}.s"] = time.perf_counter() - start
        for fam, gen in FAMILIES.items():
            d = ts.metrics.metric_from_upper(n, gen(n))
            cells, out[f"sweep.enum.{fam}{n}.s"], out[f"sweep.enum.{fam}{n}.jobs2_s"], problem = (
                traced.enumerations(ts, d)
            )
            out[f"sweep.enum.{fam}{n}.candidates"] = candidates
            out[f"sweep.enum.{fam}{n}.cells"] = len(cells)
            enum_cells[fam, n] = cells
            if problem:
                problems.append(f"{fam}{n}: {problem}")
    for n in TRAVERSE_N:
        for fam, gen in FAMILIES.items():
            d = ts.metrics.metric_from_upper(n, gen(n))
            s, out[f"sweep.trav.{fam}{n}.traverse_s"], problem = traced.cross_route(ts, d, enum_cells.get((fam, n)))
            if problem:
                problems.append(f"{fam}{n}: {problem}")
                continue
            start = time.perf_counter()
            faces = sub.all_faces(s)
            out[f"sweep.trav.{fam}{n}.faces_s"] = time.perf_counter() - start
            out[f"sweep.trav.{fam}{n}.cells"] = len(s.maximal_cells)
            out[f"sweep.trav.{fam}{n}.pivots"] = 2 * len(faces.interior_by_dim[n - 2])
            out[f"sweep.trav.{fam}{n}.faces"] = sum(len(level) for level in faces.by_dim)
            if s.total_volume != (1 << (n - 1)) - n:
                problems.append(f"traversal of {fam}{n} covers volume {s.total_volume}")
    for name, expected in BASELINE.items():
        if out.get(name) != expected:
            problems.append(f"{name} = {out.get(name)}, baseline {expected}")
    return out, problems
