"""In-process spans around the calls into the library's public functions.

`Tracer.patched()` replaces each function in TRACED, in every loaded
`tightspan` module that binds it, by a wrapper that records a span: name,
start, end, parent span and the operation id shared by all spans of one
report.  Nested calls (enumerate_cells -> candidate_graphs, crosscheck ->
bounded_faces -> enumerate_vertices) become child spans.  Counters are taken
from the wrapped call's arguments and result, after the span has ended.
Spans stay in memory until the run writes them out at its end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from math import comb


def _faces(args, result) -> dict:
    n = result.n
    return {
        "faces": sum(len(level) for level in result.by_dim),
        "interior": sum(len(level) for level in result.interior_by_dim),
        "interior_ridges": len(result.interior_by_dim[n - 2]),
    }


def _bases(args, result) -> dict:
    n = args[0].n
    return {"bases": comb(n * (n - 1) // 2 + n, n), "vertices": len(result)}


# Public functions wrapped in spans, with the counters read off each call.
TRACED = {
    "metrics.load_metric": None,
    "subdivision.compute_subdivision": lambda args, r: {"cells": len(r.maximal_cells)},
    "subdivision.candidate_graphs": lambda args, r: {"candidates": len(r)},
    "subdivision.enumerate_cells": lambda args, r: {"cells": len(r.maximal_cells)},
    "subdivision.seed_cell": None,
    "subdivision.traverse_cells": lambda args, r: {"cells": len(r.maximal_cells)},
    "subdivision.all_faces": _faces,
    "subdivision.subdivision_to_json": None,
    "facevectors.split_interior_boundary": None,
    "facevectors.tightspan_vectors": None,
    "facevectors.check_dehn_sommerville": None,
    "facevectors.check_ball_relations": None,
    "facevectors.check_asff": None,
    "facevectors.report_json": None,
    "bounds.verify_metric_against_bounds": None,
    "primal.crosscheck": None,
    "primal.enumerate_vertices": _bases,
    "primal.bounded_faces": None,
    "primal.h_by_outdegree": None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counters is not None:
                record.update(counters(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers for the duration of the block."""
        undo = []
        modules = [m for key, m in list(sys.modules.items()) if key.partition(".")[0] == "tightspan"]
        try:
            for qualname, counters in TRACED.items():
                module_name, _, attr = qualname.partition(".")
                original = getattr(importlib.import_module("tightspan." + module_name), attr)
                wrapper = self.wrap(qualname, original, counters)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, value in reversed(undo):
                setattr(module, key, value)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def totals(spans: list[dict]) -> tuple[dict, dict]:
    """Self time summed per span name, and every counter summed per span name."""
    time_by_name: dict[str, float] = defaultdict(float)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s, own in zip(spans, self_times(spans)):
        time_by_name[s["name"]] += own
        if "error" in s:
            counts[s["name"]]["error:" + s["error"]] += 1
        for key, value in s.items():
            if key not in ("id", "name", "op", "parent", "start", "end", "error"):
                counts[s["name"]][key] += value
    return time_by_name, counts
