"""The metric families, the metric file writer and the `tspan gen` command.

gen_dmax attains every upper bound, gen_dmin (gen_dgamma of dmin_graph's
triangle clusters) the top-face lower bound, and gen_random draws a
deterministic metric whose genericity is not guaranteed.  metric_to_json
writes the canonical file that metrics.load_metric reads.  parse_edge_list
reads the --graph option of dgamma.  `tspan gen` and `tspan verify` load
this module, and no report does; a graph is built, and graphs loaded, only
for dmin and dgamma.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from random import Random
from typing import TYPE_CHECKING

from .common import _quote, _write, format_rational, pair_table
from .errors import PreconditionViolated, TightSpanError
from .metrics import Metric, _require_points, metric_from_upper

if TYPE_CHECKING:  # pragma: no cover
    from .graphs import EdgeGraph


def gen_dmax(n: int) -> Metric:
    """The perturbed unit metric 1 + 1/(n^2 + i*n + j); attains every upper bound."""
    _require_points(n)
    upper = tuple(
        Fraction(1) + Fraction(1, n * n + i * n + j) for i, j in pair_table(n)
    )
    return metric_from_upper(n, upper)


def gen_dgamma(n: int, graph: EdgeGraph) -> Metric:
    """Graph-weighted metric: distance 2 on edges of the graph, dmax values elsewhere."""
    _require_points(n)
    if graph.n != n:
        raise PreconditionViolated(f"graph on {graph.n} nodes cannot weight a {n}-point metric")
    upper = tuple(
        Fraction(2) if graph.has_edge(i, j) else Fraction(1) + Fraction(1, n * n + i * n + j)
        for i, j in pair_table(n)
    )
    return metric_from_upper(n, upper)


def dmin_graph(n: int) -> EdgeGraph:
    """Cluster graph of floor(n/3) triangles with n mod 3 isolated nodes.

    Nodes group as {1,2,3},{4,5,6},...; when n = 2 (mod 3) the last node is
    kept isolated even though its group would otherwise pair it with n-1.
    """
    from .graphs import EdgeGraph

    _require_points(n)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i - 1) // 3 != (j - 1) // 3:
                continue
            if n % 3 == 2 and j >= n:
                continue
            edges.append((i, j))
    return EdgeGraph.from_edges(n, edges)


def gen_dmin(n: int) -> Metric:
    """Triangle-cluster metric attaining the top-dimension lower bound."""
    return gen_dgamma(n, dmin_graph(n))


def gen_random(n: int, seed: int, resolution: int = 0) -> Metric:
    """Deterministic random metric with entries 1 + k/resolution.

    k lies in [1, max(1, resolution // n)], so below resolution n every entry
    is 1 + 1/resolution.  All entries lie in (1, 1 + max(1/n, 1/resolution)],
    inside (1, 2], so any two sum to more than 2, which no third exceeds:
    the triangle inequality holds structurally.  Genericity is not guaranteed; test it.
    resolution 0 means the default max(10^4, n^4); a negative one raises
    PreconditionViolated.
    """
    _require_points(n)
    if resolution < 0:
        raise PreconditionViolated(f"resolution must be >= 0, got {resolution}")
    if resolution == 0:
        resolution = max(10_000, n**4)
    rng = Random(seed)
    top = max(1, resolution // n)
    upper = tuple(
        Fraction(1) + Fraction(rng.randint(1, top), resolution) for _ in pair_table(n)
    )
    return metric_from_upper(n, upper)


def metric_to_json(d: Metric) -> str:
    payload = {"n": d.n, "upper": [format_rational(e) for e in d.entries]}
    return json.dumps(payload, indent=None, separators=(", ", ": ")) + "\n"


_EDGE = re.compile(r"\s*([0-9]+)\s*-\s*([0-9]+)\s*")


def parse_edge_list(n: int, text: str) -> EdgeGraph:
    """Edge list in CLI form "1-2,3-4" (empty string means no edges).

    Each chunk is two ASCII-digit node numbers joined by "-"; any other
    chunk raises ValueError, and a node outside 1..n PreconditionViolated,
    both quoting it.  A number with more digits than n is out of range unread.
    """
    from .graphs import EdgeGraph

    text = text.strip()
    if not text:
        return EdgeGraph(n, 0)
    edges = []
    for chunk in text.split(","):
        match = _EDGE.fullmatch(chunk)
        if match is None:
            raise ValueError(f"bad edge {_quote(chunk)}: expected i-j")
        ends = [v.lstrip("0") for v in match.groups()]
        if any(len(v) > len(str(n)) or not 1 <= int(v or 0) <= n for v in ends):
            raise PreconditionViolated(f"bad edge {_quote(chunk)}: nodes must lie in 1..{n}")
        edges.append((int(ends[0]), int(ends[1])))
    return EdgeGraph.from_edges(n, edges)


def cmd_gen(args) -> int:
    try:
        if args.kind == "dmax":
            d = gen_dmax(args.n)
        elif args.kind == "dmin":
            d = gen_dmin(args.n)
        elif args.kind == "dgamma":
            if args.graph is None:
                print("error: --kind dgamma requires --graph", file=sys.stderr)
                return 2
            _require_points(args.n)  # the graph's bitmask grows as n^2
            d = gen_dgamma(args.n, parse_edge_list(args.n, args.graph))
        else:
            d = gen_random(args.n, args.seed, args.resolution)
    except (TightSpanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if _write(args.output, lambda: [metric_to_json(d)]) else 2
