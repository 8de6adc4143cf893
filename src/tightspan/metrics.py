"""Exact rational metrics: validation, generators, and metric-level predicates.

All distances are fractions.Fraction values (arbitrary precision, always in
lowest terms); no floating point enters anywhere.  A Metric stores only the
upper triangle in lexicographic pair order, so symmetry and the zero diagonal
are structural.  Metric.scaled, the entries as integers over one common
denominator, is the integer form that every exact layer and both metric
flags read; validate_metric and metric_from_upper, the only builders of a
Metric, compute it once, with the metric.  Malformed tables are rejected,
never repaired.

The isolated-distance shifts and the monotone difference (dmax) property
that the paper's proofs use are test oracles (tests/oracles.py).

The canonical file format is JSON: {"n": <int>, "upper": ["p/q", ...]} with
entries in lexicographic pair order; floating-point literals are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from random import Random
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .common import _int_of, _quote, format_rational, num_pairs, pair_index, pair_table
from .common import parse_rational
from .errors import PreconditionViolated

if TYPE_CHECKING:  # pragma: no cover
    from .graphs import EdgeGraph


class Metric(NamedTuple):
    """Symmetric rational distance function on points 1..n.

    scaled is (numerators, D): the entries as integers over their common
    denominator D.
    """

    n: int
    entries: tuple[Fraction, ...]  # upper triangle, lexicographic pair order
    scaled: tuple[tuple[int, ...], int]

    def d(self, i: int, j: int) -> Fraction:
        """Distance between nodes i and j of 1..n; d(i,i) = 0 by convention."""
        if i == j and 0 < i <= self.n:
            return Fraction(0)
        return self.entries[pair_index(self.n, i, j)]

    @property
    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.scaled[0])

    @property
    def satisfies_triangle(self) -> bool:
        """d(i,k) <= d(i,j) + d(j,k) for distinct i, j, k; j = i or k adds 0 and passes."""
        num = self.scaled[0]
        rows = _square(self.n, num, 0)
        return all(
            v <= a + b
            for (i, k), v in zip(pair_table(self.n), num)
            for a, b in zip(rows[i - 1], rows[k - 1])
        )


def _square(n: int, upper: Sequence, zero: object) -> list[list]:
    """The symmetric n x n table of upper-triangle values, zero on the diagonal."""
    table = [[zero] * n for _ in range(n)]
    for (i, j), value in zip(pair_table(n), upper):
        table[i - 1][j - 1] = table[j - 1][i - 1] = value
    return table


def validate_metric(table: Sequence[Sequence[object]]) -> Metric:
    """Build a Metric from a square distance table.

    Rejects non-square or asymmetric tables, nonzero diagonals and n
    outside 3..64; never repairs values.
    """
    n = len(table)
    _require_points(n)
    rows = [[parse_rational(x) for x in row] for row in table]
    for row in rows:
        if len(row) != n:
            raise PreconditionViolated("table is not square")
    for i in range(n):
        if rows[i][i] != 0:
            raise PreconditionViolated(f"d({i + 1},{i + 1}) = {rows[i][i]} != 0")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise PreconditionViolated(
                    f"d({i + 1},{j + 1}) = {rows[i][j]} but d({j + 1},{i + 1}) = {rows[j][i]}"
                )
    return _metric(n, tuple(rows[i - 1][j - 1] for i, j in pair_table(n)))


def metric_from_upper(n: int, upper: Sequence[object]) -> Metric:
    """Metric from an upper-triangle entry list in lexicographic pair order, 3 <= n <= 64."""
    _require_points(n)
    if len(upper) != num_pairs(n):
        raise PreconditionViolated(f"expected {num_pairs(n)} entries for n={n}, got {len(upper)}")
    return _metric(n, tuple(parse_rational(x) for x in upper))


def _metric(n: int, entries: tuple[Fraction, ...]) -> Metric:
    """The Metric of the entries, with their integer form over the common denominator."""
    D = lcm(*(e.denominator for e in entries))
    return Metric(n, entries, (tuple(e.numerator * (D // e.denominator) for e in entries), D))


_MAX_POINTS = 64  # far past any subdivision in reach: traversal time doubles per point


def _require_points(n: int) -> None:
    """Refuse an n outside 3.._MAX_POINTS before any pair is built."""
    if n < 3:
        raise PreconditionViolated(f"need at least 3 points, got {_quote(n)}")
    if n > _MAX_POINTS:
        raise PreconditionViolated(f"need n <= {_MAX_POINTS}, got {_quote(n)}")


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


def submetric(d: Metric, nodes: Iterable[int]) -> Metric:
    """Metric induced on a node subset, relabeled 1..|S| preserving order."""
    subset = sorted(set(nodes))
    if len(subset) < 3:
        raise PreconditionViolated(f"need at least 3 nodes, got {len(subset)}")
    for v in subset:
        if not (1 <= v <= d.n):
            raise PreconditionViolated(f"node {v} not in 1..{d.n}")
    m = len(subset)
    upper = tuple(
        d.d(subset[i - 1], subset[j - 1]) for i, j in pair_table(m)
    )
    return metric_from_upper(m, upper)


def strict_triangle_nodes(d: Metric) -> frozenset[int]:
    """Nodes i with d(i,j) + d(i,k) > d(j,k) strictly for all j,k != i.

    These are the nodes whose corner simplex survives in the tight span
    (one extra vertex and edge each).
    """
    num = d.scaled[0]
    rows = _square(d.n, num, 0)
    pairs = pair_table(d.n)
    return frozenset(
        i
        for i, row in enumerate(rows, 1)
        if all(
            row[j - 1] + row[k - 1] > v
            for (j, k), v in zip(pairs, num)
            if j != i != k
        )
    )


# -- canonical JSON file format -------------------------------------------------


def metric_to_json(d: Metric) -> str:
    payload = {"n": d.n, "upper": [format_rational(e) for e in d.entries]}
    return json.dumps(payload, indent=None, separators=(", ", ": ")) + "\n"


def _reject_float(text: str) -> Fraction:
    raise ValueError(f"floating-point literal rejected: {text!r}")


def metric_from_json(text: str) -> Metric:
    try:
        # integer literals convert past CPython's 4,300-digit limit, as strings do
        payload = json.loads(text, parse_float=_reject_float, parse_int=_int_of)
    except RecursionError:
        raise ValueError("metric JSON is nested too deeply") from None
    if not isinstance(payload, dict) or "n" not in payload or "upper" not in payload:
        raise ValueError('metric JSON must be {"n": ..., "upper": [...]}')
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("n must be an integer")
    if not isinstance(payload["upper"], list):
        raise ValueError("upper must be a list")
    # every entry is parsed before the arity is checked, so a bad entry is named first
    return metric_from_upper(n, [parse_rational(x) for x in payload["upper"]])


def load_metric(path: str) -> Metric:
    with open(path, "r", encoding="utf-8") as fh:
        return metric_from_json(fh.read())
