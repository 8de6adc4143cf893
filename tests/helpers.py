"""Shared fixtures and small independent oracles for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from pathlib import Path
from random import Random

import oracles
import tightspan.subdivision as sd
from oracles import is_interior_mask
from tightspan.common import format_rational, num_pairs, pair_table, parse_rational
from tightspan.errors import DegenerateRidge
from tightspan.facevectors import FaceReport, face_report
from tightspan.graphs import EdgeGraph, cell_components, node_edge_masks
from tightspan.faces import FaceSet, all_faces, boundary_tags
from tightspan.filtration import enumerate_cells
from tightspan.gen import gen_dmax, gen_dmin, gen_random
from tightspan.metrics import Metric, metric_from_upper, validate_metric
from tightspan.primal import (
    BoundedFacePoset,
    PrimalVertex,
    _constraints,
    _eliminate,
    enumerate_vertices,
)
from tightspan.subdivision import DegeneracyReport, Subdivision, lambda_certificate

FOUR_POINTS = [[0, 2, 3, 2], [2, 0, 2, 3], [3, 2, 0, 2], [2, 3, 2, 0]]
IDEAL_FOUR = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]


def long_upper() -> list[str]:
    """The four-point metric perturbed by 2,500-digit numerators and denominators."""
    rng = Random(2500)
    upper = []
    for base in (2, 3, 2, 2, 3, 2):
        den = rng.randrange(10**2499, 10**2500)
        upper.append(f"{base * den + rng.randrange(den // 10)}/{den}")
    return upper


def loaded_modules(code: str) -> set[str]:
    """The tightspan modules, dataclasses and inspect that a fresh interpreter loads to run code."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        code + "\nimport sys\n"
        "print(*(m for m in sys.modules if m.partition('.')[0] == 'tightspan'"
        " or m in ('dataclasses', 'inspect')), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@lru_cache(maxsize=None)
def metric(name: str) -> Metric:
    kind, _, arg = name.partition("-")
    if kind == "4points":
        return validate_metric(FOUR_POINTS)
    if kind == "long":
        return metric_from_upper(4, tuple(map(parse_rational, long_upper())))
    if kind == "ideal":
        return validate_metric(IDEAL_FOUR)
    if kind == "dmax":
        return gen_dmax(int(arg))
    if kind == "dmin":
        return gen_dmin(int(arg))
    if kind == "rand":
        n, seed = arg.split(".")
        return gen_random(int(n), int(seed))
    if kind == "hires":
        # resolution 10^12: a large common denominator and no accidental ties
        n, seed = arg.split(".")
        return gen_random(int(n), int(seed), 10**12)
    raise KeyError(name)


@lru_cache(maxsize=None)
def subdivision(name: str) -> Subdivision:
    return enumerate_cells(metric(name))


@lru_cache(maxsize=None)
def report(name: str) -> FaceReport:
    return face_report(subdivision(name))


def faces(name: str) -> FaceSet:
    return all_faces(subdivision(name))


def tsv(name: str):
    return report(name).span


# -- independent oracles -------------------------------------------------------


def assert_equality_witness(d: Metric, witness) -> None:
    """The witness graph's heights meet d with equality on the pair off it."""
    graph, (i, j) = witness
    cert = lambda_certificate(d, graph)
    assert isinstance(cert, DegeneracyReport) and not graph.has_edge(i, j)
    assert cert.heights[i - 1] + cert.heights[j - 1] == d.d(i, j)


def break_lp_support(monkeypatch) -> None:
    """Make the matching LP of oracles.lp_seed_cell return its support one edge short.

    Such a support is never a candidate cell; only a broken solver could
    return it, and the candidate guard must refuse it.
    """
    solve = oracles.solve_w_matching

    def on_a_wall(d, w):
        fm = solve(d, w)
        low = fm.support.bits & -fm.support.bits
        return fm._replace(support=EdgeGraph(d.n, fm.support.bits ^ low))

    monkeypatch.setattr(oracles, "solve_w_matching", on_a_wall)


def break_first_cell(monkeypatch) -> None:
    """Make compute_subdivision start from its first cell one edge short.

    Such a graph is never a candidate cell; only a broken first-cell rule
    could return it, and the certificate's candidate guard must refuse it.
    """
    first = sd._first_cell

    def one_edge_short(d):
        G = first(d)
        return EdgeGraph(d.n, G.bits ^ G.bits & -G.bits)

    monkeypatch.setattr(sd, "_first_cell", one_edge_short)


def break_ridge_pivot(monkeypatch) -> None:
    """Make the ridge step complete a ridge by an edge that gives no candidate.

    Each step's ridge is its cell's mask less the leaving edge.  The first
    edge that gives no candidate with it is entered when the ridge has
    one; only a broken ratio test could pick it, and the traversal's guard
    must refuse the mask.
    """
    steps = sd._ridge_steps

    def off_the_candidates(dnum2, mask, edges, lam):
        n = len(lam)
        for step in steps(dnum2, mask, edges, lam):
            rmask = mask ^ 1 << step[0]
            for p in range(num_pairs(n)):
                if not rmask >> p & 1 and cell_components(n, rmask | 1 << p) is None:
                    step = (step[0], [p], 0, *step[3:])
                    break
            yield step

    monkeypatch.setattr(sd, "_ridge_steps", off_the_candidates)


def det_int(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(rows)
    M = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def rank_int(rows: list[list[int]]) -> int:
    """Exact rank over the rationals by integer elimination."""
    M = [row[:] for row in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(len(M)):
            if r != rank and M[r][c]:
                a, b = M[rank][c], M[r][c]
                M[r] = [a * x - b * y for x, y in zip(M[r], M[rank])]
        rank += 1
        if rank == len(M):
            break
    return rank


def incidence_rows(n: int, edges) -> list[list[int]]:
    """Vertex vectors e_i + e_j of the given edges of K_n."""
    rows = []
    for i, j in edges:
        row = [0] * n
        row[i - 1] = 1
        row[j - 1] = 1
        rows.append(row)
    return rows


def random_transform(n: int, rng: Random) -> tuple[list[int], list[Fraction], Fraction]:
    """A permutation, isolated shifts a >= 0 and a scale c > 0 of n nodes, drawn from rng."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    a = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in perm]
    return perm, a, Fraction(rng.randint(1, 9), rng.randint(1, 9))


def transformed(d: Metric, perm: list[int], a: list[Fraction], c: Fraction) -> tuple:
    """d relabelled by perm, shifted by isolated distances a >= 0 and scaled by c > 0.

    A relabelling by a permutation permutes the cells and their heights, an
    isolated shift d_ij + a_i + a_j adds a to the heights, and a positive
    scaling scales them; none changes the verdict.  Each transform comes as
    (metric, perm, heights map): node i goes to perm[i - 1], and the map
    takes a cell's integer heights and their scale, (lam, scale), to the
    transformed cell's, in integers, so no Fraction is built.
    """
    nodes = range(1, d.n + 1)
    back = [perm.index(v) + 1 for v in nodes]
    shifts = [oracles.IsolatedDistance(i, a[i - 1]) for i in nodes]
    q = lcm(*(s.denominator for s in a))
    aq = [s.numerator * (q // s.denominator) for s in a]  # a at scale q
    return (
        (validate_metric([[d.d(back[x - 1], back[y - 1]) for y in nodes] for x in nodes]), perm,
         lambda lam, scale: ([lam[v - 1] for v in back], scale)),
        (validate_metric(oracles.shift_by_isolated(d, shifts)), list(nodes),
         lambda lam, scale: ([v * q + s * scale for v, s in zip(lam, aq)], scale * q)),
        (validate_metric([[c * d.d(x, y) for y in nodes] for x in nodes]), list(nodes),
         lambda lam, scale: ([c.numerator * v for v in lam], scale * c.denominator)),
    )


def follows_transform(S: Subdivision, T: Subdivision, perm: list[int], heights_map) -> bool:
    """T has S's verdict and, when S is generic, S's cells and down-degree histogram.

    The cells of S must come out relabelled by perm, at heights_map of their
    heights: a transform of transformed() and its subdivision T.  Heights
    are compared as integers, each side's lam times the other's scale.
    """
    if T.generic != S.generic:
        return False
    if not S.generic:
        return True
    mapped = {
        EdgeGraph.from_edges(S.n, [(perm[i - 1], perm[j - 1]) for i, j in c.graph.edges()]):
        heights_map(c.lam, c.scale)
        for c in S.maximal_cells
    }
    cells = {c.graph: c for c in T.maximal_cells}
    return (
        mapped.keys() == cells.keys()
        and all(
            [v * cells[g].scale for v in lam] == [v * scale for v in cells[g].lam]
            for g, (lam, scale) in mapped.items()
        )
        and sd.down_degrees(T) == sd.down_degrees(S)
    )


def naive_faces(S: Subdivision) -> tuple[tuple, tuple]:
    """(by_dim, interior_by_dim) of a triangulation from every subset of every cell.

    A face is interior when it covers every node and is not a full star.
    """
    n = S.n
    levels: list[set[int]] = [set() for _ in range(n)]
    for cell in S.maximal_cells:
        mask = cell.graph.bits
        edges = [1 << p for p in range(mask.bit_length()) if mask >> p & 1]
        for r in range(1, n + 1):
            for combo in combinations(edges, r):
                levels[r - 1].add(sum(combo))
    by_dim = tuple(tuple(sorted(level)) for level in levels)
    interior = tuple(
        frozenset(mask for mask in level if is_interior_mask(n, mask)) for level in by_dim
    )
    return by_dim, interior


def spanning_subgraph_masks(n: int, m_edges: int):
    """All m_edges-subsets of K_n edges covering every node (brute force)."""
    pairs = pair_table(n)
    for combo in combinations(range(num_pairs(n)), m_edges):
        covered = set()
        for p in combo:
            covered.update(pairs[p])
        if len(covered) == n:
            yield combo


def best_perfect_matching(d: Metric) -> tuple[Fraction, frozenset]:
    """Maximum-weight perfect matching by exhaustive recursion (small n, n even)."""
    n = d.n
    best: list = [None, None]

    def rec(free: frozenset, acc: Fraction, used: frozenset) -> None:
        if not free:
            if best[0] is None or acc > best[0]:
                best[0], best[1] = acc, used
            return
        i = min(free)
        for j in sorted(free - {i}):
            rec(free - {i, j}, acc + d.d(i, j), used | {(i, j)})

    rec(frozenset(range(1, n + 1)), Fraction(0), frozenset())
    return best[0], best[1]


def vertices_by_bases(d: Metric) -> tuple[PrimalVertex, ...]:
    """Vertices of the tight-span polyhedron by one full elimination per basis.

    Every n-subset of the constraints is eliminated on its own and its
    solution tested against every constraint on integer numerators: the
    slow, exhaustive reference for primal.enumerate_vertices.
    """
    n = d.n
    rows = _constraints(n)
    rhs = list(d.entries) + [Fraction(0)] * n
    denom = lcm(*(v.denominator for v in rhs))
    rhs_int = [int(v * denom) for v in rhs]
    m = len(rows)

    found: dict[tuple[Fraction, ...], None] = {}
    for subset in combinations(range(m), n):
        M = [list(rows[i]) + [rhs_int[i]] for i in subset]
        rank, scale = _eliminate(M, n)
        if rank < n:
            continue
        # x = num / (scale * denom); test every constraint on the numerators
        if scale < 0:
            num = [-row[n] for row in M]
            scale = -scale
        else:
            num = [row[n] for row in M]
        if all(
            sum(r * xi for r, xi in zip(rows[c], num)) >= rhs_int[c] * scale
            for c in range(m)
        ):
            found.setdefault(tuple(Fraction(v, scale * denom) for v in num))

    vertices = []
    for coords in sorted(found):
        tight = [
            c for c in range(m)
            if sum(r * xi for r, xi in zip(rows[c], coords)) == rhs[c]
        ]
        vertices.append(PrimalVertex(coords, sum(1 << c for c in tight), len(tight) == n))
    return tuple(vertices)


def vertices_against_cells(S: Subdivision) -> tuple[dict, dict]:
    """The primal vertices of S.metric, and what they must be for generic S.

    Both sides map a tight mask to a point.  The primal side holds every
    vertex of enumerate_vertices.  The expected side holds each cell of S at
    its heights, and for each node i the corner x = d(i, .), tight on the
    star of i and on x_i >= 0.
    """
    d, n = S.metric, S.n
    expected = {c.graph.bits: c.heights for c in S.maximal_cells}
    for i, star in enumerate(node_edge_masks(n), 1):
        corner = tuple(d.d(i, j) for j in range(1, n + 1))
        expected[star | 1 << (num_pairs(n) + i - 1)] = corner
    return {v.tight: v.coords for v in enumerate_vertices(d)}, expected


def pencils_against_solver(S: Subdivision) -> tuple[int, int]:
    """(interior ridges walked, those that differ) over every cell of generic S.

    Each cell's ridge steps come from subdivision._ridge_steps, given the
    cell's subdivision._interior_edges.  On each one, sigma must be the
    ridge's _solve_scaled sigma up to sign, the sign that makes the leaving
    pair's slack grow, and the tree its support; the step must enter the
    other cell of the ridge, at its heights lam + t*sigma, and that cell
    must have the cell's cell_components count, plus 1 when the leaving edge
    is off the cycle, minus 1 when the entering pair's sigma sum s has
    |s| = 1.  Every ridge shared by two cells must be
    walked from both and no other ridge at all; each miss counts as one.
    """
    n = S.n
    dnum, _ = S.metric.scaled
    dnum2 = [2 * v for v in dnum]
    pairs0 = [(i - 1, j - 1) for i, j in pair_table(n)]
    count = {c.graph.bits: cell_components(n, c.graph.bits) for c in S.maximal_cells}
    lams = {c.graph.bits: list(c.lam) for c in S.maximal_cells}
    cells_of: dict[int, list[int]] = {}
    for mask in count:
        for p in range(num_pairs(n)):
            if mask >> p & 1:
                cells_of.setdefault(mask ^ 1 << p, []).append(mask)
    walked: dict[int, int] = {}
    bad = 0
    for mask, lam in lams.items():
        edges = sd._interior_edges(n, mask)
        for leaving, slots, t, sigma, tree, off_cycle in sd._ridge_steps(dnum2, mask, edges, lam):
            rmask = mask ^ 1 << leaving
            walked[rmask] = walked.get(rmask, 0) + 1
            _, ref = sd._solve_scaled(n, rmask, dnum)
            a, b = pairs0[leaving]
            same = sigma in (ref, [-v for v in ref]) and sigma[a] + sigma[b] > 0
            same = same and sorted(tree) == [v for v in range(n) if sigma[v]]
            other = [m for m in cells_of[rmask] if m != mask]
            if same and len(other) == 1:
                entering = (other[0] ^ rmask).bit_length() - 1
                i, j = pairs0[entering]
                s = sigma[i] + sigma[j]
                same = slots == [entering]
                same = same and [h + t * v for h, v in zip(lam, sigma)] == lams[other[0]]
                same = same and count[other[0]] == count[mask] + off_cycle - (abs(s) == 1)
            bad += not same
    shared = {r for r, masks in cells_of.items() if len(masks) == 2}
    bad += sum(walked.get(r) != 2 for r in shared) + len(walked.keys() - shared)
    return sum(walked.values()), bad


def boundary_rule_against_tags(S: Subdivision) -> tuple[int, int, int]:
    """(edges of the cells of S, boundary edges among them, those that differ).

    An edge e of a cell mask must be in subdivision._interior_edges just
    when its ridge mask - e has no facet in boundary_tags, the face
    export's tags; subdivision._ridge_steps, given a boundary edge, must
    raise DegenerateRidge for an unbounded pencil.  Each miss counts as one.
    """
    n = S.n
    dnum2 = [2 * v for v in S.metric.scaled[0]]
    edges = boundary = bad = 0
    for cell in S.maximal_cells:
        mask = cell.graph.bits
        interior = sd._interior_edges(n, mask)
        bad += bool(interior & ~mask)
        for p in range(num_pairs(n)):
            e = 1 << p
            if not mask & e:
                continue
            edges += 1
            tagged = boundary_tags(n, mask ^ e) != ((), ())
            bad += tagged == bool(interior & e)
            if not tagged:
                continue
            boundary += 1
            try:
                list(sd._ridge_steps(dnum2, mask, e, cell.lam))
            except DegenerateRidge as exc:
                bad += str(exc) != "ridge pencil is unbounded beyond the ridge"
            else:
                bad += 1
    return edges, boundary, bad


def outdegree_h(poset: BoundedFacePoset, alpha) -> tuple[int, ...]:
    """Vertex counts of a simple poset by descending bounded edges under objective alpha.

    primal.h_by_outdegree fixes the all-ones objective; ties break on
    coordinates alike.
    """
    def key(vid):
        x = poset.vertices[vid].coords
        return (sum(a * xi for a, xi in zip(alpha, x)),) + x

    outdeg = [0] * len(poset.vertices)
    for face in poset.faces:
        if face.dim == 1:
            outdeg[max(face.vertex_ids, key=key)] += 1
    return tuple(outdeg.count(j) for j in range(poset.n + 1))


def cells_json(S: Subdivision) -> str:
    """The cell export as a payload through the json encoder: the writer's oracle.

    Heights come from Cell.heights, the Fractions, not from the integers the
    writer reads.
    """
    payload = {
        "n": S.n,
        "generic": S.generic,
        "cells": [
            {
                "edges": [list(e) for e in cell.graph.edges()],
                "lambda": [format_rational(v) for v in cell.heights],
                "volume": cell.volume,
            }
            for cell in S.maximal_cells
        ],
    }
    if S.degeneracy_witness is not None:
        graph, pair = S.degeneracy_witness
        payload["witness"] = {
            "graph": [list(e) for e in graph.edges()],
            "pair": list(pair),
        }
    return json.dumps(payload, indent=2) + "\n"


def faces_json(F: FaceSet) -> str:
    """The face export as a payload through the json encoder: the writer's oracle."""

    def facets(mask: int, interior: frozenset) -> dict:
        if mask in interior:
            return {}
        missed, centers = boundary_tags(F.n, mask)
        return {"missed_nodes": list(missed), "star_centers": list(centers)}

    payload = {
        "n": F.n,
        "faces": {
            str(k): [
                {
                    "edges": [list(e) for e in graph.edges()],
                    "interior": graph.bits in F.interior_by_dim[k],
                    "facets": facets(graph.bits, F.interior_by_dim[k]),
                }
                for graph in (EdgeGraph(F.n, mask) for mask in F.by_dim[k])
            ]
            for k in range(len(F.by_dim))
        },
    }
    return json.dumps(payload, indent=2) + "\n"
