"""The test oracles of the traversal: exhaustive filtration and the descent.

No command loads this module.  enumerate_cells builds every spanning
n-edge subgraph of K_n with odd-unicyclic components (candidate_graphs,
937,440 at n = 8, its cap), classifies each against d on its own
(_classify_chunk, serial or per pool worker, by subdivision's one solver and
classifier), orients its cells by a map of ridges to all its cells
(_ridge_orientation, the traversal's rule applied independently) and builds
the Subdivision by subdivision._subdivision, as the traversal does, so it
gives the same cells, down edges and verdicts as compute_subdivision on
every input in reach.
seed_cell descends from compute_subdivision's first cell to the cell of
least w.lambda by the traversal's own ridge step, the simplex method on the
polyhedron dual to the subdivision; on a generic input it ends on the one
cell without a down edge.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import mul
from typing import Sequence

from .common import num_pairs, pair_index, pair_table
from .errors import DegenerateRidge, PreconditionViolated
from .graphs import EdgeGraph, _join, _split, cell_components
from .metrics import Metric
from .subdivision import (
    Cell,
    DegeneracyReport,
    Subdivision,
    _classify_scaled,
    _first_cell,
    _interior_edges,
    _pairs0,
    _ridge_steps,
    _seed_weight,
    _subdivision,
    lambda_certificate,
)


@lru_cache(maxsize=None)
def candidate_graphs(n: int) -> tuple[int, ...]:
    """Bitmasks of every spanning n-edge subgraph of K_n with odd-unicyclic components.

    These are exactly the edge sets whose incidence vectors e_i + e_j form a
    basis, hence the candidate maximal cells for every metric on n points.
    Generated once per n by a depth-first search over edges in slot order
    that joins each edge into graphs._join's parity forest, skips the edges
    it refuses and splits it again on the way back; it prunes when the edges
    left cannot cover the uncovered nodes, or when the first uncovered node's
    last edge slot is passed.
    """
    m = num_pairs(n)
    pairs = pair_table(n)
    last_edge = [pair_index(n, v, n) if v < n else m - 1 for v in range(1, n + 1)]
    parent, parity, cyclic = list(range(n + 1)), [0] * (n + 1), [False] * (n + 1)
    degree = [0] * (n + 1)
    results: list[int] = []

    def rec(start: int, count: int, mask: int, covered: int) -> None:
        remaining = n - count
        if n - covered > 2 * remaining:
            return
        if not remaining:
            # n edges on n nodes, no component with two cycles: each holds one
            results.append(mask)
            return
        cap = m - remaining
        for v in range(1, n + 1):
            if not degree[v]:
                cap = min(cap, last_edge[v - 1])
                break
        for e in range(start, cap + 1):
            i, j = pairs[e]
            undo = _join(parent, parity, cyclic, i, j)
            if undo is None:
                continue
            newly = (not degree[i]) + (not degree[j])
            degree[i] += 1
            degree[j] += 1
            rec(e + 1, count + 1, mask | 1 << e, covered + newly)
            degree[i] -= 1
            degree[j] -= 1
            _split(parent, parity, cyclic, undo)

    rec(0, 0, 0, 0)
    results.sort()
    return tuple(results)


def _classify_chunk(n: int, dnum: Sequence[int], masks: Sequence[int]) -> tuple:
    """enumerate_cells' classification loop, serial or per pool worker: (kept, witnesses) of masks.

    kept holds (mask, scaled heights) of the cells, those with a height that
    is not positive included; witnesses holds (mask, pair) for every mask
    that is not below d and meets it with equality on pair.
    """
    kept = []
    witnesses = []
    for mask in masks:
        lam, pair, below = _classify_scaled(n, mask, dnum)
        if below:
            continue
        if pair is None:
            kept.append((mask, lam))
        else:
            witnesses.append((mask, pair))
    return kept, witnesses


def _ridge_orientation(n: int, kept: list) -> dict[int, int]:
    """Down edges of each (mask, scaled heights) cell, from a map of ridges to cells.

    Of the two cells of an interior ridge, the one higher in w.lambda at the
    seed weight gets the ridge's edge as a down edge.  Only the enumeration
    oracle calls it; the traversal applies the same rule in its own ridge
    map, as it reaches the cells.
    """
    w = _seed_weight(n)
    level = {mask: sum(map(mul, w, lam)) for mask, lam in kept}
    down = dict.fromkeys(level, 0)
    ridges: dict[int, int] = {}
    for mask in level:
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            other = ridges.setdefault(mask ^ low, mask)
            if other == mask:
                continue
            if level[other] < level[mask]:
                down[mask] |= low
            else:
                down[other] |= other ^ mask ^ low
    return down


def enumerate_cells(d: Metric, jobs: int = 1) -> Subdivision:
    """All maximal cells by exhaustive candidate filtration: the test oracle.

    Every spanning odd-unicyclic n-edge graph is tested for a strict height
    certificate.  The result is non-generic when some candidate yields an
    off-graph equality, or when a strict certificate touches a corner of the
    positive orthant (a zero height, reported with the diagonal pair (i,i)).
    The pool has 937,440 candidates at n = 8; above that it raises
    PreconditionViolated.  Without an off-graph equality, the builder
    (_subdivision) raises DegenerateRidge when the volumes miss 2^(n-1) - n.
    """
    n = d.n
    if n > 8:
        raise PreconditionViolated("cell enumeration is capped at n = 8")
    pool = candidate_graphs(n)
    dnum, D = d.scaled
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = max(1, len(pool) // (jobs * 4))
        parts = [pool[k : k + chunks] for k in range(0, len(pool), chunks)]
        kept, witnesses = [], []
        with ProcessPoolExecutor(max_workers=jobs) as pom:
            for part_kept, part_wit in pom.map(
                _classify_chunk, repeat(n), repeat(dnum), parts
            ):
                kept.extend(part_kept)
                witnesses.extend(part_wit)
    else:
        kept, witnesses = _classify_chunk(n, dnum, pool)
    down = _ridge_orientation(n, kept)
    cells = {mask: [lam, cell_components(n, mask), down[mask]] for mask, lam in kept}
    return _subdivision(d, cells, witnesses)


def seed_cell(d: Metric) -> Cell | DegeneracyReport:
    """The cell of least w.lambda at the seed weight, by descent from _first_cell.

    The cells are the vertices of the polyhedron dual to the subdivision,
    and w is positive on its recession cone, so the simplex method ends on
    the vertex of least w.lambda.  Its pivot is the traversal's own, across
    the ridges of _interior_edges: while the cell has one whose pencil goes
    down, cross the one of least slot.  The descent alone reads that sign,
    w.sigma < 0, which it sums from the sigma each step yields.  On a
    generic d the end is the one cell of compute_subdivision without a down
    edge.  Returns its lambda_certificate; on a non-generic d that of the
    flat first cell, or of the cell entered at the first ratio-test tie, a
    DegeneracyReport.  An entering pair with sigma_i + sigma_j = 0 raises
    DegenerateRidge, as in the traversal.
    """
    n = d.n
    cert = lambda_certificate(d, _first_cell(d))
    if not isinstance(cert, Cell):
        return cert
    dnum2 = [2 * v for v in d.scaled[0]]
    w = _seed_weight(n)
    mask, lam = cert.graph.bits, list(cert.lam)
    while True:
        steps = _ridge_steps(dnum2, mask, _interior_edges(n, mask), lam)
        for leaving, slots, t, sigma, tree, _ in steps:
            if sum(map(mul, w, sigma)) < 0:
                break
        else:  # no ridge goes down
            break
        mask ^= 1 << leaving | 1 << slots[0]
        if len(slots) != 1:  # a tie: the entered cell meets d on slots[1]
            break
        i, j = _pairs0(n)[slots[0]]
        if not sigma[i] + sigma[j]:
            raise DegenerateRidge("ridge pivot entered a non-candidate mask")
        for v in tree:
            lam[v] += t * sigma[v]
    return lambda_certificate(d, EdgeGraph(n, mask))
