"""Regular subdivision of the second hypersimplex induced by a metric.

Lifting the vertex e_i + e_j of the hypersimplex to height d(i,j) induces a
polyhedral subdivision whose cells are subgraphs of K_n carrying a height
vector with lam_i + lam_j = d(i,j) on edges and strictly above d off the
cell.  For generic metrics the subdivision is a triangulation: the maximal
cells are the spanning n-edge subgraphs whose components each contain
exactly one odd cycle.

compute_subdivision, the one production route at every n, is a ridge-pivot
traversal from node 1's star plus the pair of least Gromov product at node 1
(_first_cell), a candidate cell of every input; the breadth-first closure
reaches every cell from any one.  The traversal returns every verdict: a
flat first cell, a ratio-test tie or a zero cell height makes the result
non-generic with a witness, and a broken invariant, on either route, raises
DegenerateRidge.  Exhaustive filtration of all candidates
(enumerate_cells, n <= 8) is kept as the test oracle of the cells.  Both
routes build the Subdivision with one builder (_subdivision), which takes
the equality witnesses a route met, finds the zero-height (corner) witness
of every cell itself, keeps the witness of least mask and, given no
equality witness, checks that the cells cover the normalized volume
2^(n-1) - n of the hypersimplex.  seed_cell
descends from the first cell to the cell of least w.lambda by the same
ridge pivot, the simplex method on the polyhedron dual to the subdivision.

One solver (_solve_scaled) gives the heights of a cell in integers at scale
twice the common entry denominator, by one propagation per component; a mask
outside its domain raises PreconditionViolated.  One classifier
(_classify_scaled) reads the heights against d: the first pair off the
graph met with equality, and whether it drops below d.  The filtration
classifies every candidate in its own loop (_classify_chunk), serial or per
pool worker; lambda_certificate classifies one graph, and the traversal
takes its seed from it, with one solve: each further cell, heights and
component count included, comes from a ridge pencil lam + t*sigma and its
ratio test.  sigma is +-1 on the bipartition of the ridge's one tree
component and 0 elsewhere.  One ridge step per cell (_ridge_steps) builds
the cell's adjacency and strips its leaves once; per interior ridge it is
given (_interior_edges: no leaf's edge, and no edge off a full star) it
makes one walk of that tree alone, which gives sigma and the minus nodes,
and one ratio test, a running least bound with the list of its slots.  The
traversal and seed_cell's descent both pivot by it.  The traversal pairs
the two cells of a ridge in a ridge map once both are reached and gives
the step only the ridges whose second cell it has not reached, so a
generic traversal makes one ratio test per cell but the first.  A Cell
keeps these integers; Cell.heights builds their Fractions on each read,
and only certificate callers and the tests read it; the degeneracy
certificates carry Fractions.

Each cell also keeps its down edges: those whose ridge it shares with a
neighbour lower in w.lambda at the seed weight w_i = 2^n + 2^(n-i).  That
neighbour is lam + t*sigma, t > 0, on the ridge pencil, so it is lower when
w.sigma < 0, a signed sum of seed weights that is never 0; seed_cell's
descent sums it from the pencil of each step.  The traversal evaluates
w.lambda once per cell, when it reaches the cell, and orients each
interior ridge, pivoted or paired in its ridge map, by comparing its two
cells, wherever the walk began; the test oracle (enumerate_cells) orients
its cells independently, by the same comparison over a map of ridges to
all its cells (_ridge_orientation), and the one cell without a down edge
is seed_cell's, the end of the descent.
Each face is then built once: from its lowest cell with every down edge,
and each interior face from its highest cell with every up edge.
down_degrees gives the histogram of the cells' down degrees, from which
facevectors.face_report counts every face; all_faces lists the faces, only
for the face export and the primal face bijection.  The subdivision
restricted to a hypersimplex face x_I = 0 is compute_subdivision of the
submetric on the nodes off I.

subdivision_to_json writes the cell export and faces_to_json the face
export, both from %-templates in the bytes of json.dumps(payload, indent=2)
+ "\n", and both stream one chunk per record; each height prints as p/q
from its integer by one gcd, and the text "/q" is built once per distinct
gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .common import _str_of, num_pairs, pair_index, pair_table
from .errors import DegenerateRidge, PreconditionViolated
from .graphs import (
    EdgeGraph,
    _join,
    _split,
    cell_components,
    node_edge_masks,
)
from .metrics import Metric


class Cell(NamedTuple):
    """Maximal cell: spanning odd-unicyclic graph, its heights, volume and down edges.

    lam holds the heights as integers over scale (twice the common entry
    denominator); heights gives them as Fractions, built on each read.
    volume is 2^(c-1) for c components, counted where the cell is built; down
    holds the bits of the edges whose ridge the cell shares with a neighbour
    lower in w.lambda at the seed weight, or None for a cell of
    lambda_certificate, which knows no neighbour.
    """

    graph: EdgeGraph
    lam: tuple[int, ...]
    scale: int
    volume: int
    down: Optional[int] = None

    @property
    def heights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.lam)


class DegeneracyReport(NamedTuple):
    """The height solution meets d with equality on a pair off the graph."""

    graph: EdgeGraph
    pair: tuple[int, int]
    heights: tuple[Fraction, ...]


class NotACell(NamedTuple):
    """The height solution drops below d on a pair off the graph."""

    graph: EdgeGraph
    pair: tuple[int, int]
    heights: tuple[Fraction, ...]


class Subdivision(NamedTuple):
    """Maximal cells of the subdivision, canonically sorted by graph bitset."""

    n: int
    metric: Metric
    maximal_cells: tuple[Cell, ...]
    degeneracy_witness: Optional[tuple[EdgeGraph, tuple[int, int]]]

    @property
    def generic(self) -> bool:
        return self.degeneracy_witness is None

    @property
    def total_volume(self) -> int:
        return sum(c.volume for c in self.maximal_cells)


class FaceSet(NamedTuple):
    """All faces of a triangulation grouped by dimension, with interior tags.

    A k-dimensional face is a graph with k+1 edges, stored as its bitmask.
    Each level of by_dim is sorted by bitmask; the face export lists the
    faces in that order, so the exported file is canonical.
    """

    n: int
    by_dim: tuple[tuple[int, ...], ...]
    interior_by_dim: tuple[frozenset[int], ...]


# -- candidate pool ---------------------------------------------------------------


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


# -- scaled certificate arithmetic ---------------------------------------------


def _solve_scaled(n: int, mask: int, dnum: Sequence[int]) -> tuple[list[int], list[int]]:
    """Equality system of a mask, in integers scaled by 2D: (lam, sigma).

    One propagation per component, from its smallest node with lam = 0 and
    sigma = +1: each newly reached node gets lam_u = 2*dnum[e] - lam_v and
    sigma_u = -sigma_v.  The solutions are lam + t*sigma.  A non-tree edge
    with sigma_u = sigma_v closes an odd cycle and pins its component's t,
    which is then folded in (sigma = 0 there, all 0 for a cell).  An even
    cycle, a second cycle in one component or a second tree component
    (isolated nodes count as trees) raises PreconditionViolated.
    """
    pairs = pair_table(n)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    bits = mask
    while bits:
        low = bits & -bits
        idx = low.bit_length() - 1
        i, j = pairs[idx]
        adj[i - 1].append((j - 1, idx))
        adj[j - 1].append((i - 1, idx))
        bits ^= low

    lam: list[int] = [0] * n
    sigma: list[int] = [0] * n
    reached = [False] * n
    read = 0  # slots of the edges already read
    tree = False
    for s in range(n):
        if reached[s]:
            continue
        reached[s] = True
        sigma[s] = 1
        comp = [s]
        t = None
        for v in comp:
            for u, e in adj[v]:
                if read >> e & 1:
                    continue
                read |= 1 << e
                if not reached[u]:
                    reached[u] = True
                    lam[u] = 2 * dnum[e] - lam[v]
                    sigma[u] = -sigma[v]
                    comp.append(u)
                elif sigma[u] != sigma[v]:
                    raise PreconditionViolated("mask has an even cycle")
                elif t is not None:
                    raise PreconditionViolated("mask has two cycles in one component")
                else:
                    # exact: every lam of the walk is even, sigma_u + sigma_v = +-2
                    t = (2 * dnum[e] - lam[u] - lam[v]) // (2 * sigma[v])
        if t is None:
            if tree:
                raise PreconditionViolated("mask has more than one tree component")
            tree = True
        else:
            for v in comp:
                lam[v] += t * sigma[v]
                sigma[v] = 0
    return lam, sigma


@lru_cache(maxsize=None)
def _pairs0(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs of pair_table as 0-based node indices."""
    return tuple((i - 1, j - 1) for i, j in pair_table(n))


def _classify_scaled(
    n: int, mask: int, dnum: Sequence[int]
) -> tuple[list[int], Optional[tuple[int, int]], bool]:
    """Classify one candidate mask: (scaled heights, pair, below).

    pair is (i, j) for the first pair off the graph met with equality, else
    None; the heights' signs are not read.  below is True when pair drops
    under d; the scan stops there, as the mask is not a cell.
    """
    lam, _ = _solve_scaled(n, mask, dnum)
    pair = None
    for p, (u, v) in enumerate(_pairs0(n)):
        if mask >> p & 1:
            continue
        gap = lam[u] + lam[v] - 2 * dnum[p]
        if gap < 0:
            return lam, pair_table(n)[p], True
        if gap == 0 and pair is None:
            pair = pair_table(n)[p]
    return lam, pair, False


def _corner(lam: Sequence[int]) -> Optional[tuple[int, int]]:
    """(i, i) for the first node i whose height is not positive, else None."""
    for i, h in enumerate(lam, 1):
        if h <= 0:
            return i, i
    return None


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


def _subdivision(d: Metric, cells: dict, witnesses: list) -> Subdivision:
    """Cells by mask from mask -> [lam over 2D, components, down, ...]; the witness of least mask.

    witnesses holds the (mask, pair) equalities a route met; each cell with a
    height that is not positive adds (mask, (i, i)) of its first such node i.
    Without an equality witness, which may end a route early, the volumes
    must sum to 2^(n-1) - n, corner cells included, else DegenerateRidge.
    """
    n = d.n
    corners = [(mask, _corner(lam)) for mask, (lam, *_) in cells.items() if min(lam) <= 0]
    mask, pair = min(witnesses + corners, default=(0, None))
    witness = None if pair is None else (EdgeGraph(n, mask), pair)
    scale = 2 * d.scaled[1]
    maximal = tuple(
        Cell(EdgeGraph(n, mask), tuple(lam), scale, 1 << c - 1, down)
        for mask, (lam, c, down, *_) in sorted(cells.items())
    )
    sub = Subdivision(n, d, maximal, witness)
    if not witnesses and sub.total_volume != (1 << n - 1) - n:
        raise DegenerateRidge(f"covered volume {sub.total_volume}, expected {(1 << n - 1) - n}")
    return sub


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


# -- public certificate API -------------------------------------------------------


def lambda_certificate(d: Metric, G: EdgeGraph):
    """Solve the height system of G exactly and compare against d off the graph.

    Returns a Cell when every off-graph pair is strictly above d, whatever
    the signs of its heights, a DegeneracyReport when some pair is met with
    equality (and none violated), and NotACell when some pair falls below d.
    """
    if G.n != d.n:
        raise PreconditionViolated("graph and metric sizes differ")
    c = cell_components(G.n, G.bits)
    if c is None:
        raise PreconditionViolated(
            "certificates exist only for spanning n-edge graphs"
            " with odd-unicyclic components"
        )
    dnum, D = d.scaled
    lam, pair, below = _classify_scaled(G.n, G.bits, dnum)
    if pair is None:
        return Cell(G, tuple(lam), 2 * D, 1 << c - 1)
    heights = tuple(Fraction(v, 2 * D) for v in lam)
    return NotACell(G, pair, heights) if below else DegeneracyReport(G, pair, heights)


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


# -- seed cells ----------------------------------------------------------------


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


@lru_cache(maxsize=None)
def _seed_weight(n: int) -> tuple[int, ...]:
    """w_i = 2^n + 2^(n-i), once per n: w.lambda orients every ridge and is seed_cell's objective.

    A wall is sum_A w = sum_B w on the two sides of a tree, and no signed
    sum of these w_i vanishes (the 2^(n-i) parts differ and stay below 2^n),
    so w ties no two adjacent cells.
    """
    return tuple((1 << n) + (1 << (n - 1 - i)) for i in range(n))


# -- ridge pivot traversal -----------------------------------------------------------


@lru_cache(maxsize=None)
def _slot_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i, entry j: the slot of the pair of 0-based nodes i != j."""
    return tuple(
        tuple(pair_index(n, i, j) if i != j else -1 for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def _interior_edges(n: int, mask: int) -> int:
    """The edges e of the candidate cell mask whose ridge mask - e is interior.

    The ridge lies on a facet of the hypersimplex, x_i = 0 or x_i = 1, just
    when it misses a node or holds a full star: when e is a leaf's edge, or
    the one edge of the cell off a node's full star.
    """
    bits = mask
    for star in node_edge_masks(n):
        at = mask & star
        if not at & at - 1:
            bits &= ~at
        elif at == star:
            bits &= star
    return bits


def _ridge_steps(
    dnum2: Sequence[int], mask: int, edges: int, lam: Sequence[int]
) -> Iterator[tuple[int, list[int], int, list[int], list[int], bool]]:
    """The ridge pivot across each ridge mask - e, e in edges, of one cell.

    mask is a candidate cell and lam its heights at scale 2D, strict off the
    graph, and dnum2 is d at that scale; the tables of n = len(lam) are
    read from their caches.  edges are interior (_interior_edges).  The
    cell's adjacency is built once, and leaves are stripped once, which
    leaves the cycle nodes and gives every other node its neighbour toward
    its component's cycle.  Without e the ridge has one tree component: e's
    whole component when e lies on the odd cycle, else the subtree on the
    far side of e from the cycle.  One walk of that tree, from e's ends in
    it and never back across e, 2-colours it: sigma of the pencil lam +
    t*sigma, +1 at those ends, so e's slack grows with t, and 0 off the
    tree.  The walk also lists the minus nodes.

    The cell is strict, so only a pair with s = sigma_i + sigma_j < 0 bounds
    t, from above by slack/-s: minus-minus pairs (s = -2) and minus-zero
    pairs (s = -1), none of them a ridge edge.  The ratio test keeps the
    least bound, at the common denominator 2, and the slots that attain it,
    in one pass; only on a tie does it sort them.  The neighbour's heights
    are lam + t*sigma, and every other pair stays strictly above d, so the
    neighbour needs no classifying.  An unbounded pencil, which a boundary
    ridge gives, raises DegenerateRidge.

    Yields (slot of e, entering slots, t, sigma, tree nodes, e off the
    cycle) per ridge.  The entering slots are those of the least bound in
    slot order: one, or more on a ratio-test tie, where the neighbour meets
    d with equality on the second.
    """
    if not edges:
        return
    n = len(lam)
    pairs, rows = _pairs0(n), _slot_rows(n)
    adj: list[list[int]] = [[] for _ in range(n)]
    bits = mask
    while bits:
        low = bits & -bits
        bits ^= low
        i, j = pairs[low.bit_length() - 1]
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(a) for a in adj]
    leaves = [v for v in range(n) if degree[v] == 1]
    up = [-1] * n  # each node's neighbour toward its cycle; -1 on the cycle
    for v in leaves:  # the list grows while it is read
        degree[v] = 0
        for u in adj[v]:
            if degree[u]:
                up[v] = u
                degree[u] -= 1
                if degree[u] == 1:
                    leaves.append(u)
    while edges:
        low = edges & -edges
        edges ^= low
        e = low.bit_length() - 1
        a, b = pairs[e]
        sigma = [0] * n
        # e's ends in the tree start at +1; e's end off it is marked as
        # reached, so the walk never crosses e, and cleared after
        if up[b] == a:
            tree, far = [b], a
        elif up[a] == b:
            tree, far = [a], b
        else:
            tree, far = [a, b], -1
        for v in tree:
            sigma[v] = 1
        if far >= 0:
            sigma[far] = 2
        minus = []
        for v in tree:  # the list grows while it is read
            if sigma[v] > 0:
                for u in adj[v]:
                    if not sigma[u]:
                        sigma[u] = -1
                        tree.append(u)
                        minus.append(u)
            else:
                for u in adj[v]:
                    if not sigma[u]:
                        sigma[u] = 1
                        tree.append(u)
        if far >= 0:
            sigma[far] = 0
        zero = [v for v in range(n) if not sigma[v]] if len(tree) < n else ()
        # 2 * bound: the slack at s = -2, twice the slack at s = -1
        least = None
        for k, i in enumerate(minus):
            row = rows[i]
            h = lam[i]
            for j in minus[k + 1 :]:
                p = row[j]
                g = h + lam[j] - dnum2[p]
                if least is None or g < least:
                    least, slots = g, [p]
                elif g == least:
                    slots.append(p)
            for j in zero:
                p = row[j]
                g = 2 * (h + lam[j] - dnum2[p])
                if least is None or g < least:
                    least, slots = g, [p]
                elif g == least:
                    slots.append(p)
        if least is None:
            raise DegenerateRidge("ridge pencil is unbounded beyond the ridge")
        if len(slots) > 1:
            slots.sort()
        # exact: both cells' heights are integers at scale 2D
        yield e, slots, least // 2, sigma, tree, far >= 0


def traverse_cells(d: Metric, seed: Cell | DegeneracyReport | EdgeGraph) -> Subdivision:
    """Breadth-first closure of the subdivision under ridge pivots, with its verdict.

    Only the seed is solved and classified, by lambda_certificate: a
    DegeneracyReport gives a non-generic result without cells, with the seed
    graph and its equality pair as the witness.  Each cell, once reached,
    registers its interior ridges (_interior_edges) in a ridge map, ridge
    -> the reached cell that holds it.  A ridge already there has both its
    cells: it is popped, and neither cell pivots across it.  A processed
    cell pivots across the ridges it still holds in the map, by its one ridge
    step (_ridge_steps): a walk of the ridge's tree gives its pencil lam +
    t*sigma, and the ratio test gives the entering pair and t, so the
    neighbour's heights are lam + t*sigma, a copy of lam changed on the tree
    nodes only.  Every such pivot enters a cell not yet reached, so a
    generic traversal makes cells - 1 ratio tests.  A tie on the far side
    ends the traversal the same way, with the neighbour's graph and the tied
    pair, and the near side needs no test, as the current cell is strict.
    A paired ridge needs no ratio test for the verdict either: a tie on it
    would meet d in a cell already reached, and the pivot that reached that
    cell would have tied first.  The entering pair's s = sigma_i + sigma_j
    must not be 0, else DegenerateRidge: only s != 0 gives a candidate, with
    c + [leaving edge off the cycle] - [|s| = 1] components for a cell of c.
    Each cell's w.lambda at the seed weight is evaluated once, when it is
    reached, and orients its ridges as they are paired, the pivoted one
    too, when the new cell registers it: the higher cell's edge across an
    interior ridge is down; boundary ridges are up.  One map, mask ->
    [scaled heights, components, down, ridges in the map, w.lambda], holds
    the cells, the last two only until the cell is processed.  A cell with
    a height that is not positive is kept, and the builder (_subdivision)
    gives the (i, i) witness of its first such node.  Matches
    enumerate_cells, volumes and down edges included, on every generic
    input.  The seed is a certificate of lambda_certificate or a bare graph,
    and only its graph is read; lambda_certificate refuses one that is no
    candidate cell, and one that drops below d is refused here, both by
    PreconditionViolated.  Every broken invariant raises DegenerateRidge: an
    unbounded pencil, a pivot off the candidates or into a cell already
    reached, or, in the builder, a covered volume other than 2^(n-1) - n.
    """
    n = d.n
    cert = lambda_certificate(d, seed if isinstance(seed, EdgeGraph) else seed.graph)
    if isinstance(cert, NotACell):
        raise PreconditionViolated("seed graph carries no strict certificate")
    if isinstance(cert, DegeneracyReport):
        return _subdivision(d, {}, [(cert.graph.bits, cert.pair)])

    dnum2 = [2 * v for v in d.scaled[0]]
    pairs, w = _pairs0(n), _seed_weight(n)
    cells: dict = {}
    ridges: dict[int, int] = {}

    def reach(mask: int, lam: list[int], components: int) -> None:
        # the new cell's interior ridges go into the ridge map; one already
        # there is paired, its edge down on the higher cell
        level = sum(map(mul, w, lam))
        bits = _interior_edges(n, mask)
        cell = cells[mask] = [lam, components, 0, bits, level]
        while bits:
            low = bits & -bits
            bits ^= low
            rmask = mask ^ low
            other = ridges.setdefault(rmask, mask)
            if other != mask:
                del ridges[rmask]
                held = cells[other]
                edge = other ^ rmask
                cell[3] ^= low
                held[3] ^= edge
                if held[4] < level:
                    cell[2] |= low
                else:
                    held[2] |= edge

    start = cert.graph.bits
    reach(start, list(cert.lam), cert.volume.bit_length())
    order = [start]
    for mask in order:  # the list grows while it is read
        cell = cells[mask]
        lam = cell[0]
        for leaving, slots, t, sigma, tree, off_cycle in _ridge_steps(dnum2, mask, cell[3], lam):
            rmask = mask ^ 1 << leaving
            if len(slots) != 1:
                tie = (rmask | 1 << slots[0], pair_table(n)[slots[1]])
                return _subdivision(d, {}, [tie])
            nmask = rmask | 1 << slots[0]
            if nmask in cells:
                raise DegenerateRidge("ridge pivot entered a cell already reached")
            # s = +-2 closes an odd cycle in the tree, +-1 joins it to a
            # cyclic component, 0 closes an even or a second cycle: only a
            # broken ratio test leaves the candidates
            i, j = pairs[slots[0]]
            s = sigma[i] + sigma[j]
            if not s:
                raise DegenerateRidge("ridge pivot entered a non-candidate mask")
            nlam = lam[:]
            for v in tree:
                nlam[v] += t * sigma[v]
            reach(nmask, nlam, cell[1] + off_cycle - (abs(s) == 1))  # pairs the ridge
            order.append(nmask)
        del cell[3:]  # every ridge of a processed cell is paired

    return _subdivision(d, cells, [])


def _first_cell(d: Metric) -> EdgeGraph:
    """Node 1's star plus the pair {i, j} of least Gromov product (i|j)_1, the first in slot order.

    (i|j)_1 = (d(1,i) + d(1,j) - d(i,j)) / 2 over the pairs off node 1.  The
    heights lam_1 = (i|j)_1 and lam_v = d(1,v) - lam_1 put every pair {u, v}
    off the star at d(u,v) + 2((u|v)_1 - lam_1), never below d, so the graph
    is a candidate cell of every input: strict when the least product is
    unique, flat (a DegeneracyReport) on a tie, and a corner cell when
    lam_1 <= 0.
    """
    n = d.n
    dnum, _ = d.scaled
    star = (1 << n - 1) - 1  # slot v - 2 holds {1, v}
    pairs = pair_table(n)
    slot = min(
        range(n - 1, num_pairs(n)),
        key=lambda p: dnum[pairs[p][0] - 2] + dnum[pairs[p][1] - 2] - dnum[p],
    )
    return EdgeGraph(n, star | 1 << slot)


def compute_subdivision(d: Metric) -> Subdivision:
    """The subdivision of d and its verdict, by ridge traversal from _first_cell, at every n.

    The traversal reaches every cell from any one, and each down edge comes
    from its own ridge's pencil, so no seed search is needed.  The first
    cell goes to the traversal as a bare graph, which lambda_certificate
    certifies there, once.  A flat first cell or a ratio-test tie gives a
    non-generic subdivision without cells, with the (graph, pair) witness of
    the equality; a cell with a zero height keeps every cell and gives the
    (i, i) witness.  The traversal's errors propagate: a broken invariant is
    DegenerateRidge, and a first cell that is no candidate, which only a
    broken first-cell rule could give, PreconditionViolated.
    """
    return traverse_cells(d, _first_cell(d))


# -- faces -----------------------------------------------------------------------


def _down_masks(S: Subdivision) -> list[int]:
    """The down-edge mask of each cell of the generic subdivision S.

    Cells are the vertices of the simple polyhedron dual to S, and the seed
    weight w, positive on its recession cone, ties no two adjacent cells in
    w.lambda.  An edge of a cell is down when its ridge lies in a lower cell,
    else up (boundary ridges too).  A non-generic S, the one refusal of
    face_report, down_degrees and all_faces, and a cell of
    lambda_certificate, which carries no orientation, raise
    PreconditionViolated.
    """
    if not S.generic:
        raise PreconditionViolated("face counts and face lists require a generic subdivision")
    downs = [cell.down for cell in S.maximal_cells]
    if None in downs:
        raise PreconditionViolated(
            "face closure needs the down edges of a subdivision's cells;"
            " a cell of lambda_certificate has none"
        )
    return downs


def _edge_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def all_faces(S: Subdivision) -> FaceSet:
    """Closure of the maximal cell graphs under nonempty subgraphs, with interior tags.

    Each face is built exactly once, from its lowest cell in w.lambda with
    every down edge, and each interior (bounded) face from its highest with
    every up edge.
    """
    n = S.n
    levels, interior = [[] for _ in range(n)], [[] for _ in range(n)]
    for cell, down in zip(S.maximal_cells, _down_masks(S)):
        downs, ups = _edge_bits(down), _edge_bits(cell.graph.bits ^ down)
        for kept, free, out in ((downs, ups, levels), (ups, downs, interior)):
            base = sum(kept)
            for r in range(0 if kept else 1, len(free) + 1):
                out[len(kept) + r - 1].extend(map(sum, combinations(free, r), repeat(base)))
    return FaceSet(n, tuple(map(tuple, map(sorted, levels))), tuple(map(frozenset, interior)))


def down_degrees(S: Subdivision) -> tuple[int, ...]:
    """Entry j counts the cells of S with exactly j down edges; no face is listed."""
    histogram = [0] * (S.n + 1)
    for down in _down_masks(S):
        histogram[down.bit_count()] += 1
    return tuple(histogram)


def boundary_tags(n: int, mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Facets of the hypersimplex containing a boundary face.

    Returns (missed nodes i, giving facets x_i = 0) and (star centers c, for
    faces inside the simplex facet at c).
    """
    node_masks = node_edge_masks(n)
    missed = tuple(v + 1 for v in range(n) if mask & node_masks[v] == 0)
    centers = tuple(v + 1 for v in range(n) if mask & ~node_masks[v] == 0)
    return missed, centers


# -- random generic fixtures --------------------------------------------------------


_MAX_TRIES = 400


@lru_cache(maxsize=None)
def random_generic_metrics(n: int, count: int) -> tuple[tuple[int, Metric], ...]:
    """First `count` seeds from 1 whose random metric is generic."""
    from .metrics import gen_random

    out = []
    for seed in range(1, _MAX_TRIES + 1):
        if len(out) == count:
            break
        d = gen_random(n, seed)
        if compute_subdivision(d).generic:
            out.append((seed, d))
    if len(out) < count:
        raise PreconditionViolated(f"only {len(out)} generic metrics found in {_MAX_TRIES} seeds")
    return tuple(out)


# -- export ------------------------------------------------------------------------
#
# Both exports, the cells and the faces, are written from %-templates in the
# bytes of json.dumps(payload, indent=2) + "\n": two spaces a level, one item
# a line, an empty list as [] and an empty object as {}.


def _json_list(items: Sequence[str], pad: str) -> str:
    """A JSON list of items already indented one level below pad."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def _pair_texts(n: int, pad: str) -> list[str]:
    """Each pair (i, j) of pair_table as the JSON list [i, j] at indent pad."""
    return ["%s[\n%s  %d,\n%s  %d\n%s]" % (pad, pad, i, pad, j, pad) for i, j in pair_table(n)]


_CELL = """    {
      "edges": [
%s
      ],
      "lambda": [
%s
      ],
      "volume": %d
    }"""


def subdivision_to_json(S: Subdivision) -> Iterator[str]:
    """The cells of S (edges, heights, volume) and its witness, as indented JSON text.

    One chunk per cell record, so the text is never held whole.  Each height
    prints as "p/q", as format_rational prints it, straight from its integer
    v over S's one scale 2D by one gcd g: p = v/g, and the text "/q" of q =
    scale/g, empty for q = 1, is built once per distinct g.  A cell has n
    edges and n heights, so neither list is empty.
    """
    edge = _pair_texts(S.n, "        ")
    yield '{\n  "n": %d,\n  "generic": %s,\n  "cells": ' % (S.n, "true" if S.generic else "false")
    sep = "[\n"
    scale = 2 * S.metric.scaled[1]
    dens = {scale: '"'}  # g -> the height's text after p
    for cell in S.maximal_cells:
        heights = []
        for v in cell.lam:
            g = math.gcd(v, scale)
            den = dens.get(g)
            if den is None:
                den = dens[g] = "/" + _str_of(scale // g) + '"'
            heights.append(_str_of(v // g) + den)
        yield sep + _CELL % (
            ",\n".join([edge[b.bit_length() - 1] for b in _edge_bits(cell.graph.bits)]),
            '        "' + ',\n        "'.join(heights),
            cell.volume,
        )
        sep = ",\n"
    yield "\n  ]" if S.maximal_cells else "[]"
    if S.degeneracy_witness is not None:
        graph, (i, j) = S.degeneracy_witness
        edge = _pair_texts(S.n, "      ")
        edges = [edge[b.bit_length() - 1] for b in _edge_bits(graph.bits)]
        yield (
            ',\n  "witness": {\n    "graph": %s,\n    "pair": [\n      %d,\n      %d\n    ]\n  }'
            % (_json_list(edges, "    "), i, j)
        )
    yield "\n}\n"


_FACE = """      {
        "edges": [
%s
        ],
        "interior": %s,
        "facets": %s
      }"""

_FACETS = """{
          "missed_nodes": %s,
          "star_centers": %s
        }"""


def faces_to_json(F: FaceSet) -> Iterator[str]:
    """The faces of F by dimension, with their tags, as indented JSON text.

    One chunk per face record, so the text is never held whole.  A face
    lists its edges, whether it is interior, and its facets: {} for an
    interior face, else boundary_tags' missed nodes and star centers.  A
    face has at least one edge, and F at least one level.
    """
    n = F.n
    edge = _pair_texts(n, "          ")
    node = ["            %d" % v for v in range(n + 1)]
    yield '{\n  "n": %d,\n  "faces": {' % n
    for k, (level, interior) in enumerate(zip(F.by_dim, F.interior_by_dim)):
        yield '%s\n    "%d": %s' % ("," if k else "", k, "[" if level else "[]")
        sep = "\n"
        for mask in level:
            edges = ",\n".join([edge[b.bit_length() - 1] for b in _edge_bits(mask)])
            if mask in interior:
                yield sep + _FACE % (edges, "true", "{}")
            else:
                missed, centers = boundary_tags(n, mask)
                facets = _FACETS % (
                    _json_list([node[v] for v in missed], "          "),
                    _json_list([node[v] for v in centers], "          "),
                )
                yield sep + _FACE % (edges, "false", facets)
            sep = ",\n"
        if level:
            yield "\n    ]"
    yield "\n  }\n}\n"
