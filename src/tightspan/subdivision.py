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
non-generic with a witness, and a broken invariant raises DegenerateRidge.
The test oracles of this route, exhaustive filtration of all candidates
(enumerate_cells, n <= 8) and the descent to the cell of least w.lambda
(seed_cell), live in filtration.py, which no command loads.  Both routes
build the Subdivision with one function (_subdivision), which takes the
equality witnesses a route met, finds the zero-height (corner) witness of
every cell itself, keeps the witness of least mask and, given no equality
witness, checks that the cells cover the normalized volume 2^(n-1) - n of
the hypersimplex.

One solver (_solve_scaled) gives the heights of a cell in integers at scale
twice the common entry denominator, by one propagation per component; a mask
outside its domain raises PreconditionViolated.  One classifier
(_classify_scaled) reads the heights against d: the first pair off the
graph met with equality, and whether it drops below d.  lambda_certificate
classifies one graph, and the traversal takes its seed from it, with one
solve: each further cell, heights and component count included, comes from
a ridge pencil lam + t*sigma and its ratio test.  sigma is +-1 on the
bipartition of the ridge's one tree component and 0 elsewhere.  One ridge
step per cell (_ridge_steps) builds the cell's adjacency and strips its
leaves once; per interior ridge it is given (_interior_edges: no leaf's
edge, and no edge off a full star) it makes one walk of that tree alone,
which gives sigma and the minus nodes, and one ratio test, a running least
bound with the list of its slots.  The traversal and seed_cell's descent
both pivot by it.  The traversal pairs the two cells of a ridge in a ridge
map once both are reached and gives the step only the ridges whose second
cell it has not reached, so a generic traversal makes one ratio test per
cell but the first.  A Cell keeps these integers; Cell.heights builds their
Fractions on each read, and only certificate callers and the tests read
it; the degeneracy certificates carry Fractions.

Each cell also keeps its down edges: those whose ridge it shares with a
neighbour lower in w.lambda at the seed weight w_i = 2^n + 2^(n-i).  That
neighbour is lam + t*sigma, t > 0, on the ridge pencil, so it is lower when
w.sigma < 0, a signed sum of seed weights that is never 0.  The traversal
evaluates w.lambda once per cell, when it reaches the cell, and orients
each interior ridge, pivoted or paired in its ridge map, by comparing its
two cells, wherever the walk began.  down_degrees gives the histogram of
the cells' down degrees, from which facevectors.face_report counts every
face; faces.all_faces lists the faces, only for the face export and the
primal face bijection.  The subdivision restricted to a hypersimplex face
x_I = 0 is compute_subdivision of the submetric on the nodes off I.

subdivision_to_json writes the cell export from %-templates in the bytes of
json.dumps(payload, indent=2) + "\n", one chunk per record; each height
prints as p/q from its integer by one gcd, and the text "/q" is built once
per distinct gcd.  faces.faces_to_json writes the face export the same way,
from the JSON helpers here.

Four names moved out of this module still resolve here on first access
(__getattr__), for the benchmark's traced run and sweep, which call them on
this module: candidate_graphs, enumerate_cells and seed_cell
(filtration.py) and all_faces (faces.py).
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .common import _str_of, num_pairs, pair_index, pair_table
from .errors import DegenerateRidge, PreconditionViolated
from .graphs import EdgeGraph, cell_components, node_edge_masks
from .metrics import Metric

# moved name -> the module that defines it now, imported on first access
_MOVED = {
    "candidate_graphs": "filtration",
    "enumerate_cells": "filtration",
    "seed_cell": "filtration",
    "all_faces": "faces",
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _MOVED[name], __package__), name)


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


# -- ridge pivot traversal -----------------------------------------------------------


@lru_cache(maxsize=None)
def _seed_weight(n: int) -> tuple[int, ...]:
    """w_i = 2^n + 2^(n-i), once per n: w.lambda orients every ridge and is seed_cell's objective.

    A wall is sum_A w = sum_B w on the two sides of a tree, and no signed
    sum of these w_i vanishes (the 2^(n-i) parts differ and stay below 2^n),
    so w ties no two adjacent cells.
    """
    return tuple((1 << n) + (1 << (n - 1 - i)) for i in range(n))


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


# -- down edges ------------------------------------------------------------------


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


def down_degrees(S: Subdivision) -> tuple[int, ...]:
    """Entry j counts the cells of S with exactly j down edges; no face is listed."""
    histogram = [0] * (S.n + 1)
    for down in _down_masks(S):
        histogram[down.bit_count()] += 1
    return tuple(histogram)


# -- export ------------------------------------------------------------------------
#
# Both exports, the cells here and the faces (faces.py), are written from
# %-templates in the bytes of json.dumps(payload, indent=2) + "\n": two spaces
# a level, one item a line, an empty list as [] and an empty object as {}.


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
