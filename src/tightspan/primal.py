"""Independent ground truth from the tight-span polyhedron itself.

The polyhedron {x : x_i + x_j >= d(i,j) for all i <= j} (the diagonal gives
x_i >= 0) is attacked head on: its vertices by a walk over its feasible
bases, one integer elimination (common.pivot) per basis, each tight set one
bitmask over the constraint slots: the C(n,2) pairs in EdgeGraph bit order,
then x_1 >= 0, ..., x_n >= 0.  Vertices and faces keep their tight sets as
these masks.  Bounded faces are the intersection closure of the vertex
masks, their dimensions read off the graded face lattice by mask
containment, and the h-vector counts descending edges under a generic
positive objective.  It shares no heights, cells or traversal with the dual
side, only the pivot step.  crosscheck holds it against the dual side's
FaceReport, the record the CLI report prints: faces by mask, cells by
heights.  Like every report check, it answers with a Verdict, and a failed
one names the first difference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .common import Verdict, num_pairs, pair_table, pivot
from .errors import PreconditionViolated
from .facevectors import FaceReport, glued_ball_f, h_from_f
from .graphs import node_edge_masks
from .metrics import Metric
from .subdivision import all_faces


class PrimalVertex(NamedTuple):
    coords: tuple[Fraction, ...]
    tight: int  # constraint bitmask: C(n,2) pair slots, then x_1 >= 0, ..., x_n >= 0
    simple: bool  # exactly n tight constraints


class BoundedFace(NamedTuple):
    tight: int  # constraint bitmask, as PrimalVertex.tight
    vertex_ids: tuple[int, ...]
    dim: int


class BoundedFacePoset(NamedTuple):
    n: int
    vertices: tuple[PrimalVertex, ...]
    faces: tuple[BoundedFace, ...]
    f_vector: tuple[int, ...]


def _eliminate(M: list[list[int]], cols: int) -> tuple[int, int]:
    """Gauss-Jordan over the first cols columns of M, in place, by pivot.

    The k-th pivot is swapped into row k.  Returns (rank, scale) and leaves
    M as scale times its reduced row echelon form.
    """
    rank, scale = 0, 1
    for c in range(cols):
        r = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if r is None:
            continue
        M[rank], M[r] = M[r], M[rank]
        scale = pivot(M, rank, c, scale)
        rank += 1
    return rank, scale


def _constraints(n: int) -> list[tuple[int, ...]]:
    """Constraint rows: the pairs x_i + x_j first, then x_i >= 0."""
    rows: list[tuple[int, ...]] = []
    for i, j in pair_table(n):
        row = [0] * n
        row[i - 1] = 1
        row[j - 1] = 1
        rows.append(tuple(row))
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(tuple(row))
    return rows


def enumerate_vertices(d: Metric) -> tuple[PrimalVertex, ...]:
    """All vertices of the tight-span polyhedron by a walk over its feasible bases.

    The walk starts at the lexicographic minimum x_k = max(0, max_{j<k}
    d(j,k) - x_j), feasible for any d.  Its basis takes for each k the row
    x_k >= 0 where the max is 0, else a pair (j,k) that attains it: lower
    triangular with a unit diagonal.  Each basis B is eliminated once, from
    [B | I | b] to scale * [I | B^-1 | x].  Column l of B^-1 is the edge that
    loosens basic row l and keeps the rest tight; along it a constraint's
    rate is one or two of its entries, and its slack one or two numerators
    of x.  Each row that blocks first (least slack / -rate by
    cross-multiplying, zero steps included) replaces l in a neighbouring
    feasible basis; an edge that nothing blocks is a ray.  The zero slacks
    make the tight set, one bitmask over the constraint slots, so a
    degenerate vertex is kept once.

    Every vertex x* is reached: the rows of a basis of x* sum to an objective
    that x* alone minimises, and Bland's rule leads the start to a basis of x*
    without cycling, by min-ratio exchanges, all of which the walk takes
    (Avis & Fukuda, "A pivoting algorithm for convex hulls and vertex
    enumeration of arrangements and polyhedra", DCG 8, 1992).
    """
    n = d.n
    if n > 7:
        raise PreconditionViolated("vertex enumeration is capped at n = 7")
    rows = _constraints(n)
    dnum, denom = d.scaled
    b = list(dnum) + [0] * n
    # constraint q sums x at ends[q]; x_i >= 0 adds a zero kept at index n
    ends = [(i - 1, j - 1) for i, j in pair_table(n)] + [(i, n) for i in range(n)]

    x, start = [0] * n, []
    for k in range(n):  # the lexicographic minimum and its basis
        pairs = [(b[q] - x[i], q) for q, (i, j) in enumerate(ends) if j == k]
        x[k], q = max([(0, num_pairs(n) + k)] + pairs)
        start.append(q)

    unit = [[int(k == l) for l in range(n)] for k in range(n)]
    found: dict[int, tuple[Fraction, ...]] = {}
    seen = {tuple(sorted(start))}
    todo = list(seen)
    while todo:
        basis = todo.pop()
        M = [list(rows[q]) + unit[k] + [b[q]] for k, q in enumerate(basis)]
        p = _eliminate(M, n)[1]
        if p < 0:
            M = [[-v for v in row] for row in M]
            p = -p
        num = [row[-1] for row in M] + [0]  # x = num / (p * denom)
        slack = [num[i] + num[j] - b[q] * p for q, (i, j) in enumerate(ends)]
        mask = sum(1 << q for q, s in enumerate(slack) if not s)
        if mask not in found:
            found[mask] = tuple(Fraction(v, p * denom) for v in num[:n])
        for k, leave in enumerate(basis):
            u = [row[n + k] for row in M] + [0]
            least, best, block = 1, 0, []  # least ratio least / best; 1 / 0 at first
            for q, (i, j) in enumerate(ends):
                fall = -u[i] - u[j]
                if fall > 0:
                    c = slack[q] * best - least * fall
                    if c < 0:
                        least, best, block = slack[q], fall, [q]
                    elif not c:
                        block.append(q)
            for q in block:
                nb = tuple(sorted([r for r in basis if r != leave] + [q]))
                if nb not in seen:
                    seen.add(nb)
                    todo.append(nb)

    return tuple(
        PrimalVertex(coords, mask, mask.bit_count() == n)
        for mask, coords in sorted(found.items(), key=lambda item: item[1])
    )


def bounded_faces(d: Metric) -> BoundedFacePoset:
    """Intersection closure of vertex tight sets, keeping the bounded patterns.

    Each tight set is one bitmask over the constraint slots, as
    enumerate_vertices builds it.  A pattern is bounded exactly when its
    constraints touch every node, that is, when it meets each node's star
    and loop bit: the recession cone of the polyhedron is the non-negative
    orthant, so any node free of tight constraints yields an escape ray.
    The proper faces of a bounded face are the patterns that strictly
    contain its mask, so in decreasing bit count each face comes after them.
    The face lattice is graded (Ziegler, Lectures on Polytopes, Thm. 2.7):
    a face's dimension is one more than the largest of theirs, 0 for a
    vertex.
    """
    n = d.n
    vertices = enumerate_vertices(d)
    tights = [v.tight for v in vertices]

    patterns = {*tights}
    work = list(patterns)
    while work:
        F = work.pop()
        for t in tights:
            G = F & t
            if G and G not in patterns:
                patterns.add(G)
                work.append(G)

    nodes = [star | 1 << (num_pairs(n) + i) for i, star in enumerate(node_edge_masks(n))]
    dims: dict[int, int] = {}
    for F in sorted(patterns, key=int.bit_count, reverse=True):
        if not all(F & node for node in nodes):
            continue  # unbounded: a free node spans an escape ray
        dims[F] = 1 + max((k for G, k in dims.items() if G & F == F), default=-1)

    ids = {F: tuple(i for i, t in enumerate(tights) if F & t == F) for F in dims}
    order = sorted(dims, key=lambda F: (dims[F], ids[F]))
    faces = tuple(BoundedFace(F, ids[F], dims[F]) for F in order)
    fvec = tuple(sum(f.dim == k for f in faces) for k in range(faces[-1].dim + 1))
    return BoundedFacePoset(n, vertices, faces, fvec)


def h_by_outdegree(poset: BoundedFacePoset) -> tuple[int, ...]:
    """Vertex counts by number of descending bounded edges.

    Requires a simple polyhedron.  The objective is the all-ones vector;
    ties between vertices break lexicographically on coordinates, and its
    positivity keeps every unbounded edge ascending, so out-degrees only
    count bounded edges.
    """
    if any(not v.simple for v in poset.vertices):
        raise PreconditionViolated("out-degree counts require a simple polyhedron")

    def key(vid: int):
        x = poset.vertices[vid].coords
        return (sum(x),) + x

    outdeg = [0] * len(poset.vertices)
    for face in poset.faces:
        if face.dim != 1:
            continue
        a, b = face.vertex_ids
        if key(a) > key(b):
            outdeg[a] += 1
        else:
            outdeg[b] += 1
    h = [0] * (poset.n + 1)
    for v in outdeg:
        h[v] += 1
    return tuple(h)


def crosscheck(rep: FaceReport) -> Verdict:
    """The dual face report of a metric d against the full primal pipeline on d.

    Face vectors, h-vectors (out-degree against binomial inversion and the
    glued-ball transform), the face-by-face bijection between tight masks
    and interior dual faces, and each cell's heights against the vertex whose
    tight mask is the cell's graph must all agree; the first difference
    fails the verdict, its witness a message naming it.  d is the metric of
    rep's subdivision, whose faces are listed here (all_faces).  Above n = 6,
    or on a non-simple polyhedron, it cannot run and raises
    PreconditionViolated.
    """
    d = rep.subdivision.metric
    n = d.n
    if n > 6:
        raise PreconditionViolated("crosscheck is capped at n = 6")
    F, tv = all_faces(rep.subdivision), rep.span

    poset = bounded_faces(d)
    f_primal = poset.f_vector
    if f_primal != tv.fT:
        return Verdict(False, f"f-vectors differ: primal {f_primal}, dual {tv.fT}")

    h_primal = h_by_outdegree(poset)
    h_dual = tv.hT + (0,) * (n + 1 - len(tv.hT))
    if h_primal != h_dual:
        return Verdict(False, f"h-vectors differ: primal {h_primal}, dual {h_dual}")

    hB = h_from_f(glued_ball_f(rep.f, len(tv.glued)))
    if tuple(hB) != h_dual:
        return Verdict(False, f"glued-ball h-vector {hB} differs from out-degree h {h_dual}")

    # bijection between primal tight masks and interior faces of the glued ball
    primal_patterns = {f.tight for f in poset.faces}
    node_masks = node_edge_masks(n)
    dual_patterns = set().union(*F.interior_by_dim)
    for i in tv.glued:
        dual_patterns |= {node_masks[i - 1], node_masks[i - 1] | 1 << (num_pairs(n) + i - 1)}
    if primal_patterns != dual_patterns:
        missing = sorted(dual_patterns - primal_patterns)
        extra = sorted(primal_patterns - dual_patterns)
        return Verdict(False, f"face bijection failed: missing {missing}, extra {extra}")

    # each cell is the vertex whose tight set is its graph, at its heights
    coords = {v.tight: v.coords for v in poset.vertices}
    for cell in rep.subdivision.maximal_cells:
        x = coords.get(cell.graph.bits)
        if x != cell.heights:
            witness = f"heights differ at cell {cell.graph}: primal {x}, dual {cell.heights}"
            return Verdict(False, witness)

    return Verdict(True)
