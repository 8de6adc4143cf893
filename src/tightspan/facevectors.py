"""f/h/g-vector calculus, sphere and ball identities, and tight-span vectors.

Conventions.  An FVector for a d-dimensional complex stores (f_0, ..., f_d)
plus the empty-face count f_{-1} (1 for honest complexes, 0 for the interior
pseudo-complex of a ball, whose empty face belongs to the boundary).  Its
h-vector has entries 0..d+1 through the binomial transform; the g-vector is
g_0 = 1 with successive h differences.

The tight span of a generic metric reads off the dual triangulation: its
k-faces match the interior (n-1-k)-faces, plus one extra vertex and edge for
every node whose corner simplex survives (all n of them for generic input).
The tight-span h-vector comes from the out-degree transform, inverted here
by binomial inversion.

face_report derives all of these once per generic subdivision into a
FaceReport.  Every count comes by f_from_h from one histogram, the cells'
down degrees (down_degrees), read forward for the ball and reversed for its
interior; no face is listed.  The checks, the CLI report, the verify suites
and the primal crosscheck all read that record and take the metric from its
subdivision.  check_inductive_step counts each facet restriction the same
way, from the histogram of the submetric's own subdivision, and sums the
restrictions by inclusion-exclusion into the boundary's f- and g-vectors
on every generic metric from n = 3.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple, Sequence

from .common import Verdict
from .errors import PreconditionViolated
from .metrics import Metric, strict_triangle_nodes, submetric
from .subdivision import Subdivision, compute_subdivision, down_degrees


class FVector(NamedTuple):
    """Face counts (f_0, ..., f_dim) with an explicit empty-face count."""

    counts: tuple[int, ...]
    empty: int = 1

    @property
    def dim(self) -> int:
        return len(self.counts) - 1

    def at(self, k: int) -> int:
        if k == -1:
            return self.empty
        if 0 <= k < len(self.counts):
            return self.counts[k]
        return 0


def h_from_f(f: FVector) -> tuple[int, ...]:
    """Binomial transform: h_k = sum_i (-1)^(k-i) C(dim+1-i, dim+1-k) f_{i-1}."""
    d = f.dim
    out = []
    for k in range(d + 2):
        total = 0
        for i in range(k + 1):
            total += (-1) ** (k - i) * comb(d + 1 - i, d + 1 - k) * f.at(i - 1)
        out.append(total)
    return tuple(out)


def f_from_h(h: Sequence[int]) -> FVector:
    """Inverse transform; h has entries 0..dim+1 for a dim-dimensional complex."""
    d = len(h) - 2
    counts = []
    for k in range(d + 1):
        counts.append(sum(comb(d + 1 - i, d - k) * h[i] for i in range(k + 2)))
    empty = h[0]
    return FVector(tuple(counts), empty)


def g_from_h(h: Sequence[int]) -> tuple[int, ...]:
    """g_0 = 1 and g_k = h_k - h_{k-1}."""
    return (1,) + tuple(h[k] - h[k - 1] for k in range(1, len(h)))


def split_interior_boundary(
    total: Sequence[int], inner: Sequence[int]
) -> tuple[FVector, FVector, FVector]:
    """(total, boundary, interior) f-vectors of a triangulated ball from its two count rows.

    total and inner count all faces and the interior faces by dimension,
    0..n-1.  The boundary complex has dimension n-2; the interior
    pseudo-vector keeps full length with empty count 0.
    """
    n = len(total)
    boundary = [t - i for t, i in zip(total, inner)]
    if boundary[-1] != 0:
        raise PreconditionViolated("top-dimensional faces cannot lie on the boundary")
    return (
        FVector(tuple(total), 1),
        FVector(tuple(boundary[: n - 1]), 1),
        FVector(tuple(inner), 0),
    )


class TightSpanVectors(NamedTuple):
    """Face and h-vectors of the tight span, with and without corner gluing."""

    fT: tuple[int, ...]
    hT: tuple[int, ...]
    glued: frozenset[int]
    ideal_fT: tuple[int, ...]
    ideal_hT: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.fT) - 1


def _invert_outdegree(f: Sequence[int]) -> tuple[int, ...]:
    """h_j = sum_k (-1)^(k-j) C(k,j) f_k, inverting f_k = sum_i C(i,k) h_i."""
    return tuple(
        sum((-1) ** (k - j) * comb(k, j) * f[k] for k in range(j, len(f)))
        for j in range(len(f))
    )


def tightspan_vectors(d: Metric, f_interior: FVector) -> TightSpanVectors:
    """Tight-span f/h-vectors from the interior face counts of the dual triangulation.

    fT_k before gluing is the count of interior (n-1-k)-faces; each strictly
    positive corner node then contributes one vertex and one edge.
    """
    n = d.n
    ideal = [f_interior.counts[n - 1 - k] for k in range(n)]
    while ideal and ideal[-1] == 0:
        ideal.pop()
    glued = strict_triangle_nodes(d)
    fT = list(ideal)
    if glued:
        while len(fT) < 2:
            fT.append(0)
        fT[0] += len(glued)
        fT[1] += len(glued)
    return TightSpanVectors(
        tuple(fT), _invert_outdegree(fT), glued, tuple(ideal), _invert_outdegree(ideal)
    )


class FaceReport(NamedTuple):
    """Every face vector of one generic subdivision, derived once.

    f, f_boundary and f_interior are the ball, its boundary sphere and its
    interior (split_interior_boundary); h, h_boundary and h_interior their
    h-vectors; g_boundary the boundary g-vector; span the tight-span
    vectors.  The checks and every report read these fields.
    """

    subdivision: Subdivision
    f: FVector
    f_boundary: FVector
    f_interior: FVector
    h: tuple[int, ...]
    h_boundary: tuple[int, ...]
    h_interior: tuple[int, ...]
    g_boundary: tuple[int, ...]
    span: TightSpanVectors


def face_report(S: Subdivision) -> FaceReport:
    """The face vectors of the generic subdivision S of S.metric, from its down-degree histogram.

    The cells are the vertices of the simple polyhedron dual to S, and a
    cell's down edges are its edges that descend in the seed weight, a
    generic objective.  So histogram[j], the number of cells with j down
    edges, is the out-degree h-vector of that polyhedron (Kalai 1988;
    Ziegler, Lectures on Polytopes, 8.3), and f_from_h gives the ball's face
    counts: a cell with j down edges is the lowest cell of C(n-j, k+1-j)
    k-faces, all its down edges and k+1-j up edges.  Read in reverse
    (up edges), the histogram gives the interior counts: the cell is the
    highest cell of C(j, k+1-n+j) interior k-faces, all its up edges and
    k+1-n+j down edges.  No face is listed.  A non-generic S is refused
    by down_degrees, with PreconditionViolated.
    """
    hist = down_degrees(S)
    f, f_bd, f_int = split_interior_boundary(
        f_from_h(hist).counts, f_from_h(hist[::-1]).counts
    )
    h_bd = h_from_f(f_bd)
    return FaceReport(
        S, f, f_bd, f_int, h_from_f(f), h_bd, h_from_f(f_int), g_from_h(h_bd),
        tightspan_vectors(S.metric, f_int),
    )


def glued_ball_f(f: FVector, glued_count: int) -> FVector:
    """f-vector of the triangulation with a corner simplex glued at each counted node.

    A glued corner simplex at node i has the star edges plus one new vertex;
    it contributes C(n-1, k) new k-faces.
    """
    n = f.dim + 1
    return FVector(tuple(c + glued_count * comb(n - 1, k) for k, c in enumerate(f.counts)))


def check_dehn_sommerville(h: Sequence[int]) -> Verdict:
    """Sphere symmetry h_k = h_{dim+1-k} of an h-vector; witness is the first failing index."""
    top = len(h) - 1
    for k in range(len(h)):
        if h[k] != h[top - k]:
            return Verdict(False, (k, h))
    return Verdict(True, h)


def check_ball_relations(rep: FaceReport) -> Verdict:
    """Ball-boundary identities g_k(bd) = h_k(B) - h_{n-k}(B) and h_{n-k}(B) = h_k(int)."""
    n = rep.subdivision.n
    hB, h_int, g_bd = rep.h, rep.h_interior, rep.g_boundary
    for k in range(n):
        if g_bd[k] != hB[k] - hB[n - k]:
            return Verdict(False, ("boundary-g", k, g_bd[k], hB[k] - hB[n - k]))
    for k in range(n + 1):
        if hB[n - k] != h_int[k]:
            return Verdict(False, ("interior-h", k, hB[n - k], h_int[k]))
    return Verdict(True, (hB, h_int, g_bd))


def check_asff(rep: FaceReport) -> Verdict:
    """Interior-dimension floor, h-vanishing, and the top interior-face cap.

    For an n-point triangulation: no interior face has dimension below
    floor((n-1)/2); with e = floor((n-1)/2) - 1 the ball h-vector vanishes
    from n-e-1 on and matches the boundary g-vector up to e+1; interior
    faces of the minimal dimension number at most 1 for even n and at most
    n for odd n; and the boundary determines f (odd n exactly, even n up to
    the single h_(n/2) entry).  The witness, pass or fail, is a dict of the
    overall ok, each part's verdict and the values they compare.
    """
    n = rep.subdivision.n
    floor_dim = (n - 1) // 2
    interior = rep.f_interior.counts
    min_int_dim = next((k for k, c in enumerate(interior) if c), n - 1)
    sff_ok = min_int_dim >= floor_dim

    e = floor_dim - 1
    hB, g_bd = rep.h, rep.g_boundary
    vanish_ok = all(hB[k] == 0 for k in range(n - e - 1, n + 1))
    match_ok = all(hB[k] == g_bd[k] for k in range(0, e + 2))

    top_dim = -(-n // 2) - 1  # ceil(n/2) - 1, the least possible interior dimension
    top_count = interior[top_dim]
    top_cap = 1 if n % 2 == 0 else n
    top_ok = top_count <= top_cap

    # boundary data rebuilds the reversed interior counts (the dual face counts):
    # g_bd up to index ceil(n/2) - 1, and for even n the entry h_(n/2) besides
    middle = hB[n // 2] if n % 2 == 0 else 0
    recon = all(
        interior[n - 1 - k]
        == sum(comb(i, k) * g_bd[i] for i in range(k, (n + 1) // 2)) + comb(n // 2, k) * middle
        for k in range(n)
    )

    ok = sff_ok and vanish_ok and match_ok and top_ok and recon
    return Verdict(ok, {
        "ok": ok,
        "min_interior_dim": min_int_dim,
        "very_small_bound": floor_dim,  # interior faces must have dim >= this
        "h_vanishing_ok": vanish_ok,
        "h_boundary_match_ok": match_ok,
        "top_interior_count": top_count,
        "top_interior_cap": top_cap,
        "top_count_ok": top_ok,
        "boundary_determines_f_ok": recon,
    })


# -- inductive boundary formulas -----------------------------------------------------


def check_inductive_step(rep: FaceReport) -> Verdict:
    """Boundary face counts of rep's metric d from its facet restrictions, by inclusion-exclusion.

    The boundary of the second hypersimplex is the union of its facets
    x_i = 0 and x_i = 1.  A facet x_i = 1 is a simplex that no subdivision
    cuts, and its proper faces lie in facets x_j = 0.  The restriction of
    d's subdivision to the face x_I = 0 is the subdivision of the submetric
    on the nodes off I (De Loera, Rambau & Santos, Triangulations, 2010), a
    ball whose f-vector is f_from_h of the down-degree histogram of the
    submetric's own traversal; two kept nodes leave one vertex, fewer the
    void complex.  So, over the nonempty node sets I,

        f_k(bd) = sum_I (-1)^(|I|-1) f_k(ball off I), plus n at k = n-2,
        g_k(bd) = sum_I sum_j (-1)^(|I|+j-1) C(|I|, j) h_(k-j)(ball off I).

    The sums accumulate as the restrictions stream by; no face is listed
    and no other vector built.  A failure's witness is ("top", got,
    expected) at k = n-2, ("alternating", k, got, expected) below it, or
    ("g-sum", k, got, expected).
    """
    d = rep.subdivision.metric
    n = d.n
    f_sum = [0] * (n - 2) + [n]
    g_sum = [0] * (n // 2 + 1)
    for q in range(n):
        i = n - q
        for kept in combinations(range(1, n + 1), q):
            if q >= 3:
                ball = f_from_h(down_degrees(compute_subdivision(submetric(d, kept))))
            else:
                ball = FVector((1, 0) if q == 2 else (0,) * q)
            for k in range(n - 1):
                f_sum[k] += (-1) ** (i - 1) * ball.at(k)
            h = h_from_f(ball)
            for k in range(n // 2 + 1):
                g_sum[k] += sum(
                    (-1) ** (i + j - 1) * comb(i, j) * h[k - j]
                    for j in range(min(i, k) + 1)
                    if k - j < len(h)
                )

    f_bd = rep.f_boundary
    if f_bd.at(n - 2) != f_sum[n - 2]:
        return Verdict(False, ("top", f_bd.at(n - 2), f_sum[n - 2]))
    for k in range(n - 2):
        if f_bd.at(k) != f_sum[k]:
            return Verdict(False, ("alternating", k, f_bd.at(k), f_sum[k]))
    for k, expected in enumerate(g_sum):
        if rep.g_boundary[k] != expected:
            return Verdict(False, ("g-sum", k, rep.g_boundary[k], expected))
    return Verdict(True)


def report_json(rep: FaceReport) -> dict:
    """The report's vectors as JSON lists, by the keys of the CLI report rows."""
    tv = rep.span
    return {
        "f": list(rep.f.counts),
        "f_boundary": list(rep.f_boundary.counts),
        "f_interior": list(rep.f_interior.counts),
        "h": list(rep.h),
        "h_boundary": list(rep.h_boundary),
        "h_interior": list(rep.h_interior),
        "g_boundary": list(rep.g_boundary),
        "fT": list(tv.fT),
        "hT": list(tv.hT),
        "ideal_fT": list(tv.ideal_fT),
        "ideal_hT": list(tv.ideal_hT),
        "glued": sorted(tv.glued),
    }
