"""Primal oracle: vertex enumeration, bounded faces, out-degree h-vectors."""

from fractions import Fraction

import pytest

import tightspan.primal as primal
from helpers import (
    metric,
    outdegree_h,
    rank_int,
    report,
    vertices_against_cells,
    vertices_by_bases,
)
from tightspan.common import pair_table
from tightspan.errors import PreconditionViolated
from tightspan.facevectors import FVector, face_report
from tightspan.gen import gen_dmax, gen_dmin, gen_random
from tightspan.metrics import metric_from_upper, validate_metric
from tightspan.primal import (
    BoundedFace,
    bounded_faces,
    crosscheck,
    enumerate_vertices,
    h_by_outdegree,
)
from tightspan.subdivision import compute_subdivision, down_degrees
from tightspan.suites import random_generic_metrics


def tight_pairs(n, mask):
    """The constraints of a tight mask as pairs (i, j), each loop x_i >= 0 as (i, i)."""
    slots = pair_table(n) + tuple((i, i) for i in range(1, n + 1))
    return [p for q, p in enumerate(slots) if mask >> q & 1]


def test_four_points_vertices():
    vs = enumerate_vertices(metric("4points"))
    assert len(vs) == 8
    assert all(v.simple for v in vs)
    coords = {v.coords for v in vs}
    assert (Fraction(0), Fraction(2), Fraction(3), Fraction(2)) in coords  # corner at node 1
    corner = next(v for v in vs if v.coords[0] == 0)
    assert tight_pairs(4, corner.tight) == [(1, 2), (1, 3), (1, 4), (1, 1)]


def test_ideal_metric_vertices_non_simple():
    vs = enumerate_vertices(metric("ideal"))
    assert len(vs) == 4
    assert all(not v.simple for v in vs)
    bad = next(v for v in vs if v.coords == (0, 1, 2, 1))
    assert tight_pairs(4, bad.tight) == [(1, 2), (1, 3), (1, 4), (2, 4), (1, 1)]


def test_dmax4_has_eight_simple_vertices():
    vs = enumerate_vertices(gen_dmax(4))
    assert len(vs) == 8 and all(v.simple for v in vs)


@pytest.mark.parametrize(
    "d",
    [gen_dmax(n) for n in range(3, 7)]
    + [gen_dmin(n) for n in range(3, 7)]
    + [gen_random(n, s) for n in range(4, 7) for s in (1, 2, 3)],
    ids=[f"dmax-{n}" for n in range(3, 7)]
    + [f"dmin-{n}" for n in range(3, 7)]
    + [f"rand-{n}.{s}" for n in range(4, 7) for s in (1, 2, 3)],
)
def test_vertices_equal_one_elimination_per_basis(d):
    assert enumerate_vertices(d) == vertices_by_bases(d)


def walk(monkeypatch, d):
    """enumerate_vertices(d) and the number of bases it eliminates, n pivots each."""
    calls = []
    step = primal.pivot

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(primal, "pivot", counted)
    vertices = enumerate_vertices(d)
    monkeypatch.undo()
    assert len(calls) % d.n == 0
    return vertices, len(calls) // d.n


def equal_metric(n):
    return validate_metric([[int(i != j) for j in range(n)] for i in range(n)])


def upper(n, entries):
    return metric_from_upper(n, tuple(map(Fraction, entries)))


NON_TRIANGLE = upper(5, (1, 5, 1, 2, 1, 3, 7, 1, 2, 1))  # d(1,3) > d(1,2) + d(2,3)
NEGATIVE = upper(5, (3, -2, 0, 4, 5, 1, 2, 6, 3, 4))  # d(1,3) < 0 = d(1,4)
RES20 = ((1, 5, 58), (2, 4, 147), (3, 5, 70))  # seed, non-simple vertices, bases


@pytest.mark.parametrize(
    "d, non_simple, bases",
    [(metric("ideal"), 4, 16), (metric("4points"), 0, 8)]
    + [(gen_random(6, s, 100), k, b) for s, k, b in ((1, 1, 35), (4, 8, 48))]
    + [(equal_metric(5), 1, 167), (equal_metric(6), 1, 2536)]
    + [(gen_random(6, s, 20), k, b) for s, k, b in RES20]
    + [(NON_TRIANGLE, 2, 20), (NEGATIVE, 3, 25), (upper(6, (0,) * 15), 1, 1)],
    ids=["ideal", "4points", "coarse-6.1", "coarse-6.4", "equal-5", "equal-6"]
    + [f"res20-6.{s}" for s in (1, 2, 3)]
    + ["non-triangle-5", "negative-5", "zero-6"],
)
def test_degenerate_vertices_equal_one_elimination_per_basis(
    monkeypatch, d, non_simple, bases
):
    # a non-simple vertex is reached from several bases and kept once; on every
    # input here but zero-6 the walk reaches each feasible n-subset of the
    # constraints, as many as the exhaustive reference solves, and a walk
    # that followed only one of several tied blocking rows would reach fewer.
    # At zero-6 every edge of the start basis is a ray, and its one vertex is
    # the start.
    vs, walked = walk(monkeypatch, d)
    assert vs == vertices_by_bases(d)
    assert sum(not v.simple for v in vs) == non_simple
    assert walked == bases


@pytest.mark.parametrize(
    "d, vertices, bases",
    [(gen_dmax(6), 32, 32), (gen_dmin(6), 31, 31), (equal_metric(6), 7, 2536)],
    ids=["dmax-6", "dmin-6", "equal-6"],
)
def test_walk_eliminates_one_basis_per_simple_vertex(monkeypatch, d, vertices, bases):
    # a simple vertex has one basis, so on dmax6 and dmin6 the walk eliminates
    # as many bases as it finds vertices; the all-equal metric's apex has 15
    # tight pairs and 2,530 of the bases
    vs, walked = walk(monkeypatch, d)
    assert len(vs) == vertices and walked == bases


COARSE7 = [s for s in range(1, 201) if compute_subdivision(gen_random(7, s, 100)).generic]


@pytest.mark.parametrize(
    "d",
    [gen_dmax(7), gen_dmin(7), gen_random(7, 1), gen_random(7, 2)]
    + [d for _, d in random_generic_metrics(7, 20)]
    + [gen_random(7, s, 100) for s in COARSE7],
    ids=["dmax-7", "dmin-7", "rand-7.1", "rand-7.2"]
    + [f"generic-7.{s}" for s, _ in random_generic_metrics(7, 20)]
    + [f"coarse-7.{s}" for s in COARSE7],
)
def test_vertices_are_cells_plus_corners_past_the_crosscheck_cap(d):
    # for a generic metric the polyhedron's vertices are the maximal cells at
    # their heights and the n corners of the glued simplices, each simple
    S = compute_subdivision(d)
    assert S.generic
    primal_side, expected = vertices_against_cells(S)
    assert primal_side == expected


def test_every_vertex_feasible_and_tight():
    d = gen_random(5, 4)
    for v in enumerate_vertices(d):
        for i in range(1, 6):
            assert v.coords[i - 1] >= 0
            for j in range(i + 1, 6):
                s = v.coords[i - 1] + v.coords[j - 1]
                assert s >= d.d(i, j)
                assert (s == d.d(i, j)) == ((i, j) in tight_pairs(5, v.tight))


def test_bounded_faces_vectors():
    assert bounded_faces(metric("4points")).f_vector == (8, 8, 1)
    assert bounded_faces(gen_dmax(5)).f_vector == (16, 20, 5)
    assert bounded_faces(gen_dmin(5)).f_vector == (16, 20, 5)


@pytest.mark.parametrize(
    "d",
    [metric("ideal"), metric("4points"), gen_random(6, 1, 100), gen_random(6, 4, 100)],
    ids=["ideal", "4points", "coarse-6.1", "coarse-6.4"],
)
def test_bounded_faces_equal_closure_of_reference_tight_sets(d):
    # tight sets as frozensets of pairs (i, j) and loops (i, i), closed under
    # intersection; non-simple vertices included; the poset's masks are read
    # as such sets
    n = d.n
    vertices = vertices_by_bases(d)
    tights = [frozenset(tight_pairs(n, v.tight)) for v in vertices]
    patterns = set(tights)
    while True:
        new = {F & t for F in patterns for t in tights} - patterns - {frozenset()}
        if not new:
            break
        patterns |= new
    faces = []
    for F in patterns:
        if {i for pair in F for i in pair} != set(range(1, n + 1)):
            continue  # a node without a tight constraint: unbounded
        ids = tuple(k for k, t in enumerate(tights) if F <= t)
        rows = [[int(k in pair) for k in range(1, n + 1)] for pair in F]
        faces.append(BoundedFace(F, ids, n - rank_int(rows)))
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    f_vector = tuple(sum(f.dim == k for f in faces) for k in range(faces[-1].dim + 1))

    poset = bounded_faces(d)
    assert poset.vertices == vertices
    assert [f._replace(tight=frozenset(tight_pairs(n, f.tight))) for f in poset.faces] == faces
    assert poset.f_vector == f_vector


@pytest.mark.parametrize(
    "d, simple",
    [(gen_dmax(7), True), (gen_dmin(7), True)]
    + [(gen_random(7, 2, 100), True), (gen_random(7, 1, 30), False)],
    ids=["dmax-7", "dmin-7", "coarse-7.2", "res30-7.1"],
)
def test_bounded_faces_dims_and_covering_by_linear_algebra(d, simple):
    # each dimension is n minus the rank of the face's tight rows
    n = d.n
    poset = bounded_faces(d)
    assert all(v.simple for v in poset.vertices) == simple
    for f in poset.faces:
        rows = [[int(k in pair) for k in range(1, n + 1)] for pair in tight_pairs(n, f.tight)]
        assert f.dim == n - rank_int(rows)


def test_bounded_faces_covering_relations():
    poset = bounded_faces(metric("4points"))
    # the single 2-face holds the vertex sets of exactly its 4 boundary edges
    (top,) = [f for f in poset.faces if f.dim == 2]
    edges = [f for f in poset.faces if f.dim == 1]
    held = [f for f in edges if set(f.vertex_ids) <= set(top.vertex_ids)]
    assert len(held) == 4 < len(edges)


def test_outdegree_h_four_points():
    assert h_by_outdegree(bounded_faces(metric("4points"))) == (1, 6, 1, 0, 0)


def test_outdegree_h_dmax6_is_binomial_row():
    assert h_by_outdegree(bounded_faces(gen_dmax(6))) == (1, 15, 15, 1, 0, 0, 0)


def test_outdegree_h_objective_independent():
    # the out-degree counts of a simple polyhedron are the same under any
    # strictly positive objective, the all-ones one of h_by_outdegree included
    d = gen_dmax(5)
    poset = bounded_faces(d)
    specs = [
        (Fraction(1),) * 5,
        tuple(Fraction(k) for k in (1, 2, 3, 4, 5)),
        tuple(Fraction(k, 7) for k in (5, 3, 9, 2, 11)),
    ]
    assert {outdegree_h(poset, spec) for spec in specs} == {h_by_outdegree(poset)}


def test_outdegree_h_partition():
    d = gen_random(5, 9)
    poset = bounded_faces(d)
    h = h_by_outdegree(poset)
    assert sum(h) == len(poset.vertices)
    assert h[0] == 1  # unique minimal vertex under a positive objective


@pytest.mark.parametrize(
    "name",
    ["4points"]
    + [f"{kind}-{n}" for kind in ("dmax", "dmin") for n in (4, 5, 6)]
    + ["rand-5.1", "rand-6.1"],
)
def test_outdegree_h_is_the_down_degree_histogram(name):
    # the primal polyhedron's vertices are the cells and the corner vertices
    # of the n glued simplices (all n for a generic metric); gluing a simplex
    # along one facet adds 1 to h_1, so the out-degree h-vector is the
    # histogram of the cells' down edges plus n at index 1
    d = metric(name)
    histogram = list(down_degrees(compute_subdivision(d)))
    histogram[1] += d.n
    assert h_by_outdegree(bounded_faces(d)) == tuple(histogram)


def test_outdegree_refuses_non_simple():
    with pytest.raises(
        PreconditionViolated, match="^out-degree counts require a simple polyhedron$"
    ):
        h_by_outdegree(bounded_faces(metric("ideal")))


def test_crosscheck_small_fixtures():
    for name in ("4points", "dmax-4", "dmax-5", "dmin-5"):
        assert crosscheck(report(name))


def test_crosscheck_graph_weighted_family():
    from tightspan.graphs import EdgeGraph
    from tightspan.gen import gen_dgamma
    from tightspan.subdivision import compute_subdivision

    one_edge = gen_dgamma(5, EdgeGraph.from_edges(5, [(1, 2)]))
    one_triangle = gen_dgamma(6, EdgeGraph.from_edges(6, [(2, 3), (2, 4), (3, 4)]))
    for d in (one_edge, one_triangle):
        S = compute_subdivision(d)
        assert S.generic
        assert crosscheck(face_report(S))


def _broken(name, part, monkeypatch):
    """The face report of a fixture with one part changed so that it disagrees."""
    rep = report(name)
    span = rep.span
    if part == "fT":
        return rep._replace(span=span._replace(fT=(span.fT[0] + 1,) + span.fT[1:]))
    if part == "hT":
        return rep._replace(span=span._replace(hT=span.hT[:-1] + (span.hT[-1] + 1,)))
    if part == "f":
        counts = rep.f.counts
        return rep._replace(f=FVector(counts[:1] + (counts[1] + 1,) + counts[2:]))
    if part == "heights":  # one cell's heights shifted, its graph and faces kept
        S = rep.subdivision
        cell = S.maximal_cells[0]
        moved = cell._replace(lam=(cell.lam[0] + 1,) + cell.lam[1:])
        return rep._replace(subdivision=S._replace(maximal_cells=(moved,) + S.maximal_cells[1:]))
    faces = primal.all_faces(rep.subdivision)
    top = faces.interior_by_dim[-1]
    short = faces._replace(interior_by_dim=faces.interior_by_dim[:-1] + (top - {min(top)},))
    # the crosscheck's face listing comes one interior face short
    monkeypatch.setattr(primal, "all_faces", lambda S: short)
    return rep


@pytest.mark.parametrize(
    "part, message",
    [
        ("fT", "f-vectors differ"),
        ("hT", "h-vectors differ"),
        ("f", "glued-ball h-vector"),
        ("interior", "face bijection failed"),
        ("heights", "heights differ"),
    ],
)
def test_crosscheck_catches_each_disagreement(part, message, monkeypatch):
    d = metric("dmax-5")
    assert crosscheck(report("dmax-5"))
    verdict = crosscheck(_broken("dmax-5", part, monkeypatch))
    assert not verdict and verdict.witness.startswith(message)


def test_crosscheck_caps_scale():
    with pytest.raises(PreconditionViolated, match="^crosscheck is capped at n = 6$"):
        crosscheck(report("dmax-7"))


def test_scale_cap_vertices():
    with pytest.raises(PreconditionViolated, match="^vertex enumeration is capped at n = 7$"):
        enumerate_vertices(gen_dmax(8))
