"""f/h/g calculus, sphere and ball identities, tight-span vectors, gluing."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import faces, metric, report, tsv
from tightspan.errors import PreconditionViolated
from tightspan.facevectors import (
    FVector,
    check_asff,
    check_ball_relations,
    check_dehn_sommerville,
    check_inductive_step,
    f_from_h,
    g_from_h,
    face_report,
    glued_ball_f,
    h_from_f,
    split_interior_boundary,
)
from tightspan.gen import gen_dmax, gen_dmin, gen_random
from tightspan.subdivision import compute_subdivision


def test_h_from_f_octahedron_triple():
    assert h_from_f(FVector((6, 13, 12, 4))) == (1, 2, 1, 0, 0)
    assert h_from_f(FVector((6, 12, 8))) == (1, 3, 3, 1)
    assert h_from_f(FVector((0, 1, 4, 4), empty=0)) == (0, 0, 1, 2, 1)


def test_g_from_h():
    g = g_from_h((1, 3, 3, 1))
    assert g[:3] == (1, 2, 0)
    assert g_from_h((1, 0, 0)) == (1, -1, 0)
    assert g_from_h((2, 2, 2)) == (1, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=8), st.integers(0, 1))
def test_binomial_inversion_roundtrip(counts, empty):
    f = FVector(tuple(counts), empty)
    assert f_from_h(h_from_f(f)) == f
    # the drawn list as an h-vector: face_report counts faces by f_from_h
    assert h_from_f(f_from_h(counts)) == tuple(counts)


def test_split_four_points():
    F = faces("4points")
    total, bd, inner = split_interior_boundary(
        tuple(map(len, F.by_dim)), tuple(map(len, F.interior_by_dim))
    )
    assert total.counts == (6, 13, 12, 4)
    assert bd.counts == (6, 12, 8)
    assert inner.counts == (0, 1, 4, 4) and inner.empty == 0


def test_split_boundary_below_total():
    for name in ("dmax-5", "dmax-6", "dmin-6"):
        F = faces(name)
        total, bd, inner = split_interior_boundary(
            tuple(map(len, F.by_dim)), tuple(map(len, F.interior_by_dim))
        )
        assert all(b <= t for b, t in zip(bd.counts, total.counts))
        assert all(t == b + i for t, b, i in zip(total.counts, list(bd.counts) + [0], inner.counts))


def test_split_refuses_a_top_face_on_the_boundary():
    # the four-point rows with one top face fewer counted as interior
    with pytest.raises(PreconditionViolated, match="top-dimensional faces cannot lie on the boundary"):
        split_interior_boundary((6, 13, 12, 4), (0, 1, 4, 3))


def test_tightspan_vectors_examples():
    tv = tsv("4points")
    assert tv.ideal_fT == (4, 4, 1)
    assert tv.fT == (8, 8, 1)
    assert tv.hT == (1, 6, 1)
    assert tv.glued == frozenset({1, 2, 3, 4})
    assert tsv("dmax-6").fT == (32, 48, 18, 1)
    assert tsv("dmin-5").fT == (16, 20, 5)


def test_tightspan_euler_characteristic():
    for name in ("4points", "dmax-5", "dmax-6", "dmin-5", "dmin-6", "rand-5.2"):
        tv = tsv(name)
        assert sum((-1) ** k * c for k, c in enumerate(tv.fT)) == 1
        assert tv.hT[0] == 1


def test_gluing_consistency():
    for name in ("4points", "dmax-5", "dmax-6", "dmin-6"):
        tv = tsv(name)
        g = len(tv.glued)
        diff = [a - b for a, b in zip(tv.fT, list(tv.ideal_fT) + [0] * 4)]
        assert diff[0] == g and diff[1] == g
        assert all(x == 0 for x in diff[2:])
        assert tv.hT[1] == tv.ideal_hT[1] + g
        assert tv.hT[0] == tv.ideal_hT[0]
        assert tv.hT[2:] == tv.ideal_hT[2:]


def test_tightspan_requires_generic():
    from tightspan.filtration import enumerate_cells

    d = metric("ideal")
    S = enumerate_cells(d)
    with pytest.raises(
        PreconditionViolated, match="^face counts and face lists require a generic subdivision$"
    ):
        face_report(S)


def test_dehn_sommerville():
    for name in ("4points", "dmax-5", "dmax-6", "dmin-5", "dmin-6"):
        assert check_dehn_sommerville(report(name).h_boundary)
    # one facet removed breaks the symmetry
    assert not check_dehn_sommerville(h_from_f(FVector((6, 12, 7))))


def test_ball_relations():
    for name in ("4points", "dmax-5", "dmax-6", "dmin-6", "rand-5.3"):
        assert check_ball_relations(report(name))


def test_ball_relations_negative_control():
    broken = FVector((0, 1, 3, 4), empty=0)  # one interior face removed
    broken_total = FVector((6, 13, 11, 4))
    rep = report("4points")._replace(h=h_from_f(broken_total), h_interior=h_from_f(broken))
    assert not check_ball_relations(rep)


def test_asff_reports():
    verdict = check_asff(report("dmax-6"))
    rep = verdict.witness
    assert verdict.ok and rep["top_interior_count"] == 1 and rep["top_interior_cap"] == 1
    verdict5 = check_asff(report("dmax-5"))
    rep5 = verdict5.witness
    assert verdict5.ok and rep5["top_interior_count"] == 5 and rep5["top_interior_cap"] == 5
    verdictm = check_asff(report("dmin-6"))
    repm = verdictm.witness
    assert verdictm.ok
    assert repm["min_interior_dim"] == 3 and repm["very_small_bound"] == 2
    assert repm["top_interior_count"] == 0  # no interior squares: the span is 2-dimensional


def test_asff_even_case_uses_top_h_entry():
    verdict = check_asff(report("4points"))
    assert verdict.ok and verdict.witness["boundary_determines_f_ok"]


def test_inductive_step_dmax():
    for name in ("dmax-5", "dmax-6"):
        assert check_inductive_step(report(name))


def test_inductive_step_holds_below_n5():
    # at three points every restriction is one vertex or the void complex;
    # at four the facets x_i = 0 are the three-point submetrics' triangles
    assert check_inductive_step(report("4points"))
    assert check_inductive_step(face_report(compute_subdivision(gen_dmax(3))))


def test_inductive_step_holds_when_restrictions_differ():
    # same-size facet restrictions with different f-vectors: the sum over
    # the node sets takes each restriction's own ball
    assert check_inductive_step(face_report(compute_subdivision(gen_random(7, 1))))
    for n in range(5, 10):
        assert check_inductive_step(face_report(compute_subdivision(gen_dmin(n)))), n
        subs = (compute_subdivision(gen_random(n, s, 10**12)) for s in range(1, 400))
        for S in islice((S for S in subs if S.generic), 10):
            assert check_inductive_step(face_report(S)), (n, S.metric)


@pytest.mark.parametrize("d", [gen_dmin(8), gen_random(8, 1, 10**12)], ids=["dmin-8", "hires-8.1"])
def test_inductive_step_catches_a_flipped_ridge(d):
    # one ridge of the first cell turned round moves that cell to another
    # down degree: the histogram, and so the report's boundary, no longer
    # match the restrictions
    S = compute_subdivision(d)
    first = S.maximal_cells[0]
    flipped = first._replace(down=first.down ^ (first.graph.bits & -first.graph.bits))
    rep = face_report(S._replace(maximal_cells=(flipped,) + S.maximal_cells[1:]))
    assert check_inductive_step(face_report(S))
    assert not check_inductive_step(rep)


@pytest.mark.parametrize("k", range(5))
def test_inductive_step_catches_a_wrong_boundary_f(k):
    # one boundary f entry raised: the top formula catches k = n-2, the
    # inclusion-exclusion formula every k below it
    rep = report("dmax-6")
    counts = list(rep.f_boundary.counts)
    counts[k] += 1
    bad = rep._replace(f_boundary=rep.f_boundary._replace(counts=tuple(counts)))
    verdict = check_inductive_step(bad)
    assert not verdict
    if k == 4:
        assert verdict.witness == ("top", counts[4], counts[4] - 1)
    else:
        assert verdict.witness == ("alternating", k, counts[k], counts[k] - 1)


@pytest.mark.parametrize("k", range(4))
def test_inductive_step_catches_a_wrong_boundary_g(k):
    rep = report("dmax-6")
    g = list(rep.g_boundary)
    g[k] += 1
    verdict = check_inductive_step(rep._replace(g_boundary=tuple(g)))
    assert not verdict
    assert verdict.witness == ("g-sum", k, g[k], g[k] - 1)


def test_inductive_step_lists_no_face(monkeypatch):
    # each restriction is read off the submetric's report, not the listing
    import tightspan.faces as fc

    def refuse(S):
        raise AssertionError("the inductive step listed faces")

    d = metric("dmax-6")
    rep = face_report(compute_subdivision(d))
    monkeypatch.setattr(fc, "all_faces", refuse)
    assert check_inductive_step(rep)


def test_inductive_step_builds_only_the_ball_f(monkeypatch):
    # a restriction's ball f-vector is all the step reads: no submetric
    # gets a tight-span vector, or any other vector of a full report
    import tightspan.facevectors as fv

    def refuse(d, f_interior):
        raise AssertionError("the inductive step built tight-span vectors")

    d = metric("dmax-7")
    rep = face_report(compute_subdivision(d))
    monkeypatch.setattr(fv, "tightspan_vectors", refuse)
    assert check_inductive_step(rep)


def test_inductive_step_past_the_enumeration_cap():
    d = metric("dmax-9")
    assert check_inductive_step(face_report(compute_subdivision(d)))


def test_glued_ball_h_matches_tightspan_h():
    for name in ("4points", "dmax-5", "dmax-6", "dmin-6"):
        tv = tsv(name)
        hB = h_from_f(glued_ball_f(report(name).f, len(tv.glued)))
        padded = tv.hT + (0,) * (len(hB) - len(tv.hT))
        assert hB == padded


def test_interior_h_reverses_ball_h():
    for name in ("4points", "dmax-6", "dmin-5"):
        F = faces(name)
        total, _, inner = split_interior_boundary(
            tuple(map(len, F.by_dim)), tuple(map(len, F.interior_by_dim))
        )
        hB = h_from_f(total)
        hI = h_from_f(inner)
        assert hI == tuple(reversed(hB))
