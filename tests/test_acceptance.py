"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Everything asserts exact equality; run with -s (or rely on the summary) to
see the per-criterion lines.  Expected total runtime is under half a minute
on a 2-core machine.
"""

import time
from fractions import Fraction

from helpers import faces, metric, outdegree_h, report, subdivision, tsv
from oracles import (
    b11_classify, components, edge_count, interleaved_cycle_graph, is_cell_lp, is_cell_oddpath,
)
from tightspan.bounds import (
    F_bound,
    f_bound_or_zero,
    identity_checks,
    lower_bound_top,
)
from tightspan.facevectors import (
    FVector,
    check_asff,
    check_ball_relations,
    check_dehn_sommerville,
    check_inductive_step,
    face_report,
    h_from_f,
    split_interior_boundary,
)
from tightspan.graphs import EdgeGraph
from tightspan.metrics import gen_dmax, gen_dmin
from tightspan.primal import bounded_faces, crosscheck, h_by_outdegree
from tightspan.subdivision import (
    Cell,
    candidate_graphs,
    compute_subdivision,
    enumerate_cells,
    lambda_certificate,
    random_generic_metrics,
    seed_cell,
    traverse_cells,
)

NAMED_FIXTURES = ("4points", "dmax-4", "dmax-5", "dmax-6", "dmax-7",
                  "dmin-5", "dmin-6", "dmin-7")


def _criterion(number, label):
    """Print one pass/fail line per criterion, then re-raise on failure."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {number:2d} ({label}): {verdict}")
            return False

    return _Reporter()


def test_criterion_01_four_point_example():
    with _criterion(1, "four-point example reproduction"):
        S = subdivision("4points")
        assert len(S.maximal_cells) == 4
        F = faces("4points")
        f_total, f_bd, f_int = split_interior_boundary(
            tuple(map(len, F.by_dim)), tuple(map(len, F.interior_by_dim))
        )
        assert f_total.counts == (6, 13, 12, 4)
        assert f_bd.counts == (6, 12, 8)
        assert f_int.counts == (0, 1, 4, 4)
        assert h_from_f(f_total) == (1, 2, 1, 0, 0)
        assert h_from_f(f_bd) == (1, 3, 3, 1)
        assert h_from_f(f_int) == (0, 0, 1, 2, 1)
        assert tsv("4points").fT == (8, 8, 1)
        assert crosscheck(report("4points"))
        assert bounded_faces(metric("4points")).f_vector == (8, 8, 1)


def test_criterion_02_dmax_attainment():
    with _criterion(2, "dmax attains every upper bound"):
        assert tsv("dmax-5").fT == (16, 20, 5)
        assert tsv("dmax-6").fT == (32, 48, 18, 1)
        from math import comb

        for n in (4, 5, 6, 7):
            hT = tsv(f"dmax-{n}").hT
            assert hT == tuple(comb(n, 2 * i) for i in range(n // 2 + 1))
        start = time.monotonic()
        S7 = enumerate_cells(gen_dmax(7))
        tv7 = face_report(S7).span
        elapsed = time.monotonic() - start
        assert tv7.fT == (64, 112, 56, 7)
        assert tv7.fT == tuple(F_bound(7, k) for k in range(4))
        assert elapsed < 60.0


def test_criterion_03_dmin_attainment():
    with _criterion(3, "dmin attains the top-dimension lower bound"):
        assert tsv("dmin-5").fT == (16, 20, 5)
        assert tsv("dmin-6").fT == (31, 45, 15)
        for n in (5, 6, 7):
            tv = tsv(f"dmin-{n}")
            assert tv.dim == -(-n // 3)
            assert tv.fT[tv.dim] == lower_bound_top(n)


def test_criterion_04_volume_identity():
    with _criterion(4, "covering volume identity"):
        for n in (4, 5, 6, 7):
            for kind in ("dmax", "dmin"):
                if kind == "dmin" and n == 4:
                    S = enumerate_cells(gen_dmin(4))
                else:
                    S = subdivision(f"{kind}-{n}")
                assert S.total_volume == (1 << (n - 1)) - n
        for gen in (gen_dmax, gen_dmin):
            d = gen(8)
            T = traverse_cells(d, seed_cell(d))
            assert T.total_volume == (1 << 7) - 8
        for n in (5, 6):
            for seed, d in random_generic_metrics(n, 20):
                assert enumerate_cells(d).total_volume == (1 << (n - 1)) - n


def test_criterion_05_theorem_checks():
    with _criterion(5, "sphere/ball/asff/inductive identities"):
        random_names = tuple(f"rand-5.{s}" for s in range(1, 6)) + tuple(
            f"rand-6.{s}" for s in (1, 2, 3)
        )
        for name in NAMED_FIXTURES + random_names:
            assert check_dehn_sommerville(report(name).h_boundary)
            assert check_ball_relations(report(name))
            assert check_asff(report(name))
        for n in (4, 5, 6, 7):
            verdict = check_asff(report(f"dmax-{n}"))
            assert verdict.ok
            asff = verdict.witness
            assert asff["top_interior_count"] == asff["top_interior_cap"]  # dmax is tight
        for n in (5, 6, 7):
            assert check_inductive_step(report(f"dmax-{n}"))


def test_criterion_06_cell_lemmas():
    with _criterion(6, "cycle cells and matching support shapes"):
        for n in (5, 6, 7, 8, 9):
            cert = lambda_certificate(gen_dmax(n), interleaved_cycle_graph(n))
            assert isinstance(cert, Cell)
        for n in (5, 6, 7):
            for gen in (gen_dmax, gen_dmin):
                for b in (1, 2, 3):
                    rep = b11_classify(gen(n), b)
                    expected = b if rep.node_one_kind == "star" else b - 1
                    assert rep.node_one_extra_edges == expected
        for seed, d in random_generic_metrics(6, 20):
            for b in (1, 2, 3):
                b11_classify(d, b)  # raises AssertionError on any bad shape


def test_criterion_07_oracle_equivalence():
    with _criterion(7, "primal oracle agrees with the dual pipeline"):
        for name in ("4points", "dmax-4", "dmax-5", "dmax-6", "dmin-5", "dmin-6"):
            assert crosscheck(report(name))
        for seed, d in random_generic_metrics(5, 20):
            assert crosscheck(face_report(compute_subdivision(d)))
        d = metric("dmax-5")
        poset = bounded_faces(d)
        specs = [
            (Fraction(1),) * 5,
            tuple(Fraction(k) for k in (2, 3, 5, 7, 11)),
            tuple(Fraction(k, 13) for k in (17, 4, 9, 25, 6)),
        ]
        assert {outdegree_h(poset, s) for s in specs} == {h_by_outdegree(poset)}


def test_criterion_08_identities_and_recursions():
    with _criterion(8, "binomial identities and bound recursion"):
        assert identity_checks(12)
        for n in range(4, 17):
            for k in range(1, n // 2 + 1):
                assert f_bound_or_zero(n, k) == 2 * f_bound_or_zero(
                    n - 1, k
                ) + f_bound_or_zero(n - 2, k - 1)
        from math import comb

        for n in range(4, 17):
            for k in range(n // 2 + 1):
                assert F_bound(n, k) == sum(
                    comb(i, k) * comb(n, 2 * i) for i in range(k, n // 2 + 1)
                )
            assert F_bound(n, 0) == 1 << (n - 1)


def test_criterion_09_method_agreement():
    with _criterion(9, "independent cell tests agree"):
        for n in (4, 5, 6):
            d = gen_dmax(n)
            S = set(c.graph.bits for c in subdivision(f"dmax-{n}").maximal_cells)
            for mask in candidate_graphs(n):
                G = EdgeGraph(n, mask)
                by_cert = isinstance(lambda_certificate(d, G), Cell)
                by_lp = is_cell_lp(d, G)
                assert by_cert == by_lp == (mask in S)
                if len(components(G).components) == 1:
                    assert by_lp == is_cell_oddpath(d, G)
        for name in NAMED_FIXTURES + ("rand-5.1", "rand-6.2"):
            d = metric(name)
            assert traverse_cells(d, seed_cell(d)).maximal_cells == subdivision(
                name
            ).maximal_cells


def test_criterion_10_negative_controls():
    with _criterion(10, "degeneracies and broken inputs are caught"):
        S = compute_subdivision(metric("ideal"))
        assert not S.generic
        graph, pair = S.degeneracy_witness
        assert pair == (1, 1) and edge_count(graph) == 4
        assert not check_dehn_sommerville(h_from_f(FVector((6, 12, 7))))
        assert not check_dehn_sommerville(h_from_f(FVector((6, 13, 8))))
        # a subdivision with one cell dropped: its boundary no longer matches
        # the sum of its facet restrictions
        S = subdivision("rand-7.1")
        assert check_inductive_step(face_report(S))
        assert not check_inductive_step(face_report(S._replace(maximal_cells=S.maximal_cells[1:])))
