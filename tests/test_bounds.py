"""Closed-form bounds, recursion, binomial identities, and bound verification."""

from math import comb

import pytest

import tightspan.bounds as bounds
from helpers import metric, tsv
from tightspan.bounds import (
    F_bound,
    H_bound,
    f_bound_or_zero,
    identity_checks,
    identity_sum_a,
    identity_sum_b,
    lower_bound_top,
    verify_metric_against_bounds,
)
from tightspan.common import Verdict
from tightspan.errors import PreconditionViolated
from tightspan.facevectors import TightSpanVectors, face_report
from tightspan.gen import gen_dmax, gen_dmin
from tightspan.subdivision import compute_subdivision


def test_f_bound_values():
    assert [F_bound(6, k) for k in range(4)] == [32, 48, 18, 1]
    assert [F_bound(7, k) for k in range(4)] == [64, 112, 56, 7]
    assert F_bound(4, 0) == 8


def test_f_bound_out_of_range():
    with pytest.raises(PreconditionViolated, match=r"^k must lie in 0\.\.3 for n=6$"):
        F_bound(6, 4)
    with pytest.raises(PreconditionViolated, match=r"^k must lie in 0\.\.3 for n=6$"):
        F_bound(6, -1)


def test_f_bound_refuses_an_empty_point_set():
    # n = 0 would divide by n - k = 0; the small n that the recursion reads keep their values
    for bound, n in ((F_bound, 0), (F_bound, -1), (f_bound_or_zero, 0)):
        with pytest.raises(PreconditionViolated, match="^face bound stated for n >= 1$"):
            bound(n, 0)
    assert (F_bound(1, 0), F_bound(2, 0), F_bound(2, 1)) == (1, 2, 1)


def test_f_bound_recursion():
    for n in range(4, 17):
        for k in range(1, n // 2 + 1):
            assert f_bound_or_zero(n, k) == 2 * f_bound_or_zero(n - 1, k) + f_bound_or_zero(
                n - 2, k - 1
            )


def test_f_bound_vertices_and_volume():
    for n in range(3, 17):
        assert F_bound(n, 0) == 1 << (n - 1)
        assert F_bound(n, 0) == ((1 << (n - 1)) - n) + n


def test_f_bound_equals_h_sum():
    for n in range(4, 17):
        for k in range(n // 2 + 1):
            assert F_bound(n, k) == sum(
                comb(i, k) * comb(n, 2 * i) for i in range(k, n // 2 + 1)
            )


def test_h_bound_values():
    assert H_bound(6, 1, ideal=True) == 9
    assert H_bound(6, 1, ideal=False) == 15
    assert [H_bound(4, k, ideal=True) for k in range(3)] == [1, 2, 1]
    for n in range(4, 12):
        assert H_bound(n, 0, ideal=True) == H_bound(n, 0, ideal=False) == 1


def test_lower_bound_top_values():
    assert lower_bound_top(6) == 15
    assert lower_bound_top(5) == 5
    assert lower_bound_top(7) == 3
    assert lower_bound_top(4) == 1
    assert lower_bound_top(9) == 9 * 3 + 27
    with pytest.raises(PreconditionViolated, match="^lower bound stated for n >= 4$"):
        lower_bound_top(3)


def test_bound_report_three_points(monkeypatch):
    # the n = 3 tripod has dimension 1 = ceil(3/3), but the top-face bound is
    # stated for n >= 4 only, so the check never asks for it
    d = gen_dmax(3)
    tv = face_report(compute_subdivision(d)).span
    assert tv.dim == -(-3 // 3) == 1

    def unstated(n):
        raise AssertionError(f"top-face bound asked for at n={n}")

    monkeypatch.setattr(bounds, "lower_bound_top", unstated)
    assert verify_metric_against_bounds(d, tv) == Verdict(True)
    with pytest.raises(PreconditionViolated, match="^lower bound stated for n >= 4$"):
        lower_bound_top(3)


def test_lower_bound_below_f_bound():
    for n in range(4, 17):
        assert lower_bound_top(n) <= F_bound(n, -(-n // 3))


def test_identity_checks():
    assert identity_checks(12)


def test_identity_values():
    assert identity_sum_a(5, 1) == 5
    assert identity_sum_a(5, 3) == 0
    # excluded boundary points really fail, which is why the domain stops short
    assert identity_sum_a(3, 3) == -3
    assert identity_sum_a(2, 2) == -2
    assert identity_sum_b(4, 2, 0) == -comb(4, 0)
    assert identity_sum_b(6, 4, 2) == -comb(6, 2)
    assert identity_sum_b(5, 5, 5) == -1


def test_bound_report_dmax():
    for name in ("dmax-4", "dmax-5", "dmax-6"):
        d, tv = metric(name), tsv(name)
        n = d.n
        assert verify_metric_against_bounds(d, tv)
        assert tv.fT == tuple(F_bound(n, k) for k in range(n // 2 + 1))
        assert tv.hT == tuple(H_bound(n, k, ideal=False) for k in range(n // 2 + 1))
        assert tv.dim == n // 2


def test_bound_report_dmin():
    tv = tsv("dmin-6")
    assert verify_metric_against_bounds(metric("dmin-6"), tv)
    assert tv.fT != tuple(F_bound(6, k) for k in range(6 // 2 + 1))
    assert tv.dim == 2 == -(-6 // 3)
    assert tv.fT[tv.dim] == 15 == lower_bound_top(6)


@pytest.mark.parametrize("n", [12, 13])
def test_extremal_families_attain_the_bounds(n):
    # counted from the down-degree histogram, at sizes where listing every
    # face is slow (4.2M faces at n = 13): dmax attains every F_k(n), dmin
    # has the least dimension ceil(n/3) and the guaranteed count of top faces
    spans = {}
    for gen in (gen_dmax, gen_dmin):
        d = gen(n)
        spans[gen] = face_report(compute_subdivision(d)).span
        assert verify_metric_against_bounds(d, spans[gen])
    assert spans[gen_dmax].fT == tuple(F_bound(n, k) for k in range(n // 2 + 1))
    low = spans[gen_dmin]
    assert low.dim == -(-n // 3) and low.fT[low.dim] == lower_bound_top(n)


def test_bound_violation_fails_the_verdict():
    tv = tsv("dmax-4")
    fake = TightSpanVectors((9, 8, 1), tv.hT, tv.glued, tv.ideal_fT, tv.ideal_hT)
    verdict = verify_metric_against_bounds(metric("dmax-4"), fake)
    assert verdict == (False, "f_0 = 9 exceeds bound 8 at n=4")


@pytest.mark.parametrize(
    "name, fT, hT, message",
    [
        ("dmax-4", (8, 8, 1), (1, 7, 1), "h_1 = 7 exceeds bound 6 at n=4"),
        ("dmax-4", (8, 8), (1, 6, 1), "dim 1 outside [2, 2] at n=4"),
        ("dmin-6", (31, 45, 14), (1, 15, 15), "top count 14 below lower bound 15 at n=6"),
    ],
    ids=["h-above-bound", "dim-below-range", "top-below-bound"],
)
def test_bound_violation_names_the_failed_bound(name, fT, hT, message):
    # each vector stays within every other bound, so only the named one fails
    tv = tsv(name)
    fake = TightSpanVectors(fT, hT, tv.glued, tv.ideal_fT, tv.ideal_hT)
    verdict = verify_metric_against_bounds(metric(name), fake)
    assert not verdict and verdict.witness == message

