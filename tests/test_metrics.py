"""Metric validation, generators, shifts, and metric-level predicates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import metric
from oracles import IsolatedDistance, check_dmax_property, covered_nodes, shift_by_isolated
from tightspan.errors import PreconditionViolated
from tightspan.graphs import EdgeGraph
from tightspan.metrics import (
    dmin_graph,
    gen_dgamma,
    gen_dmax,
    gen_dmin,
    gen_random,
    metric_from_json,
    metric_from_upper,
    metric_to_json,
    strict_triangle_nodes,
    submetric,
    validate_metric,
)


def test_validate_four_points():
    d = metric("4points")
    assert d.n == 4
    assert d.satisfies_triangle and d.is_nonnegative
    assert d.d(1, 3) == 3 and d.d(2, 4) == 3 and d.d(1, 4) == 2


def test_validate_zero_metric():
    d = validate_metric([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert d.satisfies_triangle and d.is_nonnegative


def test_validate_triangle_violation_flag():
    d = validate_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert not d.satisfies_triangle
    assert d.is_nonnegative


def test_validate_rejections():
    with pytest.raises(PreconditionViolated, match="^need at least 3 points, got 2$"):
        validate_metric([[0, 1], [1, 0]])
    with pytest.raises(PreconditionViolated, match=r"^d\(1,3\) = 2 but d\(3,1\) = 99$"):
        validate_metric([[0, 1, 2], [1, 0, 3], [99, 3, 0]])
    with pytest.raises(PreconditionViolated, match=r"^d\(2,2\) = 7 != 0$"):
        validate_metric([[0, 1, 2], [1, 7, 3], [2, 3, 0]])
    with pytest.raises(PreconditionViolated, match="^table is not square$"):
        validate_metric([[0, 1, 2], [1, 0], [2, 3, 0]])


def test_validate_refuses_65_points():
    # as metric_from_upper does, an n above 64 is refused before any entry is read
    table = [[0 if i == j else 1 for j in range(65)] for i in range(65)]
    with pytest.raises(PreconditionViolated, match="^need n <= 64, got 65$"):
        validate_metric(table)


def test_dmax_values():
    d = gen_dmax(4)
    assert d.d(1, 2) == Fraction(23, 22)
    assert d.d(3, 4) == Fraction(33, 32)
    assert d.d(2, 3) == Fraction(28, 27)


@pytest.mark.parametrize("n", range(3, 9))
def test_dmax_is_metric(n):
    assert gen_dmax(n).satisfies_triangle


def test_dmax_entries_distinct():
    for n in range(3, 9):
        entries = gen_dmax(n).entries
        assert len(set(entries)) == len(entries)


def test_dgamma_empty_graph_is_dmax():
    assert gen_dgamma(5, EdgeGraph(5, 0)) == gen_dmax(5)


def test_dgamma_triangle_values():
    G = EdgeGraph.from_edges(6, [(1, 2), (1, 3), (2, 3)])
    d = gen_dgamma(6, G)
    assert d.d(1, 2) == 2
    assert d.d(1, 4) == Fraction(47, 46)


def test_dgamma_all_edges_n3():
    G = EdgeGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    d = gen_dgamma(3, G)
    assert all(e == 2 for e in d.entries)


def test_dgamma_wrong_size():
    with pytest.raises(
        PreconditionViolated, match="^graph on 5 nodes cannot weight a 6-point metric$"
    ):
        gen_dgamma(6, EdgeGraph(5, 0))


@pytest.mark.parametrize(
    "n,groups,isolated",
    [
        (5, [(1, 2, 3)], [4, 5]),
        (6, [(1, 2, 3), (4, 5, 6)], []),
        (7, [(1, 2, 3), (4, 5, 6)], [7]),
        (8, [(1, 2, 3), (4, 5, 6)], [7, 8]),
        (9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)], []),
    ],
)
def test_dmin_graph_shape(n, groups, isolated):
    G = dmin_graph(n)
    expect = set()
    for g in groups:
        expect.update({(g[0], g[1]), (g[0], g[2]), (g[1], g[2])})
    assert set(G.edges()) == expect
    assert set(range(1, n + 1)) - covered_nodes(G) == set(isolated)


def test_dmin_weights():
    d = gen_dmin(5)
    assert d.d(1, 2) == 2 and d.d(1, 3) == 2 and d.d(2, 3) == 2
    assert d.d(4, 5) == Fraction(1) + Fraction(1, 25 + 20 + 5)


def test_random_deterministic():
    assert gen_random(5, 1, 10000) == gen_random(5, 1, 10000)
    assert gen_random(5, 1, 10000) != gen_random(5, 2, 10000)


def test_random_refuses_a_negative_resolution():
    # 0 keeps meaning the default resolution; below 0 is refused
    assert gen_random(5, 1, 0) == gen_random(5, 1)
    with pytest.raises(PreconditionViolated, match="^resolution must be >= 0, got -3$"):
        gen_random(5, 1, -3)


def test_random_is_metric():
    d = gen_random(5, 1, 10000)
    assert d.satisfies_triangle
    assert all(Fraction(1) < e <= Fraction(6, 5) for e in d.entries)


def test_shift_to_ideal():
    d = metric("4points")
    shifts = [IsolatedDistance(i, Fraction(-1, 2)) for i in range(1, 5)]
    shifted = validate_metric(shift_by_isolated(d, shifts))
    assert shifted == metric("ideal")


def test_shift_identity_and_inverse():
    d = metric("4points")
    assert validate_metric(shift_by_isolated(d, [])) == d
    shifts = [IsolatedDistance(2, Fraction(1, 3))]
    inverse = [IsolatedDistance(2, Fraction(-1, 3))]
    table = shift_by_isolated(validate_metric(shift_by_isolated(d, shifts)), inverse)
    assert validate_metric(table) == d


def test_shift_leaves_other_pairs():
    d = metric("4points")
    table = shift_by_isolated(d, [IsolatedDistance(1, Fraction(5))])
    assert table[1][2] == d.d(2, 3)
    assert table[2][3] == d.d(3, 4)


def test_submetric_full_is_identity():
    d = metric("4points")
    assert submetric(d, [1, 2, 3, 4]) == d


def test_submetric_inherits_dmax_property():
    d = submetric(gen_dmax(6), [1, 2, 3, 4])
    assert check_dmax_property(d)


def test_submetric_too_small():
    with pytest.raises(PreconditionViolated, match="^need at least 3 nodes, got 2$"):
        submetric(metric("4points"), [1, 2])


@pytest.mark.parametrize("n", [5, 6, 7])
def test_dmax_property_hereditary_exhaustive(n):
    from itertools import combinations

    d = gen_dmax(n)
    for q in range(3, n):
        for nodes in combinations(range(1, n + 1), q):
            assert check_dmax_property(submetric(d, nodes))


@pytest.mark.parametrize("n", range(4, 9))
def test_dmax_property_holds(n):
    assert check_dmax_property(gen_dmax(n))


def test_dmax_property_fails_for_dmin():
    verdict = check_dmax_property(gen_dmin(6))
    assert not verdict
    i, j, k, l = verdict.witness
    assert 1 <= i <= j <= k <= l <= 6


def test_dmax_property_trivial_equal_metric():
    d = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert check_dmax_property(d)


def test_strict_triangle_nodes():
    assert strict_triangle_nodes(metric("4points")) == frozenset({1, 2, 3, 4})
    assert strict_triangle_nodes(metric("ideal")) == frozenset()
    for n in range(4, 8):
        assert strict_triangle_nodes(gen_dmax(n)) == frozenset(range(1, n + 1))


def test_out_of_range_pairs_are_refused():
    d = gen_dmax(4)
    for i, j in ((5, 1), (0, 3)):
        with pytest.raises(PreconditionViolated, match="not in K_4$") as err:
            d.d(i, j)
        assert str(err.value) == f"edge ({i},{j}) not in K_4"
    assert d.d(2, 2) == 0


def test_out_of_range_diagonal_is_refused():
    d = gen_dmax(4)
    for i in (9, 0):
        with pytest.raises(PreconditionViolated, match="not in K_4$") as err:
            d.d(i, i)
        assert str(err.value) == f"edge ({i},{i}) not in K_4"
    assert [d.d(i, i) for i in range(1, 5)] == [0] * 4


def test_integer_flags_on_mixed_denominators():
    # d(1,2) = 1/3, d(1,3) = 1/2, d(2,3) = 1/6: d(1,3) = d(1,2) + d(2,3) exactly
    d = metric_from_upper(3, (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))
    assert d.scaled == ((2, 3, 1), 6)
    assert d.is_nonnegative and d.satisfies_triangle
    assert strict_triangle_nodes(d) == frozenset({1, 3})
    d = metric_from_upper(3, (Fraction(1, 3), Fraction(1, 2) + Fraction(1, 10**40), Fraction(1, 6)))
    assert d.is_nonnegative and not d.satisfies_triangle


def test_json_roundtrip():
    d = gen_dmax(6)
    assert metric_from_json(metric_to_json(d)) == d
    text = metric_to_json(gen_dmin(5))
    assert '"2"' in text  # integer entries as plain numerals


def test_json_rejects_floats():
    with pytest.raises(ValueError):
        metric_from_json('{"n": 3, "upper": [1.5, "1", "1"]}')
    with pytest.raises(ValueError):
        metric_from_json('{"n": 3, "upper": ["1.5", "1", "1"]}')


def test_json_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        metric_from_json('{"n": 3, "upper": ["1/0", "1", "1"]}')


@pytest.mark.parametrize("n", ["true", "false", '"3"'])
def test_json_rejects_a_non_integer_n(n):
    # bool is an int subclass: true must not read as 1 point
    with pytest.raises(ValueError, match="n must be an integer"):
        metric_from_json('{"n": %s, "upper": []}' % n)


def test_json_rejects_a_negative_n():
    # n = -5 asks for (-5)(-6)/2 = 15 entries, as n = 6 does: the error names n
    with pytest.raises(PreconditionViolated, match="^need at least 3 points, got -5$"):
        metric_from_json('{"n": -5, "upper": [%s]}' % ", ".join(['"1"'] * 15))


@pytest.mark.parametrize("template", ["%s", '{"n": 3, "upper": %s}'], ids=["top", "upper"])
def test_json_rejects_deep_nesting(template):
    # the decoder's RecursionError must not escape as a traceback
    with pytest.raises(ValueError, match="nested too deeply"):
        metric_from_json(template % ("[" * 100_000 + "]" * 100_000))


@pytest.mark.parametrize(
    "entry", ["1_0", "\u0661", "3/ 4"], ids=["underscore", "arabic-indic", "space"]
)
def test_json_rejects_entries_int_would_read(entry):
    # int() takes "1_0" as 10, an Arabic-Indic one as 1 and " 4" as 4
    with pytest.raises(ValueError, match="not a rational"):
        metric_from_json('{"n": 3, "upper": ["%s", "1", "1"]}' % entry)


@pytest.mark.parametrize(
    "upper",
    ['"123"', "5", '{"2": "a", "3": "b", "4": "c"}', "null"],
    ids=["string", "int", "object", "null"],
)
def test_json_rejects_an_upper_that_is_not_a_list(upper):
    # a string or an object must not be read entry by entry
    with pytest.raises(ValueError, match="upper must be a list"):
        metric_from_json('{"n": 3, "upper": %s}' % upper)


def test_json_canonical_pair_order():
    d = gen_dmax(4)
    import json

    upper = json.loads(metric_to_json(d))["upper"]
    assert upper[0] == "23/22" and upper[-1] == "33/32"


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 50), st.integers(3, 7), st.data())
def test_random_triangle_structural(seed, n, data):
    # every entry is at most 1 + 1/n, or 1 + 1/resolution below resolution n
    resolution = data.draw(st.integers(0, n**4), label="resolution")
    d = gen_random(n, seed, resolution)
    r = resolution or max(10_000, n**4)
    assert all(1 < e <= 1 + max(Fraction(1, n), Fraction(1, r)) <= 2 for e in d.entries)
    assert d.satisfies_triangle


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 30))
def test_submetric_preserves_triangle(seed):
    d = gen_random(6, seed)
    sub = submetric(d, [1, 3, 5, 6])
    assert sub.satisfies_triangle
