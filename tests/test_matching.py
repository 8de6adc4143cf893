"""Exact matching LP, cell criteria, and optimal-support structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import best_perfect_matching, metric
from oracles import (
    alternating_cycle_vector, b11_classify, components, cycle_graph, degrees,
    interleaved_cycle_graph, is_cell_lp, is_cell_oddpath, solve_w_matching,
)
from tightspan.common import num_pairs, pair_table
from tightspan.errors import PreconditionViolated
from tightspan.graphs import EdgeGraph
from tightspan.filtration import candidate_graphs
from tightspan.gen import gen_dmax, gen_dmin, gen_random


def test_unit_weights_dmax4_matches_exhaustive_matching():
    d = gen_dmax(4)
    value, edges = best_perfect_matching(d)
    fm = solve_w_matching(d, [1, 1, 1, 1])
    assert fm.value == value == 2 + Fraction(1, 23) + Fraction(1, 28)
    assert set(fm.support.edges()) == edges == {(1, 3), (2, 4)}
    assert fm.unique


def test_unit_weights_dmin6_takes_half_triangles():
    d = gen_dmin(6)
    fm = solve_w_matching(d, [1] * 6)
    assert fm.value == 6
    assert fm.support.edges() == (
        (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
    )
    assert all(fm.mu[p] in (0, Fraction(1, 2)) for p in range(num_pairs(6)))


def test_zero_weights():
    fm = solve_w_matching(gen_dmax(4), [0, 0, 0, 0])
    assert fm.value == 0 and all(x == 0 for x in fm.mu)


def test_fractional_weights():
    # degree sums need not be integral; the certified solve still goes through
    d = gen_dmax(5)
    w = [Fraction(3, 2), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1)]
    fm = solve_w_matching(d, w)
    degs = [Fraction(0)] * 5
    for p, (i, j) in enumerate(pair_table(5)):
        degs[i - 1] += fm.mu[p]
        degs[j - 1] += fm.mu[p]
    assert degs == w


def test_weight_vector_validation():
    with pytest.raises(PreconditionViolated, match="^weight vector must have length 4$"):
        solve_w_matching(gen_dmax(4), [1, 1, 1])
    with pytest.raises(PreconditionViolated, match="^weights must be non-negative$"):
        solve_w_matching(gen_dmax(4), [1, -1, 1, 1])


def test_infeasible_weights():
    # weight on node 1 alone: no edge can carry it
    message = "degree equations admit no non-negative solution"
    with pytest.raises(PreconditionViolated, match=f"^{message}$"):
        solve_w_matching(gen_dmax(4), [1, 0, 0, 0])


def test_solver_deterministic():
    d = gen_random(6, 3)
    a = solve_w_matching(d, [2, 1, 1, 1, 1, 2])
    b = solve_w_matching(d, [2, 1, 1, 1, 1, 2])
    assert a == b


def test_dual_is_height_certificate_on_cells():
    # for the degree vector of a cell, the optimal dual solves the height system
    from tightspan.filtration import enumerate_cells

    d = gen_dmax(5)
    for cell in enumerate_cells(d).maximal_cells:
        fm = solve_w_matching(d, degrees(cell.graph))
        assert fm.dual == cell.heights


def test_single_edges_are_cells():
    d = gen_dmax(5)
    for i, j in pair_table(5):
        assert is_cell_lp(d, EdgeGraph.from_edges(5, [(i, j)]))


def test_wrong_matching_is_not_cell():
    assert not is_cell_lp(gen_dmax(4), EdgeGraph.from_edges(4, [(1, 2), (3, 4)]))


def test_interleaved_cycle_is_cell():
    assert is_cell_lp(gen_dmax(5), interleaved_cycle_graph(5))
    assert is_cell_oddpath(gen_dmax(5), interleaved_cycle_graph(5))
    assert is_cell_oddpath(gen_dmax(6), interleaved_cycle_graph(6))


def test_non_unique_optimum_on_flat_cell():
    # the weight-2 four-cycle metric has a six-edge flat cell; querying it
    # finds its indicator tying a different basic optimum
    from tightspan.gen import gen_dgamma

    d = gen_dgamma(5, EdgeGraph.from_edges(5, [(1, 2), (1, 3), (2, 4), (3, 4)]))
    flat = EdgeGraph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 4)])
    with pytest.raises(PreconditionViolated, match="ties the LP optimum"):
        is_cell_lp(d, flat)


def test_oddpath_counterexample():
    d = metric("4points")
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    assert not is_cell_oddpath(d, G)


def test_oddpath_preconditions():
    d = gen_dmax(4)
    refusal = "^criterion needs a connected spanning n-edge graph without even tours$"
    with pytest.raises(PreconditionViolated, match=refusal):
        is_cell_oddpath(d, cycle_graph(4, [1, 2, 3, 4]))
    with pytest.raises(PreconditionViolated, match=refusal):
        is_cell_oddpath(d, EdgeGraph.from_edges(4, [(1, 2), (2, 3), (1, 3)]))


@pytest.mark.parametrize("n", [4, 5])
def test_cell_criteria_agree_exhaustively(n):
    d = gen_dmax(n)
    for mask in candidate_graphs(n):
        G = EdgeGraph(n, mask)
        if len(components(G).components) != 1:
            continue
        assert is_cell_lp(d, G) == is_cell_oddpath(d, G)


def test_alternating_cycle_vector_balances_degrees():
    c = alternating_cycle_vector(6, [1, 4, 2, 5, 3, 6])
    assert sorted(c.values()) == [-1, -1, -1, 1, 1, 1]
    balance = {v: 0 for v in range(1, 7)}
    for (i, j), s in c.items():
        balance[i] += s
        balance[j] += s
    assert all(b == 0 for b in balance.values())


def test_alternating_cycle_vector_rejects_odd():
    with pytest.raises(PreconditionViolated, match="^alternating vectors need an even cycle$"):
        alternating_cycle_vector(5, [1, 2, 3])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(2, 3))
def test_perturbation_keeps_feasibility(seed, half_len):
    # mu + eps * pattern satisfies the degree equations for every eps
    import random as _random

    rng = _random.Random(seed)
    n = 6
    nodes = rng.sample(range(1, n + 1), 2 * half_len)
    d = gen_random(n, seed)
    w = [Fraction(2)] * n
    fm = solve_w_matching(d, w)
    pattern = alternating_cycle_vector(n, nodes)
    eps = Fraction(rng.randint(-5, 5), 7)
    degs = [Fraction(0)] * n
    mu = list(fm.mu)
    for (i, j), s in pattern.items():
        from tightspan.common import pair_index

        mu[pair_index(n, i, j)] += eps * s
    for p, (i, j) in enumerate(pair_table(n)):
        degs[i - 1] += mu[p]
        degs[j - 1] += mu[p]
    assert degs == list(w)


def test_b11_unit_weight_shapes():
    rep = b11_classify(gen_dmin(6), 1)
    assert rep.node_one_kind == "cycle_plus_pendants"
    assert rep.node_one_extra_edges == 0
    assert rep.node_one_cycle == (1, 2, 3)
    assert rep.other_components == (("odd_cycle", (4, 5, 6)),)

    rep = b11_classify(gen_dmax(4), 1)
    assert rep.node_one_kind == "star" and rep.node_one_extra_edges == 1
    assert rep.support.edges() == ((1, 3), (2, 4))
    assert rep.other_components == (("edge", (2, 4)),)


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("gen", [gen_dmax, gen_dmin])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_b11_structures_hold(gen, n, b):
    rep = b11_classify(gen(n), b)
    assert rep.node_one_kind in ("star", "cycle_plus_pendants")
    if rep.node_one_kind == "star":
        assert rep.node_one_extra_edges == b
    else:
        assert rep.node_one_extra_edges == b - 1
        assert 1 in rep.node_one_cycle


def test_b11_rejects_bad_b():
    with pytest.raises(PreconditionViolated, match="^b must be a positive integer$"):
        b11_classify(gen_dmax(4), 0)
    with pytest.raises(PreconditionViolated, match="^b must be a positive integer$"):
        b11_classify(gen_dmax(4), Fraction(3, 2))
