"""Certificates, cell enumeration, traversal, faces, and genericity verdicts."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_equality_witness,
    boundary_rule_against_tags,
    break_lp_support,
    break_ridge_pivot,
    cells_json,
    faces,
    follows_transform,
    metric,
    naive_faces,
    pencils_against_solver,
    random_transform,
    subdivision,
    transformed,
)
import oracles
from oracles import (
    cycle_graph,
    degrees,
    edge_count,
    interleaved_cycle_graph,
    lp_seed_cell,
    pivot_entering,
    star_graph,
)
from tightspan.common import pair_table
from tightspan.errors import DegenerateRidge, PreconditionViolated
from tightspan.facevectors import f_from_h, face_report, report_json
from tightspan.graphs import EdgeGraph, cell_components, node_edge_masks
from tightspan.metrics import (
    gen_dmax, gen_dmin, gen_random, metric_from_upper, submetric, validate_metric,
)
from tightspan.subdivision import (
    Cell,
    DegeneracyReport,
    NotACell,
    all_faces,
    boundary_tags,
    candidate_graphs,
    compute_subdivision,
    down_degrees,
    enumerate_cells,
    lambda_certificate,
    random_generic_metrics,
    seed_cell,
    subdivision_to_json,
    traverse_cells,
)


def test_certificate_strict_cell():
    d = metric("4points")
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4)])
    cert = lambda_certificate(d, G)
    assert isinstance(cert, Cell)
    assert cert.heights == (Fraction(3, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))


def test_certificate_violation_wins_over_equality():
    # heights (3/2,1/2,3/2,1/2) meet d on (1,4) but drop below d on (2,4):
    # a violated pair disqualifies the graph outright
    d = metric("4points")
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    cert = lambda_certificate(d, G)
    assert isinstance(cert, NotACell)
    assert cert.pair == (2, 4)
    assert cert.heights == (Fraction(3, 2), Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))
    assert cert.heights[0] + cert.heights[3] == d.d(1, 4)  # the harmless equality


def test_certificate_not_a_cell():
    d = metric("4points")
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    cert = lambda_certificate(d, G)
    assert isinstance(cert, NotACell)
    assert cert.pair == (2, 4)


def test_certificate_degeneracy_needs_no_violation():
    from tightspan.metrics import validate_metric

    # unit metric: every candidate solves with heights 1/2 and meets d everywhere
    flat = validate_metric([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4)])
    cert = lambda_certificate(flat, G)
    assert isinstance(cert, DegeneracyReport)
    assert cert.pair == (1, 4)
    assert not enumerate_cells(flat).generic


def test_certificate_preconditions():
    d = metric("4points")
    with pytest.raises(PreconditionViolated, match="^certificates exist only for spanning n-edge graphs"):
        lambda_certificate(d, cycle_graph(4, [1, 2, 3, 4]))
    with pytest.raises(PreconditionViolated, match="^certificates exist only for spanning n-edge graphs"):
        lambda_certificate(d, star_graph(4, 1))


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),  # even cycle
        (6, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (5, 6)]),  # bicyclic beside a tree
        (5, [(1, 2), (1, 3), (1, 4), (1, 5)]),  # spanning tree
        (5, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]),  # n edges missing node 5
    ],
)
def test_candidate_checks_reject(n, edges):
    G = EdgeGraph.from_edges(n, edges)
    with pytest.raises(PreconditionViolated, match="^certificates exist only for spanning n-edge graphs"):
        lambda_certificate(gen_dmax(n), G)
    assert cell_components(n, G.bits) is None


def test_solver_ends_on_every_small_mask():
    # every mask of K_5 with 4, 5 or 6 edges: the solver returns exactly on
    # its domain (odd-unicyclic components and at most one tree, an isolated
    # node counting as a tree) and raises PreconditionViolated elsewhere
    from itertools import combinations

    import tightspan.subdivision as sd
    from oracles import components
    from tightspan.common import pair_table

    d = gen_dmax(5)
    dnum, D = d.scaled
    pairs = pair_table(5)
    masks = [sum(1 << p for p in c) for k in (4, 5, 6) for c in combinations(range(10), k)]
    assert len(masks) == 672
    solved = 0
    for mask in masks:
        comps = components(EdgeGraph(5, mask))
        trees = len(comps.isolated) + sum(c.cycle_dim == 0 for c in comps.components)
        in_domain = trees <= 1 and all(
            c.cycle_dim == 0 or (c.cycle_dim == 1 and c.cycle_parity == "odd")
            for c in comps.components
        )
        try:
            lam, sigma = sd._solve_scaled(5, mask, dnum)
        except PreconditionViolated:
            assert not in_domain, mask
            continue
        assert in_domain, mask
        solved += 1
        for p, (i, j) in enumerate(pairs):
            if mask >> p & 1:
                assert lam[i - 1] + lam[j - 1] == 2 * dnum[p]
                assert sigma[i - 1] == -sigma[j - 1]
        assert (trees == 1) == any(sigma)
        if cell_components(5, mask) is not None:
            heights = lambda_certificate(d, EdgeGraph(5, mask)).heights
            assert lam == [2 * D * h for h in heights]
            assert sigma == [0] * 5
    assert solved > 0
    # with 4 or more edges on 5 nodes, two trees come only beside another fault
    two_trees = EdgeGraph.from_edges(7, [(1, 2), (1, 3), (2, 3), (4, 5), (6, 7)])
    with pytest.raises(PreconditionViolated, match="^mask has more than one tree component$"):
        sd._solve_scaled(7, two_trees.bits, gen_dmax(7).scaled[0])


@pytest.mark.parametrize("d24, pair", [(2, (2, 4)), (1, (1, 1))])
def test_classifier_reports_an_equality_before_a_zero_height(d24, pair):
    # triangle 1-2-3 with the pendant edge 1-4 carries heights (0, 1, 1, 1):
    # node 1 sits at height 0, and the pair (2, 4) off the graph is met with
    # equality when d(2,4) = 2; the classifier reports only an equality,
    # and the zero height gives the subdivision builder's corner witness
    # (1, 1) when no pair is met
    import tightspan.subdivision as sd
    from tightspan.metrics import validate_metric

    d = validate_metric(
        [[0, 1, 1, 1], [1, 0, 2, d24], [1, 2, 0, 1], [1, d24, 1, 0]]
    )
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    dnum, D = d.scaled
    lam, got, below = sd._classify_scaled(4, G.bits, dnum)
    assert lam == [0, 2 * D, 2 * D, 2 * D]
    assert (got, below) == (None if pair == (1, 1) else pair, False)
    assert sd._corner(lam) == (1, 1)


def test_enumerate_four_points():
    S = subdivision("4points")
    assert S.generic and len(S.maximal_cells) == 4
    expect = [
        [(1, 2), (1, 3), (1, 4), (2, 4)],
        [(1, 2), (1, 3), (2, 3), (2, 4)],
        [(1, 3), (1, 4), (2, 4), (3, 4)],
        [(1, 3), (2, 3), (2, 4), (3, 4)],
    ]
    assert [list(c.graph.edges()) for c in S.maximal_cells] == expect


def test_enumerate_dmax6():
    S = subdivision("dmax-6")
    assert len(S.maximal_cells) == 26
    assert all(c.volume == 1 for c in S.maximal_cells)


def test_enumerate_dmin6():
    S = subdivision("dmin-6")
    assert len(S.maximal_cells) == 25
    big = [c for c in S.maximal_cells if c.volume == 2]
    assert len(big) == 1
    assert big[0].graph.edges() == ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
    assert big[0].heights == (Fraction(1),) * 6


def test_enumerate_threshold():
    with pytest.raises(PreconditionViolated, match="^cell enumeration is capped at n = 8$"):
        enumerate_cells(gen_dmax(9))


def test_enumerate_parallel_matches_serial():
    d = gen_dmax(5)
    assert enumerate_cells(d, jobs=2) == enumerate_cells(d)


def test_enumerate_parallel_matches_serial_degenerate():
    d = metric("ideal")
    assert enumerate_cells(d, jobs=2) == enumerate_cells(d)


def test_enumeration_refuses_a_short_covering(monkeypatch):
    # negative control of the covering identity: a pool one cell short still
    # gives a generic result, but its volumes miss 2^(n-1) - n = 11
    import tightspan.subdivision as sd

    d = metric("dmax-5")
    cell = enumerate_cells(d).maximal_cells[0]
    pool = tuple(mask for mask in candidate_graphs(5) if mask != cell.graph.bits)
    monkeypatch.setattr(sd, "candidate_graphs", lambda n: pool)
    short = f"^covered volume {11 - cell.volume}, expected 11$"
    with pytest.raises(DegenerateRidge, match=short):
        enumerate_cells(d)


def test_enumeration_refuses_a_short_corner_covering(monkeypatch):
    # a result whose only witnesses are corners (zero heights) is checked as
    # well: ideal's 4 cells cover 2^3 - 4 = 4, and the pool without one of
    # them leaves the rest short, with the corner witness still found
    import tightspan.subdivision as sd

    d = metric("ideal")
    S = enumerate_cells(d)
    assert S.degeneracy_witness[1] == (1, 1) and S.total_volume == 4
    cell = S.maximal_cells[0]  # the witness's cell: the rest still meet corners
    pool = tuple(mask for mask in candidate_graphs(4) if mask != cell.graph.bits)
    monkeypatch.setattr(sd, "candidate_graphs", lambda n: pool)
    with pytest.raises(DegenerateRidge, match=f"^covered volume {4 - cell.volume}, expected 4$"):
        enumerate_cells(d)


def test_volume_identity_small():
    for name in ("4points", "dmax-4", "dmax-5", "dmax-6", "dmin-5", "dmin-6"):
        S = subdivision(name)
        assert S.total_volume == (1 << (S.n - 1)) - S.n


def test_ideal_metric_flagged_degenerate():
    S = enumerate_cells(metric("ideal"))
    assert not S.generic
    graph, pair = S.degeneracy_witness
    assert pair == (1, 1)  # a strict cell certificate with a vanishing height
    assert graph.edges() == ((1, 2), (1, 3), (1, 4), (2, 4))
    # the subdivision itself agrees with the equivalent metric
    four = subdivision("4points")
    assert [c.graph for c in S.maximal_cells] == [c.graph for c in four.maximal_cells]


def test_is_generic_verdicts():
    assert compute_subdivision(metric("4points")).generic
    assert not compute_subdivision(metric("ideal")).generic
    for n in (4, 5, 6, 7):
        assert compute_subdivision(gen_dmax(n)).generic


def test_random_genericity_rate():
    flags = [compute_subdivision(gen_random(6, seed)).generic for seed in range(1, 21)]
    assert sum(flags) >= 18
    assert not flags[14]  # seed 15 carries an engineered-looking coincidence


def test_seed_cell_interleaved():
    # seed_cell's descent ends on the interleaved cycle for dmax 5, 8, 9
    assert seed_cell(gen_dmax(9)).graph == interleaved_cycle_graph(9)
    assert seed_cell(gen_dmax(8)).graph == interleaved_cycle_graph(8)
    assert seed_cell(gen_dmax(5)).graph == interleaved_cycle_graph(5)
    # interleaved cycle for n = 9 is the alternating low-high cycle
    assert set(interleaved_cycle_graph(9).edges()) == {
        (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8), (4, 9), (5, 9), (1, 5),
    }
    assert set(interleaved_cycle_graph(8).edges()) == {
        (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8), (1, 4), (1, 5),
    }


def test_seed_cell_probes_without_monotone_property():
    cert = seed_cell(gen_dmin(6))
    assert isinstance(cert, Cell)


@pytest.mark.parametrize("n, seed", [(7, 1), (7, 7), (8, 7), (8, 8), (8, 10), (8, 11)])
def test_seed_cell_on_generic_random_metrics(n, seed):
    # generic metrics, so the seed must be a Cell, never a DegeneracyReport
    assert isinstance(seed_cell(gen_random(n, seed, 10**12)), Cell)


def test_seed_weights_off_every_wall(monkeypatch):
    # a wall of the matching LP is sum_A w = sum_B w on the two sides of a
    # tree (w_v = 0 for a single node), so no nonzero signed sum may vanish
    seen = []
    solve = oracles.solve_w_matching

    def recording(d, w):
        fm = solve(d, w)
        seen.append((list(w), fm))
        return fm

    monkeypatch.setattr(oracles, "solve_w_matching", recording)
    for n in range(3, 11):
        for d in (gen_dmin(n), gen_dmax(n)):
            lp_seed_cell(d)
            [(w, fm)] = seen  # exactly one LP solve per lp_seed_cell call
            seen.clear()
            assert len(w) == n
            # a nondegenerate basis: all n basic variables are positive
            assert edge_count(fm.support) == n
        # number of s in {-1,0,1}^n with each signed sum, one weight at a time
        ways = {0: 1}
        for x in w:
            nxt = {}
            for total, k in ways.items():
                for t in (total - x, total, total + x):
                    nxt[t] = nxt.get(t, 0) + k
            ways = nxt
        assert ways[0] == 1  # only s = 0
        assert max(w) < sum(w) - max(w)  # w is a degree vector of K_n


@pytest.mark.parametrize(
    "name",
    ["4points"]
    + [f"{kind}-{n}" for kind in ("dmax", "dmin") for n in range(4, 13)]
    + [f"hires-{n}.1" for n in range(6, 12)],
)
def test_lp_seed_is_the_one_cell_without_a_down_edge(name):
    # the traversal starts at node 1's star-plus-pair cell and orients each
    # ridge by its own pencil; the descent, on the same pivot, and the
    # matching LP, which shares no code with it, solved at the same weight,
    # must both land on the minimum of w.lambda, the one cell with no down edge
    d = metric(name)
    S = compute_subdivision(d)
    [bottom] = [c for c in S.maximal_cells if c.down == 0]
    assert S.generic
    assert seed_cell(d) == lp_seed_cell(d) == bottom._replace(down=None)


def test_first_cell_is_a_star_plus_the_pair_of_least_gromov_product():
    import tightspan.subdivision as sd

    # 4points: (2|4)_1 = (2 + 2 - 3)/2 = 1/2 is the least product at node 1
    d = metric("4points")
    first = lambda_certificate(d, sd._first_cell(d))
    assert first.graph.edges() == ((1, 2), (1, 3), (1, 4), (2, 4))
    assert first.heights == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(3, 2))
    # a tie of products, first in slot order, gives a flat first cell
    flat = metric_from_upper(9, (Fraction(2),) * 36)
    first = lambda_certificate(flat, sd._first_cell(flat))
    assert isinstance(first, DegeneracyReport)
    assert first.graph.edges()[-1] == (2, 3)
    # a least product of 0 gives a corner cell: lam_1 = 0, kept by the traversal
    ideal = metric("ideal")
    corner = lambda_certificate(ideal, sd._first_cell(ideal))
    assert isinstance(corner, Cell) and corner.heights[0] == 0
    S = compute_subdivision(ideal)
    assert S.degeneracy_witness[1] == (1, 1)
    assert S.maximal_cells == subdivision("ideal").maximal_cells


@pytest.mark.parametrize("n", [5, 6])
def test_seed_cell_and_verdict_on_coarse_random_metrics(n):
    # resolution 100 makes most of these metrics non-generic
    for s in range(1, 31):
        d = gen_random(n, s, 100)
        assert isinstance(seed_cell(d), (Cell, DegeneracyReport))
        T, E = compute_subdivision(d), enumerate_cells(d)
        assert T.generic == E.generic
        if T.maximal_cells:
            assert T == E
        else:
            assert_equality_witness(d, T.degeneracy_witness)


@pytest.mark.parametrize(
    "name", ["4points", "ideal", "rand-6.2", "dmin-7", "hires-7.1", "hires-7.7", "hires-8.1"]
)
def test_compute_subdivision_equals_enumeration(name):
    assert compute_subdivision(metric(name)) == subdivision(name)


@pytest.mark.parametrize("k", range(4))
def test_compute_subdivision_equals_enumeration_on_random_generic(k):
    # cells, heights, volumes, down edges, verdict and witness, off the named
    # families, at every n where both routes run and enumeration is quick
    for n in (4, 5, 6, 7):
        seed, d = random_generic_metrics(n, 4)[k]
        assert compute_subdivision(d) == enumerate_cells(d), (n, seed)


@pytest.mark.parametrize(
    "name",
    [
        "4points",
        "dmax-5",
        "dmax-6",
        "dmin-5",
        "dmin-6",
        "dmin-7",
        "rand-6.2",
        "hires-7.1",
        "hires-8.1",
    ],
)
def test_traverse_equals_enumerate(name):
    # Traversal starts from an enumerated cell, so that this test does not
    # depend on the seed search (seed_cell + traverse_cells is criterion 09).
    # dmin-7 and both hires metrics have a cell of volume 2 (two components),
    # so some ridge pencils move one component only and a pair joining the
    # components has sigma_i + sigma_j = +-1.
    d = metric(name)
    E = subdivision(name)
    T = traverse_cells(d, E.maximal_cells[-1])
    assert T.maximal_cells == E.maximal_cells


@pytest.mark.parametrize("name", ["dmax-8", "dmin-8"])
def test_traversal_pivots_once_per_new_cell(name, monkeypatch):
    # one ridge step per cell, and in all of them cells - 1 pencil walks
    # and ratio tests, each across a distinct interior ridge into a cell not
    # yet reached: the ridge map pairs the cells of the other interior ridges;
    # and one solve, of the seed, which alone is classified: the pivot hands
    # every other cell over with its heights
    import tightspan.subdivision as sd

    cells = []
    calls = []
    entered = []
    solves = []
    classified = []
    steps = sd._ridge_steps
    solve = sd._solve_scaled
    classify = sd._classify_scaled

    def counting_steps(tab, mask, edges, lam):
        cells.append(mask)
        for step in steps(tab, mask, edges, lam):
            calls.append(mask ^ 1 << step[0])
            entered.append(calls[-1] | 1 << step[1][0])
            yield step

    def counting_solve(*args):
        solves.append(args[1])
        return solve(*args)

    def counting_classify(*args):
        classified.append(args[1])
        return classify(*args)

    d = metric(name)
    seed = seed_cell(d)
    monkeypatch.setattr(sd, "_ridge_steps", counting_steps)
    monkeypatch.setattr(sd, "_solve_scaled", counting_solve)
    monkeypatch.setattr(sd, "_classify_scaled", counting_classify)
    T = traverse_cells(d, seed)
    F = all_faces(T)
    assert sorted(cells) == [c.graph.bits for c in T.maximal_cells]
    assert sorted([seed.graph.bits] + entered) == sorted(cells)  # none entered twice
    assert len(calls) == len(set(calls)) == len(T.maximal_cells) - 1
    assert set(calls) <= F.interior_by_dim[d.n - 2]
    assert solves == [seed.graph.bits]
    assert classified == [seed.graph.bits]


@pytest.mark.parametrize("name", ["dmax-6", "dmin-7"])
def test_pivot_into_a_reached_cell_raises(name, monkeypatch):
    # negative control of the ridge map: a step that walks every interior
    # ridge of its cell, paired ridges included, pivots into a cell already
    # reached, and the traversal's guard must refuse it
    import tightspan.subdivision as sd

    steps = sd._ridge_steps

    def every_ridge(dnum2, mask, edges, lam):
        return steps(dnum2, mask, sd._interior_edges(len(lam), mask), lam)

    monkeypatch.setattr(sd, "_ridge_steps", every_ridge)
    with pytest.raises(DegenerateRidge, match="already reached"):
        compute_subdivision(metric(name))


@pytest.mark.parametrize("name", ["dmax-8", "dmin-8", "hires-8.1"])
def test_traversal_counts_components_once_per_cell(name, monkeypatch):
    # only the first cell's components are counted, once, by the
    # lambda_certificate that certifies the seed, and only it is solved;
    # every other cell's count comes from the ridge pencil it is entered by,
    # and is the cell's volume, so neither the covered-volume check nor the
    # export counts again
    import tightspan.graphs as graphs
    import tightspan.subdivision as sd

    calls = []
    solves = []
    count = graphs.cell_components
    solve = sd._solve_scaled

    def counting(n, mask):
        calls.append(mask)
        return count(n, mask)

    def counting_solve(n, mask, dnum):
        solves.append(mask)
        return solve(n, mask, dnum)

    d = metric(name)
    monkeypatch.setattr(sd, "cell_components", counting)
    monkeypatch.setattr(graphs, "cell_components", counting)
    monkeypatch.setattr(sd, "_solve_scaled", counting_solve)
    S = compute_subdivision(d)
    assert S.total_volume == (1 << (S.n - 1)) - S.n
    "".join(subdivision_to_json(S))
    assert calls == solves == [sd._first_cell(d).bits]
    monkeypatch.undo()
    assert [c.volume for c in S.maximal_cells] == [
        1 << cell_components(S.n, c.graph.bits) - 1 for c in S.maximal_cells
    ]


@pytest.mark.parametrize("name", ["dmax-8", "dmin-8", "hires-8.1"])
def test_walked_pencils_match_the_solver(name):
    # every interior ridge of every cell: the walked sigma is the ridge's
    # solved sigma up to the sign that makes the leaving pair's slack grow,
    # and the component count it gives the neighbour is cell_components'
    S = compute_subdivision(metric(name))
    walked, bad = pencils_against_solver(S)
    assert walked == 2 * len(all_faces(S).interior_by_dim[S.n - 2])
    assert bad == 0


def test_one_boundary_rule_for_traversal_and_face_tags():
    # every edge of every cell: the traversal's interior edges are exactly
    # those whose ridge the face export tags with no facet, and a ridge step
    # across any other edge finds its pencil unbounded
    inputs = [gen(n) for gen in (gen_dmax, gen_dmin) for n in range(4, 11)]
    inputs += [gen_random(n, s, 10**12) for n in range(5, 10) for s in (1, 2)]
    edges = boundary = 0
    for d in inputs:
        S = compute_subdivision(d)
        assert S.generic
        e, b, bad = boundary_rule_against_tags(S)
        assert bad == 0
        edges, boundary = edges + e, boundary + b
    assert (edges, boundary) == (23615, 11837)


@pytest.mark.parametrize(
    "name",
    ["4points"]
    + [f"{kind}-{n}" for kind in ("dmax", "dmin") for n in range(5, 10)]
    + ["hires-6.1", "hires-6.2", "hires-8.1", "hires-8.2"],
)
def test_seed_weight_orders_adjacent_cells(name):
    # all_faces walks the cells in ascending w.lambda: no two cells of an
    # interior ridge may tie, and each cell's count of down edges (ridges to a
    # lower neighbour) is its out-degree in the dual simple polyhedron, whose
    # histogram is the h-vector of the ball
    import tightspan.subdivision as sd

    d = metric(name)
    S = compute_subdivision(d)
    w = sd._seed_weight(S.n)
    height = {
        c.graph.bits: sum(x * h for x, h in zip(w, c.heights)) for c in S.maximal_cells
    }
    by_ridge: dict[int, list[int]] = {}
    for mask in height:
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            by_ridge.setdefault(mask ^ low, []).append(mask)
    down = dict.fromkeys(height, 0)
    for masks in by_ridge.values():
        if len(masks) == 2:
            lower, upper = sorted(masks, key=height.get)
            assert height[lower] != height[upper]
            down[upper] += 1
    histogram = [0] * (S.n + 1)
    for k in down.values():
        histogram[k] += 1
    assert tuple(histogram) == face_report(S).h


@pytest.mark.parametrize("n", [9, 10, 11])
def test_traversal_orients_ridges_as_the_ridge_map(n):
    # past the enumeration cap, each cell's down edges, from its pivots and
    # its paired ridges, are those of the oracle's map of ridges to cells
    # (_ridge_orientation); the generic ones among dmax, dmin and five
    # random metrics at two resolutions
    import tightspan.subdivision as sd

    inputs = [gen_dmax(n), gen_dmin(n)]
    inputs += [gen_random(n, s, r) for s in range(1, 6) for r in (100, 10**12)]
    generic = 0
    for d in inputs:
        S = compute_subdivision(d)
        if not S.generic:
            continue
        generic += 1
        down = sd._ridge_orientation(n, [(c.graph.bits, c.lam) for c in S.maximal_cells])
        assert [c.down for c in S.maximal_cells] == [down[c.graph.bits] for c in S.maximal_cells]
    assert generic == 7


@pytest.mark.parametrize("name", ["dmax-7", "dmin-7", "hires-8.1"])
def test_pivot_carries_heights_to_the_neighbour(name):
    # from either cell of an interior ridge, the ratio test on the pencil the
    # cell's walk gives returns the other cell's edge and its heights, scaled
    # by 2D as the traversal keeps them, and the pencil's w.sigma, which
    # seed_cell's descent reads, is negative just when that cell is lower in
    # w.lambda at the seed weight
    import tightspan.subdivision as sd

    S = subdivision(name)
    n = S.n
    dnum, D = S.metric.scaled
    dnum2 = [2 * v for v in dnum]
    w = sd._seed_weight(n)
    scaled, level = {}, {}
    for cell in S.maximal_cells:
        lam = [2 * D * h for h in cell.heights]
        assert all(v.denominator == 1 for v in lam)
        scaled[cell.graph.bits] = [int(v) for v in lam]
        level[cell.graph.bits] = sum(x * h for x, h in zip(w, cell.heights))
    by_ridge: dict[int, list[int]] = {}
    for mask in scaled:
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            by_ridge.setdefault(mask ^ low, []).append(mask)
    shared = [(r, masks) for r, masks in by_ridge.items() if len(masks) == 2]
    assert len(shared) == len(all_faces(S).interior_by_dim[n - 2])
    for rmask, (a, b) in shared:
        for here, there in ((a, b), (b, a)):
            leaving = (here ^ rmask).bit_length() - 1
            entering = (there ^ rmask).bit_length() - 1
            ((e, slots, t, sigma, _, _),) = sd._ridge_steps(
                dnum2, here, 1 << leaving, scaled[here]
            )
            assert e == leaving and slots == [entering]
            assert (sum(x * v for x, v in zip(w, sigma)) < 0) == (level[there] < level[here])
            assert [h + t * v for h, v in zip(scaled[here], sigma)] == scaled[there]


RATIO_TEST_GROUPS = {
    "dmax-dmin": [gen(n) for gen in (gen_dmax, gen_dmin) for n in range(5, 10)],
    **{
        f"random-{n}": [gen_random(n, s, r) for r in (100, 10**12) for s in range(1, 31)]
        for n in range(5, 9)
    },
}


@pytest.mark.parametrize("group", list(RATIO_TEST_GROUPS))
def test_ridge_steps_match_the_list_based_ratio_test(group):
    # on every interior ridge of every strict cell reached from the first
    # cell across untied ridges, the ridge step's sigma and tree are the
    # height solver's, signed so that the leaving pair's slack grows, and
    # its entering slots (every tied one on a tie) and t are those of the
    # list-based ratio test (oracles.pivot_entering) on that pencil; the
    # resolution-100 metrics tie
    import tightspan.subdivision as sd

    ridges = ties = 0
    for d in RATIO_TEST_GROUPS[group]:
        n = d.n
        dnum, _ = d.scaled
        dnum2 = [2 * v for v in dnum]
        first = lambda_certificate(d, sd._first_cell(d))
        if not isinstance(first, Cell):
            continue
        heights = {first.graph.bits: list(first.lam)}
        order = [first.graph.bits]
        for mask in order:  # the list grows while it is read
            lam = heights[mask]
            edges = sd._interior_edges(n, mask)
            for e, slots, t, sigma, tree, _ in sd._ridge_steps(dnum2, mask, edges, lam):
                _, ref = sd._solve_scaled(n, mask ^ 1 << e, dnum)
                i, j = sd._pairs0(n)[e]
                if ref[i] + ref[j] < 0:
                    ref = [-v for v in ref]
                support = [v for v in range(n) if ref[v]]
                assert sigma == ref and sorted(tree) == support
                assert (slots, t) == pivot_entering(n, dnum, lam, ref, support)
                ridges += 1
                if len(slots) > 1:
                    ties += 1
                    continue
                nmask = mask ^ 1 << e | 1 << slots[0]
                if nmask not in heights:
                    heights[nmask] = [h + t * v for h, v in zip(lam, sigma)]
                    order.append(nmask)
    assert ridges
    assert ties or group == "dmax-dmin"


@pytest.mark.parametrize("name", ["dmax-7", "dmin-7", "hires-8.1"])
def test_adjacent_cells_lie_on_one_pencil(name):
    # two cells sharing a ridge differ by t*sigma along the ridge pencil:
    # sigma alternates across the ridge edges and moves one of its components
    from oracles import components
    from tightspan.common import pair_index

    S = compute_subdivision(metric(name))
    n = S.n
    by_ridge: dict[int, list[Cell]] = {}
    for cell in S.maximal_cells:
        for i, j in cell.graph.edges():
            by_ridge.setdefault(cell.graph.bits & ~(1 << pair_index(n, i, j)), []).append(cell)
    shared = [(r, cells) for r, cells in by_ridge.items() if len(cells) == 2]
    assert shared
    for rmask, (a, b) in shared:
        ridge = EdgeGraph(n, rmask)
        diff = [y - x for x, y in zip(a.heights, b.heights)]
        t = next(abs(v) for v in diff if v)
        sigma = [v / t for v in diff]
        assert set(sigma) <= {-1, 0, 1}
        for i, j in ridge.edges():
            assert sigma[i - 1] == -sigma[j - 1]
        moved = {v for v in range(1, n + 1) if sigma[v - 1]}
        assert moved in [set(c.nodes) for c in components(ridge).components]


def test_traverse_rejects_bad_seed():
    d = gen_dmax(4)
    bad = Cell(cycle_graph(4, [1, 2, 3, 4]), (0,) * 4, 2, 1)
    with pytest.raises(
        PreconditionViolated, match="^certificates exist only for spanning n-edge graphs"
    ):
        traverse_cells(d, bad)
    not_a_cell = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    with pytest.raises(PreconditionViolated, match="seed graph carries no strict certificate"):
        traverse_cells(d, Cell(not_a_cell, (0,) * 4, 2, 1))


def test_traverse_detects_ridge_tie_on_flat_metric():
    # a weight-2 four-cycle zeroes an alternating distance sum, so the
    # subdivision has a flat cell; pivoting out of a strict one must tie
    from tightspan.metrics import gen_dgamma

    d = gen_dgamma(5, EdgeGraph.from_edges(5, [(1, 2), (1, 3), (2, 4), (3, 4)]))
    S = enumerate_cells(d)
    assert not S.generic and S.maximal_cells
    witness_graph, witness_pair = S.degeneracy_witness
    assert witness_pair == (3, 4)
    T = traverse_cells(d, S.maximal_cells[0])
    assert not T.generic and T.maximal_cells == ()
    graph, pair = T.degeneracy_witness
    assert graph.edges() == ((1, 2), (1, 3), (1, 5), (2, 5), (3, 4)) and pair == (2, 4)


def test_ridge_tie_witness_rechecks():
    from tightspan.metrics import gen_dgamma

    d = gen_dgamma(5, EdgeGraph.from_edges(5, [(1, 2), (1, 3), (2, 4), (3, 4)]))
    tie = traverse_cells(d, enumerate_cells(d).maximal_cells[0])
    assert not tie.generic and tie.maximal_cells == ()
    assert_equality_witness(d, tie.degeneracy_witness)
    # the seed of random-6.1 (resolution 100) is flat; the traversal of
    # random-6.5 ties.  Either way the verdict has no cells and a witness.
    for seed, flat in ((1, True), (5, False)):
        d = gen_random(6, seed, 100)
        assert isinstance(seed_cell(d), DegeneracyReport) == flat
        assert not enumerate_cells(d).generic
        S = compute_subdivision(d)
        assert not S.generic and S.maximal_cells == ()
        assert_equality_witness(d, S.degeneracy_witness)


def test_non_generic_witnesses_are_pinned():
    # 122 of these 180 metrics are not generic, 103 by a ratio-test tie and
    # 19 by a flat first cell; a tie's (graph, pair) witness is the ridge
    # plus the least tied slot and the second tied pair, so a change in the
    # tie order moves the digest
    import hashlib

    found = []
    for n in (5, 6, 7):
        for s in range(1, 61):
            w = compute_subdivision(gen_random(n, s, 100)).degeneracy_witness
            found.append(None if w is None else (w[0].bits, w[1]))
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == "ea0631ab0a7b3ef634058d24e9408867f7e099a2c1d10a9226333b860febf70b"


def test_traverse_returns_the_verdict_of_a_flat_seed():
    # the seed of random-6.1 (resolution 100) meets d with equality off its
    # graph: the traversal returns the cell-less verdict with the seed's pair
    d = gen_random(6, 1, 100)
    seed = seed_cell(d)
    assert isinstance(seed, DegeneracyReport)
    T = traverse_cells(d, seed)
    assert not T.generic and T.maximal_cells == ()
    assert T.degeneracy_witness == (seed.graph, seed.pair)
    S = compute_subdivision(d)
    assert not S.generic and S.maximal_cells == ()
    assert_equality_witness(d, S.degeneracy_witness)


@pytest.mark.parametrize("cells", [True, False], ids=["corner", "tie"])
def test_face_closure_refuses_a_non_generic_subdivision(cells):
    # ideal keeps its cells with a zero height; random-6.5 (resolution 100)
    # ties in a ratio test and has none
    S = compute_subdivision(metric("ideal") if cells else gen_random(6, 5, 100))
    assert not S.generic and bool(S.maximal_cells) == cells
    refusal = "^face counts and face lists require a generic subdivision$"
    with pytest.raises(PreconditionViolated, match=refusal):
        all_faces(S)
    with pytest.raises(PreconditionViolated, match=refusal):
        down_degrees(S)


def test_traverse_reports_corner_tangency_like_enumeration():
    # the ideal metric has the cells of 4points, but one cell height is zero
    d = metric("ideal")
    T = traverse_cells(d, seed_cell(d))
    E = subdivision("ideal")
    assert not T.generic
    graph, pair = T.degeneracy_witness
    assert graph.bits == 23 and pair == (1, 1)
    assert T.degeneracy_witness == E.degeneracy_witness
    assert T.maximal_cells == E.maximal_cells


def test_seed_support_off_the_candidates_raises(monkeypatch):
    # an LP support that is not a candidate cell can only come from a broken
    # solver; the candidate guard must refuse it and never let it become a
    # verdict
    break_lp_support(monkeypatch)
    assert subdivision("hires-7.1").generic
    with pytest.raises(
        PreconditionViolated, match="^certificates exist only for spanning n-edge graphs"
    ):
        lp_seed_cell(metric("hires-7.1"))


def test_descent_pivot_off_the_candidates_raises(monkeypatch):
    # a down ridge completed by a pair with sigma_i + sigma_j = 0 (two tree
    # nodes of opposite colour: an even cycle, or a ridge edge again) is no
    # candidate; only a broken ratio test could pick it, and the descent's
    # guard must refuse it as the traversal's does
    import tightspan.subdivision as sd

    steps = sd._ridge_steps

    def off_the_candidates(dnum2, mask, edges, lam):
        for step in steps(dnum2, mask, edges, lam):
            sigma = step[3]
            for p, (i, j) in enumerate(sd._pairs0(len(lam))):
                if sigma[i] and sigma[i] + sigma[j] == 0:
                    step = (step[0], [p], 0, *step[3:])
                    break
            yield step

    d = metric("hires-7.1")
    assert seed_cell(d).graph != sd._first_cell(d)  # the descent takes a step
    monkeypatch.setattr(sd, "_ridge_steps", off_the_candidates)
    with pytest.raises(DegenerateRidge, match="ridge pivot entered a non-candidate mask"):
        seed_cell(d)


def test_descent_returns_the_cell_of_a_ratio_test_tie():
    # gen_random(5, 2, 100) has a strict first cell, but a step of its
    # descent ties: the entered cell meets d with equality off its graph
    import tightspan.subdivision as sd

    d = gen_random(5, 2, 100)
    assert isinstance(lambda_certificate(d, sd._first_cell(d)), Cell)
    cert = seed_cell(d)
    assert isinstance(cert, DegeneracyReport)
    assert_equality_witness(d, (cert.graph, cert.pair))


def test_pivot_off_the_candidates_raises(monkeypatch):
    # the traversal's guard (the entering pair has s != 0 on the pencil)
    # must refuse a mask that a broken ratio test completes wrongly
    d = metric("hires-7.1")
    seed = seed_cell(d)
    break_ridge_pivot(monkeypatch)
    with pytest.raises(DegenerateRidge, match="ridge pivot entered a non-candidate mask"):
        traverse_cells(d, seed)
    with pytest.raises(DegenerateRidge, match="ridge pivot entered a non-candidate mask"):
        compute_subdivision(d)


@pytest.mark.parametrize("name", ["dmax-6", "dmin-7"])
def test_traversal_refuses_a_short_covering(name, monkeypatch):
    # negative control of the covering check on the production route: with
    # only the first cell's ridges pivoted, the traversal stops at that cell
    # and its neighbours, which miss 2^(n-1) - n
    import tightspan.subdivision as sd

    steps = sd._ridge_steps
    calls = []

    def first_cell_only(dnum2, mask, edges, lam):
        calls.append(mask)
        return steps(dnum2, mask, edges, lam) if len(calls) == 1 else iter(())

    monkeypatch.setattr(sd, "_ridge_steps", first_cell_only)
    with pytest.raises(DegenerateRidge, match=r"^covered volume \d+, expected (26|57)$"):
        compute_subdivision(metric(name))
    assert len(calls) > 1


def test_traverse_volume_identity_n8():
    for gen in (gen_dmax, gen_dmin):
        d = gen(8)
        T = traverse_cells(d, seed_cell(d))
        assert T.total_volume == (1 << 7) - 8


def test_all_faces_four_points():
    F = faces("4points")
    assert tuple(map(len, F.by_dim)) == (6, 13, 12, 4)
    assert tuple(map(len, F.interior_by_dim)) == (0, 1, 4, 4)
    (pm,) = F.interior_by_dim[1]
    assert EdgeGraph(4, pm).edges() == ((1, 3), (2, 4))


@pytest.mark.parametrize("name", ["dmin-7", "hires-7.1", "hires-8.1"])
def test_all_faces_equals_naive_closure(name):
    S = subdivision(name)
    F = all_faces(S)
    assert (F.by_dim, F.interior_by_dim) == naive_faces(S)
    # which edges a cell finds forced depends on the cell order; the closure must not
    assert all_faces(S._replace(maximal_cells=S.maximal_cells[::-1])) == F


@pytest.mark.parametrize("name", ["dmax-8", "dmin-9", "hires-9.1"])
def test_all_faces_equals_naive_closure_traversed(name):
    d = metric(name)
    S = traverse_cells(d, seed_cell(d))
    F = all_faces(S)
    assert (F.by_dim, F.interior_by_dim) == naive_faces(S)


@pytest.mark.parametrize(
    "name",
    ["4points"]
    + [f"{kind}-{n}" for kind in ("dmax", "dmin") for n in range(4, 12)]
    + ["hires-6.1", "hires-7.1", "hires-8.1", "hires-9.1", "hires-10.1", "hires-11.1"],
)
def test_down_degrees_count_the_listed_faces(name):
    # f_from_h of the down-degree histogram, which every report reads, and of
    # its reverse equal the counts of the listing the face export writes
    S = compute_subdivision(metric(name))
    hist, F = down_degrees(S), all_faces(S)
    assert sum(hist) == len(S.maximal_cells) and hist[0] == 1
    assert f_from_h(hist).counts == tuple(map(len, F.by_dim))
    assert f_from_h(hist[::-1]).counts == tuple(map(len, F.interior_by_dim))


def test_faces_closed_under_subgraphs():
    F = faces("dmax-5")
    for k in range(1, len(F.by_dim)):
        below = set(F.by_dim[k - 1])
        for mask in F.by_dim[k]:
            bits = mask
            while bits:
                low = bits & -bits
                assert mask ^ low in below
                bits ^= low


def test_boundary_tags():
    F = faces("4points")
    n = F.n
    # a single edge misses two nodes and lies inside two stars
    single = EdgeGraph.from_edges(4, [(1, 3)])
    missed, centers = boundary_tags(4, single.bits)
    assert missed == (2, 4) and centers == (1, 3)
    full_star = star_graph(4, 2)
    missed, centers = boundary_tags(4, full_star.bits)
    assert missed == () and centers == (2,)


def test_ridge_incidences():
    # interior ridges lie in exactly two cells, boundary ridges in one
    for name in ("4points", "dmax-5"):
        S = subdivision(name)
        F = faces(name)
        n = S.n
        from oracles import is_interior_mask

        counts = {}
        for cell in S.maximal_cells:
            mask = cell.graph.bits
            bits = mask
            while bits:
                low = bits & -bits
                counts[mask ^ low] = counts.get(mask ^ low, 0) + 1
                bits ^= low
        for rmask, c in counts.items():
            if is_interior_mask(n, rmask):
                assert c == 2
            else:
                assert c == 1


def _restricted_graphs(S, i):
    """S's cells with node i a leaf, i's edge dropped and the rest relabeled 1..n-1."""

    def relabel(v):
        return v if v < i else v - 1

    graphs = set()
    for cell in S.maximal_cells:
        if degrees(cell.graph)[i - 1] == 1:
            edges = [(relabel(a), relabel(b)) for a, b in cell.graph.edges() if i not in (a, b)]
            graphs.add(EdgeGraph.from_edges(S.n - 1, edges))
    return tuple(sorted(graphs))


def _assert_restriction_is_submetric(name, i):
    # a regular subdivision restricted to the facet x_i = 0 is the subdivision
    # of that facet by the same heights: the submetric's, by either route
    S = subdivision(name)
    d_sub = submetric(S.metric, [v for v in range(1, S.n + 1) if v != i])
    R = _restricted_graphs(S, i)
    assert R == tuple(c.graph for c in enumerate_cells(d_sub).maximal_cells)
    assert R == tuple(c.graph for c in compute_subdivision(d_sub).maximal_cells)


@pytest.mark.parametrize("i", [1, 3, 6])
def test_restriction_matches_submetric(i):
    _assert_restriction_is_submetric("dmax-6", i)


def test_restriction_matches_submetric_n7():
    _assert_restriction_is_submetric("dmax-7", 4)


def test_face_closure_refuses_cells_without_down_edges():
    # a cell of lambda_certificate knows no neighbour, so its down edges are
    # unknown: counting it as a cell without down edges would be wrong.  Each
    # traversed cell is re-certified, heights and volume, past the
    # enumeration cap too.
    for name in ("dmax-9", "dmin-9", "hires-9.1", "hires-10.1", "4points"):
        S = compute_subdivision(metric(name))
        bare = tuple(lambda_certificate(S.metric, cell.graph) for cell in S.maximal_cells)
        assert bare == tuple(cell._replace(down=None) for cell in S.maximal_cells)
    for closure in (down_degrees, all_faces):
        with pytest.raises(PreconditionViolated, match="^face closure needs the down edges"):
            closure(S._replace(maximal_cells=bare))


def test_restriction_f_vector_uniform():
    # the listing's faces that avoid node i are the faces of the submetric's
    # own subdivision, counted by its report
    for name in ("dmax-5", "dmax-6", "dmax-7"):
        F = faces(name)
        n = F.n
        fvs = set()
        for i in range(1, n + 1):
            d_sub = submetric(metric(name), [v for v in range(1, n + 1) if v != i])
            fv = face_report(compute_subdivision(d_sub)).f.counts
            avoid = node_edge_masks(n)[i - 1]
            assert fv == tuple(
                sum(1 for mask in F.by_dim[k] if mask & avoid == 0) for k in range(n - 1)
            )
            fvs.add(fv)
        assert len(fvs) == 1


def test_dimension_window():
    # minimal interior dimension keeps the dual complex inside the proven window
    for name in ("4points", "dmax-5", "dmax-6", "dmin-5", "dmin-6", "rand-5.1", "rand-6.1"):
        F = faces(name)
        n = F.n
        min_dim = next(k for k, c in enumerate(map(len, F.interior_by_dim)) if c)
        dim_t = n - 1 - min_dim
        assert -(-n // 3) <= dim_t <= n // 2


def test_export_json_is_canonical():
    import json

    S = subdivision("4points")
    payload = json.loads("".join(subdivision_to_json(S)))
    assert payload["n"] == 4 and payload["generic"] is True
    assert len(payload["cells"]) == 4
    assert payload["cells"][1]["lambda"] == ["3/2", "1/2", "3/2", "5/2"]
    oracle = enumerate_cells(metric("4points"))
    assert "".join(subdivision_to_json(S)) == "".join(subdivision_to_json(oracle))


@pytest.mark.parametrize(
    "name",
    ["4points", "ideal", "long"]
    + [f"{kind}-{n}" for kind in ("dmax", "dmin") for n in range(4, 10)]
    + ["hires-9.1"],
)
def test_cell_export_is_the_json_encoders_text(name):
    # ideal has a zero height: its cells and a witness; long has heights of
    # more digits than CPython converts by default
    S = compute_subdivision(metric(name))
    assert "".join(subdivision_to_json(S)) == cells_json(S)


def test_cell_export_of_a_ratio_tie_is_the_json_encoders_text():
    # random-6.5 at resolution 100 ties in a ratio test: no cells, a witness
    S = compute_subdivision(gen_random(6, 5, 100))
    assert S.maximal_cells == () and S.degeneracy_witness is not None
    assert "".join(subdivision_to_json(S)) == cells_json(S)


def test_candidate_pool_sizes():
    assert len(candidate_graphs(4)) == 12
    assert len(candidate_graphs(5)) == 162
    assert len(candidate_graphs(6)) == 2530


def test_interior_tags_match_predicate():
    from oracles import is_interior_mask

    F = faces("dmax-5")
    for k, level in enumerate(F.by_dim):
        for mask in level:
            G = EdgeGraph(F.n, mask)
            assert is_interior_mask(G.n, G.bits) == (mask in F.interior_by_dim[k])


def test_is_generic_traversal_detects_corner_tangency():
    # shifting one node until its tightest triangle closes keeps the subdivision
    # but degenerates the corner simplex; the traversal route must notice
    from oracles import IsolatedDistance, shift_by_isolated
    from tightspan.metrics import validate_metric

    d = gen_dmax(9)
    v = min(
        d.d(1, j) + d.d(1, k) - d.d(j, k)
        for j in range(2, 10)
        for k in range(j + 1, 10)
    )
    shifted = validate_metric(shift_by_isolated(d, [IsolatedDistance(1, -v / 2)]))
    assert shifted.satisfies_triangle
    S = compute_subdivision(shifted)
    assert not S.generic and S.degeneracy_witness[1] == (1, 1)
    T = compute_subdivision(d)
    assert [c.graph for c in S.maximal_cells] == [c.graph for c in T.maximal_cells]


def test_certificate_agrees_with_lp_sampled_n7():
    import random as _random

    from oracles import is_cell_lp

    d = gen_dmax(7)
    cells = {c.graph.bits for c in subdivision("dmax-7").maximal_cells}
    rng = _random.Random(11)
    pool = candidate_graphs(7)
    for mask in rng.sample(pool, 200):
        G = EdgeGraph(7, mask)
        by_cert = isinstance(lambda_certificate(d, G), Cell)
        assert by_cert == is_cell_lp(d, G) == (mask in cells)


INVARIANCE_GRID = [(n, r, range(1, 61)) for n in range(4, 9) for r in (20, 100)] + [
    (n, 10**12, (1,)) for n in (9, 10, 11)
]


@pytest.mark.parametrize(
    "n, resolution, seeds", INVARIANCE_GRID, ids=[f"{n}-{r}" for n, r, _ in INVARIANCE_GRID]
)
def test_relabelling_shifts_and_scaling_keep_the_answer(n, resolution, seeds):
    # low resolutions are mostly non-generic: the verdict must not depend on
    # the route a relabelling takes; on generic inputs the cells, heights,
    # histogram and report vectors follow each transform
    for s in seeds:
        d = gen_random(n, s, resolution)
        S = compute_subdivision(d)
        assert S.generic or resolution < 10**12, (n, s)
        for dT, perm, heights_map in transformed(d, *random_transform(n, Random(1000 * n + s))):
            T = compute_subdivision(dT)
            assert follows_transform(S, T, perm, heights_map), (n, s, resolution)
            if not S.generic:
                continue
            # every node of gen_random is strict, so a shift glues no new corner
            expected = report_json(face_report(S))
            expected["glued"] = sorted(perm[v - 1] for v in expected["glued"])
            assert report_json(face_report(T)) == expected


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.integers(4, 7),
    st.integers(1, 10**6),
    st.sampled_from([20, 100, 10**12]),
    st.data(),
)
def test_transforms_keep_the_answer_property(n, seed, resolution, data):
    # the grid above on drawn inputs: any relabelling, any isolated shift
    # with a_i >= 0 (zeros included) and any positive scale (1 included)
    # keep the verdict, and on generic inputs the cells, heights and histogram
    perm = data.draw(st.permutations(range(1, n + 1)))
    shift = st.builds(Fraction, st.integers(0, 4), st.integers(1, 3))
    a = data.draw(st.lists(shift, min_size=n, max_size=n))
    c = data.draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
    d = gen_random(n, seed, resolution)
    S = compute_subdivision(d)
    for dT, p, heights_map in transformed(d, perm, a, c):
        assert follows_transform(S, compute_subdivision(dT), p, heights_map)
