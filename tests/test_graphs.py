"""Graph kit: components, tours, interior test, path sums, cell volumes."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import det_int, incidence_rows, metric, rank_int, spanning_subgraph_masks
from oracles import (
    components, cycle_graph, degrees, edge_count, has_even_tour, is_cell_oddpath,
    is_interior_mask, is_odd_unicyclic, is_spanning, odd_path_sum, star_graph,
)
from tightspan.common import num_pairs, pair_index, pair_table
from tightspan.errors import PreconditionViolated
from tightspan.graphs import EdgeGraph, cell_components, format_edge_list
from tightspan.graphs import parse_edge_list
from tightspan.metrics import gen_dmax
from tightspan.subdivision import candidate_graphs


def test_edge_index_formula():
    # the slot of {i,j} is (i-1)n - i(i+1)/2 + j - 1
    for n in (4, 6, 9):
        for p, (i, j) in enumerate(pair_table(n)):
            assert pair_index(n, i, j) == (i - 1) * n - i * (i + 1) // 2 + j - 1 == p


def test_from_edges_bounds():
    with pytest.raises(PreconditionViolated, match=r"^edge \(1,5\) not in K_4$"):
        EdgeGraph.from_edges(4, [(1, 5)])
    with pytest.raises(PreconditionViolated, match=r"^edge \(2,2\) not in K_4$"):
        EdgeGraph.from_edges(4, [(2, 2)])


def test_from_edges_names_the_bad_edge():
    for i, j in ((1, 5), (2, 2), (0, 3)):
        with pytest.raises(PreconditionViolated, match="not in K_4$") as err:
            EdgeGraph.from_edges(4, [(i, j)])
        assert str(err.value) == f"edge ({i},{j}) not in K_4"


def test_loop_pairs_are_refused():
    G = EdgeGraph.from_edges(4, [(1, 4)])
    with pytest.raises(PreconditionViolated, match=r"^edge \(2,2\) not in K_4$"):
        G.has_edge(2, 2)
    assert G.has_edge(4, 1)


def test_components_two_triangles():
    G = EdgeGraph.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    decomp = components(G)
    assert len(decomp.components) == 2
    for comp in decomp.components:
        assert comp.edge_count == 3 and comp.cycle_dim == 1 and comp.cycle_parity == "odd"
    assert decomp.isolated == ()


def test_components_path_and_empty():
    path = EdgeGraph.from_edges(3, [(1, 2), (2, 3)])
    decomp = components(path)
    assert len(decomp.components) == 1
    assert decomp.components[0].cycle_dim == 0
    empty = components(EdgeGraph(4, 0))
    assert empty.components == () and empty.isolated == (1, 2, 3, 4)


def test_has_even_tour_cases():
    assert has_even_tour(cycle_graph(4, [1, 2, 3, 4]))
    assert not has_even_tour(EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)]))
    sharing = EdgeGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert has_even_tour(sharing)  # two odd cycles through one node


@pytest.mark.parametrize("n", [4, 5, 6])
def test_even_tour_matches_rank_oracle_exhaustive(n):
    pairs = pair_table(n)
    for combo in spanning_subgraph_masks(n, n):
        G = EdgeGraph.from_edges(n, [pairs[p] for p in combo])
        independent = rank_int(incidence_rows(n, G.edges())) == n
        assert (cell_components(n, G.bits) is not None) == independent


def test_even_tour_matches_rank_oracle_sampled_n7():
    rng = random.Random(7)
    pairs = pair_table(7)
    combos = list(spanning_subgraph_masks(7, 7))
    for combo in rng.sample(combos, 4000):
        G = EdgeGraph.from_edges(7, [pairs[p] for p in combo])
        independent = rank_int(incidence_rows(7, G.edges())) == 7
        assert (cell_components(7, G.bits) is not None) == independent


def test_is_interior_graph():
    assert is_interior_mask(4, EdgeGraph.from_edges(4, [(1, 3), (2, 4)]).bits)
    assert not is_interior_mask(4, star_graph(4, 1).bits)
    assert not is_interior_mask(4, EdgeGraph.from_edges(4, [(1, 2)]).bits)


def test_odd_path_sum_example():
    d = metric("4points")
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    # walk (1,2,3,4): 2 - 2 + 2
    assert odd_path_sum(d, G, 1, 4) == 2
    # walk (2,1,3,4), detouring once through the odd cycle: 2 - 3 + 2
    assert odd_path_sum(d, G, 2, 4) == 1


def test_odd_path_sum_is_walk_independent():
    d = metric("4points")
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    # walks (1,2,3,4) and (1,3,2,1,3,4) differ by a tour around the odd cycle
    direct = d.d(1, 2) - d.d(2, 3) + d.d(3, 4)
    around = d.d(1, 3) - d.d(3, 2) + d.d(2, 1) - d.d(1, 3) + d.d(3, 4)
    assert direct == around == odd_path_sum(d, G, 1, 4)


def test_odd_path_sum_many_fixtures_agree_with_heights():
    # alternating sums telescope to lam_v + lam_w on any odd-unicyclic cell graph
    from tightspan.subdivision import lambda_certificate

    for name in ("dmax-5", "dmax-6", "rand-6.3"):
        d = metric(name)
        n = d.n
        for mask in candidate_graphs(n)[:: max(1, len(candidate_graphs(n)) // 40)]:
            G = EdgeGraph(n, mask)
            if len(components(G).components) != 1:
                continue
            cert = lambda_certificate(d, G)
            lam = cert.heights
            for v in range(1, n + 1):
                for w in range(v + 1, n + 1):
                    if not G.has_edge(v, w):
                        assert odd_path_sum(d, G, v, w) == lam[v - 1] + lam[w - 1]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_union_find_callers_match_component_walk_on_every_graph(n):
    # every edge subset of K_n, not only the n-edge spanning ones; K_6 is the
    # first to hold two disjoint odd cycles, which one more edge must not join
    d = gen_dmax(n)
    for mask in range(1 << num_pairs(n)):
        G = EdgeGraph(n, mask)
        decomp = components(G)
        comps = decomp.components
        assert has_even_tour(G) == any(
            c.cycle_dim >= 2 or c.cycle_parity == "even" for c in comps
        )
        cell = (
            not decomp.isolated
            and len(comps) == 1
            and comps[0].edge_count == n
            and comps[0].cycle_parity == "odd"
        )
        # a non-edge, so that only the graph precondition can refuse the call
        v, w = next(
            ((i, j) for i, j in pair_table(n) if not G.has_edge(i, j)), (1, 2)
        )
        if cell:
            odd_path_sum(d, G, v, w)
            is_cell_oddpath(d, G)
        else:
            with pytest.raises(PreconditionViolated, match="^graph must be connected"):
                odd_path_sum(d, G, v, w)
            with pytest.raises(PreconditionViolated, match="^criterion needs a connected"):
                is_cell_oddpath(d, G)


def test_odd_path_sum_preconditions():
    d = metric("4points")
    G = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    with pytest.raises(PreconditionViolated, match=r"^\{1,2\} must be a non-edge of the graph$"):
        odd_path_sum(d, G, 1, 2)  # adjacent
    with pytest.raises(PreconditionViolated, match="^graph must be connected"):
        odd_path_sum(d, cycle_graph(4, [1, 2, 3, 4]), 1, 3)  # even tour


def test_cell_volume_examples():
    # the normalized volume of a cell is 2^(c-1) for its c components
    one = EdgeGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    assert 1 << cell_components(4, one.bits) - 1 == 1
    assert 1 << cell_components(5, cycle_graph(5, [1, 2, 3, 4, 5]).bits) - 1 == 1
    two = EdgeGraph.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert 1 << cell_components(6, two.bits) - 1 == 2


def test_cell_volume_precondition():
    assert cell_components(4, cycle_graph(4, [1, 2, 3, 4]).bits) is None  # even cycle
    not_spanning = EdgeGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert cell_components(5, not_spanning.bits) is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cell_components_matches_component_walk(n):
    # every n-edge graph of K_n: the union-find pass against components()
    pairs = pair_table(n)
    for combo in itertools.combinations(range(num_pairs(n)), n):
        G = EdgeGraph.from_edges(n, [pairs[p] for p in combo])
        expect = None
        if is_spanning(G) and is_odd_unicyclic(G):
            expect = len(components(G).components)
        assert cell_components(n, G.bits) == expect


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_cell_volume_against_determinant(n):
    # |det| of the incidence vectors is twice the volume, for every candidate
    pairs = pair_table(n)
    for mask in candidate_graphs(n):
        G = EdgeGraph(n, mask)
        rows = incidence_rows(n, G.edges())
        assert 2 * (1 << cell_components(n, mask) - 1) == abs(det_int(rows))


def test_candidates_are_exactly_the_independent_spanning_graphs():
    # cross-check the pruned generator against brute force at small n
    for n in (4, 5, 6):
        pairs = pair_table(n)
        brute = set()
        for combo in spanning_subgraph_masks(n, n):
            G = EdgeGraph.from_edges(n, [pairs[p] for p in combo])
            if is_odd_unicyclic(G):
                brute.add(G.bits)
        assert brute == set(candidate_graphs(n))


def test_canonical_order_total():
    masks = [g for g in candidate_graphs(5)]
    rng = random.Random(1)
    shuffled = masks[:]
    rng.shuffle(shuffled)
    graphs = [EdgeGraph(5, m) for m in shuffled]
    once = sorted(graphs)
    twice = sorted(sorted(graphs))
    assert once == twice
    assert [g.bits for g in once] == sorted(masks)


def test_format_and_parse_edge_list():
    G = EdgeGraph.from_edges(4, [(3, 4), (1, 2)])
    assert format_edge_list(G) == "{1,2} {3,4}"
    assert parse_edge_list(4, "1-2,3-4") == G
    assert parse_edge_list(4, "") == EdgeGraph(4, 0)
    assert parse_edge_list(4, " 1 - 2 , 3-4 ") == G


@pytest.mark.parametrize(
    "text, chunk",
    [
        ("1-2-3", "'1-2-3'"),  # three nodes
        (",", "''"),  # two empty chunks
        ("1-2,", "''"),  # a trailing comma
        ("1-2,3", "'3'"),  # one node
        ("+1-2", "'+1-2'"),  # a sign
        ("1_0-2", "'1_0-2'"),  # int() would take the underscore
        ("\u0661-2", "'\u0661-2'"),  # a non-ASCII digit
        ("1-2" + "x" * 100, "'1-2" + "x" * 56 + "..."),  # quoted by its first 60 characters
    ],
)
def test_parse_edge_list_quotes_a_malformed_chunk(text, chunk):
    with pytest.raises(ValueError) as err:
        parse_edge_list(4, text)
    assert str(err.value) == f"bad edge {chunk}: expected i-j"


@pytest.mark.parametrize("text", ["1-0", "1-5", "00005-1", "1-" + "9" * 5000])
def test_parse_edge_list_node_out_of_range(text):
    with pytest.raises(PreconditionViolated, match=r": nodes must lie in 1\.\.4$") as err:
        parse_edge_list(4, text)
    assert str(err.value).endswith(": nodes must lie in 1..4")
    assert len(str(err.value)) < 100


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 7), st.data())
def test_degrees_match_edges(n, data):
    m = num_pairs(n)
    bits = data.draw(st.integers(0, (1 << m) - 1))
    G = EdgeGraph(n, bits)
    deg = degrees(G)
    assert sum(deg) == 2 * edge_count(G)
    for i, j in G.edges():
        assert deg[i - 1] >= 1 and deg[j - 1] >= 1
