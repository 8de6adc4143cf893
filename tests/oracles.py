"""Reference code that only tests run: the paper's proof tools, never `tspan`.

The depth-first components() and is_odd_unicyclic are the reference for the
parity union-find of tightspan.graphs; has_even_tour runs that union-find on
partial graphs.  The LP and alternating-path cell criteria, the (b,1,...,1)
support lemma and isolated-distance shifts are checked on examples.

solve_w_matching is the exact fractional matching LP: for a weight vector w
it maximizes <mu, d> over non-negative edge vectors mu with degree sums
sum_i mu(i,j) = w_j.  The solver is a dense two-phase primal simplex with
Bland's smallest-index rule, so it terminates, is deterministic, and returns
a basic optimum.  Its table is fraction-free: integers over one scale,
updated by tightspan.primal.pivot, with the reduced costs as the last row.
Every solve is certified in Fractions against its own dual vector
(complementary slackness and objective equality) before it is returned.
Solved at the seed weight (lp_seed_cell), it is the oracle of the
orientation: it shares no code with the ridge traversal, whose descent
(filtration.seed_cell) must end on the same cell.

pivot_entering is the list-based ratio test that the traversal ran before
its ridge step kept a running least bound: the reference that every
entering slot and t of subdivision._ridge_steps is compared with, on the
pencil of the height solver's own sigma.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from tightspan.common import Verdict, num_pairs, pair_table
from tightspan.errors import DegenerateRidge, PreconditionViolated
from tightspan.graphs import EdgeGraph, _join, cell_components, node_edge_masks
from tightspan.metrics import Metric, _square
from tightspan.primal import pivot
from tightspan.subdivision import (
    Cell,
    DegeneracyReport,
    _seed_weight,
    _slot_rows,
    lambda_certificate,
)


def edge_count(G: EdgeGraph) -> int:
    return bin(G.bits).count("1")


def degrees(G: EdgeGraph) -> tuple[int, ...]:
    deg = [0] * (G.n + 1)
    for i, j in G.edges():
        deg[i] += 1
        deg[j] += 1
    return tuple(deg[1:])


def covered_nodes(G: EdgeGraph) -> frozenset[int]:
    nodes = set()
    for i, j in G.edges():
        nodes.add(i)
        nodes.add(j)
    return frozenset(nodes)


def is_spanning(G: EdgeGraph) -> bool:
    return len(covered_nodes(G)) == G.n


def adjacency(G: EdgeGraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, G.n + 1)}
    for i, j in G.edges():
        adj[i].append(j)
        adj[j].append(i)
    return adj


def star_graph(n: int, center: int) -> EdgeGraph:
    return EdgeGraph.from_edges(n, ((center, j) for j in range(1, n + 1) if j != center))


def cycle_graph(n: int, sequence: Sequence[int]) -> EdgeGraph:
    """Closed cycle through the given node sequence."""
    edges = [(sequence[k], sequence[(k + 1) % len(sequence)]) for k in range(len(sequence))]
    return EdgeGraph.from_edges(n, edges)


class ComponentProfile(NamedTuple):
    """Per-component statistics: nodes, edge count, cycle space dim, cycle parity."""

    nodes: tuple[int, ...]
    edge_count: int
    cycle_dim: int
    cycle_parity: Optional[str]  # "odd" / "even" when unicyclic, else None


class GraphComponents(NamedTuple):
    components: tuple[ComponentProfile, ...]
    isolated: tuple[int, ...]


def components(G: EdgeGraph) -> GraphComponents:
    """Connected components of the non-isolated nodes, plus the isolated node set."""
    adj = adjacency(G)
    covered = covered_nodes(G)
    seen: set[int] = set()
    profiles = []
    for start in sorted(covered):
        if start in seen:
            continue
        stack = [start]
        nodes = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in nodes:
                    nodes.add(u)
                    seen.add(u)
                    stack.append(u)
        size = sum(1 for i, j in G.edges() if i in nodes)
        cycle_dim = size - len(nodes) + 1
        parity = None
        if cycle_dim == 1:
            parity = "even" if _is_bipartite(adj, nodes) else "odd"
        profiles.append(ComponentProfile(tuple(sorted(nodes)), size, cycle_dim, parity))
    isolated = tuple(v for v in range(1, G.n + 1) if v not in covered)
    return GraphComponents(tuple(profiles), isolated)


def _is_bipartite(adj: dict[int, list[int]], nodes: set[int]) -> bool:
    color: dict[int, int] = {}
    for start in nodes:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in color:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def has_even_tour(G: EdgeGraph) -> bool:
    """True unless every component is a tree or unicyclic with an odd cycle.

    A component with two independent cycles concatenates them into a
    non-trivial even closed tour, and an even cycle is one directly.  True
    at the first edge that graphs._join refuses.
    """
    parent, parity, cyclic = list(range(G.n + 1)), [0] * (G.n + 1), [False] * (G.n + 1)
    return any(_join(parent, parity, cyclic, i, j) is None for i, j in G.edges())


def is_odd_unicyclic(G: EdgeGraph) -> bool:
    """Every component has exactly one cycle, of odd length (isolated nodes ignored)."""
    comps = components(G).components
    return bool(comps) and all(c.cycle_dim == 1 and c.cycle_parity == "odd" for c in comps)


def is_interior_mask(n: int, mask: int) -> bool:
    """Faces of the subdivision off the hypersimplex boundary: spanning, not a full star.

    A spanning edge set inside one node's star is that whole star, so the
    star test is a lookup among the node masks.
    """
    stars = node_edge_masks(n)
    for star in stars:
        if not mask & star:
            return False
    return mask not in stars


def odd_path_sum(d: Metric, G: EdgeGraph, v: int, w: int) -> Fraction:
    """Alternating distance sum along an odd-length walk from v to w in G.

    G must be connected, spanning, with n edges and no even tour (one
    component with one odd cycle), and {v,w} must not be an edge of G.  The
    value does not depend on the walk chosen.
    """
    if cell_components(G.n, G.bits) != 1:
        raise PreconditionViolated(
            f"graph must be connected and spanning with {G.n} edges and one odd cycle"
        )
    if v == w or G.has_edge(v, w):
        raise PreconditionViolated(f"{{{v},{w}}} must be a non-edge of the graph")

    # breadth first over (node, parity of the walk so far) from (v, 0): a step
    # that leaves parity 0 adds its distance, one that leaves parity 1 subtracts it
    adj = adjacency(G)
    value = {(v, 0): Fraction(0)}
    queue = [(v, 0)]
    for u, parity in queue:  # the queue grows while it is read
        for x in adj[u]:
            if (x, 1 - parity) not in value:
                step = d.d(u, x)
                value[x, 1 - parity] = value[u, parity] + (-step if parity else step)
                queue.append((x, 1 - parity))
    return value[w, 1]


def _cycle_nodes(G: EdgeGraph) -> set[int]:
    """Strip leaves until only the (unique) cycle remains."""
    adj = {v: set(us) for v, us in adjacency(G).items()}
    alive = set(covered_nodes(G))
    pending = [v for v in alive if len(adj[v]) == 1]
    while pending:
        v = pending.pop()
        alive.discard(v)
        for u in adj[v]:
            adj[u].discard(v)
            if u in alive and len(adj[u]) == 1:
                pending.append(u)
        adj[v] = set()
    return alive


def interleaved_cycle_graph(n: int) -> EdgeGraph:
    """Standard full-dimensional cell for metrics with the monotone difference property.

    For odd n this is the cycle alternating the low and high halves of 1..n;
    for even n the high-low cycle misses node n/2+1, which attaches to node 1
    by an extra edge.
    """
    if n < 4:
        raise PreconditionViolated("seed graph defined for n >= 4")
    if n % 2 == 1:
        half = (n + 1) // 2
        seq = []
        for k in range(1, half):
            seq.extend([k, half + k])
        seq.append(half)
        edges = [(seq[t], seq[(t + 1) % n]) for t in range(n)]
        return EdgeGraph.from_edges(n, edges)
    half = n // 2
    seq = []
    for k in range(1, half):
        seq.extend([k, half + 1 + k])
    seq.append(half)
    edges = [(seq[t], seq[(t + 1) % (n - 1)]) for t in range(n - 1)]
    edges.append((1, half + 1))
    return EdgeGraph.from_edges(n, edges)


class FractionalMatching(NamedTuple):
    """Basic optimal solution of the degree-constrained matching LP."""

    n: int
    mu: tuple[Fraction, ...]
    value: Fraction
    support: EdgeGraph
    unique: bool  # no zero reduced cost off the basis
    dual: tuple[Fraction, ...]


def _simplex_bland(
    T: list[list[int]], basis: list[int], allowed: int, scale: int
) -> int:
    """Run primal simplex pivots in place until no allowed column improves.

    T is the integer table scale * B^-1 [A | b] with the reduced costs
    (z_j - c_j, scaled alike) as its last row; basis maps the other rows to
    column ids.  Entering: smallest allowed column with a negative reduced
    cost; leaving: smallest ratio T[r][-1] / T[r][enter], compared by
    cross-multiplying, ties by smallest basis column id (Bland).  Returns the
    scale, which stays positive.
    """
    while True:
        costs = T[-1]
        enter = next((j for j in range(allowed) if costs[j] < 0), -1)
        if enter < 0:
            return scale
        leave = -1
        for r in range(len(basis)):
            a = T[r][enter]
            if a <= 0:
                continue
            if leave < 0:
                leave = r
                continue
            diff = T[r][-1] * T[leave][enter] - T[leave][-1] * a
            if diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                leave = r
        if leave < 0:
            raise AssertionError("objective unbounded; degree polytope must be bounded")
        scale = pivot(T, leave, enter, scale)
        basis[leave] = enter


def solve_w_matching(d: Metric, w: Sequence) -> FractionalMatching:
    """Optimal fractional matching with degree sums w, as an exact basic solution."""
    n = d.n
    weights = [Fraction(x) for x in w]
    if len(weights) != n:
        raise PreconditionViolated(f"weight vector must have length {n}")
    if any(x < 0 for x in weights):
        raise PreconditionViolated("weights must be non-negative")

    m = num_pairs(n)
    W = lcm(*(x.denominator for x in weights))
    # rows [A | I | W*w]: real columns, then artificials, then the right side
    T = []
    for i in range(n):
        row = [0] * (m + n + 1)
        row[m + i] = 1
        row[-1] = weights[i].numerator * (W // weights[i].denominator)
        T.append(row)
    for p, (i, j) in enumerate(pair_table(n)):
        T[i - 1][p] = T[j - 1][p] = 1

    # phase 1: minimize the artificial sum; each real column meets two rows
    T.append([-2] * m + [0] * n + [-sum(row[-1] for row in T)])
    basis = list(range(m, m + n))
    scale = _simplex_bland(T, basis, m + n, 1)
    if T.pop()[-1] < 0:  # -scale times the artificial sum left at the optimum
        raise PreconditionViolated("degree equations admit no non-negative solution")
    for r in range(n):
        if basis[r] >= m:
            enter = next((j for j in range(m) if T[r][j]), None)
            if enter is None:
                raise AssertionError("degree matrix lost rank")  # cannot happen for n >= 3
            scale = pivot(T, r, enter, scale)
            basis[r] = enter
    if scale < 0:
        T = [[-a for a in row] for row in T]
        scale = -scale

    # phase 2: maximize <mu, D*d> over real columns only
    dnum, D = d.scaled
    cost = list(dnum) + [0] * (n + 1)
    T.append([
        sum(cost[b] * row[j] for b, row in zip(basis, T)) - scale * c
        for j, c in enumerate(cost)
    ])
    scale = _simplex_bland(T, basis, m, scale)

    mu = [Fraction(0)] * m
    for r, b in enumerate(basis):
        mu[b] = Fraction(T[r][-1], scale * W)
    value = sum(mu[p] * d.entries[p] for p in range(m))
    support = EdgeGraph(
        n, sum(1 << p for p in range(m) if mu[p] > 0)
    )
    # dual from the artificial columns of the cost row, which hold c_B B^-1
    dual = [Fraction(T[-1][m + i], scale * D) for i in range(n)]
    basic = set(basis)
    unique = all(T[-1][j] for j in range(m) if j not in basic)
    _certify(d, weights, mu, value, dual)
    return FractionalMatching(
        n, tuple(mu), value, support, unique, tuple(dual)
    )


def _certify(d, w, mu, value, dual) -> None:
    """Complementary slackness against the computed dual; runs on every solve."""
    n = d.n
    degs = [Fraction(0)] * n
    for p, (i, j) in enumerate(pair_table(n)):
        if mu[p] < 0:
            raise AssertionError("negative matching weight")
        degs[i - 1] += mu[p]
        degs[j - 1] += mu[p]
        slack = dual[i - 1] + dual[j - 1] - d.entries[p]
        if slack < 0:
            raise AssertionError(f"dual infeasible on pair ({i},{j})")
        if mu[p] > 0 and slack != 0:
            raise AssertionError(f"complementary slackness fails on ({i},{j})")
    if degs != list(w):
        raise AssertionError("degree equations violated")
    if sum(wi * yi for wi, yi in zip(w, dual)) != value:
        raise AssertionError("strong duality gap")


def lp_seed_cell(d: Metric) -> Cell | DegeneracyReport:
    """The matching LP's cell at the seed weight: filtration.seed_cell's oracle.

    No signed sum of the seed weights vanishes, so the basis is
    nondegenerate: its support is the cell that contains w, and its
    lambda_certificate is a Cell, or a DegeneracyReport when d is not
    generic.
    """
    return lambda_certificate(d, solve_w_matching(d, _seed_weight(d.n)).support)


def pivot_entering(
    n: int, dnum: Sequence[int], lam: list[int], sigma: list[int], tree: list[int]
) -> tuple[list[int], int]:
    """The neighbour across a ridge by a list of every bound: (entering slots, t).

    lam holds the current cell's heights, the point t = 0 of the ridge pencil
    lam + t*sigma, and sigma (nonzero on the tree nodes) is signed so that
    the leaving pair's slack grows with t.  The cell is strict, so only a
    pair with s = sigma_i + sigma_j < 0 bounds t, from above by slack/-s:
    minus-minus pairs (s = -2) and minus-zero pairs (s = -1).  Every bound
    is listed, at the common denominator 2, and the least one enters; the
    slots are those of the least bound in slot order: one, or more on a
    ratio-test tie.
    """
    rows = _slot_rows(n)
    minus = [v for v in tree if sigma[v] < 0]
    zero = [v for v in range(n) if not sigma[v]]
    # (2 * bound, slot): the slack at s = -2, twice the slack at s = -1
    bounds = [
        (lam[i] + lam[j] - 2 * dnum[p], p)
        for i in minus
        for j in minus
        if i < j
        for p in (rows[i][j],)
    ]
    bounds += [
        (2 * (lam[i] + lam[j] - 2 * dnum[p]), p)
        for i in minus
        for j in zero
        for p in (rows[i][j],)
    ]
    if not bounds:
        raise DegenerateRidge("ridge pencil is unbounded beyond the ridge")
    least = min(bounds)[0]
    return sorted([p for bound, p in bounds if bound == least]), least // 2


def is_cell_lp(d: Metric, G: EdgeGraph) -> bool:
    """Whether G supports the optimal matching for its own degree vector.

    Assumes d generic (the caller checks).  When the indicator of G ties the
    optimum without being it, the optimum is not unique, d lies outside its
    generic domain, and the call raises PreconditionViolated.
    """
    if G.n != d.n or edge_count(G) == 0:
        raise PreconditionViolated("need a nonempty graph on the metric's nodes")
    fm = solve_w_matching(d, degrees(G))
    chi = tuple(
        Fraction(1) if G.bits >> p & 1 else Fraction(0) for p in range(num_pairs(d.n))
    )
    if fm.mu == chi:
        return True
    g_value = sum(d.entries[p] for p in range(num_pairs(d.n)) if G.bits >> p & 1)
    if g_value == fm.value:
        raise PreconditionViolated(
            f"indicator of {G} ties the LP optimum; d is likely not generic"
        )
    return False


def is_cell_oddpath(d: Metric, G: EdgeGraph) -> bool:
    """Connected-cell criterion through alternating path sums.

    G must be connected and spanning with n edges and no even tour.  G is a
    cell exactly when no off-graph pair beats its alternating bound.
    """
    if G.n != d.n or cell_components(G.n, G.bits) != 1:
        raise PreconditionViolated(
            "criterion needs a connected spanning n-edge graph without even tours"
        )
    for i in range(1, d.n + 1):
        for j in range(i + 1, d.n + 1):
            if G.has_edge(i, j):
                continue
            if d.d(i, j) > odd_path_sum(d, G, i, j):
                return False
    return True


def alternating_cycle_vector(n: int, cycle: Sequence[int]) -> dict[tuple[int, int], int]:
    """Alternating +-1 pattern on the edges of an even closed cycle.

    Adding any multiple of the pattern to a matching preserves all degree
    sums, since each node meets one +1 and one -1 edge.
    """
    if len(cycle) % 2 != 0:
        raise PreconditionViolated("alternating vectors need an even cycle")
    out: dict[tuple[int, int], int] = {}
    for k in range(len(cycle)):
        a, b = cycle[k], cycle[(k + 1) % len(cycle)]
        key = (min(a, b), max(a, b))
        out[key] = 1 if k % 2 == 0 else -1
    return out


class B11Report(NamedTuple):
    """Shape of an optimal (b,1,...,1)-matching support around node 1."""

    support: EdgeGraph
    node_one_kind: str  # "star" or "cycle_plus_pendants"
    node_one_extra_edges: int  # b for the star, b-1 pendants otherwise
    node_one_cycle: Optional[tuple[int, ...]]
    other_components: tuple[tuple[str, tuple[int, ...]], ...]  # ("edge"|"odd_cycle", nodes)


def b11_classify(d: Metric, b: int) -> B11Report:
    """Solve for w = (b,1,...,1) and classify every support component.

    The component of node 1 must be a star of b edges at node 1, or one odd
    cycle through node 1 with b-1 pendant edges at node 1; every other
    component must be an isolated edge or an odd cycle.  Anything else
    fails the lemma and raises AssertionError.
    """
    if not isinstance(b, int) or b < 1:
        raise PreconditionViolated("b must be a positive integer")
    n = d.n
    w = [Fraction(b)] + [Fraction(1)] * (n - 1)
    fm = solve_w_matching(d, w)
    S = fm.support
    decomp = components(S)

    comp1 = next((c for c in decomp.components if 1 in c.nodes), None)
    if comp1 is None:
        raise AssertionError("node 1 has positive weight but empty support star")
    deg = degrees(S)
    others: list[tuple[str, tuple[int, ...]]] = []
    for comp in decomp.components:
        if comp is comp1:
            continue
        if comp.edge_count == 1 and len(comp.nodes) == 2:
            others.append(("edge", comp.nodes))
        elif (
            comp.cycle_dim == 1
            and comp.cycle_parity == "odd"
            and comp.edge_count == len(comp.nodes)
        ):
            others.append(("odd_cycle", comp.nodes))
        else:
            raise AssertionError(f"stray component {comp.nodes} in support {S}")

    comp1_edges = [(i, j) for i, j in S.edges() if i in comp1.nodes]
    if comp1.cycle_dim == 0:
        if not all(1 in e for e in comp1_edges) or comp1.edge_count != b:
            raise AssertionError(
                f"acyclic component of node 1 is not a star of {b} edges: {comp1_edges}"
            )
        if any(deg[v - 1] != 1 for v in comp1.nodes if v != 1):
            raise AssertionError("star neighbor of node 1 has extra edges")
        return B11Report(S, "star", b, None, tuple(others))
    if comp1.cycle_dim == 1 and comp1.cycle_parity == "odd":
        cycle_nodes = _cycle_nodes(S) & set(comp1.nodes)
        if 1 not in cycle_nodes:
            raise AssertionError("cycle of node 1's component avoids node 1")
        pendants = [e for e in comp1_edges if not (set(e) <= cycle_nodes)]
        if len(pendants) != b - 1 or not all(1 in e for e in pendants):
            raise AssertionError(f"expected {b - 1} pendant edges at node 1, found {pendants}")
        if any(deg[v - 1] != 1 for e in pendants for v in e if v != 1):
            raise AssertionError("pendant neighbor of node 1 has extra edges")
        return B11Report(
            S, "cycle_plus_pendants", b - 1, tuple(sorted(cycle_nodes)), tuple(others)
        )
    raise AssertionError(f"component of node 1 has an even tour: {comp1}")



class IsolatedDistance(NamedTuple):
    """Distance function equal to a constant on the star of one node, zero elsewhere."""

    node: int
    value: Fraction


def shift_by_isolated(d: Metric, shifts: Iterable[IsolatedDistance]) -> list[list[Fraction]]:
    """Pointwise sum of d with isolated distance functions, as a raw table.

    The result may violate the metric axioms; callers re-validate.
    """
    table = _square(d.n, d.entries, Fraction(0))
    for shift in shifts:
        i = shift.node - 1
        if not (0 <= i < d.n):
            raise PreconditionViolated(f"node {shift.node} not in 1..{d.n}")
        for j in range(d.n):
            if j != i:
                table[i][j] += shift.value
                table[j][i] += shift.value
    return table


def check_dmax_property(d: Metric) -> Verdict:
    """Monotone difference test over all quadruples i <= j <= k <= l.

    Checks d(i,j)-d(i,k) <= d(j,l)-d(k,l) and d(i,l)-d(i,k) <= d(j,l)-d(j,k),
    with coinciding indices allowed (d(x,x) = 0).  Returns the first failing
    quadruple as witness.
    """
    n = d.n
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                for l in range(k, n + 1):
                    if d.d(i, j) - d.d(i, k) > d.d(j, l) - d.d(k, l):
                        return Verdict(False, (i, j, k, l))
                    if d.d(i, l) - d.d(i, k) > d.d(j, l) - d.d(j, k):
                        return Verdict(False, (i, j, k, l))
    return Verdict(True)
