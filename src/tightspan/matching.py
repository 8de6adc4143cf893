"""Exact fractional matching LP and the cell tests built on it.

For a weight vector w the LP maximizes <mu, d> over non-negative edge
vectors mu with degree sums sum_i mu(i,j) = w_j.  The solver is a dense
two-phase primal simplex with Bland's smallest-index rule, so it
terminates, is deterministic, and returns a basic optimum.  Its table is
fraction-free: integers over one scale, updated by common.pivot, with the
reduced costs as the last row.  Every solve is certified in Fractions
against its own dual vector (complementary slackness and objective
equality) before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .common import num_pairs, pair_table, pivot
from .errors import Infeasible, NonUniqueOptimum, PreconditionViolated, StructureViolation
from .graphs import EdgeGraph, _cycle_nodes, cell_components, components, odd_path_sum
from .metrics import Metric


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
            raise Infeasible("objective unbounded; degree polytope must be bounded")
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
        raise Infeasible("degree equations admit no non-negative solution")
    for r in range(n):
        if basis[r] >= m:
            enter = next((j for j in range(m) if T[r][j]), None)
            if enter is None:
                raise Infeasible("degree matrix lost rank")  # cannot happen for n >= 3
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


def is_cell_lp(d: Metric, G: EdgeGraph) -> bool:
    """Whether G supports the optimal matching for its own degree vector.

    Assumes d generic (the caller checks).  When the indicator of G ties the
    optimum without being it, the optimum is not unique and the call raises.
    """
    if G.n != d.n or G.edge_count == 0:
        raise PreconditionViolated("need a nonempty graph on the metric's nodes")
    fm = solve_w_matching(d, G.degrees())
    chi = tuple(
        Fraction(1) if G.bits >> p & 1 else Fraction(0) for p in range(num_pairs(d.n))
    )
    if fm.mu == chi:
        return True
    g_value = sum(d.entries[p] for p in range(num_pairs(d.n)) if G.bits >> p & 1)
    if g_value == fm.value:
        raise NonUniqueOptimum(
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


def alternating_cycle_vector(
    n: int, cycle: Sequence[int]
) -> dict[tuple[int, int], int]:
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
    raises StructureViolation.
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
        raise StructureViolation("node 1 has positive weight but empty support star")
    deg = S.degrees()
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
            raise StructureViolation(f"stray component {comp.nodes} in support {S}")

    comp1_edges = [(i, j) for i, j in S.edges() if i in comp1.nodes]
    if comp1.cycle_dim == 0:
        if not all(1 in e for e in comp1_edges) or comp1.edge_count != b:
            raise StructureViolation(
                f"acyclic component of node 1 is not a star of {b} edges: {comp1_edges}"
            )
        if any(deg[v - 1] != 1 for v in comp1.nodes if v != 1):
            raise StructureViolation("star neighbor of node 1 has extra edges")
        return B11Report(S, "star", b, None, tuple(others))
    if comp1.cycle_dim == 1 and comp1.cycle_parity == "odd":
        cycle_nodes = _cycle_nodes(S) & set(comp1.nodes)
        if 1 not in cycle_nodes:
            raise StructureViolation("cycle of node 1's component avoids node 1")
        pendants = [e for e in comp1_edges if not (set(e) <= cycle_nodes)]
        if len(pendants) != b - 1 or not all(1 in e for e in pendants):
            raise StructureViolation(
                f"expected {b - 1} pendant edges at node 1, found {pendants}"
            )
        if any(
            deg[v - 1] != 1
            for e in pendants
            for v in e
            if v != 1
        ):
            raise StructureViolation("pendant neighbor of node 1 has extra edges")
        return B11Report(
            S, "cycle_plus_pendants", b - 1, tuple(sorted(cycle_nodes)), tuple(others)
        )
    raise StructureViolation(f"component of node 1 has an even tour: {comp1}")
