"""Exact fractional matching LP and the cell tests built on it.

For a weight vector w the LP maximizes <mu, d> over non-negative edge
vectors mu with degree sums sum_i mu(i,j) = w_j.  The solver is a dense
two-phase primal simplex over Fraction entries with Bland's smallest-index
rule, so it terminates, is deterministic, and returns a basic optimum.
Every solve is certified against its own dual vector (complementary
slackness and objective equality) before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .common import num_pairs, pair_table
from .errors import Infeasible, NonUniqueOptimum, PreconditionViolated, StructureViolation
from .graphs import EdgeGraph, _cycle_nodes, components, has_even_tour, odd_path_sum
from .metrics import Metric


@dataclass(frozen=True)
class FractionalMatching:
    """Basic optimal solution of the degree-constrained matching LP."""

    n: int
    mu: tuple[Fraction, ...]
    value: Fraction
    support: EdgeGraph
    unique: bool  # no zero reduced cost off the basis
    dual: tuple[Fraction, ...]


def _simplex_bland(
    costs: list[Fraction],
    allowed: int,
    basis: list[int],
    table: list[list[Fraction]],
) -> None:
    """Run primal simplex pivots in place until no allowed column improves.

    table rows are the current B^-1 [A | b]; basis maps rows to column ids.
    Entering: smallest allowed column with negative (z_j - c_j); leaving:
    smallest ratio, ties by smallest basis column id (Bland).
    """
    m = len(table)
    while True:
        enter = -1
        for j in range(allowed):
            if j in basis:
                continue
            z = sum(costs[basis[r]] * table[r][j] for r in range(m))
            if z - costs[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        ratio = None
        leave = -1
        for r in range(m):
            if table[r][enter] > 0:
                cand = table[r][-1] / table[r][enter]
                if ratio is None or cand < ratio or (
                    cand == ratio and basis[r] < basis[leave]
                ):
                    ratio = cand
                    leave = r
        if leave < 0:
            raise Infeasible("objective unbounded; degree polytope must be bounded")
        piv = table[leave][enter]
        table[leave] = [x / piv for x in table[leave]]
        for r in range(m):
            if r != leave and table[r][enter] != 0:
                f = table[r][enter]
                table[r] = [a - f * b for a, b in zip(table[r], table[leave])]
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
    pairs = pair_table(n)
    total = m + n  # real columns then artificials
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (total + 1)
        row[-1] = weights[i]
        rows.append(row)
    for p, (i, j) in enumerate(pairs):
        rows[i - 1][p] = Fraction(1)
        rows[j - 1][p] = Fraction(1)
    for i in range(n):
        rows[i][m + i] = Fraction(1)

    basis = list(range(m, m + n))

    # phase 1: minimize the artificial sum
    phase1 = [Fraction(0)] * m + [Fraction(-1)] * n
    _simplex_bland(phase1, total, basis, rows)
    art_level = sum(rows[r][-1] for r in range(n) if basis[r] >= m)
    if art_level > 0:
        raise Infeasible("degree equations admit no non-negative solution")
    for r in range(n):
        if basis[r] >= m:
            enter = next((j for j in range(m) if rows[r][j] != 0), None)
            if enter is None:
                raise Infeasible("degree matrix lost rank")  # cannot happen for n >= 3
            piv = rows[r][enter]
            rows[r] = [x / piv for x in rows[r]]
            for r2 in range(n):
                if r2 != r and rows[r2][enter] != 0:
                    f = rows[r2][enter]
                    rows[r2] = [a - f * b for a, b in zip(rows[r2], rows[r])]
            basis[r] = enter

    # phase 2: maximize <mu, d> over real columns only
    phase2 = [d.entries[p] for p in range(m)] + [Fraction(0)] * n
    _simplex_bland(phase2, m, basis, rows)

    mu = [Fraction(0)] * m
    for r in range(n):
        if basis[r] < m:
            mu[basis[r]] = rows[r][-1]
    value = sum(mu[p] * d.entries[p] for p in range(m))
    support = EdgeGraph(
        n, sum(1 << p for p in range(m) if mu[p] > 0)
    )
    # dual from the artificial columns, which hold B^-1
    dual = [
        sum(phase2[basis[r]] * rows[r][m + i] for r in range(n)) for i in range(n)
    ]
    unique = True
    for j in range(m):
        if j in basis:
            continue
        if dual[pairs[j][0] - 1] + dual[pairs[j][1] - 1] == d.entries[j]:
            unique = False
            break
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
    decomp = components(G)
    if (
        G.n != d.n
        or decomp.isolated
        or len(decomp.components) != 1
        or G.edge_count != G.n
        or has_even_tour(G)
    ):
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


@dataclass(frozen=True)
class B11Report:
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
