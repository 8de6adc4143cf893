"""Exact fractional matching LP, solved for subdivision.seed_cell.

For a weight vector w the LP maximizes <mu, d> over non-negative edge
vectors mu with degree sums sum_i mu(i,j) = w_j.  The solver is a dense
two-phase primal simplex with Bland's smallest-index rule, so it
terminates, is deterministic, and returns a basic optimum.  Its table is
fraction-free: integers over one scale, updated by common.pivot, with the
reduced costs as the last row.  Every solve is certified in Fractions
against its own dual vector (complementary slackness and objective
equality) before it is returned.

The paper's LP and alternating-path cell criteria and its (b,1,...,1)
support lemma, built on this solver, are test oracles (tests/oracles.py).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .common import num_pairs, pair_table, pivot
from .errors import Infeasible, PreconditionViolated
from .graphs import EdgeGraph
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
