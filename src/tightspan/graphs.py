"""Indexed subgraphs of K_n and the odd-cycle rule of the cells.

An EdgeGraph stores its edge set as one integer bitset over the lexicographic
pair slots of common.pair_index, which makes graphs hashable, cheap to compare
and canonically ordered (the bitset integer is the sort key everywhere).

The odd-cycle rule of the cells (each component holds one cycle, and it is
odd) lives in one parity union-find: _join adds an edge or refuses it when it
closes an even or a second cycle, _split undoes a join.  cell_components and
filtration.candidate_graphs decide with it.  The independent depth-first
reference that the tests hold it against, components() and
is_odd_unicyclic, is test code (tests/oracles.py), as are the path sums and
even-tour test of the paper's cell lemmas.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .common import pair_index, pair_table


class EdgeGraph(NamedTuple):
    """Subgraph of K_n as a bitset over edge slots; immutable and totally ordered."""

    n: int
    bits: int

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "EdgeGraph":
        bits = 0
        for i, j in edges:
            bits |= 1 << pair_index(n, i, j)
        return EdgeGraph(n, bits)

    def edges(self) -> tuple[tuple[int, int], ...]:
        table = pair_table(self.n)
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(table[low.bit_length() - 1])
            bits ^= low
        return tuple(out)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.bits >> pair_index(self.n, i, j) & 1)

    def __str__(self) -> str:
        return format_edge_list(self)


# -- the odd-cycle rule: one parity union-find ----------------------------------


def _find(parent: list[int], parity: list[int], v: int) -> tuple[int, int]:
    """Root of v and the parity of v's tree path to it."""
    p = 0
    while parent[v] != v:
        p ^= parity[v]
        v = parent[v]
    return v, p


def _join(
    parent: list[int], parity: list[int], cyclic: list[bool], i: int, j: int
) -> Optional[tuple[int, int, bool]]:
    """Add edge {i,j} to the forest; its undo record, or None when it is refused.

    An edge inside a component closes a cycle, odd when its ends have equal
    parity; it is refused when the cycle is even or the component already
    holds one.  An edge between two components that both hold a cycle is
    refused too, since their union would hold two.  A refused edge changes
    nothing.
    """
    ri, pi = _find(parent, parity, i)
    rj, pj = _find(parent, parity, j)
    if ri == rj:
        if pi != pj or cyclic[ri]:
            return None
        cyclic[ri] = True
        return ri, ri, False
    if cyclic[ri] and cyclic[rj]:
        return None
    undo = (ri, rj, cyclic[ri])
    parent[rj] = ri
    parity[rj] = pi ^ pj ^ 1
    cyclic[ri] = cyclic[ri] or cyclic[rj]
    return undo


def _split(
    parent: list[int], parity: list[int], cyclic: list[bool], undo: tuple[int, int, bool]
) -> None:
    """Undo the _join that returned undo; joins are undone last first."""
    ri, rj, was_cyclic = undo
    cyclic[ri] = was_cyclic
    parent[rj] = rj
    parity[rj] = 0


@lru_cache(maxsize=None)
def node_edge_masks(n: int) -> tuple[int, ...]:
    """Bitmask of the pair slots incident with each node (0-based); node v's full star."""
    masks = [0] * n
    for p, (i, j) in enumerate(pair_table(n)):
        masks[i - 1] |= 1 << p
        masks[j - 1] |= 1 << p
    return tuple(masks)


def cell_components(n: int, mask: int) -> Optional[int]:
    """Component count of a candidate cell graph; None when the mask is not one.

    A candidate is spanning, has n edges, and each of its components holds
    exactly one cycle, of odd length.  One _join per edge; a refused edge
    rejects the mask.  Otherwise each component, isolated nodes included,
    has at most as many edges as nodes, and the n edges on n nodes leave
    none with fewer: every component holds its one odd cycle.
    """
    if mask.bit_count() != n:
        return None
    pairs = pair_table(n)
    parent, parity, cyclic = list(range(n + 1)), [0] * (n + 1), [False] * (n + 1)
    bits = mask
    while bits:
        low = bits & -bits
        bits ^= low
        i, j = pairs[low.bit_length() - 1]
        if _join(parent, parity, cyclic, i, j) is None:
            return None
    return sum(parent[v] == v for v in range(1, n + 1))


def format_edge_list(G: EdgeGraph) -> str:
    """Text form "{i,j}" pairs sorted lexicographically."""
    return " ".join("{%d,%d}" % (i, j) for i, j in sorted(G.edges()))
