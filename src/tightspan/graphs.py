"""Indexed subgraphs of K_n with the cycle and tour analysis used by cell tests.

An EdgeGraph stores its edge set as one integer bitset over the lexicographic
pair slots of common.pair_index, which makes graphs hashable, cheap to compare
and canonically ordered (the bitset integer is the sort key everywhere).

The odd-cycle rule of the cells (each component holds one cycle, and it is
odd) lives in one parity union-find: _join adds an edge or refuses it when it
closes an even or a second cycle, _split undoes a join.  cell_components,
has_even_tour, the path-sum preconditions and subdivision.candidate_graphs
all decide with it; components() and is_odd_unicyclic are the independent
depth-first reference that the tests hold it against.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .common import _quote, pair_index, pair_table
from .errors import NodeOutOfRange, PreconditionViolated

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import Metric


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

    @property
    def edge_count(self) -> int:
        return bin(self.bits).count("1")

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.bits >> pair_index(self.n, i, j) & 1)

    def remove_edge(self, i: int, j: int) -> "EdgeGraph":
        return EdgeGraph(self.n, self.bits & ~(1 << pair_index(self.n, i, j)))

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * (self.n + 1)
        for i, j in self.edges():
            deg[i] += 1
            deg[j] += 1
        return tuple(deg[1:])

    def covered_nodes(self) -> frozenset[int]:
        nodes = set()
        for i, j in self.edges():
            nodes.add(i)
            nodes.add(j)
        return frozenset(nodes)

    def is_spanning(self) -> bool:
        return len(self.covered_nodes()) == self.n

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges():
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def __str__(self) -> str:
        return format_edge_list(self)


class ComponentProfile(NamedTuple):
    """Per-component statistics: nodes, edge count, cycle space dim, cycle parity."""

    nodes: tuple[int, ...]
    edge_count: int
    cycle_dim: int
    cycle_parity: Optional[str]  # "odd" / "even" when unicyclic, else None


class GraphComponents(NamedTuple):
    components: tuple[ComponentProfile, ...]
    isolated: tuple[int, ...]


def empty_graph(n: int) -> EdgeGraph:
    return EdgeGraph(n, 0)


def star_graph(n: int, center: int) -> EdgeGraph:
    return EdgeGraph.from_edges(n, ((center, j) for j in range(1, n + 1) if j != center))


def cycle_graph(n: int, sequence: Sequence[int]) -> EdgeGraph:
    """Closed cycle through the given node sequence."""
    edges = [(sequence[k], sequence[(k + 1) % len(sequence)]) for k in range(len(sequence))]
    return EdgeGraph.from_edges(n, edges)


def components(G: EdgeGraph) -> GraphComponents:
    """Connected components of the non-isolated nodes, plus the isolated node set."""
    adj = G.adjacency()
    covered = G.covered_nodes()
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
        edge_count = sum(1 for i, j in G.edges() if i in nodes)
        cycle_dim = edge_count - len(nodes) + 1
        parity = None
        if cycle_dim == 1:
            parity = "even" if _is_bipartite(adj, nodes) else "odd"
        profiles.append(
            ComponentProfile(tuple(sorted(nodes)), edge_count, cycle_dim, parity)
        )
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


def has_even_tour(G: EdgeGraph) -> bool:
    """True unless every component is a tree or unicyclic with an odd cycle.

    A component with two independent cycles concatenates them into a
    non-trivial even closed tour, and an even cycle is one directly.  True
    at the first edge that _join refuses.
    """
    parent, parity, cyclic = list(range(G.n + 1)), [0] * (G.n + 1), [False] * (G.n + 1)
    return any(_join(parent, parity, cyclic, i, j) is None for i, j in G.edges())


def is_odd_unicyclic(G: EdgeGraph) -> bool:
    """Every component has exactly one cycle, of odd length (isolated nodes ignored)."""
    comps = components(G).components
    return bool(comps) and all(
        c.cycle_dim == 1 and c.cycle_parity == "odd" for c in comps
    )


@lru_cache(maxsize=None)
def node_edge_masks(n: int) -> tuple[int, ...]:
    """Bitmask of the pair slots incident with each node (0-based); node v's full star."""
    masks = [0] * n
    for p, (i, j) in enumerate(pair_table(n)):
        masks[i - 1] |= 1 << p
        masks[j - 1] |= 1 << p
    return tuple(masks)


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


def is_interior_graph(G: EdgeGraph) -> bool:
    """is_interior_mask for an EdgeGraph."""
    return is_interior_mask(G.n, G.bits)


def odd_path_sum(d: "Metric", G: EdgeGraph, v: int, w: int) -> Fraction:
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
    adj = G.adjacency()
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
    adj = {v: set(us) for v, us in G.adjacency().items()}
    alive = set(G.covered_nodes())
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


def cell_volume(G: EdgeGraph) -> int:
    """Normalized volume 2^(c-1) of the simplex spanned by an odd-unicyclic spanning graph."""
    c = cell_components(G.n, G.bits)
    if c is None:
        raise PreconditionViolated("volume is defined for spanning odd-unicyclic graphs only")
    return 1 << (c - 1)


def format_edge_list(G: EdgeGraph) -> str:
    """Text form "{i,j}" pairs sorted lexicographically."""
    return " ".join("{%d,%d}" % (i, j) for i, j in sorted(G.edges()))


_EDGE = re.compile(r"\s*([0-9]+)\s*-\s*([0-9]+)\s*")


def parse_edge_list(n: int, text: str) -> EdgeGraph:
    """Edge list in CLI form "1-2,3-4" (empty string means no edges).

    Each chunk is two ASCII-digit node numbers joined by "-"; any other
    chunk raises ValueError, and a node outside 1..n NodeOutOfRange, both
    quoting it.  A number with more digits than n is out of range unread.
    """
    text = text.strip()
    if not text:
        return empty_graph(n)
    edges = []
    for chunk in text.split(","):
        match = _EDGE.fullmatch(chunk)
        if match is None:
            raise ValueError(f"bad edge {_quote(chunk)}: expected i-j")
        ends = [v.lstrip("0") for v in match.groups()]
        if any(len(v) > len(str(n)) or not 1 <= int(v or 0) <= n for v in ends):
            raise NodeOutOfRange(f"bad edge {_quote(chunk)}: nodes must lie in 1..{n}")
        edges.append((int(ends[0]), int(ends[1])))
    return EdgeGraph.from_edges(n, edges)
