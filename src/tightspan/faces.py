"""The face listing of a generic subdivision and the face export.

Only `tspan compute --export-faces` and the primal oracle load this module;
a report counts its faces from subdivision.down_degrees without listing
one.  all_faces builds each face once: from its lowest cell in w.lambda
with every down edge, and each interior face from its highest cell with
every up edge.  faces_to_json writes the export from %-templates in the
bytes of json.dumps(payload, indent=2) + "\n", one chunk per face record,
as subdivision_to_json writes the cell export.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterator, NamedTuple

from .graphs import node_edge_masks
from .subdivision import Subdivision, _down_masks, _edge_bits, _json_list, _pair_texts


class FaceSet(NamedTuple):
    """All faces of a triangulation grouped by dimension, with interior tags.

    A k-dimensional face is a graph with k+1 edges, stored as its bitmask.
    Each level of by_dim is sorted by bitmask; the face export lists the
    faces in that order, so the exported file is canonical.
    """

    n: int
    by_dim: tuple[tuple[int, ...], ...]
    interior_by_dim: tuple[frozenset[int], ...]


def all_faces(S: Subdivision) -> FaceSet:
    """Closure of the maximal cell graphs under nonempty subgraphs, with interior tags.

    Each face is built exactly once, from its lowest cell in w.lambda with
    every down edge, and each interior (bounded) face from its highest with
    every up edge.
    """
    n = S.n
    levels, interior = [[] for _ in range(n)], [[] for _ in range(n)]
    for cell, down in zip(S.maximal_cells, _down_masks(S)):
        downs, ups = _edge_bits(down), _edge_bits(cell.graph.bits ^ down)
        for kept, free, out in ((downs, ups, levels), (ups, downs, interior)):
            base = sum(kept)
            for r in range(0 if kept else 1, len(free) + 1):
                out[len(kept) + r - 1].extend(map(sum, combinations(free, r), repeat(base)))
    return FaceSet(n, tuple(map(tuple, map(sorted, levels))), tuple(map(frozenset, interior)))


def boundary_tags(n: int, mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Facets of the hypersimplex containing a boundary face.

    Returns (missed nodes i, giving facets x_i = 0) and (star centers c, for
    faces inside the simplex facet at c).
    """
    node_masks = node_edge_masks(n)
    missed = tuple(v + 1 for v in range(n) if mask & node_masks[v] == 0)
    centers = tuple(v + 1 for v in range(n) if mask & ~node_masks[v] == 0)
    return missed, centers


_FACE = """      {
        "edges": [
%s
        ],
        "interior": %s,
        "facets": %s
      }"""

_FACETS = """{
          "missed_nodes": %s,
          "star_centers": %s
        }"""


def faces_to_json(F: FaceSet) -> Iterator[str]:
    """The faces of F by dimension, with their tags, as indented JSON text.

    One chunk per face record, so the text is never held whole.  A face
    lists its edges, whether it is interior, and its facets: {} for an
    interior face, else boundary_tags' missed nodes and star centers.  A
    face has at least one edge, and F at least one level.
    """
    n = F.n
    edge = _pair_texts(n, "          ")
    node = ["            %d" % v for v in range(n + 1)]
    yield '{\n  "n": %d,\n  "faces": {' % n
    for k, (level, interior) in enumerate(zip(F.by_dim, F.interior_by_dim)):
        yield '%s\n    "%d": %s' % ("," if k else "", k, "[" if level else "[]")
        sep = "\n"
        for mask in level:
            edges = ",\n".join([edge[b.bit_length() - 1] for b in _edge_bits(mask)])
            if mask in interior:
                yield sep + _FACE % (edges, "true", "{}")
            else:
                missed, centers = boundary_tags(n, mask)
                facets = _FACETS % (
                    _json_list([node[v] for v in missed], "          "),
                    _json_list([node[v] for v in centers], "          "),
                )
                yield sep + _FACE % (edges, "false", facets)
            sep = ",\n"
        if level:
            yield "\n    ]"
    yield "\n  }\n}\n"
