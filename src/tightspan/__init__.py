"""Exact tight spans of finite rational metrics and their dual hypersimplex triangulations.

`import tightspan` loads no submodule.  Each public name below, and each
submodule, is imported on its first access (PEP 562) and then kept in this
namespace, so a process compiles only the modules it uses.
"""

import importlib

# each public name -> the submodule that defines it, in `__all__` order
_HOME = {
    name: module
    for module, names in {
        "metrics": (
            "Metric", "gen_dgamma", "gen_dmax", "gen_dmin", "gen_random", "load_metric",
            "metric_from_json", "metric_to_json", "strict_triangle_nodes", "submetric",
            "validate_metric",
        ),
        "graphs": ("EdgeGraph",),
        "subdivision": (
            "Cell", "DegeneracyReport", "FaceSet", "NotACell", "Subdivision", "all_faces",
            "compute_subdivision", "down_degrees", "enumerate_cells", "lambda_certificate",
            "seed_cell", "traverse_cells",
        ),
        "facevectors": (
            "FaceReport", "FVector", "TightSpanVectors", "check_asff", "check_ball_relations",
            "check_dehn_sommerville", "check_inductive_step", "face_report", "g_from_h",
            "h_from_f", "split_interior_boundary", "tightspan_vectors",
        ),
        "primal": ("bounded_faces", "crosscheck", "enumerate_vertices", "h_by_outdegree"),
        "bounds": (
            "F_bound", "H_bound", "identity_checks", "lower_bound_top", "verify_metric_against_bounds",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({*_HOME.values(), "cli", "common", "errors"})

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
