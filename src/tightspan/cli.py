"""Command-line front end: generate metrics, run the pipeline, verify suites.

All numeric output is exact "p/q" text; no floats appear anywhere.  Reports
are canonical: identical inputs give byte-identical output apart from the
timestamp line, which --no-timestamp suppresses.

`compute` takes its cells and verdict from compute_subdivision, the ridge
traversal from one LP seed at every n.  Exit codes: 0 success, 2 parse or
argument error, 3 non-generic input (with its witness) without
--allow-degenerate, 4 failed check (also a traversal whose ridge pencils or
covered volume break an invariant without a witness, or any other package
error while the subdivision is built).  `verify` exits 2 on bad arguments
and on a package error inside a suite, with one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from .bounds import (
    BoundViolated,
    F_bound,
    identity_checks,
    lower_bound_top,
    verify_metric_against_bounds,
)
from .errors import DegenerateRidge, TightSpanError
from .facevectors import (
    check_asff,
    check_ball_relations,
    check_dehn_sommerville,
    g_from_h,
    h_from_f,
    report_json,
    split_interior_boundary,
    tightspan_vectors,
)
from .graphs import parse_edge_list
from .metrics import (
    gen_dgamma,
    gen_dmax,
    gen_dmin,
    gen_random,
    load_metric,
    save_metric,
)
from .primal import crosscheck
from .subdivision import (
    all_faces,
    boundary_tags,
    compute_subdivision,
    random_generic_metrics,
    subdivision_to_json,
)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tspan")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="run the full pipeline on a metric file")
    pc.add_argument("file")
    pc.add_argument("--oracle", action="store_true", help="also run the primal crosscheck (n <= 6)")
    pc.add_argument("--export-cells", metavar="PATH")
    pc.add_argument("--export-faces", metavar="PATH")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.add_argument("--allow-degenerate", action="store_true")
    pc.add_argument("--no-timestamp", action="store_true")

    pg = sub.add_parser("gen", help="write a metric file")
    pg.add_argument("--kind", choices=("dmax", "dmin", "dgamma", "random"), required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--graph", default=None, help='edge list "1-2,3-4" for dgamma')
    pg.add_argument("--seed", type=int, default=1)
    pg.add_argument("--resolution", type=int, default=0)
    pg.add_argument("-o", "--output", required=True)

    pv = sub.add_parser("verify", help="run a named acceptance suite")
    pv.add_argument(
        "--suite",
        choices=("paper-examples", "bounds", "identities", "oracle-random"),
        required=True,
    )
    pv.add_argument("--n-max", type=int, default=12)
    pv.add_argument("--n", type=int, default=5)
    pv.add_argument("--count", type=int, default=20)
    return top


def cmd_compute(args) -> int:
    try:
        d = load_metric(args.file)
    except (OSError, ValueError, TightSpanError) as exc:
        print(f"error: cannot parse metric: {exc}", file=sys.stderr)
        return 2
    if args.oracle and d.n > 6:
        print("error: --oracle requires n <= 6", file=sys.stderr)
        return 2

    try:
        sub = compute_subdivision(d)
    except DegenerateRidge as exc:
        print(f"error: ridge traversal failed: {exc}", file=sys.stderr)
        return 4
    except TightSpanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    lines = [f"metric: {args.file}", f"n: {d.n}"]
    if not args.no_timestamp:
        lines.append(
            "generated-at: " + datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
    lines.append(f"generic: {str(sub.generic).lower()}")
    lines.append(f"cells: {len(sub.maximal_cells)}")
    lines.append(f"volume: {sub.total_volume}")

    payload: dict = {"n": d.n, "generic": sub.generic, "cells": len(sub.maximal_cells)}
    if args.export_cells:
        with open(args.export_cells, "w", encoding="utf-8") as fh:
            fh.write(subdivision_to_json(sub))

    if not sub.generic:
        graph, pair = sub.degeneracy_witness
        lines.append(f"witness-graph: {graph}")
        lines.append(f"witness-pair: {{{pair[0]},{pair[1]}}}")
        payload["witness"] = {"graph": str(graph), "pair": list(pair)}
        print("\n".join(lines) if args.format == "text" else json.dumps(payload, indent=2))
        return 0 if args.allow_degenerate else 3

    F = all_faces(sub)
    f_total, f_bd, f_int = split_interior_boundary(F)
    tv = tightspan_vectors(d, sub, F)

    checks: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    ds = check_dehn_sommerville(f_bd)
    checks["dehn_sommerville_boundary"] = bool(ds)
    if not ds:
        witnesses["dehn_sommerville_boundary"] = list(ds.witness)
    ball = check_ball_relations(F)
    checks["ball_relations"] = bool(ball)
    if not ball:
        witnesses["ball_relations"] = list(ball.witness)
    asff = check_asff(F)
    checks["asff"] = asff.ok
    if not asff.ok:
        witnesses["asff"] = asff.__dict__
    try:
        verify_metric_against_bounds(d, tv)
        checks["bounds"] = True
    except BoundViolated as exc:
        checks["bounds"] = False
        witnesses["bounds"] = str(exc)
    if args.oracle:
        try:
            checks["oracle"] = crosscheck(d).ok
        except TightSpanError as exc:
            checks["oracle"] = False
            witnesses["oracle"] = str(exc)

    rep = report_json(f_total, f_bd, f_int, tv, checks)
    payload.update(rep)
    if witnesses:
        payload["check_witnesses"] = witnesses

    lines.append(f"f(subdivision): {list(f_total.counts)}")
    lines.append(f"f(boundary): {list(f_bd.counts)}")
    lines.append(f"f(interior): {list(f_int.counts)}")
    lines.append(f"h(subdivision): {list(h_from_f(f_total))}")
    lines.append(f"h(boundary): {list(h_from_f(f_bd))}")
    lines.append(f"h(interior): {list(h_from_f(f_int))}")
    lines.append(f"g(boundary): {list(g_from_h(h_from_f(f_bd)))}")
    lines.append(f"fT: {list(tv.fT)}")
    lines.append(f"hT: {list(tv.hT)}")
    lines.append(f"glued: {sorted(tv.glued)}")
    for name, ok in checks.items():
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")

    if args.export_faces:
        faces_payload = {
            "n": F.n,
            "faces": {
                str(k): [
                    {
                        "edges": [list(e) for e in graph.edges()],
                        "interior": graph.bits in F.interior_by_dim[k],
                        "facets": _facet_tags(F.n, graph.bits, F.interior_by_dim[k]),
                    }
                    for graph in F.graphs(k)
                ]
                for k in range(len(F.by_dim))
            },
        }
        # streamed: json.dumps would hold the whole text and its pieces at once
        with open(args.export_faces, "w", encoding="utf-8") as fh:
            fh.writelines(json.JSONEncoder(indent=2).iterencode(faces_payload))
            fh.write("\n")

    print("\n".join(lines) if args.format == "text" else json.dumps(payload, indent=2))
    return 0 if all(checks.values()) else 4


def _facet_tags(n: int, mask: int, interior: frozenset) -> dict:
    if mask in interior:
        return {}
    missed, centers = boundary_tags(n, mask)
    return {"missed_nodes": list(missed), "star_centers": list(centers)}


def cmd_gen(args) -> int:
    try:
        if args.kind == "dmax":
            d = gen_dmax(args.n)
        elif args.kind == "dmin":
            d = gen_dmin(args.n)
        elif args.kind == "dgamma":
            if args.graph is None:
                print("error: --kind dgamma requires --graph", file=sys.stderr)
                return 2
            d = gen_dgamma(args.n, parse_edge_list(args.n, args.graph))
        else:
            d = gen_random(args.n, args.seed, args.resolution)
    except (TightSpanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_metric(d, args.output)
    return 0


def _verify_lines(suite: str, args) -> tuple[list[str], bool]:
    lines = []
    ok_all = True

    def item(name: str, ok: bool) -> None:
        nonlocal ok_all
        ok_all &= ok
        lines.append(f"{'pass' if ok else 'FAIL'}  {name}")

    if suite == "identities":
        item(f"alternating identities up to n={args.n_max}", bool(identity_checks(args.n_max)))
        from .bounds import f_bound_or_zero

        rec = all(
            f_bound_or_zero(n, k)
            == 2 * f_bound_or_zero(n - 1, k) + f_bound_or_zero(n - 2, k - 1)
            for n in range(4, 17)
            for k in range(1, n // 2 + 1)
        )
        item("f-bound recursion up to n=16", rec)
        item(
            "vertex bound is 2^(n-1)",
            all(F_bound(n, 0) == 1 << (n - 1) for n in range(3, 17)),
        )
        return lines, ok_all

    if suite == "paper-examples":
        from .metrics import validate_metric

        d4 = validate_metric([[0, 2, 3, 2], [2, 0, 2, 3], [3, 2, 0, 2], [2, 3, 2, 0]])
        sub = compute_subdivision(d4)
        F = all_faces(sub)
        f_total, f_bd, f_int = split_interior_boundary(F)
        tv = tightspan_vectors(d4, sub, F)
        item("four-point metric: 4 cells", len(sub.maximal_cells) == 4)
        item("four-point metric: f = (6,13,12,4)", f_total.counts == (6, 13, 12, 4))
        item(
            "four-point metric: h triple",
            h_from_f(f_total) == (1, 2, 1, 0, 0)
            and h_from_f(f_bd) == (1, 3, 3, 1)
            and h_from_f(f_int) == (0, 0, 1, 2, 1),
        )
        item("four-point metric: tight span (8,8,1)", tv.fT == (8, 8, 1))
        for n, expect in ((5, (16, 20, 5)), (6, (32, 48, 18, 1))):
            d = gen_dmax(n)
            tv = tightspan_vectors(d, compute_subdivision(d))
            item(f"dmax{n} tight span {expect}", tv.fT == expect)
        for n, expect in ((5, (16, 20, 5)), (6, (31, 45, 15))):
            d = gen_dmin(n)
            tv = tightspan_vectors(d, compute_subdivision(d))
            item(f"dmin{n} tight span {expect}", tv.fT == expect)
        return lines, ok_all

    if suite == "bounds":
        reports = {}
        for gen, ns in ((gen_dmax, (4, 5, 6)), (gen_dmin, (5, 6))):
            for n in ns:
                d = gen(n)
                tv = tightspan_vectors(d, compute_subdivision(d))
                try:
                    reports[gen, n] = verify_metric_against_bounds(d, tv)
                except BoundViolated:
                    reports[gen, n] = None
                item(f"{gen.__name__[4:]}{n} within bounds", reports[gen, n] is not None)
        item(
            "dmax attains every f-bound (n=4..6)",
            all(
                reports[gen_dmax, n] is not None and reports[gen_dmax, n].all_f_attained
                for n in (4, 5, 6)
            ),
        )
        item(
            "dmin top count attains the lower bound (n=5,6)",
            all(
                reports[gen_dmin, n] is not None
                and reports[gen_dmin, n].top_count == lower_bound_top(n)
                for n in (5, 6)
            ),
        )
        return lines, ok_all

    # oracle-random
    found = random_generic_metrics(args.n, args.count)
    for seed, d in found:
        try:
            ok = crosscheck(d).ok
        except TightSpanError:
            ok = False
        item(f"random n={args.n} seed={seed} primal/dual agree", ok)
    return lines, ok_all


def cmd_verify(args) -> int:
    if args.suite == "oracle-random" and not (3 <= args.n <= 6 and args.count >= 1):
        print("error: oracle-random requires 3 <= --n <= 6 and --count >= 1", file=sys.stderr)
        return 2
    try:
        lines, ok = _verify_lines(args.suite, args)
    except TightSpanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(f"suite {args.suite}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 4


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "compute":
        return cmd_compute(args)
    if args.command == "gen":
        return cmd_gen(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
