"""Command-line front end: generate metrics, run the pipeline, verify suites.

All numeric output is exact "p/q" text; no floats appear anywhere.  Reports
are canonical: identical inputs give byte-identical output apart from the
timestamp line, which --no-timestamp suppresses.

`compute` takes its cells and verdict from compute_subdivision, the ridge
traversal from node 1's star-plus-pair cell at every n, and every vector and
check of a generic report from one FaceReport; text and JSON render the
same ROWS.
--export-cells and --export-faces stream subdivision_to_json and
faces_to_json one record at a time; both are template writers in
subdivision.py, in the bytes of json.dumps(payload, indent=2) + "\n".
Exit codes: 0 success, 2 parse or argument error (also an unwritable
--export-* or -o path, or a stdout closed by its reader), 3 non-generic
input (with its witness) without --allow-degenerate, 4 failed check (also a
subdivision that breaks an invariant, DegenerateRidge, or any other package
error while it is built, with one `error:` line).  Every check answers with
a Verdict; one that cannot run raises, and its row fails with the message
as witness.
`verify` exits 4 when a row fails, and 2 on bad arguments, on a package
error inside a suite and on a closed stdout, with one `error:` line.

Each command imports the modules it runs at the top of the function that
runs it, so a process compiles no other: `gen` needs only metrics; the
report layers load after the genericity verdict, and primal only under
--oracle and in the oracle-random suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .common import Verdict, _quote
from .errors import PreconditionViolated, TightSpanError
from .metrics import (
    Metric,
    _require_points,
    gen_dgamma,
    gen_dmax,
    gen_dmin,
    gen_random,
    load_metric,
    metric_to_json,
    validate_metric,
)

if TYPE_CHECKING:  # pragma: no cover
    from .facevectors import FaceReport

# (JSON key, text label) of each vector row of a generic report, in report
# order; the ideal rows are JSON-only
ROWS = (
    ("f", "f(subdivision)"),
    ("f_boundary", "f(boundary)"),
    ("f_interior", "f(interior)"),
    ("h", "h(subdivision)"),
    ("h_boundary", "h(boundary)"),
    ("h_interior", "h(interior)"),
    ("g_boundary", "g(boundary)"),
    ("fT", "fT"),
    ("hT", "hT"),
    ("ideal_fT", None),
    ("ideal_hT", None),
    ("glued", "glued"),
)


def _int(text: str) -> int:
    """int(text) for an int option; a refused value, 5,000 digits say, is named by its prefix."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


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
    pg.add_argument("--n", type=_int, required=True)
    pg.add_argument("--graph", default=None, help='edge list "1-2,3-4" for dgamma')
    pg.add_argument("--seed", type=_int, default=1)
    pg.add_argument("--resolution", type=_int, default=0)
    pg.add_argument("-o", "--output", required=True)

    pv = sub.add_parser("verify", help="run a named acceptance suite")
    pv.add_argument(
        "--suite",
        choices=("paper-examples", "bounds", "identities", "oracle-random"),
        required=True,
    )
    pv.add_argument("--n-max", type=_int, default=12, help="largest n of identities and bounds")
    pv.add_argument("--n", type=_int, default=5)
    pv.add_argument("--count", type=_int, default=20)
    return top


def cmd_compute(args) -> int:
    from .subdivision import all_faces, compute_subdivision, faces_to_json, subdivision_to_json

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
    except TightSpanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    lines = [f"metric: {args.file}", f"n: {d.n}"]
    if not args.no_timestamp:
        from datetime import datetime, timezone

        lines.append(
            "generated-at: " + datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
    lines.append(f"generic: {str(sub.generic).lower()}")
    lines.append(f"cells: {len(sub.maximal_cells)}")
    lines.append(f"volume: {sub.total_volume}")

    payload: dict = {"n": d.n, "generic": sub.generic, "cells": len(sub.maximal_cells)}
    if args.export_cells and not _write(args.export_cells, lambda: subdivision_to_json(sub)):
        return 2

    if not sub.generic:
        graph, pair = sub.degeneracy_witness
        lines.append(f"witness-graph: {graph}")
        lines.append(f"witness-pair: {{{pair[0]},{pair[1]}}}")
        payload["witness"] = {"graph": str(graph), "pair": list(pair)}
        print("\n".join(lines) if args.format == "text" else json.dumps(payload, indent=2))
        return 0 if args.allow_degenerate else 3

    from .facevectors import face_report, report_json

    rep = face_report(sub)
    checks: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    for name, check in _checks(rep, args.oracle):
        try:
            verdict = check()
        except TightSpanError as exc:  # the check cannot run: its message is the witness
            verdict = Verdict(False, str(exc))
        checks[name] = verdict.ok
        if not verdict.ok:
            witnesses[name] = verdict.witness

    vectors = report_json(rep)
    for key, label in ROWS:
        payload[key] = vectors[key]
        if label:
            lines.append(f"{label}: {vectors[key]}")
    payload["checks"] = checks
    if witnesses:
        payload["check_witnesses"] = witnesses
    for name, ok in checks.items():
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")

    if args.export_faces and not _write(args.export_faces, lambda: faces_to_json(all_faces(sub))):
        return 2

    print("\n".join(lines) if args.format == "text" else json.dumps(payload, indent=2))
    return 0 if all(checks.values()) else 4


def _write(path: str, chunks) -> bool:
    """Write the text chunks that chunks() returns to path; False if the path is unwritable.

    chunks is called only once the file is open, so an unwritable path is
    refused, with one error line, before any of the text is built.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks())
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return False
    return True


def _checks(rep: FaceReport, oracle: bool):
    """(name, check) pairs in report order.

    Each check returns the Verdict the report prints, a failure included; it
    raises a TightSpanError only when it cannot run, and cmd_compute fails
    its row with the message as witness.
    """
    from .bounds import verify_metric_against_bounds
    from .facevectors import check_asff, check_ball_relations, check_dehn_sommerville

    yield "dehn_sommerville_boundary", lambda: check_dehn_sommerville(rep.h_boundary)
    yield "ball_relations", lambda: check_ball_relations(rep)
    yield "asff", lambda: check_asff(rep)
    yield "bounds", lambda: verify_metric_against_bounds(rep.subdivision.metric, rep.span)
    if oracle:
        from .primal import crosscheck

        yield "oracle", lambda: crosscheck(rep)


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
            from .graphs import parse_edge_list

            _require_points(args.n)  # the graph's bitmask grows as n^2
            d = gen_dgamma(args.n, parse_edge_list(args.n, args.graph))
        else:
            d = gen_random(args.n, args.seed, args.resolution)
    except (TightSpanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if _write(args.output, lambda: [metric_to_json(d)]) else 2


def _verify_lines(suite: str, args) -> tuple[list[str], bool]:
    lines = []
    ok_all = True

    def item(name: str, ok: bool) -> None:
        nonlocal ok_all
        ok_all &= ok
        lines.append(f"{'pass' if ok else 'FAIL'}  {name}")

    if suite == "identities":
        from .bounds import F_bound, f_bound_or_zero, identity_checks

        item(f"alternating identities up to n={args.n_max}", bool(identity_checks(args.n_max)))
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
        d4 = validate_metric([[0, 2, 3, 2], [2, 0, 2, 3], [3, 2, 0, 2], [2, 3, 2, 0]])
        rep = _report(d4)
        sub = rep.subdivision
        item("four-point metric: 4 cells", len(sub.maximal_cells) == 4)
        item("four-point metric: f = (6,13,12,4)", rep.f.counts == (6, 13, 12, 4))
        item(
            "four-point metric: h triple",
            rep.h == (1, 2, 1, 0, 0)
            and rep.h_boundary == (1, 3, 3, 1)
            and rep.h_interior == (0, 0, 1, 2, 1),
        )
        item("four-point metric: tight span (8,8,1)", rep.span.fT == (8, 8, 1))
        for n, expect in ((5, (16, 20, 5)), (6, (32, 48, 18, 1))):
            item(f"dmax{n} tight span {expect}", _report(gen_dmax(n)).span.fT == expect)
        for n, expect in ((5, (16, 20, 5)), (6, (31, 45, 15))):
            item(f"dmin{n} tight span {expect}", _report(gen_dmin(n)).span.fT == expect)
        return lines, ok_all

    if suite == "bounds":
        from .bounds import F_bound, lower_bound_top, verify_metric_against_bounds

        # dmax attains every F_k(n); dmin has dimension ceil(n/3) and
        # exactly lower_bound_top(n) top faces
        if args.n_max < 4:
            raise PreconditionViolated("need n_max >= 4")
        _require_points(args.n_max)  # before any row is computed
        for n in range(4, args.n_max + 1):
            low, dim_low = lower_bound_top(n), -(-n // 3)
            for gen in (gen_dmax, gen_dmin):
                name = f"{gen.__name__[4:]}{n}"
                span = _report(d := gen(n)).span
                verdict = verify_metric_against_bounds(d, span)
                if not verdict:
                    item(f"{name} violates a bound: {verdict.witness}", False)
                    continue
                if gen is gen_dmax:
                    item(
                        f"{name} attains every F_k: fT = {list(span.fT)}",
                        span.fT == tuple(F_bound(n, k) for k in range(n // 2 + 1)),
                    )
                else:
                    item(
                        f"{name} has {span.fT[-1]} top faces at dim {span.dim},"
                        f" bound {low} at dim {dim_low}",
                        span.dim == dim_low and span.fT[-1] == low,
                    )
        return lines, ok_all

    # oracle-random
    from .primal import crosscheck
    from .subdivision import random_generic_metrics

    for seed, d in random_generic_metrics(args.n, args.count):
        item(f"random n={args.n} seed={seed} primal/dual agree", crosscheck(_report(d)).ok)
    return lines, ok_all


def _report(d: Metric) -> FaceReport:
    from .facevectors import face_report
    from .subdivision import compute_subdivision

    return face_report(compute_subdivision(d))


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
    command = {"compute": cmd_compute, "gen": cmd_gen}.get(args.command, cmd_verify)
    try:
        code = command(args)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout was closed by its reader: send what is left to devnull, so
        # the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
