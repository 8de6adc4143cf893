"""Command-line front end: parse the arguments, run `compute`, dispatch `gen` and `verify`.

All numeric output is exact "p/q" text; no floats appear anywhere.  Reports
are canonical: identical inputs give byte-identical output apart from the
timestamp line, which --no-timestamp suppresses.

`compute` takes its cells and verdict from compute_subdivision, the ridge
traversal from node 1's star-plus-pair cell at every n, and every vector and
check of a generic report from one FaceReport; text and JSON render the
same ROWS.
--export-cells and --export-faces stream subdivision_to_json
(subdivision.py) and faces_to_json (faces.py) one record at a time; both
are template writers in the bytes of json.dumps(payload, indent=2) + "\n".
Exit codes: 0 success, 2 parse or argument error (also an unwritable
--export-* or -o path, or a stdout closed by its reader), 3 non-generic
input (with its witness) without --allow-degenerate, 4 failed check (also a
subdivision that breaks an invariant, DegenerateRidge, or any other package
error while it is built, with one `error:` line).  Every check answers with
a Verdict; one that cannot run raises, and its row fails with the message
as witness.
`verify` exits 4 when a row fails, and 2 on bad arguments, on a package
error inside a suite and on a closed stdout, with one `error:` line.

A process compiles only the modules its command runs.  main imports the
module of the command it dispatches to: gen.py for `gen`, suites.py for
`verify`.  `compute` imports each layer where it first runs it: the
subdivision, then the report layers after the genericity verdict, faces.py
only for --export-faces, and primal only under --oracle.

main registers gc.freeze with atexit, once per process however often it
runs, so the collections of interpreter finalization skip the objects alive
at exit, which die with the process; open files are closed by `with` and the
standard streams are flushed at exit all the same.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from .common import Verdict, _quote, _write
from .errors import TightSpanError
from .metrics import load_metric

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
    from .subdivision import compute_subdivision, subdivision_to_json

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

    if args.export_faces:
        from .faces import all_faces, faces_to_json

        if not _write(args.export_faces, lambda: faces_to_json(all_faces(sub))):
            return 2

    print("\n".join(lines) if args.format == "text" else json.dumps(payload, indent=2))
    return 0 if all(checks.values()) else 4


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


def main(argv=None) -> int:
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "gen":
        from .gen import cmd_gen as command
    elif args.command == "verify":
        from .suites import cmd_verify as command
    else:
        command = cmd_compute
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
