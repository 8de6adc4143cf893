"""Independent correctness gate, applied to every `tspan compute` report.

A report is *good* when its exit code is one its input may document and the
checks below pass, and *failed* when the program exits with a code other
than 0, 3 or 4, prints a traceback or times out.  It is *wrong* when it
fails a check below, when it exits 4 (the program's own verdict that one of
its `checks` fails), or when it exits 3 on a dmax or dmin input, which is
generic by construction.

Exit 0 or 4 (generic):
  * the exported cells are distinct and cover volume 2^(n-1) - n, each
    cell's volume being recomputed here from its edges as 2^(components - 1);
  * every entry of the report's `checks` passes;
  * dmax: fT equals the closed-form row F(n, k), k = 0..n/2;
  * dmin: the tight span has dimension ceil(n/3) and its top-face count is
    the closed-form lower bound.
Exit 3 (non-generic): the printed witness is re-checked with the library's
`lambda_certificate`, which must give a DegeneracyReport whose heights meet
d with equality on the printed pair, or, for a diagonal pair {i,i}, a Cell
whose height at i is not positive.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

from inputs import Input

GOOD, FAILED, WRONG = "good", "failed", "wrong"


def f_bound_row(n: int) -> list[Fraction]:
    """2^(n-2k-1) * n/(n-k) * C(n-k, k) for k = 0..floor(n/2)."""
    return [Fraction(2) ** (n - 2 * k - 1) * Fraction(n, n - k) * comb(n - k, k) for k in range(n // 2 + 1)]


def top_lower_bound(n: int) -> int:
    """Least top-face count of a tight span of the least dimension ceil(n/3)."""
    k, r = divmod(n, 3)
    if r == 0:
        return n * 3 ** (k - 2) + 3**k
    if r == 1:
        return 3 ** (k - 1)
    return 5 * 3 ** (k - 1)


def cell_volume(n: int, edges: list[list[int]]) -> int:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    return 1 << (len({find(v) for v in range(1, n + 1)}) - 1)


def check_generic(inp: Input, payload: dict, cells: dict) -> str | None:
    """Reason the exit-0 report is wrong, or None."""
    n = inp.n
    if payload.get("generic") is not True or payload.get("n") != n:
        return "exit 0 without generic: true"
    if len(cells["cells"]) != payload["cells"]:
        return f"exported {len(cells['cells'])} cells, report says {payload['cells']}"
    if len({str(sorted(c["edges"])) for c in cells["cells"]}) != len(cells["cells"]):
        return "exported cells repeat"
    volume = sum(cell_volume(n, c["edges"]) for c in cells["cells"])
    if volume != (1 << (n - 1)) - n:
        return f"volume {volume} != 2^{n - 1} - {n}"
    checks = payload.get("checks") or {}
    failing = [name for name, ok in checks.items() if ok is not True]
    if not checks or failing:
        return f"checks not passing: {failing or 'none reported'}"
    fT = payload["fT"]
    if inp.family == "dmax" and fT != f_bound_row(n):
        return f"dmax fT {fT} != F row {[str(v) for v in f_bound_row(n)]}"
    if inp.family == "dmin":
        if len(fT) - 1 != -(-n // 3):
            return f"dmin dimension {len(fT) - 1} != ceil({n}/3)"
        if fT[-1] != top_lower_bound(n):
            return f"dmin top count {fT[-1]} != {top_lower_bound(n)}"
    return None


def check_witness(ts, inp: Input, payload: dict) -> str | None:
    """Reason the exit-3 report is wrong, or None; `ts` is the imported library."""
    sub = ts.subdivision
    witness = payload.get("witness")
    if payload.get("generic") is not False or not witness:
        return "exit 3 without a witness"
    n = inp.n
    edges = [(int(a), int(b)) for a, b in re.findall(r"\{(\d+),(\d+)\}", witness["graph"])]
    i, j = witness["pair"]
    d = ts.metrics.metric_from_upper(n, inp.upper)
    try:
        cert = sub.lambda_certificate(d, ts.graphs.EdgeGraph.from_edges(n, edges))
    except ts.errors.TightSpanError as exc:
        return f"witness graph rejected: {exc}"
    if i == j:
        if isinstance(cert, sub.Cell) and cert.heights[i - 1] <= 0:
            return None
        return f"diagonal witness {{{i},{i}}} not confirmed: {type(cert).__name__}"
    if (
        isinstance(cert, sub.DegeneracyReport)
        and (i, j) not in edges
        and cert.heights[i - 1] + cert.heights[j - 1] == d.d(i, j)
    ):
        return None
    return f"witness pair {{{i},{j}}} not confirmed: {type(cert).__name__}"


def judge(ts, inp: Input, code: int | None, stdout: str, stderr: str, cells_path: str) -> tuple[str, str]:
    """(status, reason) of one report; code None means the run timed out."""
    if code is None:
        return FAILED, "timed out"
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1]
        return FAILED, f"exit {code} with traceback: {last}"
    if code not in (0, 3, 4):
        return FAILED, f"exit {code}, documented {sorted(inp.expect)}"
    if code not in inp.expect and code != 4:
        return WRONG, f"exit {code} on {inp.name}, documented {sorted(inp.expect)}"
    try:
        payload = json.loads(stdout)
        if code == 3:
            reason = check_witness(ts, inp, payload)
        else:
            with open(cells_path, encoding="utf-8") as fh:
                reason = check_generic(inp, payload, json.load(fh))
            if code == 4 and not reason:
                reason = "exit 4 though every check passes"
    except (ValueError, KeyError, TypeError, OSError) as exc:
        reason = f"unreadable report: {type(exc).__name__}: {exc}"
    return (WRONG, reason) if reason else (GOOD, "")
