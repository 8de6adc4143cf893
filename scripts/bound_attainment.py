#!/usr/bin/env python3
"""Survey how the extremal metric families sit against the face-count bounds.

Usage:
    python scripts/bound_attainment.py [--n-max N]

For each n up to the cap, prints the bound row F_k(n), the tight-span
f-vectors of the two extremal families, and which entries are attained.
compute_subdivision traverses the ridges from one LP seed cell at every n.

Exits 4, after one `error:` line on stderr per miss, when the max family
misses some F_k(n) or the min family's top-face count differs from
lower_bound_top(n): the paper's bounds are attained there, so a miss is a
bug.
"""

import argparse
import sys
import time

from tightspan.bounds import F_bound, lower_bound_top, verify_metric_against_bounds
from tightspan.facevectors import face_report
from tightspan.metrics import gen_dmax, gen_dmin
from tightspan.subdivision import compute_subdivision


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=8)
    args = ap.parse_args()

    misses = []
    for n in range(4, args.n_max + 1):
        bounds = [F_bound(n, k) for k in range(n // 2 + 1)]
        print(f"n = {n}")
        print(f"  F_k bound      : {bounds}")
        for name, gen in (("max family", gen_dmax), ("min family", gen_dmin)):
            d = gen(n)
            t0 = time.monotonic()
            tv = face_report(d, compute_subdivision(d)).span
            rep = verify_metric_against_bounds(d, tv)
            marks = "".join("*" if r.f_attained else "." for r in rep.rows)
            print(
                f"  {name:<15}: fT = {list(tv.fT)}  attained[{marks}]"
                f"  dim = {rep.dim}  ({time.monotonic() - t0:.1f}s)"
            )
            if rep.top_count is not None:
                print(
                    f"  {'':<15}  top faces {rep.top_count}"
                    f" vs guaranteed {rep.top_lower_bound}"
                )
            if gen is gen_dmax and not rep.all_f_attained:
                misses.append(f"dmax{n} misses F_k({n}): fT = {list(tv.fT)}")
            if gen is gen_dmin and rep.top_count != lower_bound_top(n):
                misses.append(
                    f"dmin{n} has top count {rep.top_count} at dim {rep.dim},"
                    f" guaranteed {lower_bound_top(n)} at dim {rep.dim_low}"
                )
    for miss in misses:
        print(f"error: {miss}", file=sys.stderr)
    return 4 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
