#!/usr/bin/env python3
"""Estimate how often random rational metrics are generic, by size and resolution.

Usage:
    python scripts/genericity_survey.py [--n 5 6] [--seeds 50] [--resolution R]

Random metrics draw entries 1 + k/resolution, so coarser resolutions force
more height coincidences; the survey prints the non-generic seeds and the
observed tight-span dimension spectrum of the generic ones.
"""

import argparse
import sys
from collections import Counter

from tightspan.errors import PreconditionViolated
from tightspan.facevectors import face_report
from tightspan.metrics import gen_random
from tightspan.subdivision import compute_subdivision


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, nargs="+", default=[5, 6])
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--resolution", type=int, default=0)
    args = ap.parse_args()
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    try:  # the generator's own checks of n and the resolution, before any output
        for n in args.n:
            gen_random(n, 1, args.resolution)
    except PreconditionViolated as exc:
        print(f"error: PreconditionViolated: {exc}", file=sys.stderr)
        return 2

    for n in args.n:
        bad = []
        dims = Counter()
        for seed in range(1, args.seeds + 1):
            d = gen_random(n, seed, args.resolution)
            sub = compute_subdivision(d)
            if not sub.generic:
                bad.append(seed)
                continue
            dims[face_report(sub).span.dim] += 1
        rate = (args.seeds - len(bad)) / args.seeds
        print(f"n = {n}: {rate:.0%} generic over {args.seeds} seeds")
        if bad:
            print(f"  non-generic seeds: {bad}")
        print(f"  span dimensions: {dict(sorted(dims.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
