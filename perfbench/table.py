"""Print one row per workload with every end-to-end metric, its unit and sample count.

    python3 perfbench/table.py --seed 1

Each row comes from one untraced run of run.py; reasons for failed or wrong
reports go to stderr.  Exits 1 when any workload reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(run_seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"{name}: run.py exited {proc.returncode}", file=sys.stderr)
            correct = False
            continue
        print(lines[-2], flush=True)
        correct &= json.loads(lines[-1])["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
