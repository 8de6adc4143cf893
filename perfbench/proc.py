"""Start one `tspan` process at a time and collect its exit code, wall time and peak RSS."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# What the `tspan` console script runs.
ENTRY = "import sys; from tightspan.cli import main; sys.exit(main())"

# A report that has not finished by then is killed and counts as failed.
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Run:
    code: int | None  # None when killed at the timeout
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def tspan(src: str, args: list[str], workdir: str) -> Run:
    """Run `tspan <args>` against the package in `src` and wait for it to end.

    Wall time runs from just before the spawn to the reaping of the child;
    the peak RSS is the child's own, read from its rusage.
    """
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    env = dict(os.environ, PYTHONPATH=src)
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, *args], stdout=out, stderr=err, env=env, cwd=workdir
        )
        # Popen.kill polls first, so it never signals a child already reaped below.
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code == -signal.SIGKILL and wall >= TIMEOUT_S:
            code = None
        out.seek(0)
        err.seek(0)
        return Run(
            code,
            wall,
            usage.ru_maxrss / 1024,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )
