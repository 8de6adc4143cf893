"""The acceptance suites of `tspan verify`, and the random generic fixtures they draw.

Each suite prints one pass/FAIL row per check and a closing suite line:
identities (the alternating identities and the bound recursion, no
subdivision), paper-examples (the four-point metric, dmax and dmin at n = 5
and 6), bounds (dmax attains every F_k(n) and dmin the top-face lower bound,
n = 4..--n-max) and oracle-random (the primal crosscheck of the first
generic gen_random metrics).  identities and bounds refuse --n-max outside
4..64 before any row is computed.  Only `tspan verify` loads this module;
the suites that draw metrics import their generators where they run, so
the identities suite loads no gen.py.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import PreconditionViolated, TightSpanError
from .metrics import Metric, _require_points, validate_metric

if TYPE_CHECKING:  # pragma: no cover
    from .facevectors import FaceReport


def _verify_lines(suite: str, args) -> tuple[list[str], bool]:
    lines = []
    ok_all = True

    def item(name: str, ok: bool) -> None:
        nonlocal ok_all
        ok_all &= ok
        lines.append(f"{'pass' if ok else 'FAIL'}  {name}")

    if suite in ("identities", "bounds"):
        # the largest n is refused before any row is computed
        if args.n_max < 4:
            raise PreconditionViolated("need n_max >= 4")
        _require_points(args.n_max)

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
        from .gen import gen_dmax, gen_dmin

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
        from .gen import gen_dmax, gen_dmin

        # dmax attains every F_k(n); dmin has dimension ceil(n/3) and
        # exactly lower_bound_top(n) top faces
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


_MAX_TRIES = 400


@lru_cache(maxsize=None)
def random_generic_metrics(n: int, count: int) -> tuple[tuple[int, Metric], ...]:
    """First `count` seeds from 1 whose random metric is generic."""
    from .gen import gen_random
    from .subdivision import compute_subdivision

    out = []
    for seed in range(1, _MAX_TRIES + 1):
        if len(out) == count:
            break
        d = gen_random(n, seed)
        if compute_subdivision(d).generic:
            out.append((seed, d))
    if len(out) < count:
        raise PreconditionViolated(f"only {len(out)} generic metrics found in {_MAX_TRIES} seeds")
    return tuple(out)
