"""Closed-form face-count bounds, recursions, and the binomial identities behind them.

All values are exact integers; the closed form for the k-face bound is a
rational expression whose integrality is asserted rather than assumed.  The
alternating binomial identities are checked on their full valid domain,
which excludes the isolated lattice points where the plain alternating row
sum does not collapse (k = n for the first identity, n - 2k + j = 0 for the
second); unit tests pin the nonzero values at those excluded points.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .common import Verdict
from .errors import PreconditionViolated
from .metrics import Metric

if TYPE_CHECKING:  # pragma: no cover
    from .facevectors import TightSpanVectors


def F_bound(n: int, k: int) -> int:
    """Largest possible number of k-faces of a tight span on n points, n >= 1."""
    if n < 1:
        raise PreconditionViolated("face bound stated for n >= 1")
    if not 0 <= k <= n // 2:
        raise PreconditionViolated(f"k must lie in 0..{n // 2} for n={n}")
    value = Fraction(2) ** (n - 2 * k - 1) * Fraction(n, n - k) * comb(n - k, k)
    if value.denominator != 1:
        raise AssertionError(f"bound formula not integral at ({n},{k}): {value}")
    return value.numerator


def f_bound_or_zero(n: int, k: int) -> int:
    """F_bound extended by zero above the dimension cap (for the recursion)."""
    if k < 0 or k > n // 2:
        return 0
    return F_bound(n, k)


def H_bound(n: int, k: int, ideal: bool) -> int:
    """Largest h-vector entry: C(n,2k), minus n at k = 1 for ideal metrics."""
    if not 0 <= k <= n // 2:
        raise PreconditionViolated(f"k must lie in 0..{n // 2} for n={n}")
    value = comb(n, 2 * k)
    if ideal and k == 1:
        value -= n
    return value


def lower_bound_top(n: int) -> int:
    """Guaranteed number of top faces when the tight span has dimension ceil(n/3)."""
    if n < 4:
        raise PreconditionViolated("lower bound stated for n >= 4")
    k, r = divmod(n, 3)
    if r == 0:
        return n * 3 ** (k - 2) + 3**k
    if r == 1:
        return 3 ** (k - 1)
    return 5 * 3 ** (k - 1)


def identity_sum_a(n: int, k: int) -> int:
    """sum_i (-1)^(i+k) C(n,i) C(i,k-1) (n-i); equals n when k = 1, else 0 for k < n."""
    total = 0
    for i in range(1, n + 1):
        if k - 1 < 0 or k - 1 > i:
            continue
        total += (-1) ** (i + k) * comb(n, i) * comb(i, k - 1) * (n - i)
    return total


def identity_sum_b(n: int, k: int, j: int) -> int:
    """sum_{i>=j} (-1)^(i+j-1) C(n,i) C(i,j) C(n-i, 2(k-j)); zero unless n-2k+j = 0."""
    total = 0
    for i in range(j, n + 1):
        c = comb(n - i, 2 * (k - j)) if 0 <= 2 * (k - j) <= n - i else 0
        if c:
            sign = -1 if (i + j - 1) % 2 else 1
            total += sign * comb(n, i) * comb(i, j) * c
    return total


def identity_checks(n_max: int) -> Verdict:
    """Both alternating identities over their full valid domain up to n_max."""
    if n_max < 4:
        raise PreconditionViolated("need n_max >= 4")
    for n in range(1, n_max + 1):
        for k in range(0, n):  # the collapse needs n - k >= 1
            expected = n if k == 1 else 0
            got = identity_sum_a(n, k)
            if got != expected:
                return Verdict(False, ("a", n, k, got, expected))
        for k in range(0, n + 1):
            for j in range(0, k + 1):
                if n - 2 * k + j == 0:
                    continue  # the alternating row does not collapse here
                got = identity_sum_b(n, k, j)
                if got != 0:
                    return Verdict(False, ("b", n, k, j, got, 0))
    return Verdict(True)


def verify_metric_against_bounds(d: Metric, tv: TightSpanVectors) -> Verdict:
    """Every face and h count against its proven bound.

    The top-face lower bound applies only when the tight span has the least
    possible dimension ceil(n/3), and only for n >= 4, where it is stated.
    The bounds are theorems, so a failed verdict, its witness the message
    naming the first broken bound, is an implementation bug.
    """
    n = d.n
    for k in range(0, n // 2 + 1):
        fv = tv.fT[k] if k < len(tv.fT) else 0
        hv = tv.hT[k] if k < len(tv.hT) else 0
        fb = F_bound(n, k)
        hb = H_bound(n, k, ideal=False)
        if fv > fb:
            return Verdict(False, f"f_{k} = {fv} exceeds bound {fb} at n={n}")
        if hv > hb:
            return Verdict(False, f"h_{k} = {hv} exceeds bound {hb} at n={n}")

    dim = tv.dim
    low, high = -(-n // 3), n // 2
    if not low <= dim <= high:
        return Verdict(False, f"dim {dim} outside [{low}, {high}] at n={n}")
    if dim == low and n >= 4:
        top_count, top_lower = tv.fT[dim], lower_bound_top(n)
        if top_count < top_lower:
            return Verdict(False, f"top count {top_count} below lower bound {top_lower} at n={n}")
    return Verdict(True)
