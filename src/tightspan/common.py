"""Shared helpers: pair indexing, the pivot step, exact rational parsing, verdicts.

Nodes are numbered 1..n throughout.  The C(n,2) unordered pairs {i,j}, i<j,
are laid out in lexicographic order (1,2),(1,3),...,(1,n),(2,3),...,(n-1,n);
pair_index gives the 0-based slot of a pair in that order.

pivot is the one elimination step of the package: the primal oracle solves
all its linear systems with it, in integers, and so does the matching LP of
the tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionViolated


def pair_index(n: int, i: int, j: int) -> int:
    """Slot of the pair {i,j} of distinct nodes in 1..n, in lexicographic order."""
    if not (0 < i <= n and 0 < j <= n) or i == j:
        raise PreconditionViolated(f"edge ({i},{j}) not in K_{n}")
    if i > j:
        i, j = j, i
    return (i - 1) * n - i * (i + 1) // 2 + j - 1


@lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs {i,j} of 1..n in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pivot(T: list[list[int]], r: int, c: int, scale: int) -> int:
    """Fraction-free Gauss-Jordan step on an integer table; returns the new scale.

    T holds scale * B^-1 [A | b] for the current basis B.  Row r stays as it
    is and every other row becomes (a*p - f*b) // scale, where p = T[r][c]
    is the new scale.  Every entry is then a minor of [A | b] (Edmonds,
    Bareiss), so the division is exact.
    """
    prow = T[r]
    p = prow[c]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            T[i] = [(a * p - f * b) // scale for a, b in zip(row, prow)]
        elif p != scale:  # f = 0 only rescales the row
            T[i] = [a * p // scale for a in row]
    return p


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")

# digits per piece below CPython's default int <-> str limit of 4,300 digits
_PIECE = 4000


def _int_of(digits: str) -> int:
    """int(digits) for a validated decimal string, past the int <-> str digit limit.

    Longer strings are split in halves, so no conversion meets the limit and
    the interpreter-wide setting stays as it is.
    """
    if len(digits) <= _PIECE:
        return int(digits)
    if digits[0] in "+-":
        value = _int_of(digits[1:])
        return -value if digits[0] == "-" else value
    k = len(digits) // 2
    return _int_of(digits[:-k]) * 10**k + _int_of(digits[-k:])


def _str_of(x: int) -> str:
    """str(x), past the int <-> str digit limit by splitting x in decimal halves."""
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + _str_of(-x)
    k = x.bit_length() * 3 // 20  # about half of x's decimal digits
    high, low = divmod(x, 10**k)
    return _str_of(high) + _str_of(low).zfill(k)


# characters of a bad entry's repr that its error message quotes
_QUOTED = 60


def _quote(value: object) -> str:
    """repr(value) for an error message, cut to a fixed-length prefix, for ints of any size."""
    text = _str_of(value) if isinstance(value, int) else repr(value)
    return text if len(text) <= _QUOTED else text[:_QUOTED] + "..."


def parse_rational(value: object) -> Fraction:
    """Exact rational from "p/q" or "p" strings or int; floats are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"floating-point literal rejected: {value!r}")
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError(f"floating-point literal rejected: {_quote(value)}")
        # ASCII digits only: int() would also take "1_0" and non-ASCII digits
        match = _RATIONAL.fullmatch(text)
        if match:
            num, den = match.groups()
            if den is None:
                return Fraction(_int_of(num))
            if _int_of(den) == 0:
                raise ValueError(f"zero denominator: {_quote(value)}")
            return Fraction(_int_of(num), _int_of(den))
    raise ValueError(f"not a rational: {_quote(value)}")


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" text, plain "p" for integers."""
    if q.denominator == 1:
        return _str_of(q.numerator)
    return f"{_str_of(q.numerator)}/{_str_of(q.denominator)}"


class Verdict(NamedTuple):
    """Boolean check outcome with an optional witness for failures."""

    ok: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok
