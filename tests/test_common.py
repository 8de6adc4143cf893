"""The fraction-free pivot step against a plain Fraction Gauss-Jordan."""

from fractions import Fraction
from random import Random

import pytest

from tightspan.common import format_rational, parse_rational
from tightspan.primal import pivot


def _gauss_jordan(M, cols, step):
    """Eliminate the first cols columns of M in place; returns the pivot values.

    The pivot row of each column is the last candidate, swapped up into
    place, so most steps swap rows.  step(M, r, c) performs the pivot.
    """
    rank, pivots = 0, []
    for c in range(cols):
        rows = [r for r in range(rank, len(M)) if M[r][c]]
        if not rows:
            continue
        M[rank], M[rows[-1]] = M[rows[-1]], M[rank]
        pivots.append(M[rank][c])
        step(M, rank, c)
        rank += 1
    return pivots


def _fraction_step(M, r, c):
    M[r] = [x / M[r][c] for x in M[r]]
    for i in range(len(M)):
        if i != r and M[i][c]:
            f = M[i][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[r])]


def _matrix(rng, rows, cols):
    A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(4)
    if kind == 1 and rows > 1:  # a row that is a combination of two others
        i, j, k = (rng.randrange(rows) for _ in range(3))
        A[i] = [2 * a - 3 * b for a, b in zip(A[j], A[k])]
    elif kind == 2:  # a zero column
        c = rng.randrange(cols)
        for row in A:
            row[c] = 0
    return A


@pytest.mark.parametrize("size", range(1, 8))
def test_pivot_matches_fraction_gauss_jordan(size):
    rng = Random(size)
    for _ in range(60):
        rows = size
        cols = rng.choice([size, rng.randint(1, 7)])
        A = _matrix(rng, rows, cols)
        b = [rng.randint(-9, 9) for _ in range(rows)]
        T = [row + [bi] for row, bi in zip(A, b)]
        F = [[Fraction(x) for x in row] for row in T]

        scale = 1

        def int_step(M, r, c):
            nonlocal scale
            scale = pivot(M, r, c, scale)

        int_pivots = _gauss_jordan(T, cols, int_step)
        frac_pivots = _gauss_jordan(F, cols, _fraction_step)
        rank = len(frac_pivots)
        assert len(int_pivots) == rank  # ranks agree
        # every entry, the right side included, is scale times the Fraction table
        assert T == [[scale * x for x in row] for row in F]
        # the scale is the determinant of the pivoted minor, up to sign
        det = 1
        for p in frac_pivots:
            det *= p
        assert abs(scale) == abs(det)
        if rank == rows == cols:  # the solution of A x = b
            x = [Fraction(row[-1], scale) for row in T]
            assert all(sum(a * xi for a, xi in zip(row, x)) == bi for row, bi in zip(A, b))


def test_rational_text_round_trip_past_the_digit_limit():
    # 5,000-digit numerators and denominators, past CPython's default
    # 4,300-digit limit on int <-> str conversion
    rng = Random(5000)
    num = rng.randrange(10**4999, 10**5000)
    den = rng.randrange(10**4999, 10**5000) | 1
    for q in (Fraction(num, den), Fraction(-num, 7), Fraction(num, 10**5000 + 1)):
        assert parse_rational(format_rational(q)) == q
    # the low half of a split keeps its leading zeros
    assert format_rational(Fraction(10**5000 + 7)) == "1" + "0" * 4999 + "7"
    assert parse_rational("-" + "9" * 5000) == 1 - 10**5000
