"""Small exact linear algebra over the rationals.

Only what the engine needs: rank, greedy pivot selection in scan order,
and solving A X = B for an invertible square A.  `rank` eliminates
fraction-free on the entries as given (`int` or `Fraction`); solving and
multiplying work over `Fraction`s.  Nothing touches floating point.
"""

from __future__ import annotations

from fractions import Fraction


def rank(matrix) -> int:
    """Rank by fraction-free elimination, row_i <- p*row_i - f*row_r: `int`
    entries stay `int`, and `Fraction` entries work the same way."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, rows):
            f = m[i][c]
            if f:
                m[i] = [p * x - f * y for x, y in zip(m[i], top)]
        r += 1
        if r == rows:
            break
    return r


def greedy_pivot_rows(matrix) -> list[int]:
    """Row indices forming a basis of the row space, scanning in order."""
    chosen: list[int] = []
    kept: list = []
    for i, row in enumerate(matrix):
        if rank(kept + [row]) > len(chosen):
            chosen.append(i)
            kept.append(row)
    return chosen


def greedy_pivot_cols(matrix) -> list[int]:
    """Column indices forming a basis of the column space, scanning in order."""
    if not matrix:
        return []
    transposed = [[row[j] for row in matrix] for j in range(len(matrix[0]))]
    return greedy_pivot_rows(transposed)


def solve_square(a, b) -> list[list[Fraction]]:
    """Solve A X = B exactly for square invertible A; B given by rows."""
    n = len(a)
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(a, b)]
    wide = len(aug[0]) if aug else 0
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c]
        aug[c] = [x / inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:wide] for row in aug]


def mat_mul(a, b) -> list[list[Fraction]]:
    if not a or not b:
        return []
    cols = len(b[0])
    return [[sum((Fraction(x) * Fraction(b[k][j]) for k, x in enumerate(row)),
                 Fraction(0)) for j in range(cols)] for row in a]
