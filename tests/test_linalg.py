import random
from fractions import Fraction

import pytest

from toroidal.linalg import greedy_pivot_cols, greedy_pivot_rows, rank
from oracles import reference_rank


def _entry(rng, kind):
    x = rng.randint(-4, 4)
    if kind == "fraction":
        return Fraction(x, rng.randint(1, 5))
    return x


def random_matrix(rng, kind, rows, cols):
    """Entries in [-4, 4] (over 1..5 for `Fraction`s).  Some rows are zero
    and some are combinations of earlier rows, so rank deficiency is
    common."""
    out = []
    for _ in range(rows):
        roll = rng.random()
        if roll < 0.15:
            row = [0] * cols if kind == "int" else [Fraction(0)] * cols
        elif roll < 0.4 and out:
            a, b = rng.choice(out), rng.choice(out)
            p, q = rng.randint(-2, 2), rng.randint(-2, 2)
            row = [p * x + q * y for x, y in zip(a, b)]
        else:
            row = [_entry(rng, kind) for _ in range(cols)]
        out.append(row)
    return out


def _shapes(rng):
    yield 1, rng.randint(1, 6)
    yield rng.randint(1, 6), 1
    yield rng.randint(1, 6), rng.randint(1, 6)


def greedy_rows_by_prefix_rank(matrix):
    """Row i is a pivot when it raises the rank of the rows before it."""
    return [i for i in range(len(matrix))
            if reference_rank(matrix[:i + 1]) > reference_rank(matrix[:i])]


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_rank_and_pivots_match_the_reference(kind):
    rng = random.Random(9001 if kind == "int" else 9002)
    ranks = set()
    for _ in range(300):
        for rows, cols in _shapes(rng):
            matrix = random_matrix(rng, kind, rows, cols)
            before = [list(row) for row in matrix]
            r = rank(matrix)
            assert r == reference_rank(matrix), matrix
            assert matrix == before
            assert greedy_pivot_rows(matrix) == greedy_rows_by_prefix_rank(matrix), matrix
            transposed = [list(col) for col in zip(*matrix)]
            assert greedy_pivot_cols(matrix) == greedy_rows_by_prefix_rank(transposed), matrix
            ranks.add((min(rows, cols), r))
    # Full rank, deficient rank and rank zero all occur.
    assert {r for _, r in ranks} >= {0, 1, 2, 3}
    assert any(r < full for full, r in ranks if r)


def test_degenerate_shapes():
    assert rank([]) == 0 and rank([[]]) == 0
    assert rank([[0, 0, 0]]) == 0 and rank([[0], [0]]) == 0
    assert rank([[0, -3, 0]]) == 1 and rank([[0], [Fraction(-1, 2)]]) == 1
    assert greedy_pivot_rows([]) == [] and greedy_pivot_cols([]) == []
    assert greedy_pivot_rows([[0, 0], [2, 4], [-1, -2], [0, 1]]) == [1, 3]
    assert greedy_pivot_cols([[0, 2, -1], [0, 4, 1]]) == [1, 2]
