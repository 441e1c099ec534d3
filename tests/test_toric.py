import random
from fractions import Fraction

import pytest

from toroidal.chart import SMOOTH, verify_toroidal_form
from toroidal.linalg import rank
from toroidal.toric import (
    LocalModelDims,
    ToricMorphismData,
    normalize_toric_presentation,
    validate_toric_morphism,
)
from toroidal.units import UnitValue
from generators import random_toric_data


def data(matrix, d, n, m, ell):
    return ToricMorphismData(LocalModelDims(d, n), LocalModelDims(m, ell),
                             tuple(tuple(r) for r in matrix))


IDENTITY2 = data([[1, 0], [0, 1]], d=2, n=2, m=2, ell=2)


class TestValidate:
    def test_identity_valid(self):
        assert validate_toric_morphism(IDENTITY2).ok

    def test_block_condition(self):
        bad = data([[1, 0], [1, 1]], d=2, n=1, m=2, ell=1)
        report = validate_toric_morphism(bad)
        assert any(code == "block" for code, _ in report.failures)

    def test_rank_deficient(self):
        bad = data([[1, 1], [1, 1]], d=2, n=2, m=2, ell=2)
        report = validate_toric_morphism(bad)
        assert any(code == "rank" for code, _ in report.failures)

    def test_uncovered_divisor_column(self):
        bad = data([[1, 0], [2, 0]], d=2, n=2, m=2, ell=2)
        report = validate_toric_morphism(bad)
        assert any(code == "column" for code, _ in report.failures)


class TestNormalize:
    def test_worked_example(self):
        d = data([[1, 1, 1], [2, 2, 1]], d=3, n=2, m=2, ell=2)
        pres = normalize_toric_presentation(d)
        assert pres.r == 1
        assert pres.elimination == ((Fraction(1),),)
        assert pres.c_block == ((Fraction(-1),),)
        assert rank(pres.c_block) == 1
        assert pres.chart.matrix == ((1, 1), (2, 2))
        assert verify_toroidal_form(pres.chart).ok
        # The translated constant is the torus coordinate to the power -1.
        assert pres.constants == (UnitValue.symbol("a2", -1),)

    def test_identity_block_no_torus_columns(self):
        pres = normalize_toric_presentation(IDENTITY2)
        assert pres.r == 2
        assert pres.elimination == ((), ())
        assert pres.c_block == ()
        assert pres.constants == ()
        assert pres.chart.matrix == IDENTITY2.matrix

    def test_torus_to_torus_is_smooth(self):
        d = data([[2, 1], [1, 1]], d=2, n=0, m=2, ell=0)
        pres = normalize_toric_presentation(d)
        assert pres.r == 0
        assert pres.chart.tag == SMOOTH
        assert len(pres.constants) == 2

    def test_explicit_alphas(self):
        d = data([[1, 1, 1], [2, 2, 1]], d=3, n=2, m=2, ell=2)
        pres = normalize_toric_presentation(d)
        # alpha^(-1), alpha the torus coordinate's symbol a2.
        assert pres.constants == (UnitValue.symbol("a2", -1),)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_toric_presentation(
                data([[1, 1], [1, 1]], d=2, n=2, m=2, ell=2))

    def test_random_corpus(self):
        rng = random.Random(71)
        for _ in range(100):
            d = random_toric_data(rng)
            pres = normalize_toric_presentation(d)
            assert rank(pres.c_block) == d.m - pres.r
            divisor_block = [row[:d.n] for row in d.matrix[:d.ell]]
            assert pres.r == rank(divisor_block)
            if d.ell:
                assert verify_toroidal_form(pres.chart).ok
            # Permutations are genuine bijections.
            assert sorted(pres.row_perm) == list(range(d.m))
            assert sorted(pres.col_perm) == list(range(d.d))
