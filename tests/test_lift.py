import random
from fractions import Fraction

import pytest

from toroidal.blowup import BlowupCenterChart, blowup_transform
from toroidal.chart import (
    QTF1,
    QTF2,
    TOROIDAL,
    CenterDescriptor,
    ChartForm,
    derive_center_form,
    smooth_chart,
    verify_toroidal_form,
)
from toroidal.lift import (
    CASE1,
    CASE2,
    CASE3,
    SMOOTH_CASE,
    FreshParam,
    lift_after_principalization,
    lift_case,
    verify_commutes,
)
from toroidal.principalize import nonprincipal_locus
from toroidal.units import Stratum, TRIVIAL_UNIT, UnitToken, UnitValue
from generators import blowup_triples
from oracles import rebuilt_chart
from test_blowup import adapted, choice_for

def unit_of(value):
    return UnitToken(UnitValue.of(value))


class TestLiftCase:
    def test_min_row_case(self):
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        assert lift_case(cf) == CASE1

    def test_generating_slot_case(self):
        cf = ChartForm(d=3, m=2, n=2, ell=1, s=1, tag=QTF1,
                       matrix=((2, 1), (1, 0)),
                       units=(TRIVIAL_UNIT,) * 2,
                       betas=(Stratum.generic("g"),), ell_bar=1)
        assert lift_case(cf) == CASE2

    def test_smooth_case(self):
        z = CenterDescriptor(0, 2)
        cf, _ = derive_center_form(smooth_chart(3, 2), z)
        blown = blowup_transform(cf, BlowupCenterChart((), 2),
                                 choice_for(cf.slot_var(0), zero_vars=(1,)))
        assert lift_case(blown.chart) == SMOOTH_CASE

    def test_nonprincipal_rejected(self):
        cf = adapted([[1, 0], [0, 1]], ell_bar=2, s=0)
        with pytest.raises(ValueError):
            lift_case(cf)

    def test_adaptedness_checked_by_the_pullback(self):
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        with pytest.raises(ValueError, match="^pullback needs a center-adapted chart$"):
            lift_case(rebuilt_chart(cf, tag=TOROIDAL, ell_bar=0))


class TestCase1:
    def test_identity_like_lift(self):
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        result = lift_after_principalization(cf)
        assert result.skeleton.case == CASE1
        assert result.lifted.matrix == ((1, 0), (0, 1))
        assert result.skeleton.row_sources == (("gen", 0), ("strict", 1))
        assert result.lifted.ell == 2
        assert verify_commutes(cf, result).ok

    def test_vanishing_row_produces_fresh_parameter(self):
        cf = ChartForm(d=3, m=2, n=2, ell=2, s=0, tag=QTF1,
                       matrix=((1, 2), (1, 2)),
                       units=(TRIVIAL_UNIT, unit_of(3)), ell_bar=2)
        result = lift_after_principalization(cf)
        assert result.lifted.matrix == ((1, 2),)
        assert result.lifted.ell == 1
        assert result.skeleton.row_sources == (("gen", 0),)
        param = result.fresh[0]
        assert param.source == ("row", 1)
        assert param.shift == UnitValue.of(3)
        assert verify_commutes(cf, result).ok

    def test_generic_unit_ratio(self):
        cf = ChartForm(d=3, m=2, n=2, ell=2, s=0, tag=QTF1,
                       matrix=((1, 1), (1, 1)),
                       units=(UnitToken(UnitValue.symbol("u")), TRIVIAL_UNIT),
                       ell_bar=2)
        result = lift_after_principalization(cf)
        assert result.fresh[0].shift == UnitValue.symbol("u", -1)
        assert verify_commutes(cf, result).ok


class TestCase2:
    def test_slot_generator(self):
        cf = ChartForm(d=3, m=2, n=2, ell=1, s=1, tag=QTF1,
                       matrix=((2, 1), (1, 0)),
                       units=(unit_of(5), TRIVIAL_UNIT),
                       betas=(Stratum.of_value(Fraction(2)),), ell_bar=1)
        result = lift_after_principalization(cf)
        assert result.skeleton.case == CASE2
        assert result.lifted.matrix == ((1, 0), (1, 1))
        gen_const = result.lifted.units[0].constant()
        assert gen_const == UnitValue.of(2)
        strict_const = result.lifted.units[1].constant()
        assert strict_const == UnitValue.of(Fraction(5, 2))
        assert verify_commutes(cf, result).ok


class TestCase3:
    def test_qtf2_generator(self):
        cf = ChartForm(d=4, m=2, n=3, ell=1, s=1, tag=QTF2,
                       matrix=((2, 1, 2), (0, 0, 1)),
                       units=(TRIVIAL_UNIT,) * 2,
                       betas=(None,), ell_bar=1)
        result = lift_after_principalization(cf)
        assert result.skeleton.case == CASE3
        assert result.lifted.matrix == ((0, 0, 1), (2, 1, 1))
        assert verify_commutes(cf, result).ok


class TestOutsideDivisor:
    def test_smooth_round_trip(self):
        z = CenterDescriptor(0, 2)
        cf, _ = derive_center_form(smooth_chart(3, 2), z)
        blown = blowup_transform(cf, BlowupCenterChart((), 2),
                                 choice_for(cf.slot_var(0), zero_vars=(1,)))
        result = lift_after_principalization(blown.chart)
        assert result.lifted.ell == 0 and result.lifted.n == 0
        assert result.skeleton.drop_col is not None
        assert verify_commutes(blown.chart, result).ok

    def test_divisor_chart_outside_center(self):
        base = ChartForm(d=4, m=3, n=2, ell=1, s=0, tag="toroidal",
                         matrix=((2, 1),), units=(TRIVIAL_UNIT,))
        z = CenterDescriptor(0, 2)
        cf, _ = derive_center_form(base, z)
        blown = blowup_transform(cf, BlowupCenterChart((), 2),
                                 choice_for(cf.slot_var(0), zero_vars=(3,)))
        result = lift_after_principalization(blown.chart)
        assert result.lifted.matrix == ((2, 1),)
        assert result.lifted.ell == 1
        assert verify_commutes(blown.chart, result).ok


class TestVerifyCommutes:
    @staticmethod
    def corrupted_exponent():
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        result = lift_after_principalization(cf)
        bad = rebuilt_chart(result.lifted, matrix=((1, 1), (0, 1)))
        return cf, result._replace(lifted=bad)

    @staticmethod
    def corrupted_shift():
        cf = ChartForm(d=3, m=2, n=2, ell=2, s=0, tag=QTF1,
                       matrix=((1, 2), (1, 2)),
                       units=(TRIVIAL_UNIT, unit_of(3)), ell_bar=2)
        result = lift_after_principalization(cf)
        bad_fresh = (result.fresh[0]._replace(shift=UnitValue.of(7)),)
        return cf, result._replace(fresh=bad_fresh)

    def test_detects_corrupted_exponent(self):
        assert not verify_commutes(*self.corrupted_exponent()).ok

    def test_detects_corrupted_constant(self):
        assert not verify_commutes(*self.corrupted_shift()).ok

    @staticmethod
    def strict_row_relabelled_kept():
        # The skeleton passes the strict row off as kept, unreduced and
        # with its original constant; its own row kinds would accept it.
        cf = rebuilt_chart(adapted([[1, 0], [1, 1]], ell_bar=2, s=0),
                           units=(TRIVIAL_UNIT, unit_of(3)))
        result = lift_after_principalization(cf)
        sk = result.skeleton._replace(row_sources=(("gen", 0), ("kept", 1)))
        lifted = rebuilt_chart(result.lifted, matrix=(cf.matrix[0], cf.matrix[1]),
                               units=cf.units)
        return cf, result._replace(skeleton=sk, lifted=lifted)

    @staticmethod
    def row_covered_twice():
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        result = lift_after_principalization(cf)
        one = UnitValue.of(1)
        return cf, result._replace(fresh=(FreshParam(("row", 1), one, one),))

    @staticmethod
    def divisor_row_meets_dropped_column():
        cf = ChartForm(d=3, m=3, n=2, ell=1, s=2, tag=QTF2,
                       matrix=((1, 0), (0, 1), (0, 1)), units=(TRIVIAL_UNIT,) * 3,
                       betas=(None, Stratum.zero()))
        result = lift_after_principalization(cf)
        assert result.skeleton.drop_col == 1
        return rebuilt_chart(cf, matrix=((1, 1),) + cf.matrix[1:]), result

    # Every corrupted lift above, for the tests that compare checks.
    CORRUPTIONS = ("corrupted_exponent", "corrupted_shift", "strict_row_relabelled_kept",
                   "row_covered_twice", "divisor_row_meets_dropped_column")

    @pytest.mark.parametrize("corruption, first_failure", [
        ("strict_row_relabelled_kept", ("exponent", "row 1 does not recompose")),
        ("row_covered_twice", ("coverage", "row 1 is covered twice")),
        ("divisor_row_meets_dropped_column", ("exponent", "row 0 does not recompose")),
    ], ids=["relabelled", "covered_twice", "dropped_column"])
    def test_detects_corrupted_lift(self, corruption, first_failure):
        cf, result = getattr(self, corruption)()
        assert verify_commutes(cf, result).failures[0] == first_failure


class TestRandomCorpus:
    def test_lifts_commute_and_are_toroidal(self):
        rng = random.Random(137)
        lifted = 0
        for cf, z, center, choice, child in blowup_triples(rng, 150):
            if nonprincipal_locus(child) is not None:
                continue
            out = lift_after_principalization(child)
            assert verify_toroidal_form(out.lifted).ok
            assert verify_commutes(child, out).ok, (child, out.skeleton, out.fresh)
            lifted += 1
        assert lifted > 50
