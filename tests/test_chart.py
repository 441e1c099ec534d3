import random

import pytest

from toroidal.chart import (
    QTF1,
    QTF2,
    SMOOTH,
    TOROIDAL,
    CenterDescriptor,
    ChartForm,
    classify_form,
    column_minima,
    derive_center_form,
    extend_to_global_form,
    pullback_center_ideal,
    shape_failures,
    smooth_chart,
    structural_problems,
    verify_toroidal_form,
)
from toroidal.units import ONE, Stratum, TRIVIAL_UNIT, UnitToken, UnitValue, ZERO_STRATUM
from generators import random_toroidal_chart
from oracles import rebuilt_chart


def toroidal(matrix, d=None, m=None, **kw):
    ell = len(matrix)
    n = len(matrix[0]) if matrix else 0
    m = m if m is not None else ell
    d = d if d is not None else n + (m - ell)
    units = kw.pop("units", (TRIVIAL_UNIT,) * ell)
    return ChartForm(d=d, m=m, n=n, ell=ell, s=0, tag=TOROIDAL,
                     matrix=tuple(tuple(r) for r in matrix), units=units)


IDENTITY = toroidal([[1, 0], [0, 1]])


class TestVerifyToroidalForm:
    def test_identity_passes(self):
        assert verify_toroidal_form(IDENTITY).ok

    def test_zero_row_fails(self):
        report = verify_toroidal_form(toroidal([[1, 1], [0, 0]]))
        assert any(code == "row" for code, _ in report.failures)

    def test_zero_column_fails(self):
        report = verify_toroidal_form(toroidal([[1, 0], [2, 0]]))
        assert any(code == "column" for code, _ in report.failures)

    @staticmethod
    def adapted(tag, d, m, n, ell, s, matrix, ell_bar):
        betas = (ZERO_STRATUM,) * s if tag == QTF1 else (None,) + (ZERO_STRATUM,) * (s - 1)
        return ChartForm(d=d, m=m, n=n, ell=ell, s=s, tag=tag, ell_bar=ell_bar,
                         matrix=tuple(map(tuple, matrix)),
                         units=(TRIVIAL_UNIT,) * len(matrix), betas=betas)

    # Each (code, message) list the shape checks give, in their order: a
    # toroidal chart's report, then adapted charts, each (tag, fields of
    # `adapted`, failures).
    TOROIDAL_CASES = [
        (toroidal([[]], d=2, m=2), (("shape", "divisor image needs divisor variables"),
                                    ("row", "row 0 has zero sum"))),
        (toroidal([[1, 0], [2, 0]]), (("column", "column 1 has zero sum"),)),
        (toroidal([[1, 1], [0, 0]]), (("row", "row 1 has zero sum"),)),
    ]
    ADAPTED_CASES = [
        (QTF1, (3, 2, 2, 1, 1, [[1, 0], [0, 0]], 1),
         [("column", "column 1 has zero sum over rows [1]")]),
        (QTF2, (2, 2, 2, 1, 1, [[1, 0], [0, 0]], 1),
         [("column", "column 1 has zero sum over rows [2]"),
          ("row", "row 1 has zero sum")]),
        (QTF1, (4, 3, 2, 1, 2, [[1, 1], [0, 1], [1, 0]], 0),
         [("min-row", "slot row 0 column 1: 1 != min 0"),
          ("min-row", "slot row 1 column 0: 1 != min 0")]),
        (QTF1, (3, 2, 1, 0, 1, [[0]], 0),
         [("column", "column 0 has zero sum over rows [0]"),
          ("shape", "an ell=0 chart cannot carry divisor columns")]),
    ]

    def test_every_shape_message(self):
        for cf, expected in self.TOROIDAL_CASES:
            assert verify_toroidal_form(cf).failures == expected
        assert verify_toroidal_form(self.adapted(QTF1, 3, 2, 2, 1, 1, [[1, 0], [0, 0]], 1)
                                    ).failures == (("tag", "expected toroidal, found qtf1"),)
        for tag, fields, expected in self.ADAPTED_CASES:
            cf = self.adapted(tag, *fields)
            assert shape_failures(cf, tag) == expected, (tag, fields)
            assert classify_form(cf) == (None, {tag: expected})

    def test_unit_on_active_variable_rejected(self):
        with pytest.raises(ValueError):
            toroidal([[1, 0], [0, 1]],
                     units=(TRIVIAL_UNIT,
                            UnitToken().with_factor([(0, UnitValue.of(2), 1)])))


def unchecked(**fields) -> ChartForm:
    """A chart with `fields`, built without the constructor's check."""
    cf = object.__new__(ChartForm)
    cf.__dict__.update(fields)
    return cf


ADAPTED = dict(d=4, m=3, n=2, ell=2, s=1, tag=QTF1, matrix=((1, 0), (0, 1), (0, 0)),
               units=(TRIVIAL_UNIT,) * 3, betas=(ZERO_STRATUM,), ell_bar=1)
TOROIDAL_2 = dict(d=2, m=2, n=2, ell=2, s=0, tag=TOROIDAL, matrix=((1, 0), (0, 1)),
                  units=(TRIVIAL_UNIT,) * 2, betas=(), ell_bar=0)
EMPTY = dict(d=2, m=2, n=0, ell=0, s=0, matrix=(), units=(), betas=(), ell_bar=0)


def factor_on(var):
    return UnitToken().with_factor([(var, UnitValue.of(2), 1)])


class TestStructuralProblems:
    # One malformed chart per structural condition, with the exact list of
    # messages `structural_problems` returns for it, in its order.
    CASES = {
        "unknown_tag": ({**ADAPTED, "tag": "bogus", "n": -1}, ["unknown tag 'bogus'"]),
        "dimensions": ({**EMPTY, "tag": TOROIDAL, "n": -1},
                       ["dimension counts out of range"]),
        "smooth_counts": ({**EMPTY, "tag": SMOOTH, "d": 3, "n": 1},
                          ["smooth charts have n = ell = s = 0"]),
        "row_count": ({**TOROIDAL_2, "matrix": ((1, 0),), "units": (TRIVIAL_UNIT,)},
                      ["expected 2 matrix rows, found 1"]),
        "slots_on_toroidal": ({**TOROIDAL_2, "d": 3, "m": 3, "s": 1,
                               "betas": (ZERO_STRATUM,)},
                              ["only center-adapted charts carry slot rows"]),
        "qtf2_without_slots": ({**EMPTY, "tag": QTF2, "n": 1, "ell": 1,
                                "matrix": ((1,),), "units": (TRIVIAL_UNIT,)},
                               ["qtf2 needs at least one slot row"]),
        "row_length": ({**ADAPTED, "matrix": ((1, 0), (0,), (0, 0))},
                       ["row 1 has length 1 != n = 2"]),
        "negative_exponent": ({**ADAPTED, "matrix": ((1, 0), (0, -1), (0, 0))},
                              ["row 1 has a negative exponent"]),
        "unit_count": ({**ADAPTED, "units": (TRIVIAL_UNIT,) * 2},
                       ["one unit token per matrix row required"]),
        "beta_count": ({**ADAPTED, "betas": ()}, ["one beta entry per slot row required"]),
        "qtf1_none_beta": ({**ADAPTED, "betas": (None,)},
                           ["qtf1 slot rows all carry strata"]),
        "qtf2_beta_layout": ({**ADAPTED, "tag": QTF2, "ell": 1, "s": 2,
                              "matrix": ((1, 1), (0, 0), (0, 0)),
                              "betas": (ZERO_STRATUM, ZERO_STRATUM)},
                             ["qtf2 carries strata on slot rows 2..s only"]),
        "ell_bar_range": ({**ADAPTED, "ell_bar": 3}, ["ell_bar out of range"]),
        "ell_bar_on_toroidal": ({**TOROIDAL_2, "ell_bar": 1},
                                ["ell_bar only applies to center-adapted charts"]),
        "identity_rows": ({**ADAPTED, "m": 2},
                          ["more slot rows than spare target coordinates"]),
        "active_above_d": ({**ADAPTED, "d": 2}, ["active variables 3 exceed d = 2"]),
        "unit_on_active": ({**ADAPTED, "units": (
                                TRIVIAL_UNIT, factor_on(3).with_factor([(1, ONE, 2)]),
                                factor_on(0))},
                           ["unit of row 1 touches active variable 1",
                            "unit of row 2 touches active variable 0"]),
        "unit_beyond_d": ({**ADAPTED, "units": (factor_on(100), TRIVIAL_UNIT, factor_on(4))},
                          ["unit of row 0 touches variable 100 >= d = 4",
                           "unit of row 2 touches variable 4 >= d = 4"]),
        "order": ({**ADAPTED, "betas": (),
                   "units": (factor_on(4).with_factor([(2, ONE, 1)]),) * 3},
                  ["one beta entry per slot row required"]
                  + [f"unit of row {i} touches {what}" for i in range(3)
                     for what in ("active variable 2", "variable 4 >= d = 4")]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_every_structural_message(self, name):
        fields, expected = self.CASES[name]
        assert structural_problems(unchecked(**fields)) == expected

    def test_valid_charts_have_no_problems(self):
        for fields in (ADAPTED, TOROIDAL_2, {**EMPTY, "tag": SMOOTH}):
            assert structural_problems(unchecked(**fields)) == []
            assert ChartForm(**fields) == unchecked(**fields)


class TestClassify:
    def test_qtf1_with_s0_is_toroidal(self):
        cf = ChartForm(d=2, m=2, n=2, ell=2, s=0, tag=QTF1,
                       matrix=((1, 0), (0, 1)),
                       units=(TRIVIAL_UNIT,) * 2, ell_bar=2)
        tag, _ = classify_form(cf)
        assert tag == TOROIDAL

    def test_qtf1_with_min_row(self):
        cf = ChartForm(d=3, m=3, n=2, ell=2, s=1, tag=QTF1,
                       matrix=((1, 0), (0, 1), (0, 0)),
                       units=(TRIVIAL_UNIT,) * 3,
                       betas=(ZERO_STRATUM,), ell_bar=1)
        tag, _ = classify_form(cf)
        assert tag == QTF1

    def test_min_row_violation_rejected(self):
        cf = ChartForm(d=3, m=3, n=2, ell=2, s=1, tag=QTF1,
                       matrix=((1, 0), (0, 1), (1, 1)),
                       units=(TRIVIAL_UNIT,) * 3,
                       betas=(ZERO_STRATUM,), ell_bar=1)
        tag, diagnostics = classify_form(cf)
        assert tag is None
        assert any("column 1" in msg for _, msg in diagnostics[QTF1])

    def test_smooth(self):
        tag, _ = classify_form(smooth_chart(3, 2))
        assert tag == SMOOTH

    @pytest.mark.parametrize("tag", [QTF1, QTF2])
    def test_own_shape_accepts_what_classify_accepted(self, tag):
        # The engine's postcondition reads only the chart's own tag; before,
        # it accepted that tag or TOROIDAL from classify_form.
        rng = random.Random(337)
        verdicts = set()
        for _ in range(400):
            n, ell = rng.randint(0, 3), rng.randint(0, 3)
            s = rng.randint(1 if tag == QTF2 else 0, 2)
            betas = (ZERO_STRATUM,) * s
            if tag == QTF2:
                betas = (None,) + betas[1:]
            cf = ChartForm(d=n + ell + s + 1, m=ell + s + 1, n=n, ell=ell, s=s,
                           tag=tag, units=(TRIVIAL_UNIT,) * (ell + s), betas=betas,
                           matrix=tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                                        for _ in range(ell + s)),
                           ell_bar=rng.randint(0, ell))
            accepted = not shape_failures(cf, tag)
            assert accepted == (classify_form(cf)[0] in (tag, TOROIDAL)), cf
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_unslotted_diagnostics_match_toroidal_view(self):
        # An s = 0 adapted chart is judged as the toroidal chart with the
        # same matrix: same failure codes and messages, in the same order.
        rng = random.Random(331)
        failing = 0
        for _ in range(200):
            ell, n = rng.randint(1, 3), rng.randint(0, 3)
            matrix = tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                           for _ in range(ell))
            cf = ChartForm(d=n + 1, m=ell, n=n, ell=ell, s=0, tag=QTF1,
                           matrix=matrix, units=(TRIVIAL_UNIT,) * ell,
                           ell_bar=rng.randint(0, ell))
            view = rebuilt_chart(cf, tag=TOROIDAL, ell_bar=0)
            tag, diagnostics = classify_form(cf)
            report = verify_toroidal_form(view)
            assert (tag == TOROIDAL) == report.ok
            if not report.ok:
                assert diagnostics[TOROIDAL] == list(report.failures)
                failing += 1
        assert failing > 20


class TestDeriveCenterForm:
    def test_full_divisor_center_keeps_matrix(self):
        z = CenterDescriptor(ell_bar=2, c=2, divisor_rows=(0, 1))
        adapted, order = derive_center_form(IDENTITY, z)
        assert adapted.tag == QTF1 and adapted.s == 0
        assert adapted.matrix == IDENTITY.matrix
        assert order == (0, 1)

    def test_partial_center_appends_zero_slot(self):
        cf = toroidal([[1, 0], [0, 1]], m=3, d=3)
        z = CenterDescriptor(ell_bar=1, c=2, divisor_rows=(0,))
        adapted, order = derive_center_form(cf, z)
        assert adapted.matrix == ((1, 0), (0, 1), (0, 0))
        assert adapted.s == 1 and adapted.betas[0].is_zero
        assert column_minima(adapted) == (0, 0)
        assert order == (0, 1)

    def test_row_permutation_is_stable(self):
        cf = toroidal([[2, 0], [0, 3], [1, 1]], m=3)
        z = CenterDescriptor(ell_bar=2, c=2, divisor_rows=(2, 0))
        adapted, order = derive_center_form(cf, z)
        assert order == (0, 2, 1)
        assert adapted.matrix == ((2, 0), (1, 1), (0, 3))

    def test_smooth_point_adaptation(self):
        z = CenterDescriptor(ell_bar=0, c=2)
        adapted, _ = derive_center_form(smooth_chart(3, 2), z)
        assert adapted.tag == QTF1 and adapted.ell == 0 and adapted.s == 2
        assert adapted.matrix == ((), ())

    def test_inconsistent_descriptor(self):
        with pytest.raises(ValueError):
            derive_center_form(IDENTITY, CenterDescriptor(3, 3, (0, 1, 2)))


class TestPullbackCenterIdeal:
    def test_divisible_rows_minimalize(self):
        cf = ChartForm(d=2, m=2, n=2, ell=2, s=0, tag=QTF1,
                       matrix=((1, 0), (1, 1)),
                       units=(TRIVIAL_UNIT,) * 2, ell_bar=2)
        ideal = pullback_center_ideal(cf)
        assert ideal.gens == ((1, 0),)

    def test_identity_origin(self):
        z = CenterDescriptor(2, 2, (0, 1))
        adapted, _ = derive_center_form(IDENTITY, z)
        assert pullback_center_ideal(adapted).gens == ((0, 1), (1, 0))

    def test_slot_generator(self):
        cf = toroidal([[1, 1]], m=2, d=3)
        z = CenterDescriptor(ell_bar=1, c=2, divisor_rows=(0,))
        adapted, _ = derive_center_form(cf, z)
        ideal = pullback_center_ideal(adapted)
        assert ideal.gens == ((0, 0, 1), (1, 1, 0))

    def test_nonzero_beta_drops_slot_variable(self):
        cf = ChartForm(d=3, m=2, n=2, ell=1, s=1, tag=QTF1,
                       matrix=((1, 1), (1, 0)),
                       units=(TRIVIAL_UNIT,) * 2,
                       betas=(Stratum.generic("b"),), ell_bar=1)
        ideal = pullback_center_ideal(cf)
        assert ideal.gens == ((1, 0, 0),)


class TestExtendToGlobalForm:
    def test_block_extension(self):
        cf = toroidal([[2, 3]], m=2, d=3)
        out = extend_to_global_form(cf, 2)
        assert out.matrix == ((2, 3, 0), (0, 0, 1))
        assert out.ell == 2 and out.n == 3
        assert verify_toroidal_form(out).ok

    def test_identity_extension(self):
        assert extend_to_global_form(IDENTITY, 2) == IDENTITY

    def test_smooth_extension_to_identity(self):
        cf = ChartForm(d=2, m=2, n=0, ell=0, s=0, tag=TOROIDAL)
        out = extend_to_global_form(cf, 2)
        assert out.matrix == ((1, 0), (0, 1))

    def test_random_extension_preserves_positivity(self):
        rng = random.Random(5)
        for _ in range(50):
            cf = random_toroidal_chart(rng)
            out = extend_to_global_form(cf, cf.m)
            assert verify_toroidal_form(out).ok


class TestAlgebraProperties:
    def test_pullback_gcd_matches_row_minimum(self):
        # Full-divisor centers: the pullback's gcd is the componentwise
        # minimum of the center rows.
        rng = random.Random(313)
        for _ in range(60):
            cf = random_toroidal_chart(rng)
            z = CenterDescriptor(ell_bar=cf.ell, c=cf.ell,
                                 divisor_rows=tuple(range(cf.ell)))
            if cf.ell < 2:
                continue
            adapted, _ = derive_center_form(cf, z)
            ideal = pullback_center_ideal(adapted)
            from toroidal.monomial import gcd_generators
            mins = tuple(min(adapted.matrix[i][j] for i in range(cf.ell))
                         for j in range(cf.n))
            assert gcd_generators(ideal)[:cf.n] == mins

    def test_classify_monotone_toroidal_implies_qtf1(self):
        rng = random.Random(317)
        for _ in range(60):
            cf = random_toroidal_chart(rng)
            if verify_toroidal_form(cf).ok:
                assert not shape_failures(cf, QTF1)
