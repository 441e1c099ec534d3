import random

import pytest

from toroidal import blowup
from toroidal.blowup import (
    BlowupCenterChart,
    BlowupChartChoice,
    blowup_transform,
    check_center_snc,
    check_permissible_center,
    enumerate_blowup_strata,
)
from toroidal.chart import (
    QTF1,
    QTF2,
    CenterDescriptor,
    ChartForm,
    classify_form,
    column_minima,
    derive_center_form,
    smooth_chart,
)
from toroidal.units import Stratum, TRIVIAL_UNIT, ZERO_STRATUM
from generators import blowup_triples, permissible_center_for, random_adapted_chart
from oracles import exceptional_column_data, reference_blowup_transform


def adapted(matrix, ell_bar, s, m=None, d=None, betas=None):
    rows = len(matrix)
    ell = rows - s
    n = len(matrix[0]) if matrix else 0
    m = m if m is not None else ell + s
    d = d if d is not None else n + (m - ell)
    return ChartForm(d=d, m=m, n=n, ell=ell, s=s, tag=QTF1,
                     matrix=tuple(tuple(r) for r in matrix),
                     units=(TRIVIAL_UNIT,) * rows,
                     betas=betas if betas is not None else (ZERO_STRATUM,) * s,
                     ell_bar=ell_bar)


IDENTITY = adapted([[1, 0], [0, 1]], ell_bar=2, s=0)
FULL_CENTER = BlowupCenterChart((0, 1), 0)


def choice_for(j0, zero_vars=(), generic_vars=()):
    betas = tuple(sorted(
        [(v, ZERO_STRATUM) for v in zero_vars]
        + [(v, Stratum.generic(f"g{v}")) for v in generic_vars]))
    return BlowupChartChoice(j0=j0, betas=betas)


class TestPermissibleCenter:
    def test_distinct_rows_pass(self):
        cf = adapted([[2, 1], [1, 2]], ell_bar=2, s=0)
        ok, witness = check_permissible_center(cf, FULL_CENTER)
        assert ok and witness is None

    def test_equal_rows_fail(self):
        cf = adapted([[1, 1], [1, 1]], ell_bar=2, s=0)
        ok, witness = check_permissible_center(cf, FULL_CENTER)
        assert not ok and witness[0] == "row"

    def test_slot_identity_block(self):
        cf = adapted([[2], [0]], ell_bar=1, s=1)
        ok, _ = check_permissible_center(cf, BlowupCenterChart((0,), 1))
        assert ok

    def test_snc_codimension(self):
        assert not check_center_snc(IDENTITY, BlowupCenterChart((0,), 0)).ok
        assert not check_center_snc(IDENTITY, BlowupCenterChart((0, 5), 0)).ok
        assert check_center_snc(IDENTITY, FULL_CENTER).ok

    def test_snc_slot_rule_reported_once(self):
        cf = adapted([[2], [0]], ell_bar=1, s=1)
        for slots in (0, 2):
            report = check_center_snc(cf, BlowupCenterChart((0,), slots))
            assert [code for code, _ in report.failures if code == "slots"] == ["slots"]

    def test_permissibility_query_checks_the_center(self):
        cf = adapted([[2], [0]], ell_bar=1, s=1, betas=(Stratum.generic("g"),))
        with pytest.raises(ValueError, match="zero-strata"):
            check_permissible_center(cf, BlowupCenterChart((0,), 1))
        with pytest.raises(ValueError, match="invalid center"):
            check_permissible_center(IDENTITY, BlowupCenterChart((0,), 0))


class TestBlowupTransform:
    def test_identity_zero_stratum(self):
        result = blowup_transform(IDENTITY, FULL_CENTER, choice_for(0, zero_vars=(1,)))
        assert result.chart.matrix == ((1, 0), (1, 1))
        assert result.chart.n == 2
        assert classify_form(result.chart)[0] in (QTF1, "toroidal")

    def test_identity_generic_stratum(self):
        result = blowup_transform(IDENTITY, FULL_CENTER, choice_for(0, generic_vars=(1,)))
        cf = result.chart
        assert cf.matrix == ((1,), (1,))
        assert cf.n == 1
        assert cf.units[0] == TRIVIAL_UNIT
        assert len(cf.units[1].factors) == 1
        factor = cf.units[1].factors[0]
        # Past the active variables: divisor, slot and identity ones.
        active = cf.n + cf.num_slots + (cf.m - cf.ell - cf.s)
        assert factor.var >= active and factor.exp == 1

    def test_slot_blowup_becomes_qtf2(self):
        z = CenterDescriptor(ell_bar=0, c=2)
        cf, _ = derive_center_form(smooth_chart(3, 2), z)
        center = BlowupCenterChart((), 2)
        result = blowup_transform(cf, center, choice_for(cf.slot_var(0), zero_vars=(1,)))
        out = result.chart
        assert out.tag == QTF2
        assert out.matrix == ((1,), (1,))
        assert out.betas[0] is None and out.betas[1].is_zero
        assert out.n == 1

    def test_case1_keeps_slot_condition(self):
        cf = adapted([[2, 1], [0, 0]], ell_bar=1, s=1)
        center = BlowupCenterChart((0,), 1)
        ok, _ = check_permissible_center(cf, center)
        assert ok
        result = blowup_transform(cf, center, choice_for(0, zero_vars=(cf.slot_var(0),)))
        out = result.chart
        assert out.matrix == ((2, 1), (1, 0))
        assert column_minima(out) == out.matrix[out.ell]

    def test_rejects_nonzero_source_strata(self):
        cf = adapted([[1, 0], [0, 1], [0, 0]], ell_bar=1, s=1,
                     betas=(Stratum.generic("g"),))
        with pytest.raises(ValueError):
            blowup_transform(cf, BlowupCenterChart((0,), 1), choice_for(0))


class TestEnumerate:
    def test_two_coordinate_center_gives_four_strata(self):
        out = enumerate_blowup_strata(IDENTITY, FULL_CENTER, "b")
        assert len(out) == 4

    def test_three_coordinate_center_gives_twelve(self):
        cf = adapted([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ell_bar=3, s=0)
        out = enumerate_blowup_strata(cf, BlowupCenterChart((0, 1, 2), 0), "b")
        assert len(out) == 12

    def test_identity_strata_pairwise_distinct(self):
        out = enumerate_blowup_strata(IDENTITY, FULL_CENTER, "b")
        records = {(child.tag, child.matrix, child.betas, child.units) for _, child in out}
        assert len(records) == 4


class TestInvariants:
    def test_transform_invariants_on_random_corpus(self):
        rng = random.Random(97)
        for cf, z, center, choice, out in blowup_triples(rng, 120):
            tag, diag = classify_form(out)
            assert tag is not None, diag
            if out.s > 0:
                assert column_minima(out) == out.matrix[out.ell]

    def test_exceptional_strict_drop(self):
        rng = random.Random(101)
        for cf, z, center, choice, _ in blowup_triples(rng, 120):
            slot_value, row_sums = exceptional_column_data(cf, center)
            for value in row_sums:
                assert slot_value <= value, (cf.matrix, center)


class TestChartBuilder:
    """The one chart builder against the twin-function reference; a single
    transform builds the child its choice picks out of the enumeration,
    with the variable map and row order the reference gives."""

    @staticmethod
    def assert_matches_reference(cf, center, prefix):
        """Each (choice, child, transform) of one blowup of `cf`."""
        out = []
        for choice, child in enumerate_blowup_strata(cf, center, prefix):
            result = blowup_transform(cf, center, choice)
            ref = reference_blowup_transform(cf, center, choice)
            assert child == result.chart == ref.chart, (cf, center, choice)
            assert result.var_map == ref.var_map
            assert result.row_order == ref.row_order
            out.append((choice, child, result))
        return out

    def test_matches_reference_on_seeded_charts(self):
        rng = random.Random(4711)
        seen = {"qtf1": 0, "qtf2": 0, "factors_added": 0, "factors_remapped": 0}
        charts = 0
        while charts < 150:
            pair = random_adapted_chart(rng)
            if pair is None:
                continue
            cf, _ = pair
            center = permissible_center_for(cf)
            if center is None:
                continue
            charts += 1
            for choice, child, _ in self.assert_matches_reference(cf, center, f"c{charts}"):
                seen[child.tag] += 1
                if any(v < cf.n and not b.is_zero for v, b in choice.betas):
                    assert (sum(len(u.factors) for u in child.units)
                            > sum(len(u.factors) for u in cf.units))
                    seen["factors_added"] += 1
                if child.tag != QTF1 or not all(b.is_zero for b in child.betas):
                    continue
                # A zero-beta child is blown up again: the factors its
                # units already carry must follow the new variable order.
                inner = permissible_center_for(child)
                if inner is None:
                    continue
                for _, _, grandchild in self.assert_matches_reference(
                        child, inner, f"c{charts}.{choice.j0}"):
                    if any(grandchild.var_map[f.var] != f.var
                           for u in child.units for f in u.factors):
                        seen["factors_remapped"] += 1
        assert all(seen.values()), seen

    def test_center_checked_once_per_blowup(self, monkeypatch):
        calls = []
        original = blowup.check_center_snc

        def counting(cf, center):
            calls.append(center)
            return original(cf, center)

        monkeypatch.setattr(blowup, "check_center_snc", counting)
        cf = adapted([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ell_bar=3, s=0)
        out = enumerate_blowup_strata(cf, BlowupCenterChart((0, 1, 2), 0), "b")
        assert len(out) == 12 and len(calls) == 1
        blowup_transform(cf, BlowupCenterChart((0, 1, 2), 0), out[0][0])
        assert len(calls) == 2

    def test_transform_still_validates_choice(self):
        with pytest.raises(ValueError, match="not a center coordinate"):
            blowup_transform(IDENTITY, FULL_CENTER, choice_for(5, zero_vars=(1,)))
        with pytest.raises(ValueError, match="cover exactly"):
            blowup_transform(IDENTITY, FULL_CENTER, choice_for(0))
